"""Benchmark of the timesense pipeline, run from the repository root:

    python3 bench/run.py --workload losocv --seed 7 --seconds 15 --trace 0

It imports the package from ``src/`` of the same checkout, builds the
workload's inputs from ``--seed`` (``setup_s``), then repeats measured passes
for ``--seconds`` seconds and checks every output of every pass against the
invariants of ``workloads.py`` and, on the default seed, against the sha256
checksums recorded in ``spec.json``. An unmeasured pass comes first. The
measured passes start no pass that would end past ``--seconds``, but always
make one (one of each with ``--trace 1``). With
``--trace 1`` every second pass runs with the layer wrappers of
``tracing.py`` installed, and the per-layer metrics come from those passes:
their span times leave out the speed sampler's time and are scaled by the
traced pass's mean speed, like the end-to-end times.

``run_s`` and ``cpu_s`` are the medians over the run's untraced passes;
``setup_s`` is the import time plus the median of ``SETUP_REPEATS`` builds.
Every time the benchmark reports is measured while ``reference.SpeedSampler``
samples the machine's speed, and is given at the reference speed (see
``reference.py``); the report line also holds the plain wall-clock values
(``wall_*``). Standard output ends with two JSON lines: a report with
quartiles, sample counts, per-operation times, the environment and every
checksum, then the result object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. CPU frequency and core affinity are not pinned,
so compare numbers from one machine only.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

import reference
import tracing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
TMP_ROOT = os.path.join(ROOT, ".bench_tmp")
SETUP_REPEATS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def cap_blas_threads():
    """Run BLAS single-threaded; must run before numpy loads. Returns nproc.

    One thread stays within the cap of one thread per CPU this process may
    use. The matrices here are at most a few thousand rows by 24 columns: on
    2 CPUs a second BLAS thread made kernel SHAP no faster, doubled its CPU
    time and slowed it up to 2.5x whenever another process held a CPU.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def load_program():
    """Import the package from this checkout's src/."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import timesense
    if not os.path.abspath(timesense.__file__).startswith(SRC + os.sep):
        raise ImportError(f"timesense was imported from {timesense.__file__}, not {SRC}")
    import workloads  # noqa: F401  (imports the rest of the package)


def load_spec():
    with open(os.path.join(BENCH_DIR, "spec.json"), encoding="utf-8") as fh:
        return json.load(fh)


def summary(values):
    """Median, quartiles and sample count of a list of measurements."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def environment(nproc):
    import numpy
    import scipy
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads_cap": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "machine": platform.machine(),
        "cpu_frequency_pinned": False,
        "core_affinity_pinned": False,
        "speed_sample_period_s": reference.PERIOD_S,
        "reference_block_nominal_s": reference.NOMINAL_S,
    }


def _cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_workload(name, seed, seconds, trace, sizes, expected, sampler, imported=None):
    """Set up and measure one workload while ``sampler`` runs; returns
    (report, result). ``imported`` holds the sampler's marks from before and
    after the package's import, which set-up time includes."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    os.makedirs(TMP_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=TMP_ROOT)
    import_s = sampler.at_reference_speed(*imported) if imported else 0.0
    import_wall = imported[1].wall - imported[0].wall if imported else 0.0
    try:
        setup, setup_wall = [], []
        for _ in range(SETUP_REPEATS):
            m0 = sampler.mark()
            inputs = workload.setup(seed, sizes, workdir)
            m1 = sampler.mark()
            setup.append(import_s + sampler.at_reference_speed(m0, m1))
            setup_wall.append(import_wall + m1.wall - m0.wall)

        tracer = tracing.Tracer(clock=sampler.clock)
        untraced, traced, layers = [], [], []
        first_digests, problems = {}, []
        attempted = failed = 0
        # The first pass warms caches and lazy imports up; its outputs are
        # checked like the others', its times are not used.
        warm = False
        while True:
            is_traced = trace and warm and len(untraced) > len(traced)
            pass_start = sampler.mark()
            pass_dir = tempfile.mkdtemp(prefix="pass-", dir=workdir)
            tracer.reset()
            outputs, times = {}, {}
            with tracer.installed() if is_traced else contextlib.nullcontext():
                for op, call in workload.operations(inputs, pass_dir).items():
                    m0, c0 = sampler.mark(), _cpu_seconds()
                    outputs[op] = call()
                    m1, cpu = sampler.mark(), _cpu_seconds() - c0
                    times[op] = {"run_s": sampler.at_reference_speed(m0, m1),
                                 "cpu_s": sampler.at_reference_speed(m0, m1, cpu),
                                 "wall_run_s": m1.wall - m0.wall, "wall_cpu_s": cpu}
            if warm:
                (traced if is_traced else untraced).append(times)
            if is_traced:
                speed = sampler.speed(pass_start, sampler.mark())
                layers.append({m: v * speed if tracing.LAYER_UNITS[m] == "s" else v
                               for m, v in tracing.layer_metrics(tracer.spans).items()})
            for op, (digest, op_problems) in sorted(workload.check(inputs, outputs).items()):
                attempted += 1
                first = first_digests.setdefault(op, digest)
                if digest != first:
                    op_problems = op_problems + ["output differs from the run's first pass"]
                if expected is not None and digest != expected.get(op):
                    op_problems = op_problems + ["checksum differs from spec.json"]
                if op_problems:
                    failed += 1
                    problems += [f"{op}: {p}" for p in op_problems]
            shutil.rmtree(pass_dir)
            now = time.perf_counter()
            if not warm:
                warm, start = True, now
            # Stop once another pass like this one would end past ``seconds``.
            elif now - start + (now - pass_start.wall) > seconds and (not trace or traced):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass

    def per_pass(passes, key):
        return summary([sum(t[key] for t in p.values()) for p in passes])

    detail = {key: per_pass(untraced, key)
              for key in ("run_s", "cpu_s", "wall_run_s", "wall_cpu_s")}
    detail["setup_s"] = summary(setup)
    detail["wall_setup_s"] = summary(setup_wall)
    detail["peak_rss_mb"] = summary([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0])
    speeds = [reference.NOMINAL_S / s for s in sampler.block_s]
    detail["speed"] = {**summary(speeds), "min": min(speeds), "max": max(speeds)}
    if trace:
        detail["traced_run_s"] = per_pass(traced, "run_s")
        per_layer = {m: statistics.median(p[m] for p in layers) for m in tracing.LAYER_UNITS}
        per_layer["trace_overhead_frac"] = (detail["traced_run_s"]["median"]
                                            / detail["run_s"]["median"] - 1.0)
        metrics = {m: {"value": v, "unit": tracing.LAYER_UNITS.get(m, "fraction")}
                   for m, v in per_layer.items()}
    else:
        metrics = {m: {"value": detail[m]["median"], "unit": u}
                   for m, u in END_TO_END_UNITS.items()}
    report = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "sizes": sizes,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "operation_run_s": {op: [p[op]["run_s"] for p in untraced] for op in untraced[0]},
        "summary": detail,
        "failed_frac": failed / attempted,
        "checksums": first_digests,
        "checksums_checked_against_spec": expected is not None,
        "problems": problems,
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return report, result


def main(argv=None):
    nproc = cap_blas_threads()
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    parser.add_argument("--seed", type=int, default=spec["default_seed"])
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with reference.SpeedSampler() as sampler:
        m0 = sampler.mark()
        try:
            load_program()
        except ImportError as exc:
            print(f"error: cannot import the package from {SRC}: {exc}", file=sys.stderr)
            return 2
        imported = (m0, sampler.mark())
        wl = spec["workloads"][args.workload]
        expected = wl["checksums"] if args.seed == spec["default_seed"] else None
        report, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                      wl["sizes"], expected, sampler, imported)
    report["environment"] = environment(nproc)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
