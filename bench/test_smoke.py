"""Smoke test of the benchmark: every workload once, untraced and traced, at
a tiny size. Run from the repository root:

    python3 -m pytest bench/test_smoke.py -q
"""

import json
import os
import re
import signal

import pytest

import reference
import run

run.load_program()

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {
    "extract": {"participants": 2, "sessions_per_participant": 2},
    "losocv": {"corpus": "zero_margin", "participants": 3, "corpora": 2},
    "select": {"corpus": "strong", "participants": 3, "losocv_sfs_n_features": 2,
               "svc_sfs_n_features": 1, "svc_sfs_corpora": 2,
               "svc_sfs_participants": 2},
    "explain": {"corpus": "strong", "participants": 2, "lr_n_samples": 64, "rf_n_samples": 32},
}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)
SPEC = run.load_spec()


def test_workloads_agree():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert sorted(names) == sorted(SPEC["workloads"]) == sorted(WORKLOADS) == sorted(TINY)
    for name in names:
        assert set(TINY[name]) == set(SPEC["workloads"][name]["sizes"])


def test_per_layer_table_covers_every_metric():
    assert [e["metric"] for e in SPEC["per_layer"]] == [m["name"] for m in BENCHMARK["per_layer"]]


@pytest.mark.parametrize("workload", sorted(TINY))
def test_workload_emits_every_metric_and_unwraps(workload):
    sizes = TINY[workload]
    with reference.SpeedSampler() as sampler:
        report, result = run.run_workload(workload, 7, 0, False, sizes, None, sampler)
        traced_report, traced = run.run_workload(workload, 7, 0, True, sizes, None, sampler)
    assert result["correct"], report["problems"]
    assert traced["correct"], traced_report["problems"]
    assert traced_report["passes"] == {"untraced": 1, "traced": 1}

    for emitted, declared in ((result, "end_to_end"), (traced, "per_layer")):
        units = {m["name"]: m["unit"] for m in BENCHMARK[declared]}
        assert {m: v["unit"] for m, v in emitted["metrics"].items()} == units
    for name in list(result["metrics"]) + list(traced["metrics"]):
        assert NAME.fullmatch(name), name

    assert tracing.wrapped_bindings() == []
    with reference.SpeedSampler() as sampler:
        again_report, again = run.run_workload(workload, 7, 0, False, sizes, None, sampler)
    assert again["correct"], again_report["problems"]
    assert again_report["checksums"] == traced_report["checksums"] == report["checksums"]


def test_speed_sampler_rescales_and_uninstalls():
    handler = signal.getsignal(signal.SIGALRM)
    with reference.SpeedSampler() as sampler:
        m0 = sampler.mark()
        while len(sampler.block_s) - m0.samples < 4:
            reference.block()
        m1 = sampler.mark()
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    own = m1.in_sampler - m0.in_sampler
    assert 0 < own < m1.wall - m0.wall
    speed = sampler.speed(m0, m1)
    assert speed == pytest.approx(sum(reference.NOMINAL_S / s for s in sampler.block_s[m0.samples:])
                                  / (m1.samples - m0.samples))
    assert sampler.at_reference_speed(m0, m1) == pytest.approx((m1.wall - m0.wall - own) * speed)
