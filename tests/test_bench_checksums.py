"""Every output the benchmark checks matches the checksum recorded in
``bench/spec.json``: one pass of each workload at its spec sizes on the
spec's default seed. The checksums guard the fixed-seed outputs of the whole
path (synth, extract, LOSOCV of every kind, SFS, RFECV and SHAP), so a
change that moves one bit of them fails here."""

import importlib.util
import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
SPEC = json.loads((BENCH / "spec.json").read_text(encoding="utf-8"))


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("name", sorted(SPEC["workloads"]))
def test_outputs_match_spec_checksums(name, tmp_path):
    declared = SPEC["workloads"][name]
    workload = load_workloads()[name]
    inputs = workload.setup(SPEC["default_seed"], declared["sizes"], str(tmp_path))
    pass_dir = tmp_path / "pass"
    pass_dir.mkdir()
    outputs = {op: call() for op, call in workload.operations(inputs, str(pass_dir)).items()}
    checked = workload.check(inputs, outputs)
    assert {op: problems for op, (_, problems) in checked.items() if problems} == {}
    assert {op: digest for op, (digest, _) in checked.items()} == declared["checksums"]
