"""The benchmark's own checks, run in the tier-1 suite.

`socialbench/workloads.py` warms up with a tiny `train`, `forward` and
`evaluate`, and checks `model.backward` against central finite
differences through `model.forward` and `model.joint_loss`. Each workload
then builds its inputs (for `pipeline`, a raw corpus written by
`synth.generate_raw_corpus`) and runs its job through the library and the
CLI. A change to any of these that breaks the benchmark should fail here,
not in every benchmark run.
"""

import importlib
from pathlib import Path

import pytest

SOCIALBENCH = Path(__file__).resolve().parent.parent / "socialbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(SOCIALBENCH))  # workloads imports its sibling `spans`
    return importlib.import_module("workloads")


def test_warm_up_and_gradient_check_pass(workloads):
    workloads.warm_up()
    ledger = workloads.Ledger()
    workloads.gradient_check(3, ledger)
    assert ledger.problems == []


@pytest.mark.parametrize("name", ["train-h128", "grid-h16", "pipeline"])
def test_tiny_workload_sets_up_and_runs_cleanly(workloads, tmp_path, name):
    w = workloads.WORKLOADS[name]("tiny")
    ledger = workloads.Ledger()
    outcome = w.job(w.setup(3, tmp_path), ledger)
    assert ledger.problems == []
    assert outcome is not None and ledger.failed == 0
