"""The benchmark's own model-API checks, run in the tier-1 suite.

`socialbench/workloads.py` warms up with a tiny `train`, `forward` and
`evaluate`, and checks `model.backward` against central finite
differences through `model.forward` and `model.joint_loss`. A signature
change to any of them should fail here, not in every benchmark run.
"""

import importlib
from pathlib import Path

SOCIALBENCH = Path(__file__).resolve().parent.parent / "socialbench"


def test_warm_up_and_gradient_check_pass(monkeypatch):
    monkeypatch.syspath_prepend(str(SOCIALBENCH))  # workloads imports its sibling `spans`
    workloads = importlib.import_module("workloads")
    workloads.warm_up()
    ledger = workloads.Ledger()
    workloads.gradient_check(3, ledger)
    assert ledger.problems == []
