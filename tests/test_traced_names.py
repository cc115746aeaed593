"""Every function the benchmark's span tracer patches must exist.

`socialbench/spans.py` lists the traced `(module, function)` pairs in
`TRACED`, and `Tracer.install` looks each one up with `getattr` on
`socialseq.<module>`; a renamed or deleted function breaks every traced
benchmark run. The tier-1 suite does not run the benchmark, so this test
reads `TRACED` from the file and resolves each name.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "socialbench" / "spans.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("socialbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


TRACED = traced_names()


@pytest.mark.parametrize("mod_name, fn_name", TRACED,
                         ids=[f"{m}.{f}" for m, f in TRACED])
def test_traced_function_resolves(mod_name, fn_name):
    module = importlib.import_module(f"socialseq.{mod_name}")
    assert callable(getattr(module, fn_name, None)), f"socialseq.{mod_name}.{fn_name} is gone"
