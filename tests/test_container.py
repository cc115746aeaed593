"""The JSON layer: records encode to plain JSON values."""

import json

import pytest

from socialseq.model import Arch
from socialseq.splits import select_splits
from socialseq.synth import SynthConfig, generate_corpus
from socialseq.training import TrainConfig, report_from_predictions


def assert_plain(value):
    """Only dicts with str keys, lists, strs, numbers, bools and None."""
    if isinstance(value, dict):
        assert all(type(k) is str for k in value)
        for v in value.values():
            assert_plain(v)
    elif isinstance(value, list):
        for v in value:
            assert_plain(v)
    else:
        assert type(value) in (str, int, float, bool, type(None)), repr(value)


def _split_suite():
    ds = generate_corpus(SynthConfig(n_sequences=18, users=3, days_per_user=2, max_len=3))
    return select_splits(ds.sequences, n_candidates=16, k=2, seed=0)


@pytest.mark.parametrize("make", [
    lambda: TrainConfig(arch=Arch.MT_TD),
    lambda: report_from_predictions([0, 1, 2, 2], [0, 2, 2, 1], 3, "domain-direct"),
    _split_suite,
], ids=["train-config", "eval-report", "split-suite"])
def test_to_json_is_plain_and_round_trips(make):
    obj = make().to_json()
    assert_plain(obj)
    assert json.loads(json.dumps(obj)) == obj
