"""Shared test utilities: the finite-difference gradient oracle, the
per-draw split references, and a small raw corpus with the malformed
variants that ingest must reject."""

import json

import numpy as np

from socialseq.dataset import ValidationError
from socialseq.model import forward, joint_loss
from socialseq.numerics import Rng
from socialseq.splits import SplitSuite, group_by_user_day, make_plan
from socialseq.synth import SynthConfig, generate_raw_corpus


def finite_difference_grads(model, frames, labels, weights, l2, mask=None, eps=1e-5):
    """Central finite differences of joint_loss w.r.t. every parameter."""
    out = {}

    def loss():
        return joint_loss(forward(model, frames, mask), labels, weights, l2, model)

    for name, arr in model.named_arrays():
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + eps
            lp = loss()
            arr[idx] = orig - eps
            lm = loss()
            arr[idx] = orig
            g[idx] = (lp - lm) / (2 * eps)
        out[name] = g
    return out


def worst_relative_error(analytic, numeric, floor=1e-6):
    worst = 0.0
    for name, g in analytic.items():
        f = numeric[name]
        rel = np.abs(g - f) / np.maximum(np.maximum(np.abs(g), np.abs(f)), floor)
        worst = max(worst, float(rel.max()))
    return worst


def assert_grads_close(analytic, numeric, tol=1e-4):
    for name, g in analytic.items():
        f = numeric[name]
        rel = np.abs(g - f) / np.maximum(np.maximum(np.abs(g), np.abs(f)), 1e-6)
        assert rel.max() < tol, f"{name}: worst rel err {rel.max():.2e}"


def greedy_reference(groups, ratio, order):
    """The proposal rule written out over DayGroups: fill train in draw
    order while it is below ratio * total, and move the last drawn group to
    val when every group landed in train."""
    target = ratio * sum(g.size for g in groups)
    train, val, filled = [], [], 0
    for idx in order:
        if filled < target:
            train.append(groups[idx])
            filled += groups[idx].size
        else:
            val.append(groups[idx])
    if not val:
        val.append(train.pop())
    return train, val


def select_splits_reference(sequences, n_candidates, k, ratio, seed):
    """`select_splits` one draw at a time: each candidate is a twin-Rng
    permutation through `greedy_reference` and scored alone by `make_plan`;
    the first draw of each train side wins, ranked by (kl, draw index)."""
    groups = group_by_user_day(sequences)
    if len(groups) < 3:
        raise ValidationError("need at least 3 (user, day) groups to split twice")

    def best(pool, rng, keep):
        first = {}
        for i in range(n_candidates):
            plan = make_plan(*greedy_reference(pool, ratio, rng.permutation(len(pool))), ratio)
            first.setdefault(frozenset(plan.train_groups), (plan.kl_score, i, plan))
        return [plan for _, _, plan in sorted(first.values(), key=lambda t: t[:2])[:keep]]

    rng = Rng(seed)
    outer = best(groups, rng.split("outer"), 1)[0]
    pool = [g for g in groups if g.key in set(outer.train_groups)]
    if len(pool) < 2:
        raise ValidationError("outer train pool has too few groups for inner splits")
    inner = best(pool, rng.split("inner"), k)
    if len(inner) < k:
        raise ValidationError(f"only {len(inner)} distinct inner splits found, need k={k}")
    return SplitSuite(outer=outer, inner=tuple(inner), n_candidates=n_candidates, k=k,
                      ratio=ratio, seed=seed)


def write_raw_corpus(raw_dir):
    """24 records of 5-8 frames in 6 (user, day) groups, raw CNN width 56."""
    cfg = SynthConfig(n_sequences=24, users=2, days_per_user=3, min_len=5, max_len=8,
                      domain_sep=2.0, relation_sep=2.0, seed=3)
    generate_raw_corpus(cfg, raw_dir, raw_cnn_width=56)
    return raw_dir


def _edit_records(edit):
    def mutate(raw):
        path = raw / "sequences.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    return mutate


def _set_first_record(field, value):
    def edit(meta):
        meta["sequences"][0][field] = value
        return meta
    return _edit_records(edit)


def _both(*mutations):
    def mutate(raw):
        for mutation in mutations:
            mutation(raw)
    return mutate


def _block(raw, name):
    return raw / "blocks" / f"{name}.npy"


def _edit_block(name, edit):
    def mutate(raw):
        np.save(_block(raw, name), edit(np.load(_block(raw, name))))
    return mutate


def _unlink_block(name):
    return lambda raw: _block(raw, name).unlink()


def _write_block_bytes(name, data: bytes):
    return lambda raw: _block(raw, name).write_bytes(data)


class _OpensMarker:
    """Unpickles into open(marker, "w"), so a loader that unpickles it
    leaves the marker file behind."""

    def __init__(self, marker):
        self.marker = str(marker)

    def __reduce__(self):
        return (open, (self.marker, "w"))


UNPICKLED_MARKER = "unpickled"  # under the raw directory


def _write_object_block(name):
    def mutate(raw):
        payload = np.array([[_OpensMarker(raw / UNPICKLED_MARKER)]], dtype=object)
        np.save(_block(raw, name), payload, allow_pickle=True)
    return mutate


def _write_npz_block(name):
    def mutate(raw):
        block = np.load(_block(raw, name))
        with open(_block(raw, name), "wb") as fh:  # np.savez would append .npz
            np.savez(fh, block=block)
    return mutate


def _truncate_block(name, keep):
    def mutate(raw):
        path = _block(raw, name)
        path.write_bytes(path.read_bytes()[:keep])
    return mutate


def _first_row_nan(a):
    a = a.copy()
    a[0, 0] = np.nan
    return a


def _edit_manifest_entry(name, **fields):
    def mutate(raw):
        path = raw / "manifest.json"
        manifest = json.loads(path.read_text())
        for entry in manifest["entries"]:
            if entry["name"] == name:
                entry.update(fields)
        path.write_text(json.dumps(manifest))
    return mutate


def _drop_first_record_frames(meta):
    del meta["sequences"][0]["frames"]
    return meta


def _repeat_first_id(meta):
    meta["sequences"][1]["id"] = meta["sequences"][0]["id"]
    return meta


# (case, mutation of a write_raw_corpus directory, text the error must name)
MALFORMED_RAW = [
    ("wearer-empty", _set_first_record("wearer", {}), "'seq0000'"),
    ("wearer-string", _set_first_record("wearer", "x"), "'seq0000'"),
    ("age-string", _set_first_record("wearer", {"age": "1", "gender": 0}), "'seq0000'"),
    ("age-float", _set_first_record("wearer", {"age": 1.5, "gender": 0}), "'seq0000'"),
    # the record checks come before any block file is read
    ("age-out-of-range", _both(_set_first_record("wearer", {"age": 9, "gender": 0}),
                               _unlink_block("clothing")),
     "'seq0000': wearer-age category 9"),
    ("duplicate-id", _both(_edit_records(_repeat_first_id), _unlink_block("clothing")),
     "duplicate record id 'seq0000'"),
    ("frames-missing", _edit_records(_drop_first_record_frames),
     "'seq0000': missing fields ['frames']"),
    ("frames-zero", _set_first_record("frames", 0), "'seq0000'"),
    ("frames-float", _set_first_record("frames", 2.5), "'seq0000'"),
    ("frames-string", _set_first_record("frames", "10"), "'seq0000'"),
    ("frames-bool", _set_first_record("frames", True), "'seq0000'"),
    ("relation-list", _set_first_record("relation", []), "'seq0000'"),
    ("top-level-list", _edit_records(lambda meta: meta["sequences"]), "sequences.json"),
    ("manifest-entries-not-a-list",
     lambda raw: (raw / "manifest.json").write_text('{"entries": 5}'), "manifest.json"),
    ("manifest-width-string", _edit_manifest_entry("proximity", width="abc"),
     "manifest.json: manifest entry 'proximity'"),
    ("manifest-width-float", _edit_manifest_entry("proximity", width=2.7),
     "manifest.json: manifest entry 'proximity'"),
    ("manifest-is-cnn-string", _edit_manifest_entry("proximity", is_cnn="false"),
     "manifest.json: manifest entry 'proximity'"),
    ("block-missing", _unlink_block("clothing"), "clothing.npy"),
    ("block-one-row-short", _edit_block("activities", lambda a: a[:-1]),
     "activities.npy: 156 rows, the records' frames sum to 157"),
    ("block-text", _write_block_bytes("clothing", b"abc def\n"), "clothing.npy"),
    ("block-nan", _edit_block("clothing", _first_row_nan), "clothing.npy"),
    ("block-empty", _write_block_bytes("proximity", b""), "proximity.npy"),
    ("block-npz", _write_npz_block("clothing"), "clothing.npy"),
    ("block-npz-truncated", _both(_write_npz_block("clothing"), _truncate_block("clothing", 100)),
     "clothing.npy"),
    ("block-truncated", _truncate_block("clothing", -8), "clothing.npy"),
    ("block-1d", _edit_block("clothing", np.ravel), "clothing.npy"),
    ("block-complex", _edit_block("clothing", lambda a: a.astype(complex)), "clothing.npy"),
    ("block-object", _write_object_block("clothing"), "clothing.npy"),
    ("cnn-narrower-than-manifest", _edit_block("activities", lambda a: a[:, :40]),
     "'activities'"),
    ("proximity-narrower-than-manifest", _edit_block("proximity", lambda a: a[:, :1]),
     "'proximity'"),
]
