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


def _edit_blocks(pattern, edit):
    def mutate(raw):
        for path in raw.glob(f"blocks/{pattern}"):
            path.write_text(edit(path.read_text()))
    return mutate


def _edit_manifest_entry(name, **fields):
    def mutate(raw):
        path = raw / "manifest.json"
        manifest = json.loads(path.read_text())
        for entry in manifest["entries"]:
            if entry["name"] == name:
                entry.update(fields)
        path.write_text(json.dumps(manifest))
    return mutate


def _drop_columns(keep):
    return lambda text: "".join(" ".join(line.split()[:keep]) + "\n"
                                for line in text.splitlines())


# (case, mutation of a write_raw_corpus directory, text the error must name)
MALFORMED_RAW = [
    ("wearer-empty", _set_first_record("wearer", {}), "'seq0000'"),
    ("wearer-string", _set_first_record("wearer", "x"), "'seq0000'"),
    ("age-string", _set_first_record("wearer", {"age": "1", "gender": 0}), "'seq0000'"),
    ("age-float", _set_first_record("wearer", {"age": 1.5, "gender": 0}), "'seq0000'"),
    # the wearer check comes before any block file is read
    ("age-out-of-range", _both(_set_first_record("wearer", {"age": 9, "gender": 0}),
                               lambda raw: (raw / "blocks" / "seq0001__clothing.txt").unlink()),
     "'seq0000': wearer-age category 9"),
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
    ("block-missing", lambda raw: (raw / "blocks" / "seq0001__clothing.txt").unlink(),
     "seq0001__clothing.txt"),
    ("block-one-row-short",
     _edit_blocks("seq0002__activities.txt", lambda text: text[:text.rindex("\n", 0, -1) + 1]),
     "'seq0002': blocks disagree on frame count"),
    ("block-text", _edit_blocks("seq0001__clothing.txt", lambda text: "abc def\n"),
     "seq0001__clothing.txt"),
    ("block-nan", _edit_blocks("seq0001__clothing.txt",
                               lambda text: "nan" + text[text.index(" "):]),
     "seq0001__clothing.txt"),
    ("block-one-column-narrower", _edit_blocks("seq0002__activities.txt", _drop_columns(55)),
     "seq0002__activities.txt"),
    ("block-empty", _edit_blocks("seq0001__proximity.txt", lambda text: ""),
     "seq0001__proximity.txt"),
    ("cnn-narrower-than-manifest", _edit_blocks("*__activities.txt", _drop_columns(40)),
     "'activities'"),
    ("proximity-narrower-than-manifest", _edit_blocks("*__proximity.txt", _drop_columns(1)),
     "'proximity'"),
]
