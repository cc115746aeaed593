"""Grouped repeated-random-sub-sampling split selection.

Sequences recorded on the same (user, day) stay together on one side of
every split, so overlapping segments of the same interaction can never
leak across sides. Many random candidate splits are drawn and the ones
with minimal KL divergence between the per-side relation distributions
are kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from socialseq.container import Record, read_json, write_json
from socialseq.dataset import SocialSequence, ValidationError
from socialseq.numerics import Rng, kl_divergence
from socialseq.taxonomy import N_RELATIONS

KL_EPS = 1e-8
RATIO_TOLERANCE = 0.05  # flagged (not rejected) when group sizes can't meet it


@dataclass(frozen=True, eq=False)
class DayGroup:
    """All sequences one user recorded on one day, with relation counts."""

    user: str
    day: str
    sequence_ids: tuple[str, ...]
    label_counts: np.ndarray  # [9]

    @property
    def key(self) -> tuple[str, str]:
        return (self.user, self.day)

    @property
    def size(self) -> int:
        return len(self.sequence_ids)


def group_by_user_day(sequences: Sequence[SocialSequence]) -> list[DayGroup]:
    """Partition sequences by exact (user, day) key, in sorted key order."""
    buckets: dict[tuple[str, str], list[SocialSequence]] = {}
    for s in sequences:
        if not s.user or not s.day:
            raise ValidationError(f"sequence {s.id!r}: missing user/day provenance")
        buckets.setdefault(s.group_key, []).append(s)
    groups = []
    for key in sorted(buckets):
        members = buckets[key]
        counts = np.zeros(N_RELATIONS)
        for s in members:
            counts[s.relation] += 1
        groups.append(DayGroup(
            user=key[0], day=key[1],
            sequence_ids=tuple(s.id for s in members),
            label_counts=counts,
        ))
    return groups


@dataclass(eq=False)
class SplitPlan(Record):
    """One candidate assignment of whole groups to a train and a val side.
    A drawn plan has no distributions or score until `score_plans` fills
    them in."""

    train_groups: tuple[tuple[str, str], ...]
    val_groups: tuple[tuple[str, str], ...]
    train_size: int
    val_size: int
    ratio_target: float
    achieved_ratio: float
    ratio_ok: bool
    train_dist: np.ndarray | None = None
    val_dist: np.ndarray | None = None
    kl_score: float = float("nan")

    @classmethod
    def from_json(cls, obj: dict) -> "SplitPlan":
        return cls(
            train_groups=tuple(tuple(k) for k in obj["train_groups"]),
            val_groups=tuple(tuple(k) for k in obj["val_groups"]),
            train_size=obj["train_size"],
            val_size=obj["val_size"],
            train_dist=np.asarray(obj["train_dist"]),
            val_dist=np.asarray(obj["val_dist"]),
            ratio_target=obj["ratio_target"],
            achieved_ratio=obj["achieved_ratio"],
            ratio_ok=obj["ratio_ok"],
            kl_score=obj["kl_score"],
        )


@dataclass(frozen=True, eq=False)
class GroupTable:
    """The groups of one split pool as columns, built once and shared by
    every proposal drawn over that pool."""

    keys: tuple[tuple[str, str], ...]
    sizes: tuple[int, ...]
    label_counts: np.ndarray  # [G, 9]
    label_total: np.ndarray  # [9], column sums of label_counts
    total: int

    @classmethod
    def of(cls, groups: Sequence[DayGroup]) -> "GroupTable":
        counts = np.array([g.label_counts for g in groups])
        sizes = tuple(g.size for g in groups)
        return cls(keys=tuple(g.key for g in groups), sizes=sizes,
                   label_counts=counts, label_total=counts.sum(axis=0), total=sum(sizes))


def _unscored_plan(train_groups, val_groups, train_size, val_size, ratio) -> SplitPlan:
    achieved = train_size / (train_size + val_size)
    return SplitPlan(
        train_groups=train_groups,
        val_groups=val_groups,
        train_size=train_size,
        val_size=val_size,
        ratio_target=ratio,
        achieved_ratio=achieved,
        ratio_ok=abs(achieved - ratio) <= RATIO_TOLERANCE,
    )


def score_plans(table: GroupTable, plans: Sequence[SplitPlan]) -> None:
    """Fill in `train_dist`, `val_dist` and `kl_score` of plans whose groups
    are rows of `table`, in one pass over all of them.

    The score is the smoothed KL divergence of the train (majority) side's
    relation distribution from the val side's. Train counts are a 0/1
    membership matrix times the label counts and val counts the remainder;
    the counts are integers, so both are exact in any order, and each row
    equals the N=1 case bit for bit."""
    row = {key: i for i, key in enumerate(table.keys)}
    member = np.zeros((len(plans), len(table.keys)))
    for n, plan in enumerate(plans):
        member[n, [row[key] for key in plan.train_groups]] = 1.0
    train = member @ table.label_counts
    val = table.label_total - train
    train_n = train.sum(axis=1, keepdims=True)
    val_n = val.sum(axis=1, keepdims=True)
    if not (train_n.all() and val_n.all()):
        raise ValidationError("cannot score a split with an empty side")
    train /= train_n
    val /= val_n
    kl = kl_divergence(train, val, eps=KL_EPS)
    for plan, p, q, score in zip(plans, train, val, kl.tolist()):
        plan.train_dist, plan.val_dist, plan.kl_score = p, q, score


def make_plan(train: list[DayGroup], val: list[DayGroup], ratio: float) -> SplitPlan:
    """The scored plan for a given assignment of groups to sides; the plain
    reference that drawn and scored plans must agree with."""
    plan = _unscored_plan(tuple(g.key for g in train), tuple(g.key for g in val),
                          sum(g.size for g in train), sum(g.size for g in val), ratio)
    score_plans(GroupTable.of(list(train) + list(val)), [plan])
    return plan


def propose_split(table: GroupTable, ratio: float, rng: Rng) -> SplitPlan:
    """Draw one unscored plan: shuffle the groups with one
    `rng.permutation` and greedily fill the train side up to
    ratio * total sequences; the remainder is the val side. Both sides
    keep draw order.

    The achieved ratio is reported honestly and flagged when the group
    granularity puts it outside the tolerance. Once `score_plans` has
    scored it, the plan equals `make_plan` on the same sides, bit for bit."""
    if len(table.keys) < 2:
        raise ValidationError("need at least 2 groups to split")
    if not 0.0 < ratio < 1.0:
        raise ValidationError(f"ratio must be in (0, 1), got {ratio}")
    target = ratio * table.total
    order = rng.permutation(len(table.keys)).tolist()
    sizes = table.sizes
    # Train is the prefix of the order up to the first group that reaches
    # the target; the first group always goes to train, as target > 0.
    n_train = train_size = 0
    for idx in order:
        if train_size >= target:
            break
        train_size += sizes[idx]
        n_train += 1
    if n_train == len(order):  # every group landed in train: the last drawn one is val
        n_train -= 1
        train_size -= sizes[order[-1]]
    keys = table.keys
    return _unscored_plan(
        tuple([keys[i] for i in order[:n_train]]),
        tuple([keys[i] for i in order[n_train:]]),
        train_size,
        table.total - train_size,
        ratio,
    )


@dataclass(eq=False)
class SplitSuite(Record):
    """Outer (train+val | test) split plus K inner cross-validation splits
    of the train+val pool. The outer val side is the held-out test set."""

    outer: SplitPlan
    inner: tuple[SplitPlan, ...]
    n_candidates: int
    k: int
    ratio: float
    seed: int

    def to_json(self) -> dict:
        return {"kind": "split-suite", **super().to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "SplitSuite":
        return cls(
            outer=SplitPlan.from_json(obj["outer"]),
            inner=tuple(SplitPlan.from_json(p) for p in obj["inner"]),
            n_candidates=obj["n_candidates"],
            k=obj["k"],
            ratio=obj["ratio"],
            seed=obj["seed"],
        )


def _best_candidates(groups, n_candidates, ratio, rng, keep):
    """Draw n_candidates proposals, score the first draw of each distinct
    train side in one pass, and keep the `keep` lowest by
    (kl_score, draw index)."""
    table = GroupTable.of(groups)
    distinct: dict[frozenset, SplitPlan] = {}
    for _ in range(n_candidates):
        plan = propose_split(table, ratio, rng)
        distinct.setdefault(frozenset(plan.train_groups), plan)
    plans = list(distinct.values())  # in draw order
    score_plans(table, plans)
    # sorted() is stable, so equal scores stay in draw order
    return sorted(plans, key=lambda plan: plan.kl_score)[:keep]


def select_splits(
    sequences: Sequence[SocialSequence],
    n_candidates: int = 1000,
    k: int = 3,
    ratio: float = 0.8,
    seed: int = 0,
) -> SplitSuite:
    """Pick the minimal-KL outer split from n_candidates random proposals,
    then repeat over the outer train pool to pick the k lowest-KL distinct
    inner splits. Each pool makes n_candidates `propose_split` calls, one
    permutation each, and scores its distinct draws in one batched pass.
    Fully deterministic given the seed; the first N proposals are a prefix
    of the first N' > N, so growing the budget never worsens the selected
    score."""
    if n_candidates < 1 or k < 1:
        raise ValidationError(f"n_candidates and k must be >= 1, got {n_candidates} and {k}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    groups = group_by_user_day(sequences)
    if len(groups) < 3:
        raise ValidationError("need at least 3 (user, day) groups to split twice")
    rng = Rng(seed)
    outer = _best_candidates(groups, n_candidates, ratio, rng.split("outer"), keep=1)[0]
    pool_keys = set(outer.train_groups)
    pool = [g for g in groups if g.key in pool_keys]
    if len(pool) < 2:
        raise ValidationError("outer train pool has too few groups for inner splits")
    inner = _best_candidates(pool, n_candidates, ratio, rng.split("inner"), keep=k)
    if len(inner) < k:
        raise ValidationError(
            f"only {len(inner)} distinct inner splits found, need k={k}"
        )
    return SplitSuite(outer=outer, inner=tuple(inner), n_candidates=n_candidates,
                      k=k, ratio=ratio, seed=seed)


def save_split_suite(path, suite: SplitSuite, meta: dict | None = None) -> None:
    write_json(path, {**suite.to_json(), "meta": meta} if meta else suite.to_json())


def load_split_suite(path) -> SplitSuite:
    obj = read_json(path)
    if obj.get("kind") != "split-suite":
        raise ValidationError(f"{path}: not a split-suite file")
    try:
        return SplitSuite.from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: malformed split file: {exc!r}") from None
