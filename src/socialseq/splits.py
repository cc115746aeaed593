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
    """One candidate assignment of whole groups to a train and a val side."""

    train_groups: tuple[tuple[str, str], ...]
    val_groups: tuple[tuple[str, str], ...]
    train_size: int
    val_size: int
    train_dist: np.ndarray
    val_dist: np.ndarray
    ratio_target: float
    achieved_ratio: float
    ratio_ok: bool
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


def _plan(train_groups, val_groups, train_size, val_size, train_counts, val_counts,
          ratio) -> SplitPlan:
    achieved = train_size / (train_size + val_size)
    plan = SplitPlan(
        train_groups=train_groups,
        val_groups=val_groups,
        train_size=train_size,
        val_size=val_size,
        train_dist=train_counts / train_counts.sum(),
        val_dist=val_counts / val_counts.sum(),
        ratio_target=ratio,
        achieved_ratio=achieved,
        ratio_ok=abs(achieved - ratio) <= RATIO_TOLERANCE,
    )
    plan.kl_score = score_split(plan)
    return plan


def make_plan(train: list[DayGroup], val: list[DayGroup], ratio: float) -> SplitPlan:
    """The plan for a given assignment of groups to sides; the plain
    reference that `propose_split` must agree with."""
    return _plan(
        tuple(g.key for g in train),
        tuple(g.key for g in val),
        sum(g.size for g in train),
        sum(g.size for g in val),
        sum((g.label_counts for g in train), np.zeros(N_RELATIONS)),
        sum((g.label_counts for g in val), np.zeros(N_RELATIONS)),
        ratio,
    )


def propose_split(table: GroupTable, ratio: float, rng: Rng) -> SplitPlan:
    """Shuffle the groups and greedily fill the train side up to
    ratio * total sequences; the remainder is the val side.

    The achieved ratio is reported honestly and flagged when the group
    granularity puts it outside the tolerance. Label counts are
    integer-valued, so the side sums are exact in any order and the plan
    equals `make_plan` on the same sides, bit for bit."""
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
    train_idx, val_idx = order[:n_train], order[n_train:]
    keys = table.keys
    train_counts = table.label_counts[train_idx].sum(axis=0)
    return _plan(
        tuple([keys[i] for i in train_idx]),
        tuple([keys[i] for i in val_idx]),
        train_size,
        table.total - train_size,
        train_counts,
        table.label_total - train_counts,
        ratio,
    )


def score_split(plan: SplitPlan) -> float:
    """Smoothed KL divergence of the train (majority) side's relation
    distribution from the val side's."""
    if plan.train_size == 0 or plan.val_size == 0:
        raise ValidationError("cannot score a split with an empty side")
    return kl_divergence(plan.train_dist, plan.val_dist, eps=KL_EPS)


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
    """Draw n_candidates proposals and keep the `keep` distinct assignments
    with the lowest (kl_score, draw index)."""
    table = GroupTable.of(groups)
    seen: dict[frozenset, tuple[float, int, SplitPlan]] = {}
    for i in range(n_candidates):
        plan = propose_split(table, ratio, rng)
        key = frozenset(plan.train_groups)
        if key not in seen:
            seen[key] = (plan.kl_score, i, plan)
    ranked = sorted(seen.values(), key=lambda item: (item[0], item[1]))
    return [plan for _, _, plan in ranked[:keep]]


def select_splits(
    sequences: Sequence[SocialSequence],
    n_candidates: int = 1000,
    k: int = 3,
    ratio: float = 0.8,
    seed: int = 0,
) -> SplitSuite:
    """Pick the minimal-KL outer split from n_candidates random proposals,
    then repeat over the outer train pool to pick the k lowest-KL distinct
    inner splits. Fully deterministic given the seed; the first N proposals
    are a prefix of the first N' > N, so growing the budget never worsens
    the selected score."""
    if n_candidates < 1 or k < 1:
        raise ValidationError(f"n_candidates and k must be >= 1, got {n_candidates} and {k}")
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
