import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import greedy_reference, select_splits_reference

from socialseq import splits
from socialseq.dataset import SocialSequence, ValidationError
from socialseq.numerics import Rng, kl_divergence
from socialseq.splits import (
    GroupTable,
    group_by_user_day,
    load_split_suite,
    make_plan,
    propose_split,
    save_split_suite,
    score_plans,
    select_splits,
)
from socialseq.taxonomy import N_RELATIONS, Relation


def seq(sid, user, day, relation):
    return SocialSequence(id=sid, user=user, day=day, relation=relation,
                          frames=np.zeros((1, 1)))


def make_groups(sizes_and_labels):
    """[(user, day, [relations...])] -> DayGroups via real sequences."""
    sequences = []
    for i, (user, day, relations) in enumerate(sizes_and_labels):
        for j, r in enumerate(relations):
            sequences.append(seq(f"s{i}_{j}", user, day, r))
    return group_by_user_day(sequences), sequences


class TestGroupByUserDay:
    def test_same_user_days_split(self):
        groups, _ = make_groups([
            ("u1", "d1", [Relation.LOVERS, Relation.FRIENDS]),
            ("u1", "d2", [Relation.LOVERS]),
        ])
        assert len(groups) == 2
        assert sorted(g.size for g in groups) == [1, 2]

    def test_same_day_different_users_split(self):
        groups, _ = make_groups([
            ("u1", "d1", [Relation.LOVERS]),
            ("u2", "d1", [Relation.LOVERS]),
        ])
        assert len(groups) == 2
        assert {g.key for g in groups} == {("u1", "d1"), ("u2", "d1")}

    def test_counts_match_recount_oracle(self):
        rng = Rng(0)
        sequences = [
            seq(f"s{i}", f"u{int(rng.integers(0, 3))}", f"d{int(rng.integers(0, 4))}",
                Relation(int(rng.integers(0, 9))))
            for i in range(40)
        ]
        groups = group_by_user_day(sequences)
        assert sum(g.size for g in groups) == 40
        for g in groups:
            members = [s for s in sequences if s.group_key == g.key]
            recount = np.zeros(N_RELATIONS)
            for s in members:
                recount[s.relation] += 1
            assert np.array_equal(g.label_counts, recount)
            assert set(g.sequence_ids) == {s.id for s in members}

    def test_missing_provenance(self):
        with pytest.raises(ValidationError):
            group_by_user_day([seq("a", "", "d1", Relation.LOVERS)])


class TestProposeSplit:
    def test_two_equal_groups_half_ratio(self):
        groups, _ = make_groups([
            ("u1", "d1", [Relation.LOVERS, Relation.FRIENDS]),
            ("u2", "d1", [Relation.CLASSMATES, Relation.COLLEAGUES]),
        ])
        plan = propose_split(GroupTable.of(groups), 0.5, Rng(0))
        assert plan.train_size == 2 and plan.val_size == 2
        assert len(plan.train_groups) == 1 and len(plan.val_groups) == 1

    def test_ten_singletons_fill_to_eight(self):
        groups, _ = make_groups([
            (f"u{i}", "d", [Relation(i % 9)]) for i in range(10)
        ])
        for s in range(5):
            plan = propose_split(GroupTable.of(groups), 0.8, Rng(s))
            assert (plan.train_size, plan.val_size) == (8, 2)
            assert plan.ratio_ok

    def test_giant_group_flagged_honestly(self):
        giant = ("u0", "d0", [Relation.LOVERS] * 18)
        smalls = [(f"u{i}", "d", [Relation.FRIENDS]) for i in range(1, 3)]
        groups, _ = make_groups([giant] + smalls)
        seen_flagged = False
        for s in range(10):
            plan = propose_split(GroupTable.of(groups), 0.8, Rng(s))
            assert plan.train_size > 0 and plan.val_size > 0
            if not plan.ratio_ok:
                seen_flagged = True
                assert abs(plan.achieved_ratio - 0.8) > 0.05
        assert seen_flagged

    def test_single_group_rejected(self):
        groups, _ = make_groups([("u", "d", [Relation.LOVERS, Relation.FRIENDS])])
        with pytest.raises(ValidationError):
            propose_split(GroupTable.of(groups), 0.8, Rng(0))

    @given(st.integers(0, 10_000), st.integers(2, 12), st.floats(0.3, 0.9))
    @settings(max_examples=40)
    def test_atomicity_and_nonempty_sides(self, seed, n_groups, ratio):
        rng = Rng(seed)
        spec = [
            (f"u{i}", "d", [Relation(int(rng.integers(0, 9)))
                            for _ in range(int(rng.integers(1, 6)))])
            for i in range(n_groups)
        ]
        groups, sequences = make_groups(spec)
        plan = propose_split(GroupTable.of(groups), ratio, Rng(seed + 1))
        train_keys = set(plan.train_groups)
        val_keys = set(plan.val_groups)
        assert train_keys and val_keys
        assert not train_keys & val_keys
        assert train_keys | val_keys == {g.key for g in groups}
        for s in sequences:  # group atomicity at the sequence level
            assert (s.group_key in train_keys) != (s.group_key in val_keys)
        assert plan.train_size + plan.val_size == len(sequences)
        assert plan.achieved_ratio == plan.train_size / len(sequences)


def oracle_group_sets():
    rng = Rng(11)
    giant = [("u0", "d0", [Relation.LOVERS] * 18)] + [
        (f"u{i}", "d", [Relation(i % 9)]) for i in range(1, 4)]
    mixes = [
        (f"u{i}", f"d{i % 3}", [Relation(int(r)) for r in
                                rng.integers(0, 3 if i % 2 else 9, size=int(rng.integers(1, 9)))])
        for i in range(12)
    ]
    forty = [
        (f"u{i % 8}", f"d{i // 8}", [Relation(int(r)) for r in
                                     rng.integers(0, 9, size=int(rng.integers(1, 7)))])
        for i in range(40)
    ]
    return {
        "singletons": [(f"u{i}", "d", [Relation(i % 9)]) for i in range(10)],
        "two": [("u1", "d1", [Relation.LOVERS] * 3),
                ("u2", "d1", [Relation.FRIENDS, Relation.CLASSMATES])],
        "giant": giant,
        "unequal-mixes": mixes,
        "forty": forty,
    }


def bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


class TestProposeSplitOracle:
    @pytest.mark.parametrize("name", sorted(oracle_group_sets()))
    def test_equals_make_plan_and_consumes_one_permutation(self, name):
        """Drawn plans, once scored alone (N=1) or as one batch, equal
        make_plan on the twin permutation's sides bit for bit."""
        groups, _ = make_groups(oracle_group_sets()[name])
        table = GroupTable.of(groups)
        for ratio in (0.3, 0.6, 0.8, 0.95):
            plans, refs = [], []
            for seed in range(25):
                rng = Rng(seed)
                plans.append(propose_split(table, ratio, rng))
                twin = Rng(seed)
                order = twin.permutation(len(groups))
                refs.append(make_plan(*greedy_reference(groups, ratio, order), ratio))
                assert rng.integers(0, 2**62) == twin.integers(0, 2**62)
            score_plans(table, plans[:1])
            score_plans(table, plans[1:])
            for plan, ref in zip(plans, refs):
                assert plan.train_groups == ref.train_groups  # draw order kept
                assert plan.val_groups == ref.val_groups
                assert (plan.train_size, plan.val_size) == (ref.train_size, ref.val_size)
                assert bits(plan.train_dist) == bits(ref.train_dist)
                assert bits(plan.val_dist) == bits(ref.val_dist)
                assert bits(plan.kl_score) == bits(ref.kl_score)
                assert bits(plan.achieved_ratio) == bits(ref.achieved_ratio)
                assert plan.ratio_target == ratio and plan.ratio_ok == ref.ratio_ok

    def test_ratio_outside_open_interval_rejected(self):
        groups, _ = make_groups(oracle_group_sets()["two"])
        for ratio in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                propose_split(GroupTable.of(groups), ratio, Rng(0))


class TestScoreSplit:
    def test_identical_distributions_score_zero(self):
        groups, _ = make_groups([
            ("u1", "d1", [Relation.LOVERS, Relation.FRIENDS]),
            ("u2", "d1", [Relation.LOVERS, Relation.FRIENDS]),
        ])
        plan = make_plan([groups[0]], [groups[1]], 0.5)
        assert plan.kl_score <= 1e-9

    def test_missing_class_is_finite(self):
        groups, _ = make_groups([
            ("u1", "d1", [Relation.LOVERS] * 3),
            ("u2", "d1", [Relation.FRIENDS]),
        ])
        plan = make_plan([groups[0]], [groups[1]], 0.75)
        assert np.isfinite(plan.kl_score)
        assert plan.kl_score > 0

    def test_delegates_to_kl_divergence(self):
        groups, _ = make_groups([
            ("u1", "d1", [Relation.LOVERS, Relation.CLASSMATES, Relation.FRIENDS]),
            ("u2", "d1", [Relation.FRIENDS, Relation.COLLEAGUES]),
        ])
        plan = make_plan([groups[0]], [groups[1]], 0.6)
        direct = kl_divergence(plan.train_dist, plan.val_dist, eps=1e-8)
        assert plan.kl_score == direct

    def test_empty_side_rejected(self):
        groups, _ = make_groups([
            ("u1", "d1", [Relation.LOVERS]),
            ("u2", "d1", [Relation.FRIENDS]),
        ])
        with pytest.raises(ValidationError):
            make_plan([], groups, 0.5)
        with pytest.raises(ValidationError):
            make_plan(groups, [], 0.5)


def five_group_instance():
    # Equal-size groups so the 0.8 target is exactly 4 groups; label mixes
    # vary so KL distinguishes the candidates.
    mixes = [
        [Relation.LOVERS, Relation.FRIENDS, Relation.FATHER_CHILD, Relation.COLLEAGUES],
        [Relation.LOVERS, Relation.CLASSMATES, Relation.MOTHER_CHILD, Relation.CUSTOMER_STAFF],
        [Relation.FRIENDS, Relation.FRIENDS, Relation.PRESENTER_AUDIENCE, Relation.LOVERS],
        [Relation.COLLEAGUES, Relation.LEADER_SUBORDINATE, Relation.LOVERS, Relation.FRIENDS],
        [Relation.CUSTOMER_STAFF, Relation.FATHER_CHILD, Relation.FRIENDS, Relation.CLASSMATES],
    ]
    spec = [(f"u{i}", "d0", mix) for i, mix in enumerate(mixes)]
    return make_groups(spec)


def exhaustive_min_kl(groups, ratio, tolerance=0.05):
    """Brute-force oracle: enumerate every assignment, keep ratio-feasible
    ones, return the minimal KL score."""
    total = sum(g.size for g in groups)
    best = np.inf
    for r in range(1, len(groups)):
        for train in itertools.combinations(groups, r):
            val = [g for g in groups if g not in train]
            achieved = sum(g.size for g in train) / total
            if abs(achieved - ratio) > tolerance:
                continue
            best = min(best, make_plan(list(train), val, ratio).kl_score)
    return best


class TestSelectSplits:
    def test_outer_split_attains_exhaustive_minimum(self):
        groups, sequences = five_group_instance()
        oracle = exhaustive_min_kl(groups, 0.8)
        suite = select_splits(sequences, n_candidates=2000, k=1, ratio=0.8, seed=0)
        assert abs(suite.outer.kl_score - oracle) <= 1e-12

    def test_k_one_degenerates_to_single_minimal_inner(self):
        groups, sequences = five_group_instance()
        suite = select_splits(sequences, n_candidates=500, k=1, ratio=0.8, seed=1)
        assert len(suite.inner) == 1

    def test_test_groups_disjoint_from_inner_splits(self):
        rng = Rng(3)
        sequences = [
            seq(f"s{i}", f"u{int(rng.integers(0, 4))}", f"d{int(rng.integers(0, 5))}",
                Relation(int(rng.integers(0, 9))))
            for i in range(80)
        ]
        suite = select_splits(sequences, n_candidates=200, k=3, ratio=0.8, seed=4)
        test_keys = set(suite.outer.val_groups)
        for plan in suite.inner:
            inner_keys = set(plan.train_groups) | set(plan.val_groups)
            assert not inner_keys & test_keys
            assert inner_keys == set(suite.outer.train_groups)

    def test_deterministic(self):
        _, sequences = five_group_instance()
        a = select_splits(sequences, n_candidates=300, k=2, ratio=0.8, seed=9)
        b = select_splits(sequences, n_candidates=300, k=2, ratio=0.8, seed=9)
        assert a.to_json() == b.to_json()

    def test_monotone_in_candidate_budget(self):
        rng = Rng(5)
        sequences = [
            seq(f"s{i}", f"u{int(rng.integers(0, 5))}", f"d{int(rng.integers(0, 4))}",
                Relation(int(rng.integers(0, 9))))
            for i in range(60)
        ]
        scores = [
            select_splits(sequences, n_candidates=n, k=1, ratio=0.8, seed=6).outer.kl_score
            for n in (4, 16, 64, 256)
        ]
        assert all(a >= b - 1e-15 for a, b in zip(scores, scores[1:]))

    def test_too_few_groups(self):
        sequences = [seq("a", "u1", "d1", Relation.LOVERS),
                     seq("b", "u2", "d1", Relation.FRIENDS)]
        with pytest.raises(ValidationError):
            select_splits(sequences, n_candidates=10, k=1, ratio=0.5, seed=0)

    def test_one_propose_split_call_per_draw(self, monkeypatch):
        """The benchmark counts one `propose_split` call per candidate, and
        each draw takes one permutation from its pool's stream."""
        streams = []
        real = splits.propose_split

        def counting(table, ratio, rng):
            streams.append((rng, len(table.keys)))
            return real(table, ratio, rng)

        monkeypatch.setattr(splits, "propose_split", counting)
        _, sequences = make_groups(oracle_group_sets()["forty"])
        suite = select_splits(sequences, n_candidates=150, k=3, ratio=0.7, seed=5)
        assert len(streams) == 2 * 150
        outer_rng, n_outer = streams[0]
        inner_rng, n_inner = streams[-1]
        assert {id(rng) for rng, _ in streams[:150]} == {id(outer_rng)}
        assert {id(rng) for rng, _ in streams[150:]} == {id(inner_rng)}
        assert n_inner == len(suite.outer.train_groups)
        for rng, key, n_groups in ((outer_rng, "outer", n_outer), (inner_rng, "inner", n_inner)):
            twin = Rng(5).split(key)
            for _ in range(150):
                twin.permutation(n_groups)
            assert rng.integers(0, 2**62) == twin.integers(0, 2**62)

    def test_round_trip(self, tmp_path):
        _, sequences = five_group_instance()
        suite = select_splits(sequences, n_candidates=100, k=2, ratio=0.8, seed=7)
        path = tmp_path / "splits.json"
        save_split_suite(path, suite, meta={"config_hash": "x", "seed": 7})
        loaded = load_split_suite(path)
        assert loaded.to_json() == suite.to_json()
        assert loaded.outer.kl_score == suite.outer.kl_score


class TestSelectSplitsReference:
    @pytest.mark.parametrize("name", sorted(oracle_group_sets()))
    def test_equals_per_draw_reference_byte_for_byte(self, name):
        """The batched selection against draws scored one by one; "two"
        cannot be split twice, so there both must refuse."""
        _, sequences = make_groups(oracle_group_sets()[name])
        for seed, k in itertools.product((0, 3, 8), (1, 2, 3)):
            args = (sequences, 60, k, 0.6, seed)
            try:
                expected = json.dumps(select_splits_reference(*args).to_json(), sort_keys=True)
            except ValidationError:
                with pytest.raises(ValidationError):
                    select_splits(*args)
                continue
            assert json.dumps(select_splits(*args).to_json(), sort_keys=True) == expected
