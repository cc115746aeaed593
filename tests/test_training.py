from types import SimpleNamespace

import numpy as np
import pytest

from socialseq import numerics
from socialseq.dataset import SocialSequence, sequences_in_groups
from socialseq.model import Arch, init_params, save_model
from socialseq.numerics import Rng
from socialseq.splits import select_splits
from socialseq.synth import SynthConfig, generate_corpus
from socialseq.taxonomy import N_DOMAINS, N_RELATIONS, Domain, Relation, domain_of
from socialseq.training import (
    AdamState,
    TrainConfig,
    TrainingDiverged,
    accuracy,
    adam_step,
    benchmark_suite,
    dropout_masks,
    evaluate,
    lr_schedule,
    macro_f1,
    render_benchmark_table,
    report_from_predictions,
    train,
)
import socialseq.training as training_mod


def naive_metrics(confusion):
    """Independent per-class loop over raw TP/FP/FN counts."""
    cm = np.asarray(confusion, dtype=float)
    n = cm.shape[0]
    f1s = []
    for c in range(n):
        tp = cm[c, c]
        fp = sum(cm[r, c] for r in range(n)) - tp
        fn = sum(cm[c, r] for r in range(n)) - tp
        denom = 2 * tp + fp + fn
        f1s.append(0.0 if denom == 0 else 2 * tp / denom)
    acc = sum(cm[c, c] for c in range(n)) / cm.sum()
    return acc, sum(f1s) / n


class TestSchedule:
    def test_paper_constants(self):
        cfg = TrainConfig()
        assert lr_schedule(0, cfg) == 2e-3
        assert lr_schedule(49, cfg) == 2e-3
        assert lr_schedule(50, cfg) == 1e-3
        assert lr_schedule(100, cfg) == 5e-4

    def test_nonincreasing_piecewise_constant(self):
        cfg = TrainConfig(alpha0=1.0, decay_period=7, decay_factor=0.5)
        values = [lr_schedule(i, cfg) for i in range(50)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        for i in range(0, 49, 7):
            assert len({values[j] for j in range(i, min(i + 7, 50))}) == 1

    def test_negative_iteration_rejected(self):
        with pytest.raises(ValueError):
            lr_schedule(-1, TrainConfig())


class TestAdam:
    def test_zero_gradient_is_identity(self):
        params = {"x": np.array([1.0, -2.0])}
        state = AdamState.for_params(params)
        adam_step(params, {"x": np.zeros(2)}, state, lr=0.1)
        assert np.array_equal(params["x"], [1.0, -2.0])
        assert state.t == 1

    def test_first_step_magnitude_is_lr(self):
        params = {"x": np.array([0.0, 0.0, 0.0])}
        state = AdamState.for_params(params)
        g = np.array([0.5, -2.0, 7.0])
        adam_step(params, {"x": g}, state, lr=0.01)
        # bias-corrected m/sqrt(v) is sign(g) at t=1 up to the eps guard
        assert np.allclose(np.abs(params["x"]), 0.01, atol=1e-6)
        assert np.array_equal(np.sign(params["x"]), -np.sign(g))

    def test_matches_naive_adam_and_converges_scalar_quadratic(self):
        # Naive Adam with explicit scalars, written independently.
        m = v = 0.0
        x_ref = 1.0
        params = {"x": np.array([1.0])}
        state = AdamState.for_params(params)
        reached = np.inf
        for t in range(1, 151):
            g = x_ref
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            x_ref -= 0.1 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
            adam_step(params, {"x": params["x"].copy()}, state, lr=0.1)
            assert abs(params["x"][0] - x_ref) < 1e-12
            reached = min(reached, abs(params["x"][0]))
            if t == 100:
                # trajectory has already dipped below 1e-3 and oscillates near 0
                assert reached < 1e-3
                assert abs(params["x"][0]) < 5e-3
        assert abs(params["x"][0]) < 1e-3  # settled by 150 steps

    def test_shapes_preserved(self):
        params = {"a": np.ones((3, 4)), "b": np.ones(5)}
        state = AdamState.for_params(params)
        grads = {"a": np.full((3, 4), 0.1), "b": np.full(5, -0.2)}
        adam_step(params, grads, state, lr=0.05)
        assert params["a"].shape == (3, 4)
        assert params["b"].shape == (5,)

    def test_non_finite_gradient_names_parameter(self):
        params = {"layer.w": np.ones(2)}
        state = AdamState.for_params(params)
        with pytest.raises(TrainingDiverged, match="layer.w"):
            adam_step(params, {"layer.w": np.array([np.nan, 0.0])}, state, lr=0.1)


class TestMetrics:
    def test_hand_case(self):
        cm = np.array([[8, 2], [3, 7]])
        assert accuracy(cm) == 0.75
        f10 = 2 * 8 / (2 * 8 + 2 + 3)
        f11 = 2 * 7 / (2 * 7 + 3 + 2)
        assert abs(macro_f1(cm) - (f10 + f11) / 2) < 1e-12
        assert abs(macro_f1(cm) - 0.7494) < 5e-5

    def test_diagonal_confusion(self):
        assert macro_f1(np.diag([3, 1, 9])) == 1.0

    def test_absent_class_drags_mean(self):
        cm = np.zeros((3, 3), dtype=int)
        cm[0, 0] = 5
        cm[1, 1] = 5
        assert abs(macro_f1(cm) - 2 / 3) < 1e-12

    def test_against_naive_oracle_on_random_matrices(self):
        rng = Rng(99)
        for _ in range(1000):
            n = int(rng.integers(2, 11))
            cm = rng.integers(0, 20, size=(n, n))
            if cm.sum() == 0:
                cm[0, 0] = 1
            acc_ref, f1_ref = naive_metrics(cm)
            assert accuracy(cm) == acc_ref
            assert abs(macro_f1(cm) - f1_ref) < 1e-12

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            macro_f1([[1, -1], [0, 2]])

    def test_report_invariants(self):
        rng = Rng(5)
        truths = [int(v) for v in rng.integers(0, 4, size=60)]
        preds = [int(v) for v in rng.integers(0, 4, size=60)]
        report = report_from_predictions(truths, preds, 4, "relation-direct")
        assert report.accuracy == np.trace(report.confusion) / 60
        assert abs(report.macro_f1 - report.per_class_f1.mean()) < 1e-12
        for c in range(4):
            assert report.confusion[c].sum() == truths.count(c)
        assert 0.0 <= report.accuracy <= 1.0
        assert 0.0 <= report.macro_f1 <= 1.0

    def test_perfect_predictor(self):
        report = report_from_predictions([0, 1, 2], [0, 1, 2], 3, "domain-direct")
        assert report.accuracy == 1.0
        assert report.macro_f1 == 1.0


def tiny_corpus(seed=0, n=54, **kw):
    cfg = SynthConfig(n_sequences=n, users=3, days_per_user=3, min_len=2, max_len=5,
                      domain_sep=2.5, relation_sep=2.5, noise=0.4, seed=seed, **kw)
    return generate_corpus(cfg)


def split_corpus(ds, seed=0):
    suite = select_splits(ds.sequences, n_candidates=64, k=1, ratio=0.8, seed=seed)
    by_group = ds.by_group()
    plan = suite.inner[0]
    return (sequences_in_groups(by_group, plan.train_groups),
            sequences_in_groups(by_group, plan.val_groups), suite)


QUICK = dict(hidden=16, iterations=25, seed=3)


class TestTrain:
    def test_learns_separable_data(self):
        tr, va, _ = split_corpus(tiny_corpus())
        result = train(TrainConfig(arch=Arch.ST_REL, **QUICK), tr, va)
        assert evaluate(result.model, tr, "relation-direct").accuracy >= 0.9

    def test_deterministic_given_seed(self, tmp_path):
        tr, va, _ = split_corpus(tiny_corpus())
        cfg = TrainConfig(arch=Arch.MT_TD, hidden=8, iterations=5, seed=11,
                          augment_multiplier=1)
        a = train(cfg, tr, va)
        b = train(cfg, tr, va)
        assert [r.to_json() for r in a.history] == [r.to_json() for r in b.history]
        pa, pb = tmp_path / "a.bin", tmp_path / "b.bin"
        save_model(pa, a.model)
        save_model(pb, b.model)
        assert pa.read_bytes() == pb.read_bytes()

    def test_runs_blas_on_one_thread_and_restores_the_count(self, monkeypatch):
        """its weight-gradient products over more than 512 frames change
        their last bits with the thread count, so `train` pins one thread
        itself and a library caller gets the CLI's bytes."""
        tr, va, _ = split_corpus(tiny_corpus())
        blas = numerics._openblas()
        seen = []
        real_step = training_mod.adam_step

        def adam_step(*args):
            seen.append(blas.scipy_openblas_get_num_threads64_())
            return real_step(*args)

        monkeypatch.setattr(training_mod, "adam_step", adam_step)
        before = blas.scipy_openblas_get_num_threads64_()
        blas.scipy_openblas_set_num_threads64_(2)
        try:
            train(TrainConfig(arch=Arch.ST_REL, hidden=8, iterations=2, seed=0), tr, va)
            assert blas.scipy_openblas_get_num_threads64_() == 2
        finally:
            blas.scipy_openblas_set_num_threads64_(before)
        assert seen == [1, 1]

    def test_snapshot_is_argmax_of_history(self):
        tr, va, _ = split_corpus(tiny_corpus(seed=1))
        result = train(TrainConfig(arch=Arch.ST_REL, hidden=8, iterations=12, seed=2),
                       tr, va)
        selections = [r.selection for r in result.history]
        assert result.best_selection == max(selections)
        assert result.best_iteration == int(np.argmax(selections))  # earliest tie wins
        best_record = result.history[result.best_iteration]
        assert best_record.is_best
        # the saved snapshot reproduces the recorded metric exactly
        report = evaluate(result.model, va, "relation-direct")
        assert report.macro_f1 == best_record.val_relation_f1

    def test_empty_sets_rejected(self):
        ds = tiny_corpus()
        with pytest.raises(ValueError):
            train(TrainConfig(), [], ds.sequences)
        with pytest.raises(ValueError):
            train(TrainConfig(), ds.sequences, [])

    def test_mt_history_records_both_tasks(self):
        tr, va, _ = split_corpus(tiny_corpus(seed=2))
        result = train(TrainConfig(arch=Arch.MT_IND, hidden=8, iterations=3, seed=0),
                       tr, va)
        rec = result.history[-1]
        assert rec.val_relation_f1 is not None
        assert rec.val_domain_f1 is not None
        assert rec.selection == rec.val_relation_f1


class TestTrainCalls:
    """`train` makes one `forward` and one `backward` per training sequence
    and iteration, and one `evaluate` per head and iteration; the
    benchmark's expected call counts rest on this contract."""

    @pytest.mark.parametrize("arch, heads", [(Arch.MT_TD, 2), (Arch.ST_REL, 1)])
    def test_per_sequence_calls(self, monkeypatch, arch, heads):
        tr, va, _ = split_corpus(tiny_corpus())
        cfg = TrainConfig(arch=arch, hidden=8, iterations=3, dropout=0.3, seed=4)
        masks = []
        counts = {"backward": 0, "evaluate": 0}
        real_forward = training_mod.forward

        def forward(model, frames, dropout_mask=None):
            masks.append(dropout_mask)
            return real_forward(model, frames, dropout_mask)

        def counted(name):
            real = getattr(training_mod, name)

            def call(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            return call

        monkeypatch.setattr(training_mod, "forward", forward)
        for name in counts:
            monkeypatch.setattr(training_mod, name, counted(name))
        train(cfg, tr, va)

        n_train, n_val, its = len(tr), len(va), cfg.iterations
        assert counts["backward"] == its * n_train
        assert len(masks) == its * (n_train + heads * n_val)
        assert counts["evaluate"] == heads * its
        # Training passes get row i of their iteration's block, in order;
        # validation passes get no mask.
        drawn = [m for m in masks if m is not None]
        want = dropout_masks(Rng(cfg.seed).split("dropout"), its * n_train, cfg.hidden, 0.3)
        assert len(drawn) == len(want)
        assert all(np.array_equal(got, row) for got, row in zip(drawn, want))


class TestDropoutMasks:
    @pytest.mark.parametrize("hidden, n", [(1, 5), (16, 37), (128, 72)])
    def test_block_equals_per_sequence_draws(self, hidden, n):
        block_rng, seq_rng = Rng(7).split("dropout"), Rng(7).split("dropout")
        block = dropout_masks(block_rng, n, hidden, 0.3)
        assert block.shape == (n, hidden)
        for row in block:
            assert row.tobytes() == ((seq_rng.uniform(size=hidden) >= 0.3) / 0.7).tobytes()
        assert block_rng.uniform() == seq_rng.uniform()  # the stream is left in step

    def test_zero_rate_draws_nothing(self):
        rng = Rng(7)
        assert dropout_masks(rng, 5, 16, 0.0) == [None] * 5
        assert rng.uniform() == Rng(7).uniform()


class TestEvaluate:
    def test_mode_head_compatibility(self):
        ds = tiny_corpus(seed=3, n=18)
        tr, va, _ = split_corpus(ds)
        st_dom = train(TrainConfig(arch=Arch.ST_DOM, hidden=8, iterations=2, seed=0),
                       tr, va)
        with pytest.raises(ValueError):
            evaluate(st_dom.model, va, "relation-direct")
        with pytest.raises(ValueError):
            evaluate(st_dom.model, va, "domain-inferred")
        st_rel = train(TrainConfig(arch=Arch.ST_REL, hidden=8, iterations=2, seed=0),
                       tr, va)
        with pytest.raises(ValueError):
            evaluate(st_rel.model, va, "domain-direct")
        report = evaluate(st_rel.model, va, "domain-inferred")
        assert report.confusion.shape == (5, 5)

    def test_empty_dataset_rejected(self):
        tr, va, _ = split_corpus(tiny_corpus(seed=4, n=18))
        result = train(TrainConfig(arch=Arch.ST_REL, hidden=8, iterations=2, seed=0),
                       tr, va)
        with pytest.raises(ValueError):
            evaluate(result.model, [], "relation-direct")

    def test_inferred_equals_direct_when_heads_agree(self, monkeypatch):
        # Where the relation head is decisive (> 0.5 mass on one class,
        # which pins the inferred domain to that class's parent) and the
        # domain head predicts the same parent, the two domain evaluation
        # modes must coincide sequence for sequence. The head outputs are
        # scripted in place of `forward`, so the consistent set does not
        # hang on how far a training run got: 18 sequences agree by
        # construction, two per relation and so every domain. The other
        # sequences are ones the predicate must drop, where the modes differ.
        def relation_probs(masses):
            p = np.zeros(N_RELATIONS)
            for r, m in masses.items():
                p[r] = m
            rest = [r for r in Relation if r not in masses]
            p[rest] = (1.0 - p.sum()) / len(rest)
            return p

        def domain_probs(top):
            p = np.full(N_DOMAINS, 0.1)
            p[top] = 0.6
            return p

        agreeing = [(relation_probs({r: 0.6}), domain_probs(domain_of(r)))
                    for r in list(Relation) * 2]
        # Relation argmax is LOVERS (mating), but attachment holds 0.6 of
        # the mass, so the inferred domain differs from the domain head's.
        undecided = [(relation_probs({Relation.LOVERS: 0.35, Relation.FATHER_CHILD: 0.3,
                                      Relation.MOTHER_CHILD: 0.3}),
                      domain_probs(Domain.MATING))] * 4
        disagreeing = [(relation_probs({r: 0.6}), domain_probs(Domain.MATING))
                       for r in Relation if domain_of(r) is not Domain.MATING]
        seqs = tiny_corpus(seed=5).sequences
        scripts = agreeing + undecided + disagreeing
        assert len(seqs) >= len(scripts)
        seqs = seqs[:len(scripts)]
        outputs = {id(seq.frames): SimpleNamespace(relation_probs=rel, domain_probs=dom)
                   for seq, (rel, dom) in zip(seqs, scripts)}
        monkeypatch.setattr(training_mod, "forward",
                            lambda model, frames, **kw: outputs[id(frames)])
        model = init_params(Arch.MT_TD, seqs[0].frames.shape[1], 4, Rng(0))

        consistent = []
        for seq in seqs:
            out = training_mod.forward(model, seq.frames)
            rel_pred = Relation(int(np.argmax(out.relation_probs)))
            if (out.relation_probs.max() > 0.5
                    and int(np.argmax(out.domain_probs)) == int(domain_of(rel_pred))):
                consistent.append(seq)
        assert len(consistent) >= 10
        direct = evaluate(model, consistent, "domain-direct")
        inferred = evaluate(model, consistent, "domain-inferred")
        assert np.array_equal(direct.confusion, inferred.confusion)
        assert direct.accuracy == inferred.accuracy
        assert direct.macro_f1 == inferred.macro_f1
        # Control: over all sequences the modes must differ, or the check
        # above would also pass with domain-inferred reading the domain head.
        assert not np.array_equal(evaluate(model, seqs, "domain-direct").confusion,
                                  evaluate(model, seqs, "domain-inferred").confusion)


class TestBenchmark:
    def test_grid_rows_and_union_mask(self):
        ds = tiny_corpus(seed=6)
        _, _, suite = split_corpus(ds)
        cfg = TrainConfig(hidden=8, iterations=2, seed=0)
        cols_a = np.arange(0, 100)
        cols_b = np.arange(80, 459)
        rows = benchmark_suite(cfg, ds.by_group(), suite,
                               masks={"A": cols_a, "B": cols_b})
        labels = {(r.task, r.strategy, r.subset) for r in rows}
        for task in ("REL", "DOM", "DOM-INF"):
            for strat in ("ST", "MT-IND", "MT-TD"):
                for subset in ("A", "B", "ALL"):
                    assert (task, strat, subset) in labels
        assert all(r.error is None for r in rows)
        table = render_benchmark_table(rows)
        assert "F1-score [%]" in table and "Acc [%]" in table

    def test_cell_errors_propagate_without_stopping(self, monkeypatch):
        ds = tiny_corpus(seed=7)
        _, _, suite = split_corpus(ds)
        real_train = training_mod.train

        def failing_train(cfg, tr, va):
            if cfg.arch is Arch.MT_TD:
                raise RuntimeError("injected failure")
            return real_train(cfg, tr, va)

        monkeypatch.setattr(training_mod, "train", failing_train)
        rows = training_mod.benchmark_suite(
            TrainConfig(hidden=8, iterations=2, seed=0), ds.by_group(), suite)
        failed = [r for r in rows if r.strategy == "MT-TD"]
        ok = [r for r in rows if r.strategy != "MT-TD"]
        assert failed and all("injected failure" in r.error for r in failed)
        assert ok and all(r.error is None for r in ok)


class TestDivergence:
    def test_divergence_aborts_with_history(self):
        tr, va, _ = split_corpus(tiny_corpus(seed=8, n=18))
        cfg = TrainConfig(arch=Arch.ST_REL, hidden=6, iterations=10,
                          alpha0=1e200, decay_period=50, seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged) as excinfo:
                train(cfg, tr, va)
        assert isinstance(excinfo.value.history, list)
        assert len(excinfo.value.history) >= 1  # at least one epoch completed
