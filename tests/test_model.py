import math

import numpy as np
import pytest

from socialseq.dataset import ValidationError
from socialseq.model import (
    Arch,
    DenseParams,
    GradientSum,
    LstmParams,
    ModelParams,
    backward,
    class_weights,
    forward,
    init_params,
    input_projections,
    joint_loss,
    l2_penalty,
    load_model,
    lstm_backward,
    lstm_forward,
    pack_frames,
    save_model,
    weighted_cross_entropy,
)
from socialseq.numerics import Rng

from helpers import assert_grads_close, finite_difference_grads

UNIT_WEIGHTS = {"domain": np.ones(5), "relation": np.ones(9)}
# One head's loss alone: the other head's class weights are all zero.
DOMAIN_ONLY = {"domain": np.ones(5), "relation": np.zeros(9)}
RELATION_ONLY = {"domain": np.zeros(5), "relation": np.ones(9)}


def random_model(arch, seed, input_dim=6, hidden=4):
    return init_params(arch, input_dim, hidden, Rng(seed).split("init"))


class TestInit:
    def test_biases_zero_except_forget_gate(self):
        model = random_model(Arch.MT_TD, 99, input_dim=7, hidden=5)
        # gates stacked in (input, forget, output, candidate) order
        b_input, b_forget, b_output, b_candidate = np.split(model.lstm.b, 4)
        assert np.array_equal(b_forget, np.ones(5))
        for view in (b_input, b_output, b_candidate):
            assert np.array_equal(view, np.zeros(5))
        assert np.array_equal(model.fc_in.b, np.zeros(5))
        assert np.array_equal(model.head_domain.b, np.zeros(5))
        assert np.array_equal(model.head_relation.b, np.zeros(9))

    def test_weights_within_glorot_bounds(self):
        model = random_model(Arch.MT_IND, 98, input_dim=7, hidden=5)
        limit_fc = np.sqrt(6.0 / (7 + 5))
        assert np.abs(model.fc_in.w).max() <= limit_fc
        limit_gate = np.sqrt(6.0 / (5 + 5))
        w_input, w_forget, w_output, w_candidate = np.split(model.lstm.w, 4)
        u_input, _, _, u_candidate = np.split(model.lstm.u, 4)
        for view in (w_input, w_forget, w_output, w_candidate, u_input, u_candidate):
            assert view.shape == (5, 5)
            assert np.abs(view).max() <= limit_gate

    @staticmethod
    def reference_init(arch, input_dim, hidden, rng):
        """Glorot init written out plainly: one [out, in] matrix per draw,
        each LSTM gate block drawn on its own with its own fans."""
        def glorot(shape):
            limit = np.sqrt(6.0 / (shape[1] + shape[0]))
            return rng.uniform(-limit, limit, size=shape)

        arrays = {"fc_in.w": glorot((hidden, input_dim)), "fc_in.b": np.zeros(hidden),
                  "lstm.w": np.concatenate([glorot((hidden, hidden)) for _ in range(4)]),
                  "lstm.u": np.concatenate([glorot((hidden, hidden)) for _ in range(4)]),
                  "lstm.b": np.zeros(4 * hidden)}
        arrays["lstm.b"][hidden:2 * hidden] = 1.0
        if arch.has_domain_head:
            arrays["head_domain.w"] = glorot((5, hidden))
            arrays["head_domain.b"] = np.zeros(5)
        if arch.has_relation_head:
            arrays["head_relation.w"] = glorot((9, hidden + 5 if arch is Arch.MT_TD else hidden))
            arrays["head_relation.b"] = np.zeros(9)
        return arrays

    @pytest.mark.parametrize("arch", list(Arch))
    @pytest.mark.parametrize("input_dim, hidden", [(1, 1), (6, 3), (459, 16), (7, 128)])
    def test_matches_per_block_glorot_reference(self, arch, input_dim, hidden):
        rng_got, rng_want = Rng(5).split("init"), Rng(5).split("init")
        got = init_params(arch, input_dim, hidden, rng_got)
        want = self.reference_init(arch, input_dim, hidden, rng_want)
        assert [name for name, _ in got.named_arrays()] == list(want)
        for name, arr in got.named_arrays():
            assert_same_bits(arr, want[name])
        # both consumed the same numbers, so the next draw matches too
        assert rng_got.uniform() == rng_want.uniform()

    def test_mt_td_relation_head_width(self):
        td = random_model(Arch.MT_TD, 97, hidden=4)
        ind = random_model(Arch.MT_IND, 97, hidden=4)
        assert td.head_relation.w.shape == (9, 4 + 5)
        assert ind.head_relation.w.shape == (9, 4)


class TestLstmForward:
    def test_zero_parameters_give_zero_hidden(self):
        h, d = 3, 4
        params = LstmParams(w=np.zeros((4 * h, d)), u=np.zeros((4 * h, h)),
                            b=np.zeros(4 * h))
        final, trace = lstm_forward(params, Rng(0).normal(size=(5, d)))
        assert np.array_equal(final, np.zeros(h))
        assert np.array_equal(trace.h, np.zeros((5, h)))

    def test_single_step_matches_scalar_hand_oracle(self):
        # h = 1, one timestep: every quantity is a closed-form scalar.
        wi, wf, wo, wg = 0.3, -0.2, 0.5, 0.7
        bi, bf, bo, bg = 0.1, 1.0, -0.4, 0.2
        x = 0.9
        params = LstmParams(
            w=np.array([[wi], [wf], [wo], [wg]]),
            u=np.array([[0.11], [0.12], [0.13], [0.14]]),  # unused at t=0 (h_prev=0)
            b=np.array([bi, bf, bo, bg]),
        )
        sig = lambda z: 1.0 / (1.0 + math.exp(-z))
        i = sig(wi * x + bi)
        o = sig(wo * x + bo)
        g = math.tanh(wg * x + bg)
        c = i * g  # forget gate sees c_prev = 0
        expected = o * math.tanh(c)
        final, trace = lstm_forward(params, np.array([[x]]))
        assert abs(final[0] - expected) < 1e-12
        assert abs(trace.c[0, 0] - c) < 1e-12

    def test_order_sensitivity(self):
        params_model = random_model(Arch.ST_REL, 11)
        params = params_model.lstm
        rng = Rng(12)
        seq = rng.normal(size=(4, 4))
        a, _ = lstm_forward(params, seq)
        b, _ = lstm_forward(params, seq[::-1])
        assert not np.allclose(a, b)

    def test_input_validation(self):
        params = random_model(Arch.ST_REL, 0).lstm
        with pytest.raises(ValueError):
            lstm_forward(params, np.zeros((0, 4)))
        with pytest.raises(ValueError):
            lstm_forward(params, np.zeros((3, 5)))


class TestForward:
    def test_eval_mode_is_deterministic(self):
        model = random_model(Arch.MT_TD, 1)
        frames = Rng(2).normal(size=(5, 6))
        a = forward(model, frames)
        b = forward(model, frames)
        assert np.array_equal(a.relation_probs, b.relation_probs)
        assert np.array_equal(a.domain_probs, b.domain_probs)

    def test_st_dom_output_contract(self):
        model = random_model(Arch.ST_DOM, 3)
        out = forward(model, Rng(4).normal(size=(3, 6)))
        assert out.relation_probs is None
        assert out.domain_probs.shape == (5,)
        assert abs(out.domain_probs.sum() - 1.0) <= 1e-12
        assert (out.domain_probs > 0).all()

    def test_head_probabilities_always_normalized(self):
        for arch in Arch:
            for seed in range(5):
                model = random_model(arch, seed)
                out = forward(model, Rng(seed + 100).normal(size=(seed % 3 + 1, 6)))
                for probs in (out.domain_probs, out.relation_probs):
                    if probs is not None:
                        assert abs(probs.sum() - 1.0) <= 1e-12
                        assert (probs >= 0).all()

    def test_mt_td_one_hot_coupling_shifts_logits_by_column(self):
        model = random_model(Arch.MT_TD, 5)
        h = model.hidden
        forced = 3
        model.head_domain.w[:] = 0.0
        model.head_domain.b[:] = 0.0
        model.head_domain.b[forced] = 1000.0  # softmax collapses onto `forced`
        frames = Rng(6).normal(size=(4, 6))
        out = forward(model, frames)
        assert out.domain_probs[forced] > 1 - 1e-12
        h_drop = out.trace.h_drop
        w = model.head_relation.w
        expected_logits = w[:, :h] @ h_drop + w[:, h + forced] + model.head_relation.b
        # reconstruct the actual logits from the probabilities (up to a shift)
        actual = np.log(out.relation_probs)
        shift = expected_logits[0] - actual[0]
        assert np.allclose(actual + shift, expected_logits, atol=1e-9)

    def test_mt_ind_equals_mt_td_with_zero_coupling(self):
        ind = random_model(Arch.MT_IND, 7)
        h = ind.hidden
        td_rel_w = np.hstack([ind.head_relation.w, np.zeros((9, 5))])
        td = ModelParams(
            arch=Arch.MT_TD,
            fc_in=DenseParams(ind.fc_in.w.copy(), ind.fc_in.b.copy()),
            lstm=LstmParams(ind.lstm.w.copy(), ind.lstm.u.copy(), ind.lstm.b.copy()),
            head_domain=DenseParams(ind.head_domain.w.copy(), ind.head_domain.b.copy()),
            head_relation=DenseParams(td_rel_w, ind.head_relation.b.copy()),
        )
        frames = Rng(8).normal(size=(6, 6))
        a = forward(ind, frames)
        b = forward(td, frames)
        assert np.allclose(a.relation_probs, b.relation_probs, atol=1e-12)
        assert np.allclose(a.domain_probs, b.domain_probs, atol=1e-12)

    def test_empty_or_misshapen_input(self):
        model = random_model(Arch.ST_REL, 9)
        with pytest.raises(ValueError):
            forward(model, np.zeros((0, 6)))
        with pytest.raises(ValueError):
            forward(model, np.zeros((2, 7)))

    def test_dropout_mean_preservation(self):
        model = random_model(Arch.ST_REL, 10, hidden=8)
        frames = Rng(11).normal(size=(4, 6))
        baseline = forward(model, frames).trace.h_drop
        rng = Rng(12).split("dropout")
        acc = np.zeros(8)
        n = 10_000
        for _ in range(n):
            mask = (rng.uniform(size=8) >= 0.3) / 0.7
            acc += forward(model, frames, mask).trace.h_drop
        mean = acc / n
        denom = np.maximum(np.abs(baseline), 1e-3)
        assert (np.abs(mean - baseline) / denom).max() < 0.03


class TestLosses:
    def test_class_weights_balanced(self):
        assert np.allclose(class_weights([10, 10]), [1.0, 1.0])

    def test_class_weights_imbalanced(self):
        assert np.allclose(class_weights([30, 10]), [40 / 60, 40 / 20])

    def test_class_weights_zero_count_guard(self):
        w = class_weights([0, 5, 5])
        assert np.isfinite(w).all()
        assert np.allclose(w[0], 10 / 3)

    def test_weighted_ce_perfect(self):
        probs = np.zeros(5)
        probs[2] = 1.0
        assert abs(weighted_cross_entropy(probs, 2, np.ones(5))) < 1e-9

    def test_weighted_ce_uniform(self):
        assert abs(weighted_cross_entropy(np.full(5, 0.2), 0, np.ones(5))
                   - math.log(5)) < 1e-9

    def test_weighted_ce_linear_in_weight(self):
        probs = np.array([0.7, 0.3])
        w1 = weighted_cross_entropy(probs, 1, np.array([1.0, 1.0]))
        w2 = weighted_cross_entropy(probs, 1, np.array([1.0, 2.0]))
        assert abs(w2 - 2 * w1) < 1e-12

    def test_weighted_ce_label_range(self):
        with pytest.raises(ValueError):
            weighted_cross_entropy(np.full(5, 0.2), 5, np.ones(5))

    def test_l2_penalty_hand_case(self):
        assert abs(l2_penalty([np.array([[2.0]])], 1e-3) - 0.002) < 1e-15

    def test_mt_joint_loss_is_sum_of_head_losses(self):
        model = random_model(Arch.MT_IND, 13)
        out = forward(model, Rng(14).normal(size=(3, 6)))
        labels = (2, 7)
        dom = joint_loss(out, labels, DOMAIN_ONLY, 0.0, model)
        rel = joint_loss(out, labels, RELATION_ONLY, 0.0, model)
        both = joint_loss(out, labels, UNIT_WEIGHTS, 0.0, model)
        assert abs(both - (dom + rel)) < 1e-12

    def test_perfect_heads_zero_loss(self):
        model = random_model(Arch.MT_IND, 15)
        model.head_domain.w[:] = 0.0
        model.head_relation.w[:] = 0.0
        model.head_domain.b[:] = -1000.0
        model.head_relation.b[:] = -1000.0
        model.head_domain.b[1] = 0.0
        model.head_relation.b[4] = 0.0
        out = forward(model, Rng(16).normal(size=(2, 6)))
        assert abs(joint_loss(out, (1, 4), UNIT_WEIGHTS, 0.0, model)) < 1e-9


class TestBackward:
    def test_gradient_check_all_architectures(self):
        for arch in Arch:
            for seed, t_len in [(21, 3), (22, 1), (23, 6)]:
                model = random_model(arch, seed)
                rng = Rng(seed + 1000)
                frames = rng.normal(size=(t_len, 6))
                labels = (int(rng.integers(0, 5)), int(rng.integers(0, 9)))
                weights = {"domain": class_weights(rng.integers(1, 9, size=5)),
                           "relation": class_weights(rng.integers(1, 9, size=9))}
                out = forward(model, frames)
                analytic = backward(model, out.trace, labels, weights, 1e-3)
                numeric = finite_difference_grads(model, frames, labels, weights, 1e-3)
                assert_grads_close(analytic, numeric)

    def test_gradient_check_with_dropout_mask(self):
        model = random_model(Arch.MT_TD, 24)
        rng = Rng(25)
        frames = rng.normal(size=(4, 6))
        mask = (rng.uniform(size=4) >= 0.3) / 0.7
        labels = (3, 6)
        out = forward(model, frames, mask)
        analytic = backward(model, out.trace, labels, UNIT_WEIGHTS, 1e-3)
        numeric = finite_difference_grads(model, frames, labels, UNIT_WEIGHTS, 1e-3,
                                          mask=mask)
        assert_grads_close(analytic, numeric)

    def test_zero_loss_configuration_has_zero_head_bias_grads(self):
        model = random_model(Arch.MT_IND, 26)
        model.head_domain.w[:] = 0.0
        model.head_relation.w[:] = 0.0
        model.head_domain.b[:] = -1000.0
        model.head_relation.b[:] = -1000.0
        model.head_domain.b[0] = 0.0
        model.head_relation.b[2] = 0.0
        out = forward(model, Rng(27).normal(size=(3, 6)))
        grads = backward(model, out.trace, (0, 2), UNIT_WEIGHTS, 0.0)
        assert np.abs(grads["head_domain.b"]).max() < 1e-6
        assert np.abs(grads["head_relation.b"]).max() < 1e-6

    def test_relation_loss_reaches_domain_head_only_in_mt_td(self):
        for seed in range(5):
            ind = random_model(Arch.MT_IND, 30 + seed)
            td = random_model(Arch.MT_TD, 30 + seed)
            frames = Rng(40 + seed).normal(size=(4, 6))
            for model, expect_zero in ((ind, True), (td, False)):
                out = forward(model, frames)
                grads = backward(model, out.trace, (1, 5), RELATION_ONLY, 0.0)
                magnitude = max(np.abs(grads["head_domain.w"]).max(),
                                np.abs(grads["head_domain.b"]).max())
                if expect_zero:
                    assert magnitude == 0.0
                else:
                    assert magnitude > 1e-8


def reference_lstm_forward(params, a):
    """The LSTM step loop written out plainly, one array per gate."""
    t_len, h = a.shape[0], params.hidden
    zx = a @ params.w.T + params.b
    gates = {name: np.empty((t_len, h)) for name in "ifog"}
    cs, tcs, hs = np.empty((t_len, h)), np.empty((t_len, h)), np.empty((t_len, h))
    h_prev, c_prev = np.zeros(h), np.zeros(h)
    for t in range(t_len):
        z = zx[t] + params.u @ h_prev
        sig = 0.5 * (1.0 + np.tanh(0.5 * z[:3 * h]))
        i, f, o = sig[:h], sig[h:2 * h], sig[2 * h:]
        g = np.tanh(z[3 * h:])
        c = f * c_prev + i * g
        tc = np.tanh(c)
        h_t = o * tc
        gates["i"][t], gates["f"][t], gates["o"][t], gates["g"][t] = i, f, o, g
        cs[t], tcs[t], hs[t] = c, tc, h_t
        h_prev, c_prev = h_t, c
    return hs[-1], (gates, cs, tcs, hs)


def reference_lstm_backward(params, ref_trace, d_h_last):
    """BPTT written out plainly, gate by gate, for the reference forward;
    returns each timestep's gate gradient dz [T, 4h]."""
    gates, cs, tcs, hs = ref_trace
    t_len, h = hs.shape
    dz_all = np.empty((t_len, 4 * h))
    dh, dc = d_h_last, np.zeros(h)
    for t in range(t_len - 1, -1, -1):
        i, f, o, g = gates["i"][t], gates["f"][t], gates["o"][t], gates["g"][t]
        tc = tcs[t]
        c_prev = cs[t - 1] if t > 0 else 0.0
        do = dh * tc
        dc = dc + dh * o * (1.0 - tc * tc)
        dz = dz_all[t]
        dz[:h] = (dc * g) * i * (1.0 - i)
        dz[h:2 * h] = (dc * c_prev) * f * (1.0 - f)
        dz[2 * h:3 * h] = do * o * (1.0 - o)
        dz[3 * h:] = (dc * i) * (1.0 - g * g)
        dh = params.u.T @ dz
        dc = dc * f
    return dz_all


def reference_backward(model, trace, labels, weights, l2):
    """One sequence's gradients as plain per-sequence products: outer
    products for the heads, the reference BPTT's dz for the LSTM, products
    over the sequence's own timesteps for the weights."""
    h = model.hidden
    grads = {}
    d_hdrop = np.zeros(h)
    dz_domain = np.zeros(5)

    def ce_grad(probs, label, w):
        scale = w[label] * probs[label] / (probs[label] + 1e-12)
        dz = scale * probs
        dz[label] -= scale
        return dz

    if model.head_relation is not None:
        dz_rel = ce_grad(trace.relation_probs, labels[1], weights["relation"])
        grads["head_relation.w"] = np.multiply.outer(dz_rel, trace.relation_input)
        grads["head_relation.b"] = dz_rel
        d_rel_in = model.head_relation.w.T @ dz_rel
        d_hdrop += d_rel_in[:h]
        if model.arch is Arch.MT_TD:
            dp, pd = d_rel_in[h:], trace.domain_probs
            dz_domain += pd * (dp - np.dot(dp, pd))
    if model.head_domain is not None:
        dz_domain += ce_grad(trace.domain_probs, labels[0], weights["domain"])
        grads["head_domain.w"] = np.multiply.outer(dz_domain, trace.h_drop)
        grads["head_domain.b"] = dz_domain
        d_hdrop += model.head_domain.w.T @ dz_domain

    a = trace.lstm.inputs
    _, ref_trace = reference_lstm_forward(model.lstm, a)
    d_h_last = d_hdrop * trace.dropout_mask if trace.dropout_mask is not None else d_hdrop
    dz = reference_lstm_backward(model.lstm, ref_trace, d_h_last)
    hs = ref_trace[3]
    grads["lstm.w"] = dz.T @ a
    grads["lstm.u"] = dz[1:].T @ hs[:-1] if len(dz) > 1 else np.zeros_like(model.lstm.u)
    grads["lstm.b"] = dz.sum(axis=0)
    d_pre = (dz @ model.lstm.w) * (a > 0)
    grads["fc_in.w"] = d_pre.T @ trace.x
    grads["fc_in.b"] = d_pre.sum(axis=0)
    for name, arr in model.named_arrays():
        if l2 and name.endswith(".w"):
            grads[name] += l2 * arr
    return grads


def assert_same_bits(actual, expected):
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


class TestKernelOracle:
    """The LSTM kernels, and the products one sequence's gradients are
    formed from, give exactly the bits of the plain per-gate loops and
    per-sequence products: same floating-point operations in the same
    order, sign bits included.

    A kernel that reassociates sums (a batched recurrence, say) cannot keep
    this; such a change replaces the equality with the C01 finite-difference
    tolerance in the same change."""

    @pytest.mark.parametrize("t_len", [1, 2, 9])
    @pytest.mark.parametrize("hidden", [1, 3, 16])
    @pytest.mark.parametrize("scale", [0.5, 40.0])
    def test_bit_identical_to_per_gate_loops(self, t_len, hidden, scale):
        rng = Rng(1000 * hidden + 10 * t_len + int(scale))
        d = 5
        params = LstmParams(w=scale * rng.normal(size=(4 * hidden, d)),
                            u=scale * rng.normal(size=(4 * hidden, hidden)),
                            b=scale * rng.normal(size=4 * hidden))
        a = rng.normal(size=(t_len, d))
        a[::3] = 0.0  # all-zero input rows, the first one included
        d_h_last = rng.normal(size=hidden)

        final, trace = lstm_forward(params, a)
        ref_final, ref_trace = reference_lstm_forward(params, a)
        _, ref_c, _, ref_h = ref_trace
        assert_same_bits(final, ref_final)
        assert_same_bits(trace.c, ref_c)
        assert_same_bits(trace.h, ref_h)
        if scale > 1.0:
            assert np.any((trace.gates == 0.0) | (trace.gates == 1.0))  # saturated

        assert_same_bits(lstm_backward(params, trace, d_h_last),
                         reference_lstm_backward(params, ref_trace, d_h_last))

    @pytest.mark.parametrize("arch", list(Arch))
    @pytest.mark.parametrize("t_len", [1, 2, 9])
    @pytest.mark.parametrize("hidden", [3, 16, 128])
    def test_one_sequence_gradients_are_the_per_sequence_products(self, arch, t_len, hidden):
        model = random_model(arch, 50 + t_len, hidden=hidden)
        rng = Rng(hidden + t_len)
        frames = rng.normal(size=(t_len, 6))
        frames[::3, :3] = 0.0
        trace = forward(model, frames, (rng.uniform(size=hidden) >= 0.3) / 0.7).trace
        labels = (int(rng.integers(0, 5)), int(rng.integers(0, 9)))
        weights = {"domain": class_weights(rng.integers(1, 9, size=5)),
                   "relation": class_weights(rng.integers(1, 9, size=9))}
        for l2 in (1e-3, 0.0):
            got = backward(model, trace, labels, weights, l2)
            want = reference_backward(model, trace, labels, weights, l2)
            assert list(got) == [name for name, _ in model.named_arrays()]
            for name, grad in got.items():
                if l2:
                    assert_same_bits(grad, want[name])
                else:
                    # The head products sum from +0, so where a dropped unit
                    # makes an outer-product entry -0 they give +0; every
                    # value is equal, and any l2 > 0 adds over the sign.
                    assert np.array_equal(grad, want[name])


def packed_pass(model, cases, weights):
    """One training pass as `train` makes it: the cases' (frames, mask,
    labels) packed, projected once, each sequence's `forward` on its rows
    and its `backward` added to one sum; returns the sum and the outputs."""
    x, rows = pack_frames(model, [frames for frames, _, _ in cases])
    a, z = input_projections(model, x)
    grad_sum = GradientSum(model, x, a, len(cases))
    outs = []
    for (frames, mask, labels), sl in zip(cases, rows):
        out = forward(model, frames, mask, projected=(a[sl], z[sl]))
        assert backward(model, out.trace, labels, weights, 0.0, out=grad_sum) is None
        outs.append(out)
    return grad_sum, outs


def random_cases(model, seed, lengths):
    rng = Rng(seed)
    cases = []
    for t_len in lengths:
        frames = rng.normal(size=(t_len, model.input_dim))
        mask = (rng.uniform(size=model.hidden) >= 0.3) / 0.7
        labels = (int(rng.integers(0, 5)), int(rng.integers(0, 9)))
        cases.append((frames, mask, labels))
    return cases


class TestGradientSum:
    """`backward(..., out=sum)` over a packed training pass: `gradients` is
    the mean of the one-sequence gradients plus the L2 term, formed with
    one product per weight matrix."""

    @pytest.mark.parametrize("arch", list(Arch))
    @pytest.mark.parametrize("weights", [UNIT_WEIGHTS, DOMAIN_ONLY, RELATION_ONLY],
                             ids=["unit", "domain-only", "relation-only"])
    def test_equals_the_mean_of_one_sequence_calls(self, arch, weights):
        model = random_model(arch, 80, hidden=5)
        cases = random_cases(model, 81, (3, 1, 9, 1, 5, 2))
        grad_sum, _ = packed_pass(model, cases, weights)
        assert (grad_sum.sequences, grad_sum.frames) == (6, 21)
        want = {name: np.zeros_like(arr) for name, arr in model.named_arrays()}
        for frames, mask, labels in cases:
            trace = forward(model, frames, mask).trace
            for name, grad in backward(model, trace, labels, weights, 0.0).items():
                want[name] += grad
        got = grad_sum.gradients(1e-3)
        assert list(got) == list(want)
        for name, arr in model.named_arrays():
            mean = want[name] / len(cases) + (1e-3 * arr if name.endswith(".w") else 0.0)
            np.testing.assert_allclose(got[name], mean, rtol=1e-12,
                                       atol=1e-12 * np.abs(mean).max())

    @pytest.mark.parametrize("arch", list(Arch))
    def test_mean_loss_matches_finite_differences(self, arch):
        model = random_model(arch, 90, hidden=4)
        cases = random_cases(model, 91, (4, 1, 6))
        rng = Rng(91)
        weights = {"domain": class_weights(rng.integers(1, 9, size=5)),
                   "relation": class_weights(rng.integers(1, 9, size=9))}
        grad_sum, _ = packed_pass(model, cases, weights)
        numeric = {name: np.zeros_like(arr) for name, arr in model.named_arrays()}
        for frames, mask, labels in cases:
            fd = finite_difference_grads(model, frames, labels, weights, 1e-3, mask=mask)
            for name, grad in fd.items():
                numeric[name] += grad / len(cases)
        assert_grads_close(grad_sum.gradients(1e-3), numeric)

    def test_an_empty_sum_has_no_gradients(self):
        model = random_model(Arch.MT_TD, 1)
        with pytest.raises(ValueError, match="no sequence"):
            GradientSum(model, np.zeros((4, 6)), np.zeros((4, 4)), 1).gradients(0.0)

    def test_added_frames_must_be_the_packed_rows(self):
        model = random_model(Arch.MT_TD, 2)
        cases = random_cases(model, 3, (2, 3))
        grad_sum, outs = packed_pass(model, cases[:1], UNIT_WEIGHTS)
        with pytest.raises(ValueError, match="5 frames added, 2 packed"):
            backward(model, forward(model, cases[1][0]).trace, (0, 0), UNIT_WEIGHTS, 0.0,
                     out=grad_sum)
        x, _ = pack_frames(model, [frames for frames, _, _ in cases])
        short = GradientSum(model, x, input_projections(model, x)[0], 2)
        backward(model, outs[0].trace, (0, 0), UNIT_WEIGHTS, 0.0, out=short)
        with pytest.raises(ValueError, match="2 frames added, 5 packed"):
            short.gradients(0.0)


class TestPackedPass:
    """`forward` on its rows of a projection over packed frames agrees
    with the pass that projects the sequence alone."""

    @pytest.mark.parametrize("arch", list(Arch))
    def test_rows_agree_with_one_sequence_forward(self, arch):
        model = random_model(arch, 100, input_dim=40, hidden=16)
        cases = random_cases(model, 101, (3, 1, 9, 1, 5, 2, 30))
        _, outs = packed_pass(model, cases, UNIT_WEIGHTS)
        for (frames, mask, _), got in zip(cases, outs):
            want = forward(model, frames, mask)
            pairs = [(got.trace.lstm.h, want.trace.lstm.h),
                     (got.trace.lstm.inputs, want.trace.lstm.inputs),
                     (got.domain_probs, want.domain_probs),
                     (got.relation_probs, want.relation_probs)]
            for g, w in pairs:
                if w is None:
                    assert g is None
                    continue
                np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12 * np.abs(w).max())

    def test_pack_rejects_what_forward_rejects(self):
        model = random_model(Arch.ST_REL, 9)
        good = np.zeros((2, 6))
        for bad, match in ((np.zeros((0, 6)), "nonempty"), (np.zeros((2, 7)), "frame width")):
            with pytest.raises(ValueError, match=match):
                forward(model, bad)
            with pytest.raises(ValueError, match=match):
                pack_frames(model, [good, bad])

    def test_projected_rows_must_match_the_frames(self):
        model = random_model(Arch.ST_REL, 9)
        a, z = input_projections(model, np.zeros((3, 6)))
        with pytest.raises(ValueError, match="3 projected rows for 2 frames"):
            forward(model, np.zeros((2, 6)), projected=(a, z))
        with pytest.raises(ValueError, match="projected gates"):
            forward(model, np.zeros((2, 6)), projected=(a[:2], z[:1]))


class TestGradientBuffers:
    """A `GradientSum` keeps its buffers across `clear` and reads the
    packed LSTM inputs that a training loop rewrites in place every
    iteration: what a reused sum gives is exactly the bits of a fresh one,
    and of a `backward` call that makes its own."""

    @staticmethod
    def reused(model, cases, weights):
        """Two passes on one sum and one pair of projection buffers, as
        `train` makes them, the parameters moved for the first one; the
        second runs on the parameters the model came with."""
        x, rows = pack_frames(model, [frames for frames, _, _ in cases])
        a, z = np.empty((len(x), model.hidden)), np.empty((len(x), 4 * model.hidden))
        grad_sum = GradientSum(model, x, a, len(cases))
        saved = [arr.copy() for _, arr in model.named_arrays()]
        rng = Rng(99)
        for moved in (True, False):
            for (_, arr), orig in zip(model.named_arrays(), saved):
                arr[...] = orig + 0.1 * rng.normal(size=arr.shape) if moved else orig
            grad_sum.clear()
            input_projections(model, x, out=(a, z))
            for (frames, mask, labels), sl in zip(cases, rows):
                out = forward(model, frames, mask, projected=(a[sl], z[sl]))
                backward(model, out.trace, labels, weights, 0.0, out=grad_sum)
            got = grad_sum.gradients(1e-3)
        return got

    @pytest.mark.parametrize("arch", list(Arch))
    @pytest.mark.parametrize("t_len", [1, 2, 9])
    def test_out_is_bit_identical_to_fresh(self, arch, t_len):
        model = random_model(arch, 60 + t_len, hidden=5)
        cases = random_cases(model, 61 + t_len, (t_len,))
        frames, mask, labels = cases[0]
        for weights in (UNIT_WEIGHTS, DOMAIN_ONLY, RELATION_ONLY):
            fresh = backward(model, forward(model, frames, mask).trace, labels, weights, 1e-3)
            got = self.reused(model, cases, weights)
            assert list(got) == list(fresh)
            for name, grad in got.items():
                assert_same_bits(grad, fresh[name])

    @pytest.mark.parametrize("arch", list(Arch))
    def test_single_step_after_long_sequence_on_same_buffers(self, arch):
        model = random_model(arch, 70, hidden=5)
        cases = random_cases(model, 71, (9, 1, 1, 1))
        got = self.reused(model, cases, UNIT_WEIGHTS)
        assert np.abs(got["lstm.u"]).max() > 0.0
        fresh, _ = packed_pass(model, cases, UNIT_WEIGHTS)
        for name, grad in fresh.gradients(1e-3).items():
            assert_same_bits(got[name], grad)
        # h_{-1} = 0, so T=1 sequences have dU = 0 after a long one too
        assert not self.reused(model, cases[1:], UNIT_WEIGHTS)["lstm.u"].any()


class TestSerialization:
    def test_round_trip(self, tmp_path):
        model = random_model(Arch.MT_TD, 60)
        path = tmp_path / "model.bin"
        save_model(path, model, manifest_hash="abc123", config_hash="deadbeef", seed=7)
        loaded, header = load_model(path, expect_manifest_hash="abc123")
        assert loaded.arch is Arch.MT_TD
        assert header["seed"] == 7
        for (name_a, a), (name_b, b) in zip(model.named_arrays(), loaded.named_arrays()):
            assert name_a == name_b
            assert np.array_equal(a, b)

    def test_manifest_hash_mismatch_refused(self, tmp_path):
        model = random_model(Arch.ST_REL, 61)
        path = tmp_path / "model.bin"
        save_model(path, model, manifest_hash="abc123")
        with pytest.raises(ValidationError):
            load_model(path, expect_manifest_hash="other")

    def test_bytes_stable_across_saves(self, tmp_path):
        model = random_model(Arch.MT_IND, 62)
        p1 = tmp_path / "a.bin"
        p2 = tmp_path / "b.bin"
        save_model(p1, model, manifest_hash="m", config_hash="c", seed=1)
        save_model(p2, model, manifest_hash="m", config_hash="c", seed=1)
        assert p1.read_bytes() == p2.read_bytes()
