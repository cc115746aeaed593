import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from socialseq import numerics
from socialseq.numerics import (
    PcaModel,
    Rng,
    kl_divergence,
    pca_fit,
    pca_transform,
    relu,
    single_blas_thread,
    softmax,
)

finite_floats = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)


class TestSoftmax:
    def test_uniform_logits(self):
        assert np.allclose(softmax([0.0, 0.0, 0.0]), [1 / 3] * 3, atol=1e-15)

    def test_large_logits_no_overflow(self):
        out = softmax([1000.0, 0.0])
        assert np.all(np.isfinite(out))
        assert out[0] > 1 - 1e-12 and out[1] < 1e-12

    def test_log_counts(self):
        out = softmax([math.log(1), math.log(2), math.log(3)])
        assert np.allclose(out, [1 / 6, 2 / 6, 3 / 6], atol=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            softmax([np.nan, 0.0])
        with pytest.raises(ValueError):
            softmax([np.inf, 0.0])

    @given(st.lists(finite_floats, min_size=1, max_size=16), st.floats(-30, 30))
    def test_shift_invariance_and_normalization(self, logits, shift):
        a = softmax(logits)
        b = softmax(np.asarray(logits) + shift)
        assert abs(a.sum() - 1.0) <= 1e-12
        assert (a > 0).all()
        assert np.allclose(a, b, atol=1e-12)


class TestRelu:
    def test_elementwise(self):
        assert np.array_equal(relu([-1.0, 0.0, 2.0]), [0.0, 0.0, 2.0])
        assert np.array_equal(relu([-3.0, -0.5]), [0.0, 0.0])
        assert np.array_equal(relu([1.0, 2.5]), [1.0, 2.5])
        x = np.array([-1.0, 0.5])
        assert relu(x, out=x) is x and np.array_equal(x, [0.0, 0.5])


@st.composite
def distribution(draw, n=None):
    size = n if n is not None else draw(st.integers(2, 12))
    raw = draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size)
               .filter(lambda v: sum(v) > 1e-3))
    arr = np.asarray(raw)
    return arr / arr.sum()


class TestKlDivergence:
    def test_identical(self):
        assert kl_divergence([0.5, 0.5], [0.5, 0.5]) <= 1e-9

    def test_point_mass_vs_uniform(self):
        assert abs(kl_divergence([1.0, 0.0], [0.5, 0.5], eps=1e-8) - math.log(2)) < 1e-6

    def test_reverse_is_large_but_finite(self):
        value = kl_divergence([0.5, 0.5], [1.0, 0.0], eps=1e-8)
        assert np.isfinite(value)
        assert value > 5.0

    def test_errors(self):
        with pytest.raises(ValueError):
            kl_divergence([1.0, 0.0], [0.5, 0.25, 0.25])
        with pytest.raises(ValueError):
            kl_divergence([-0.1, 1.1], [0.5, 0.5])
        with pytest.raises(ValueError):
            kl_divergence([0.5, 0.5], [0.5, 0.5], eps=0.0)

    @given(distribution())
    def test_self_divergence_is_zero(self, p):
        assert abs(kl_divergence(p, p)) <= 1e-9

    @given(st.integers(2, 10), st.data())
    def test_nonnegative(self, n, data):
        p = data.draw(distribution(n=n))
        q = data.draw(distribution(n=n))
        assert kl_divergence(p, q) >= -1e-12

    def test_batch_rows_equal_single_calls_bit_for_bit(self):
        rng = Rng(12)
        counts = rng.integers(0, 5, size=(2, 300, 9)).astype(float)
        counts[0, ::3, 4] = 0.0  # train side lacks a class: the eps path
        counts[1, 1::3, 2] = 0.0  # val side lacks a class
        counts[:, :, 0] += 1.0  # no empty side
        p, q = counts / counts.sum(axis=-1, keepdims=True)
        batch = kl_divergence(p, q, eps=1e-8)
        assert batch.shape == (300,)
        singles = [kl_divergence(pi, qi, eps=1e-8) for pi, qi in zip(p, q)]
        assert all(isinstance(v, float) for v in singles)
        assert batch.tobytes() == np.array(singles).tobytes()

    def test_batch_checks_every_row(self):
        p = np.full((3, 2), 0.5)
        q = p.copy()
        q[2] = [-0.1, 1.1]
        with pytest.raises(ValueError):
            kl_divergence(p, q)
        with pytest.raises(ValueError):
            kl_divergence(p, q[:2])


class TestPca:
    def test_rank_one_line(self):
        t = np.arange(6, dtype=float)
        x = np.stack([t, 2 * t], axis=1)
        m = pca_fit(x, 1)
        assert np.allclose(m.explained_variance_ratio, [1.0], atol=1e-12)
        assert np.allclose(m.components[0], np.array([1.0, 2.0]) / np.sqrt(5), atol=1e-12)

    def test_identical_rows(self):
        x = np.tile([3.0, -1.0, 2.0], (5, 1))
        m = pca_fit(x, 2)
        assert np.allclose(m.eigenvalues, 0.0, atol=1e-12)
        assert np.allclose(m.explained_variance_ratio, 0.0)
        # components stay orthonormal even with zero variance
        assert np.allclose(m.components @ m.components.T, np.eye(2), atol=1e-8)

    def test_hand_computed_cross(self):
        x = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.5], [0.0, -0.5]])
        m = pca_fit(x, 2)
        assert np.allclose(m.eigenvalues, [2 / 3, 1 / 6], atol=1e-12)
        assert np.allclose(m.explained_variance_ratio, [0.8, 0.2], atol=1e-12)

    def test_transform_of_mean_is_zero(self):
        rng = Rng(1)
        x = rng.normal(size=(8, 4))
        m = pca_fit(x, 3)
        assert np.allclose(pca_transform(m, x.mean(axis=0, keepdims=True)), 0.0, atol=1e-12)

    def test_round_trip_on_rank_k_data(self):
        rng = Rng(2)
        x = rng.normal(size=(20, 3)) @ rng.normal(size=(3, 7))
        m = pca_fit(x, 3)
        z = pca_transform(m, x)
        assert np.allclose(z @ m.components + m.mean, x, atol=1e-8)

    def test_transform_variance_equals_eigenvalues(self):
        rng = Rng(3)
        x = rng.normal(size=(40, 6))
        m = pca_fit(x, 6)
        z = pca_transform(m, x)
        assert np.allclose(z.var(axis=0, ddof=1), m.eigenvalues, atol=1e-8)

    def test_inverse_basics(self):
        rng = Rng(4)
        x = rng.normal(size=(10, 5))
        m = pca_fit(x, 2)
        assert np.allclose(np.zeros((1, 2)) @ m.components + m.mean, m.mean, atol=1e-12)
        z = rng.normal(size=(4, 2))
        lhs = 2 * z @ m.components + m.mean - m.mean
        rhs = 2 * (z @ m.components + m.mean - m.mean)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_wide_data_matches_svd_oracle(self):
        rng = Rng(5)
        x = rng.normal(size=(6, 15))  # d > n: fewer rows than columns
        m = pca_fit(x, 4)
        xc = x - x.mean(axis=0)
        _, s, vt = np.linalg.svd(xc, full_matrices=False)
        eig = s**2 / (x.shape[0] - 1)
        assert np.allclose(m.eigenvalues, eig[:4], atol=1e-10)
        for row, ref in zip(m.components, vt[:4]):
            assert min(np.abs(row - ref).max(), np.abs(row + ref).max()) < 1e-8

    def test_wide_rank_deficient_axes_stay_orthonormal(self):
        # 4 rows of rank 2 in 10 columns, k = 4 > rank: the last two axes
        # carry no variance, yet must complete an orthonormal set that the
        # fit rows do not project onto
        rng = Rng(10)
        x = rng.normal(size=(4, 2)) @ rng.normal(size=(2, 10))
        m = pca_fit(x, 4)
        assert np.abs(m.components @ m.components.T - np.eye(4)).max() < 1e-8
        assert np.all(m.eigenvalues[2:] <= 1e-12)
        assert np.abs(pca_transform(m, x)[:, 2:]).max() <= 1e-10

    def test_cov_path_matches_svd_oracle(self):
        rng = Rng(6)
        x = rng.normal(size=(30, 5))
        m = pca_fit(x, 5)
        xc = x - x.mean(axis=0)
        _, s, vt = np.linalg.svd(xc, full_matrices=False)
        assert np.allclose(m.eigenvalues, s**2 / 29, atol=1e-10)
        for row, ref in zip(m.components, vt):
            assert min(np.abs(row - ref).max(), np.abs(row + ref).max()) < 1e-8

    def test_sign_convention(self):
        rng = Rng(7)
        for n, d in [(12, 5), (4, 9)]:
            x = rng.normal(size=(n, d))
            m = pca_fit(x, min(n, d) - 1)
            for row in m.components:
                nz = np.nonzero(np.abs(row) > 1e-12)[0]
                assert row[nz[0]] > 0

    def test_ratio_sums(self):
        rng = Rng(8)
        x = rng.normal(size=(10, 4))
        for k in range(1, 5):
            m = pca_fit(x, k)
            assert m.explained_variance_ratio.sum() <= 1 + 1e-9
            assert np.all(np.diff(m.explained_variance_ratio) <= 1e-12)
        full = pca_fit(x, 4)
        assert abs(full.explained_variance_ratio.sum() - 1.0) <= 1e-9

    def test_reconstruction_error_nonincreasing_in_k(self):
        rng = Rng(9)
        x = rng.normal(size=(15, 8))
        errors = []
        for k in range(1, 9):
            m = pca_fit(x, k)
            rec = pca_transform(m, x) @ m.components + m.mean
            errors.append(float(((x - rec) ** 2).sum()))
        assert all(a >= b - 1e-9 for a, b in zip(errors, errors[1:]))

    def test_k_out_of_range(self):
        x = np.zeros((3, 2))
        with pytest.raises(ValueError):
            pca_fit(x, 3)
        with pytest.raises(ValueError):
            pca_fit(x, 0)
        with pytest.raises(ValueError):
            pca_fit(x[:1], 1)

    def test_dimension_mismatch(self):
        m = pca_fit(np.random.default_rng(0).normal(size=(5, 3)), 2)
        with pytest.raises(ValueError):
            pca_transform(m, np.zeros((2, 4)))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20)
    def test_orthonormal_components(self, seed):
        rng = Rng(seed)
        n = int(rng.integers(3, 10))
        d = int(rng.integers(2, 10))
        k = min(n, d)
        x = rng.normal(size=(n, d))
        m = pca_fit(x, k)
        assert np.allclose(m.components @ m.components.T, np.eye(k), atol=1e-8)
        assert np.all(np.diff(m.eigenvalues) <= 1e-12)
        assert np.all(m.eigenvalues >= 0)


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(123).normal(size=10)
        b = Rng(123).normal(size=10)
        assert np.array_equal(a, b)

    def test_different_seed_differs(self):
        assert not np.array_equal(Rng(1).normal(size=10), Rng(2).normal(size=10))

    def test_split_is_path_addressed(self):
        parent = Rng(7)
        parent.normal(size=100)  # consuming the parent must not affect children
        a = parent.split("stage", 3).normal(size=5)
        b = Rng(7).split("stage", 3).normal(size=5)
        assert np.array_equal(a, b)

    def test_split_children_independent(self):
        r = Rng(7)
        a = r.split("a").normal(size=5)
        b = r.split("b").normal(size=5)
        assert not np.array_equal(a, b)

    def test_split_key_validation(self):
        with pytest.raises(ValueError):
            Rng(0).split(-1)
        with pytest.raises(ValueError):
            Rng(0).split(2**32)

    def test_zero_scale_normal_is_exact_zero(self):
        assert np.array_equal(Rng(0).normal(size=4, scale=0.0), np.zeros(4))

    def test_pickle_and_deepcopy_resume_as_rng(self):
        original = Rng(3).split("a")
        original.normal(size=7)
        copies = [pickle.loads(pickle.dumps(original)), copy.deepcopy(original)]
        for twin in copies:
            assert type(twin) is Rng
            assert (twin.seed, twin.spawn_key) == (original.seed, original.spawn_key)
        expected = original.integers(0, 2**62, size=4)
        for twin in copies:
            assert np.array_equal(twin.integers(0, 2**62, size=4), expected)
            assert np.array_equal(twin.split("b").normal(size=5),
                                  original.split("b").normal(size=5))


class TestSingleBlasThread:
    def test_pins_one_thread_and_restores_the_count(self):
        blas = numerics._openblas()
        before = blas.scipy_openblas_get_num_threads64_()
        with single_blas_thread():
            assert blas.scipy_openblas_get_num_threads64_() == 1
        assert blas.scipy_openblas_get_num_threads64_() == before
