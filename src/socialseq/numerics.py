"""Shared numerical kernels: activations, KL divergence, PCA, seeded RNG,
and the BLAS thread pin.

Everything here is pure and 64-bit; random draws always flow through an
explicit `Rng`, and BLAS runs on one thread inside `single_blas_thread`,
so that pipelines are reproducible bit for bit.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class Rng(np.random.Generator):
    """Deterministic random stream addressed by (seed, split-key path): a
    numpy Generator on PCG64(SeedSequence(seed, spawn_key)).

    `split` derives an independent child stream from the parent's seed and
    a key path without consuming parent state, so concurrent pipeline
    stages can draw in any order and still reproduce exactly. Splitting
    twice with the same keys yields the same stream by design.
    """

    def __init__(self, seed: int, _spawn_key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.spawn_key = tuple(_spawn_key)
        super().__init__(
            np.random.PCG64(np.random.SeedSequence(self.seed, spawn_key=self.spawn_key))
        )

    def split(self, *keys: int | str) -> "Rng":
        return Rng(self.seed, self.spawn_key + tuple(_key_code(k) for k in keys))

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed}, spawn_key={self.spawn_key})"

    # Generator's own __reduce__ rebuilds a plain Generator; pickle and
    # deepcopy rebuild an Rng on the same key path and resume its stream.
    def __reduce__(self):
        return (Rng, (self.seed, self.spawn_key), self.bit_generator.state)

    def __setstate__(self, state: dict) -> None:
        self.bit_generator.state = state


# where numpy >= 2 wheels from PyPI keep their OpenBLAS (scipy-openblas):
# numpy.libs/ beside the package on Linux and Windows, numpy/.dylibs/ on macOS
_BUNDLED_LIB_DIRS = (Path(np.__file__).parent.parent / "numpy.libs",
                     Path(np.__file__).parent / ".dylibs")


def _openblas() -> ctypes.CDLL:
    """numpy's bundled OpenBLAS, the library with the thread-count calls.
    OSError when there is none (conda, distro and Accelerate builds)."""
    for folder in _BUNDLED_LIB_DIRS:
        for lib in sorted(glob.glob(str(folder / "*openblas*"))):
            handle = ctypes.CDLL(lib)
            if hasattr(handle, "scipy_openblas_set_num_threads64_"):
                return handle
    raise OSError("no OpenBLAS with scipy_openblas_set_num_threads64_ bundled with "
                  f"numpy {np.__version__}; cannot pin BLAS to one thread (socialseq "
                  "needs a numpy >= 2 wheel from PyPI)")


@contextlib.contextmanager
def single_blas_thread():
    """Run the block with OpenBLAS on one thread, restoring the thread count
    after. Some eigendecompositions and products (augment's 459-wide PCA
    among them) change their last bits with the thread count, so this keeps
    results independent of the core count."""
    blas = _openblas()
    before = blas.scipy_openblas_get_num_threads64_()
    blas.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        blas.scipy_openblas_set_num_threads64_(before)


def _key_code(key: int | str) -> int:
    if isinstance(key, str):
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        return int.from_bytes(digest[:4], "little")
    code = int(key)
    if not 0 <= code < 2**32:
        raise ValueError(f"integer split key must be in [0, 2^32), got {key}")
    return code


def softmax(logits) -> np.ndarray:
    """Stable softmax of a logit vector (max-subtracted before exp)."""
    z = np.asarray(logits, dtype=np.float64)
    if not np.isfinite(z).all():
        raise ValueError("softmax requires finite logits")
    e = np.exp(z - z.max())
    return e / e.sum()


def relu(x, out: np.ndarray | None = None) -> np.ndarray:
    """max(x, 0); `out=x` clips a float64 array in place."""
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0, out=out)


def kl_divergence(p, q, eps: float = 1e-8) -> float | np.ndarray:
    """KL(p || q) along the last axis, with eps-smoothing so absent classes
    stay finite.

    Both inputs get eps added to every entry and are renormalized before
    the sum, which keeps the score finite (and zero for identical inputs)
    even when one side is missing a class entirely. A pair of vectors gives
    a float; [..., C] arrays give an array of one KL per row, each equal bit
    for bit to the call on that row alone, so a batch pays for the checks
    once.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {q.shape}")
    if (p < 0).any() or (q < 0).any():
        raise ValueError("distributions must be nonnegative")
    if eps <= 0:
        raise ValueError("eps must be positive")
    ps = p + eps
    ps /= ps.sum(axis=-1, keepdims=True)
    qs = q + eps
    qs /= qs.sum(axis=-1, keepdims=True)
    kl = np.sum(ps * np.log(ps / qs), axis=-1)
    return float(kl) if kl.ndim == 0 else kl


@dataclass(frozen=True, eq=False)
class PcaModel:
    """Fitted principal axes: mean, orthonormal components (rows), variances."""

    mean: np.ndarray  # [d]
    components: np.ndarray  # [k, d], rows orthonormal
    eigenvalues: np.ndarray  # [k], descending, >= 0
    explained_variance_ratio: np.ndarray  # [k]

    @property
    def n_features(self) -> int:
        return self.components.shape[1]


def pca_fit(x, k: int) -> PcaModel:
    """Fit a k-component PCA of the rows of x (sample covariance, n-1).

    Eigendecomposes the d x d covariance, whatever the shape of x. When
    d > n, the axes past the data's rank have zero variance and eigh
    still returns them orthonormal. Component signs are fixed so the
    first nonzero coordinate of each axis is positive.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {x.shape}")
    n, d = x.shape
    if n < 2:
        raise ValueError("pca_fit needs at least 2 rows")
    if not 1 <= k <= min(n, d):
        raise ValueError(f"k={k} out of range for {n}x{d} data")
    mean = x.mean(axis=0)
    xc = x - mean
    total_var = float((xc * xc).sum()) / (n - 1)
    cov = (xc.T @ xc) / (n - 1)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1][:k]
    eigenvalues = np.clip(evals[order], 0.0, None)
    components = _fix_signs(evecs[:, order].T)
    if total_var > 0.0:
        ratio = eigenvalues / total_var
    else:
        ratio = np.zeros(k)
    return PcaModel(mean=mean, components=components, eigenvalues=eigenvalues,
                    explained_variance_ratio=ratio)


def pca_transform(model: PcaModel, x) -> np.ndarray:
    """Project rows of x onto the principal axes: (x - mean) @ components.T."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.n_features:
        raise ValueError(f"expected [n, {model.n_features}] input, got shape {x.shape}")
    return (x - model.mean) @ model.components.T


def _fix_signs(components: np.ndarray) -> np.ndarray:
    out = components.copy()
    for row in out:
        nz = np.nonzero(np.abs(row) > 1e-12)[0]
        if nz.size and row[nz[0]] < 0:
            row *= -1.0
    return out
