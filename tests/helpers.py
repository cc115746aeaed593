"""Shared test utilities: the finite-difference gradient oracle."""

import numpy as np

from socialseq.model import forward, joint_loss


def finite_difference_grads(model, frames, labels, weights, l2, mask=None, eps=1e-5):
    """Central finite differences of joint_loss w.r.t. every parameter."""
    out = {}
    train = mask is not None

    def loss():
        o = forward(model, frames, train=train, dropout_rate=0.3 if train else 0.0,
                    dropout_mask=mask)
        return joint_loss(o, labels, weights, l2, model)

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
