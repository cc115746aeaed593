"""LSTM sequence classifier in four wirings, with exact gradients.

Stack: per-frame FC + ReLU -> LSTM -> dropout on the final hidden state
(a mask the training loop draws, inverted scaling) -> softmax head(s).

  st-rel / st-dom  one softmax head over relations / domains
  mt-ind           domain and relation heads both read the hidden state
  mt-td            the relation head additionally reads the domain head's
                   softmax output (soft, differentiable coupling)

Only the recurrence runs in time order: `input_projections` computes the
FC + ReLU output and the gates' input projection of any number of frames
with one product per layer, and `forward` runs one sequence's recurrence
and heads on its rows.

`backward` is a hand-rolled BPTT that matches the loss exactly, including
the gradient path from the relation loss through the domain softmax in
mt-td. It is checked against central finite differences in the tests. It
packs each sequence's per-frame deltas into a `GradientSum`, which forms
the weight gradients of any number of sequences with one product each.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Mapping

import numpy as np

from socialseq.container import read_container, write_container
from socialseq.dataset import ValidationError
from socialseq.numerics import Rng, relu, softmax
from socialseq.taxonomy import N_DOMAINS, N_RELATIONS

_CE_EPS = 1e-12


class Arch(str, Enum):
    ST_REL = "st-rel"
    ST_DOM = "st-dom"
    MT_IND = "mt-ind"
    MT_TD = "mt-td"

    @property
    def has_domain_head(self) -> bool:
        return self is not Arch.ST_REL

    @property
    def has_relation_head(self) -> bool:
        return self is not Arch.ST_DOM

    @property
    def tasks(self) -> tuple[str, ...]:
        tasks = ()
        if self.has_domain_head:
            tasks += ("domain",)
        if self.has_relation_head:
            tasks += ("relation",)
        return tasks


@dataclass(eq=False)
class DenseParams:
    w: np.ndarray  # [out, in]
    b: np.ndarray  # [out]


@dataclass(eq=False)
class LstmParams:
    """Gate parameters stacked row-wise in (input, forget, output, candidate)
    order: w [4h, in], u [4h, h], b [4h]."""

    w: np.ndarray
    u: np.ndarray
    b: np.ndarray

    @property
    def hidden(self) -> int:
        return self.u.shape[1]

    @property
    def input_dim(self) -> int:
        return self.w.shape[1]


@dataclass(eq=False)
class ModelParams:
    arch: Arch
    fc_in: DenseParams
    lstm: LstmParams
    head_domain: DenseParams | None
    head_relation: DenseParams | None

    @property
    def input_dim(self) -> int:
        return self.fc_in.w.shape[1]

    @property
    def hidden(self) -> int:
        return self.lstm.hidden

    def named_arrays(self) -> Iterator[tuple[str, np.ndarray]]:
        for name in param_shapes(self.arch, self.input_dim, self.hidden):
            layer, field = name.split(".")
            yield name, getattr(getattr(self, layer), field)

    def weight_matrices(self) -> Iterator[np.ndarray]:
        for name, arr in self.named_arrays():
            if name.endswith(".w"):
                yield arr

    def copy(self) -> "ModelParams":
        return copy.deepcopy(self)


def param_shapes(arch: Arch, input_dim: int, hidden: int) -> dict[str, tuple[int, ...]]:
    """Every parameter array's name and shape, in the order `named_arrays`
    yields and artifacts store them: the one statement of the four wirings'
    layouts."""
    arch = Arch(arch)
    shapes = {
        "fc_in.w": (hidden, input_dim), "fc_in.b": (hidden,),
        "lstm.w": (4 * hidden, hidden), "lstm.u": (4 * hidden, hidden), "lstm.b": (4 * hidden,),
    }
    if arch.has_domain_head:
        shapes.update({"head_domain.w": (N_DOMAINS, hidden), "head_domain.b": (N_DOMAINS,)})
    if arch.has_relation_head:
        rel_in = hidden + N_DOMAINS if arch is Arch.MT_TD else hidden
        shapes.update({"head_relation.w": (N_RELATIONS, rel_in),
                       "head_relation.b": (N_RELATIONS,)})
    return shapes


def _from_arrays(arch: Arch, arrays: Mapping[str, np.ndarray]) -> ModelParams:
    def dense(layer):
        w = arrays.get(f"{layer}.w")
        return None if w is None else DenseParams(w, arrays[f"{layer}.b"])

    return ModelParams(arch=arch, fc_in=dense("fc_in"),
                       lstm=LstmParams(arrays["lstm.w"], arrays["lstm.u"], arrays["lstm.b"]),
                       head_domain=dense("head_domain"), head_relation=dense("head_relation"))


def init_params(arch: Arch, input_dim: int, hidden: int, rng: Rng) -> ModelParams:
    """Uniform Glorot weights (the LSTM's per gate block), zero biases,
    forget-gate bias +1."""
    arch = Arch(arch)
    arrays = {}
    for name, shape in param_shapes(arch, input_dim, hidden).items():
        if name.endswith(".b"):
            arrays[name] = np.zeros(shape)
            continue
        fan_out = shape[0] // 4 if name.startswith("lstm.") else shape[0]
        limit = np.sqrt(6.0 / (shape[1] + fan_out))
        arrays[name] = rng.uniform(-limit, limit, size=shape)
    arrays["lstm.b"][hidden:2 * hidden] = 1.0
    return _from_arrays(arch, arrays)


# 0-d operands: numpy applies these faster than Python floats, same values.
_HALF = np.array(0.5)
_ONE = np.array(1.0)
# BPTT: the state row, (dc, dh), that scales each gate row (i, f, o, g).
_GATE_STATE_ROW = np.array([0, 0, 1, 0])


def _affine(x: np.ndarray, layer: DenseParams | LstmParams,
            out: np.ndarray | None = None) -> np.ndarray:
    """x·wᵀ + b for every row of x, into `out` when given."""
    out = np.matmul(x, layer.w.T, out=out)
    out += layer.b
    return out


@dataclass(eq=False)
class LstmTrace:
    inputs: np.ndarray  # [T, in]
    gates: np.ndarray  # [T, 4h] activations: sigmoid i, f, o, tanh candidate g
    c: np.ndarray  # [T, h] cell states
    tanh_c: np.ndarray
    h: np.ndarray  # hidden states


def lstm_forward(params: LstmParams, inputs, gates: np.ndarray | None = None
                 ) -> tuple[np.ndarray, LstmTrace]:
    """Run the LSTM recurrence from zero initial state; returns the final
    hidden state and the per-timestep activations needed for backprop.

    `gates` [T, 4h], when given, is the input projection of `inputs`
    already computed (rows of `input_projections` over packed frames); the
    recurrence overwrites it with the gate activations, and the trace
    keeps it. Each timestep activates its row of the projection in place
    and writes c, tanh(c) and h straight into the trace, a fixed handful of
    whole-row numpy calls per step."""
    a = np.asarray(inputs, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected [T, in] inputs, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValueError("empty sequence")
    if a.shape[1] != params.input_dim:
        raise ValueError(f"input width {a.shape[1]} != lstm input {params.input_dim}")
    t_len, h = a.shape[0], params.hidden
    if gates is None:
        gates = _affine(a, params)
    elif gates.shape != (t_len, 4 * h):
        raise ValueError(f"projected gates {gates.shape} != {(t_len, 4 * h)}")
    cs, tcs, hs = np.empty((3, t_len, h))
    rec = np.empty(4 * h)
    ig = np.empty(h)
    h_prev = c_prev = np.zeros(h)
    rows = zip(gates, gates[:, :3 * h], gates[:, :h], gates[:, h:2 * h],
               gates[:, 2 * h:3 * h], gates[:, 3 * h:], cs, tcs, hs)
    for z, sig, i, f, o, g, c, tc, h_t in rows:
        np.matmul(params.u, h_prev, out=rec)
        z += rec
        # sigmoid(z) = 0.5 * (1 + tanh(0.5 z)) is overflow-free; one tanh
        # call covers the three sigmoid gates and the candidate.
        sig *= _HALF
        np.tanh(z, out=z)
        sig += _ONE
        sig *= _HALF
        np.multiply(f, c_prev, out=c)
        np.multiply(i, g, out=ig)
        c += ig
        np.tanh(c, out=tc)
        np.multiply(o, tc, out=h_t)
        h_prev, c_prev = h_t, c
    trace = LstmTrace(inputs=a, gates=gates, c=cs, tanh_c=tcs, h=hs)
    return hs[-1], trace


def lstm_backward(params: LstmParams, trace: LstmTrace, d_h_last: np.ndarray) -> np.ndarray:
    """BPTT given the gradient at the final hidden state; returns dz [T, 4h],
    the loss gradient at each timestep's gate pre-activations. Every
    parameter and input gradient is a product of these (`GradientSum`)."""
    t_len, h = trace.h.shape
    gates = trace.gates.reshape(t_len, 4, h)
    i, f, o, g = gates.transpose(1, 0, 2)
    tc = trace.tanh_c
    # Each gate row of dz_t is the product ((left * a) * b) * k, taken left to
    # right: left = (dc, dc, dh, dc) and, for the rows (i, f, o, g),
    #   a = (g, c_{t-1}, tanh c, i), b = (i, f, o, 1), k = (1-i, 1-f, 1-o, 1-g^2).
    # Multiplying by 1 is exact, so every row keeps the plain per-gate
    # product. a, b and k do not depend on the recurrence and are built for
    # all t here; each step writes left into factor slot 0.
    fac = np.empty((t_len, 4, 4, h))  # [t, (left, a, b, k), gate, h]
    _, fac_a, fac_b, fac_k = fac.transpose(1, 0, 2, 3)
    fac_a[:, 0] = g
    fac_a[0, 1] = 0.0
    fac_a[1:, 1] = trace.c[:-1]
    fac_a[:, 2] = tc
    fac_a[:, 3] = i
    fac_b[:] = gates
    fac_b[:, 3] = 1.0
    np.subtract(1.0, gates, out=fac_k)
    k_g = fac_k[:, 3]
    np.multiply(g, g, out=k_g)
    np.subtract(1.0, k_g, out=k_g)
    d_tanh_c = 1.0 - tc * tc
    dz_all = np.empty((t_len, 4 * h))
    state = np.zeros((2, h))
    dc, dh = state
    dh[:] = d_h_last
    tmp = np.empty(h)
    u_t = params.u.T
    rows = zip(fac[::-1], dz_all[::-1], o[::-1], d_tanh_c[::-1], f[::-1])
    for fac_t, dz, o_t, d_tanh_c_t, f_t in rows:
        np.multiply(dh, o_t, out=tmp)
        tmp *= d_tanh_c_t
        dc += tmp
        state.take(_GATE_STATE_ROW, axis=0, out=fac_t[0])
        np.multiply.reduce(fac_t, axis=0, out=dz.reshape(4, h))  # slot by slot, in order
        np.matmul(u_t, dz, out=dh)
        dc *= f_t
    return dz_all


@dataclass(eq=False)
class ForwardTrace:
    """Cached activations from one forward pass, enough for exact backprop."""

    x: np.ndarray  # raw frames [T, in]
    lstm: LstmTrace  # its inputs are the FC+ReLU output [T, h]
    dropout_mask: np.ndarray | None
    h_drop: np.ndarray
    domain_probs: np.ndarray | None
    relation_probs: np.ndarray | None
    relation_input: np.ndarray | None


@dataclass(eq=False)
class HeadOutputs:
    domain_probs: np.ndarray | None
    relation_probs: np.ndarray | None
    trace: ForwardTrace


def _check_frames(model: ModelParams, frames) -> np.ndarray:
    """One sequence's frames as a float64 [T, input_dim] array, T >= 1."""
    x = np.asarray(frames, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError(f"expected a nonempty [T, {model.input_dim}] array, got {x.shape}")
    if x.shape[1] != model.input_dim:
        raise ValueError(f"frame width {x.shape[1]} != model input {model.input_dim}")
    return x


def pack_frames(model: ModelParams, frame_arrays) -> tuple[np.ndarray, list[slice]]:
    """Every sequence's frames stacked row-wise, each checked as `forward`
    checks it, and each sequence's row slice of the stack."""
    xs = [_check_frames(model, frames) for frames in frame_arrays]
    ends = np.cumsum([len(x) for x in xs]).tolist()
    return np.concatenate(xs), [slice(end - len(x), end) for x, end in zip(xs, ends)]


def input_projections(model: ModelParams, x: np.ndarray,
                      out: tuple[np.ndarray, np.ndarray] | None = None
                      ) -> tuple[np.ndarray, np.ndarray]:
    """The per-frame half of the forward pass, which no earlier timestep
    feeds: A = relu(X·W_fcᵀ + b_fc) [N, h] and the gates' input projection
    A·W_lstmᵀ + b_lstm [N, 4h], for any number N of frame rows at once,
    written into `out` = (A, Z) buffers when given.

    A row's last bits depend on N (BLAS picks its kernel by the row
    count), so a sequence's rows of a packed pass may differ in the last
    place from those of its own one-sequence `forward`."""
    a_out, z_out = (None, None) if out is None else out
    a = _affine(x, model.fc_in, a_out)
    relu(a, out=a)
    return a, _affine(a, model.lstm, z_out)


def forward(model: ModelParams, frames, dropout_mask: np.ndarray | None = None, *,
            projected: tuple[np.ndarray, np.ndarray] | None = None) -> HeadOutputs:
    """Forward pass over one sequence, a pure function of its arguments
    but for the `projected` rows it overwrites.

    A given `dropout_mask` [h] multiplies the final hidden state (training
    draws it with inverted scaling, `training.dropout_masks`); without one
    this is the eval-mode pass. `projected` is the sequence's rows of
    `input_projections` over packed frames, which the recurrence overwrites
    with its gate activations; without it the pass projects its own frames.
    """
    x = _check_frames(model, frames)
    a, z = input_projections(model, x) if projected is None else projected
    if len(a) != len(x):
        raise ValueError(f"{len(a)} projected rows for {len(x)} frames")
    h_last, lstm_trace = lstm_forward(model.lstm, a, gates=z)

    h_drop = h_last if dropout_mask is None else h_last * dropout_mask

    domain_probs = None
    relation_probs = None
    relation_input = None
    if model.head_domain is not None:
        domain_probs = softmax(model.head_domain.w @ h_drop + model.head_domain.b)
    if model.head_relation is not None:
        if model.arch is Arch.MT_TD:
            relation_input = np.concatenate([h_drop, domain_probs])
        else:
            relation_input = h_drop
        relation_probs = softmax(model.head_relation.w @ relation_input + model.head_relation.b)

    trace = ForwardTrace(
        x=x, lstm=lstm_trace, dropout_mask=dropout_mask, h_drop=h_drop,
        domain_probs=domain_probs, relation_probs=relation_probs,
        relation_input=relation_input,
    )
    return HeadOutputs(domain_probs=domain_probs, relation_probs=relation_probs, trace=trace)


def class_weights(label_counts) -> np.ndarray:
    """Inverse-frequency class weights w_c = N / (C * max(n_c, 1)); balanced
    counts give unit weights."""
    counts = np.asarray(label_counts, dtype=np.float64)
    total = counts.sum()
    if total <= 0:
        raise ValueError("need at least one labelled example")
    return total / (len(counts) * np.maximum(counts, 1.0))


def weighted_cross_entropy(probs, label: int, weights) -> float:
    """-w[label] * ln(p[label] + 1e-12)."""
    p = np.asarray(probs, dtype=np.float64)
    if not 0 <= label < p.shape[0]:
        raise ValueError(f"label {label} out of range for {p.shape[0]} classes")
    w = np.asarray(weights, dtype=np.float64)
    return float(-w[label] * np.log(p[label] + _CE_EPS))


def l2_penalty(weight_matrices, l2: float) -> float:
    """l2/2 * sum of squared entries over the given weight matrices."""
    if l2 == 0.0:
        return 0.0
    return 0.5 * l2 * float(sum(np.sum(w * w) for w in weight_matrices))


def joint_loss(
    outputs: HeadOutputs,
    labels: tuple[int, int],
    weights: Mapping[str, np.ndarray],
    l2: float,
    model: ModelParams,
) -> float:
    """Sum of the weighted cross-entropies of every head the model has
    (equal importance) plus the L2 penalty on weight matrices. A zero
    class-weight vector takes one head's term out."""
    domain_label, relation_label = labels
    total = l2_penalty(model.weight_matrices(), l2)
    if outputs.domain_probs is not None:
        total += weighted_cross_entropy(outputs.domain_probs, domain_label, weights["domain"])
    if outputs.relation_probs is not None:
        total += weighted_cross_entropy(outputs.relation_probs, relation_label,
                                        weights["relation"])
    return total


def _ce_softmax_grad(probs: np.ndarray, label: int, weights: np.ndarray) -> np.ndarray:
    # d/dz of -w_y ln(softmax(z)_y + eps); the p/(p+eps) factor keeps this
    # exact for the eps-guarded loss.
    scale = weights[label] * probs[label] / (probs[label] + _CE_EPS)
    dz = scale * probs
    dz[label] -= scale
    return dz


class GradientSum:
    """The deltas of any number of `backward` calls, packed row-wise, from
    which `gradients` forms the mean loss's gradients with one product per
    weight matrix.

    `x` [N, in] and `a` [N, h] are the FC input and the LSTM input (the
    FC+ReLU output) of every frame of the sequences to be added, packed in
    the order they will be added (`pack_frames`, `input_projections`). The
    sum reads them in `gradients` and copies neither, so a training loop
    that refills `a` in place each iteration passes it once. Per frame the
    sum keeps h_{t-1} (zero at t = 0) and the gate gradient dz; per
    sequence, each head's logit gradient and input. Every gradient is
    linear in these: lstm.w = dZᵀA, lstm.u = dZᵀH_{t-1}, fc_in.w =
    (dZ·W ∘ [A > 0])ᵀX and head.w = dZ_headᵀ input, with column sums for the
    biases. The buffers are sized once, for `sequences` sequences of N
    frames in all; `clear` empties the sum and keeps them, so a training
    loop reuses them every iteration, and no trace is kept past its own
    `backward` call."""

    def __init__(self, model: ModelParams, x: np.ndarray, a: np.ndarray, sequences: int):
        if len(a) != len(x):
            raise ValueError(f"{len(a)} LSTM input rows for {len(x)} frames")
        self._model = model
        self._x, self._a = x, a
        h = model.hidden
        self._buffers = {"h_prev": np.empty((len(x), h)), "dz": np.empty((len(x), 4 * h))}
        for layer in ("head_domain", "head_relation"):
            if getattr(model, layer) is not None:
                n_out, n_in = getattr(model, layer).w.shape
                self._buffers[f"{layer}.dz"] = np.empty((sequences, n_out))
                self._buffers[f"{layer}.in"] = np.empty((sequences, n_in))
        self.clear()

    def clear(self) -> None:
        self.frames = 0
        self.sequences = 0

    def add(self, trace: ForwardTrace, dz: np.ndarray, head_deltas: Mapping[str, np.ndarray]):
        """Append the next sequence of the packing: its trace, its
        `lstm_backward` dz and each head layer's logit gradient."""
        buf, f, s = self._buffers, self.frames, self.sequences
        end = f + len(dz)
        if end > len(self._x):
            raise ValueError(f"{end} frames added, {len(self._x)} packed")
        buf["h_prev"][f] = 0.0
        buf["h_prev"][f + 1:end] = trace.lstm.h[:-1]
        buf["dz"][f:end] = dz
        inputs = {"head_domain": trace.h_drop, "head_relation": trace.relation_input}
        for layer, delta in head_deltas.items():
            buf[f"{layer}.dz"][s] = delta
            buf[f"{layer}.in"][s] = inputs[layer]
        self.frames, self.sequences = end, s + 1

    def gradients(self, l2: float) -> dict[str, np.ndarray]:
        """Gradients of the mean loss over the added sequences plus the L2
        penalty, keyed and ordered as `model.named_arrays()`."""
        if not self.sequences:
            raise ValueError("no sequence has been added")
        if self.frames != len(self._x):
            raise ValueError(f"{self.frames} frames added, {len(self._x)} packed")
        buf, model, x, a = self._buffers, self._model, self._x, self._a
        h_prev, dz = buf["h_prev"], buf["dz"]
        d_pre = dz @ model.lstm.w
        d_pre *= a > 0
        grads = {
            "fc_in.w": d_pre.T @ x, "fc_in.b": d_pre.sum(axis=0),
            "lstm.w": dz.T @ a, "lstm.u": dz.T @ h_prev, "lstm.b": dz.sum(axis=0),
        }
        for layer in ("head_domain", "head_relation"):
            if getattr(model, layer) is not None:
                delta = buf[f"{layer}.dz"][:self.sequences]
                grads[f"{layer}.w"] = delta.T @ buf[f"{layer}.in"][:self.sequences]
                grads[f"{layer}.b"] = delta.sum(axis=0)
        for name, arr in model.named_arrays():
            grads[name] /= self.sequences
            if l2 and name.endswith(".w"):
                grads[name] += l2 * arr
        return grads


def backward(
    model: ModelParams,
    trace: ForwardTrace,
    labels: tuple[int, int],
    weights: Mapping[str, np.ndarray],
    l2: float,
    *,
    out: GradientSum | None = None,
) -> Mapping[str, np.ndarray] | None:
    """Exact gradients of joint_loss w.r.t. every parameter.

    In mt-td the relation loss backpropagates through the domain softmax
    into the domain head and the shared trunk. This computes the sequence's
    head deltas and BPTT dz and appends them to `out`, a sum for this model
    whose `gradients` adds the L2 term; a training loop passes one sum for
    all its sequences, added in their packed order. Without `out` it
    returns the one sequence's gradients, L2 included."""
    if out is not None:
        _backward_into(model, trace, labels, weights, out)
        return None
    one = GradientSum(model, trace.x, trace.lstm.inputs, 1)
    _backward_into(model, trace, labels, weights, one)
    return one.gradients(l2)


def _backward_into(model: ModelParams, trace: ForwardTrace, labels: tuple[int, int],
                   weights: Mapping[str, np.ndarray], out: GradientSum) -> None:
    domain_label, relation_label = labels
    h = model.hidden
    d_hdrop = np.zeros(h)
    head_deltas = {}
    dz_domain = np.zeros(N_DOMAINS) if model.head_domain is not None else None

    if model.head_relation is not None:
        dz_rel = _ce_softmax_grad(trace.relation_probs, relation_label, weights["relation"])
        head_deltas["head_relation"] = dz_rel
        d_rel_in = model.head_relation.w.T @ dz_rel
        if model.arch is Arch.MT_TD:
            d_hdrop += d_rel_in[:h]
            dp = d_rel_in[h:]  # gradient into the domain softmax output
            pd = trace.domain_probs
            dz_domain += pd * (dp - np.dot(dp, pd))
        else:
            d_hdrop += d_rel_in

    if model.head_domain is not None:
        dz_domain += _ce_softmax_grad(trace.domain_probs, domain_label, weights["domain"])
        head_deltas["head_domain"] = dz_domain
        d_hdrop += model.head_domain.w.T @ dz_domain

    d_h_last = d_hdrop * trace.dropout_mask if trace.dropout_mask is not None else d_hdrop
    out.add(trace, lstm_backward(model.lstm, trace.lstm, d_h_last), head_deltas)


def save_model(path, model: ModelParams, *, manifest_hash: str = "",
               config_hash: str = "", seed: int = 0, meta: dict | None = None) -> None:
    write_container(path, "model", {
        "arch": model.arch.value,
        "input_dim": model.input_dim,
        "hidden": model.hidden,
        "manifest_hash": manifest_hash,
        "config_hash": config_hash,
        "seed": seed,
        "meta": meta or {},
    }, list(model.named_arrays()))


def load_model(path, *, expect_manifest_hash: str | None = None) -> tuple[ModelParams, dict]:
    """Read a model, refusing one whose arrays are not exactly the names and
    shapes its header's wiring needs."""
    header, arrays = read_container(path)
    if header.get("kind") != "model":
        raise ValidationError(f"{path}: not a model container")
    found = header.get("manifest_hash")
    if expect_manifest_hash is not None and found != expect_manifest_hash:
        raise ValidationError(
            f"{path}: layout manifest hash mismatch "
            f"(model {str(found)[:12]}..., dataset {expect_manifest_hash[:12]}...)"
        )
    try:
        arch = Arch(header["arch"])
        shapes = param_shapes(arch, header["input_dim"], header["hidden"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: bad model header: {exc!r}") from None
    found_shapes = {name: arr.shape for name, arr in arrays.items()}
    wrong = [f"{name} {found_shapes.get(name, 'missing')} (needs {shapes.get(name, 'none')})"
             for name in {**shapes, **found_shapes} if found_shapes.get(name) != shapes.get(name)]
    if wrong:
        raise ValidationError(f"{path}: arrays do not match the {arch.value} wiring: "
                              + ", ".join(wrong))
    return _from_arrays(arch, arrays), header
