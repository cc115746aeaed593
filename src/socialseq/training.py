"""Training loop, Adam with step decay, metrics, and the benchmark grid.

Training is full batch: one Adam step per iteration on the mean gradient
over all training sequences, 150 iterations by default, snapshotting the
parameters with the best validation macro-F1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from socialseq.container import Record
from socialseq.dataset import SocialSequence, ValidationError, sequences_in_groups
from socialseq.features import AugmentConfig, augment
from socialseq.model import (
    Arch,
    GradientSum,
    ModelParams,
    backward,
    class_weights,
    forward,
    init_params,
    joint_loss,
    l2_penalty,
)
from socialseq.numerics import Rng, single_blas_thread
from socialseq.taxonomy import N_DOMAINS, N_RELATIONS, infer_domain_distribution

# Evaluation mode -> (head whose probabilities it reads, level it scores).
# domain-inferred sums the relation head's mass into domains.
EVAL_MODES = {
    "relation-direct": ("relation", "relation"),
    "domain-direct": ("domain", "domain"),
    "domain-inferred": ("relation", "domain"),
}

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingDiverged(RuntimeError):
    def __init__(self, message: str, history: list["HistoryRecord"]):
        super().__init__(message)
        self.history = history


@dataclass(frozen=True)
class TrainConfig(Record):
    arch: Arch = Arch.ST_REL
    hidden: int = 128
    alpha0: float = 2e-3
    dropout: float = 0.3
    l2: float = 1e-3
    iterations: int = 150
    decay_period: int = 50
    decay_factor: float = 0.5
    seed: int = 0
    augment_multiplier: int = 0
    augment_sigma: float = 0.01

    def __post_init__(self):
        object.__setattr__(self, "arch", Arch(self.arch))
        if self.iterations < 1:
            raise ValidationError("iterations must be >= 1")
        for name in ("hidden", "alpha0", "decay_period", "decay_factor"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValidationError("dropout must be in [0, 1)")
        if self.l2 < 0 or self.augment_sigma < 0 or self.augment_multiplier < 0:
            raise ValidationError("l2, augment_sigma and augment_multiplier must be >= 0")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")


def lr_schedule(iteration: int, cfg: TrainConfig) -> float:
    """alpha0 scaled by decay_factor every decay_period iterations."""
    if iteration < 0:
        raise ValueError("iteration must be >= 0")
    return cfg.alpha0 * cfg.decay_factor ** (iteration // cfg.decay_period)


@dataclass(eq=False)
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params: Mapping[str, np.ndarray]) -> "AdamState":
        return cls(
            m={name: np.zeros_like(arr) for name, arr in params.items()},
            v={name: np.zeros_like(arr) for name, arr in params.items()},
        )


def adam_step(params, grads: Mapping[str, np.ndarray], state: AdamState, lr: float):
    """One bias-corrected Adam update of the named arrays, in place; returns (params, state)."""
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for name, arr in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise TrainingDiverged(f"non-finite gradient in {name!r}", [])
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        arr -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    return params, state


def per_class_stats(confusion: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(precision, recall, f1) per class; zero-denominator cases give 0."""
    cm = np.asarray(confusion, dtype=np.float64)
    tp = np.diag(cm)
    fp = cm.sum(axis=0) - tp
    fn = cm.sum(axis=1) - tp
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(tp + fp > 0, tp / (tp + fp), 0.0)
        recall = np.where(tp + fn > 0, tp / (tp + fn), 0.0)
        f1 = np.where(2 * tp + fp + fn > 0, 2 * tp / (2 * tp + fp + fn), 0.0)
    return precision, recall, f1


def macro_f1(confusion) -> float:
    """Unweighted mean per-class F1 over every class of the matrix; classes
    absent from both truth and prediction count as 0."""
    cm = np.asarray(confusion)
    if (cm < 0).any():
        raise ValueError("confusion matrix entries must be nonnegative")
    return float(per_class_stats(cm)[2].mean())


def accuracy(confusion) -> float:
    cm = np.asarray(confusion, dtype=np.float64)
    total = cm.sum()
    if total == 0:
        raise ValueError("empty confusion matrix")
    return float(np.trace(cm) / total)


@dataclass(eq=False)
class EvalReport(Record):
    mode: str
    n: int
    accuracy: float
    macro_f1: float
    per_class_precision: np.ndarray
    per_class_recall: np.ndarray
    per_class_f1: np.ndarray
    confusion: np.ndarray


def report_from_predictions(truths: Sequence[int], preds: Sequence[int],
                            n_classes: int, mode: str) -> EvalReport:
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    for t, p in zip(truths, preds):
        confusion[t, p] += 1
    precision, recall, f1 = per_class_stats(confusion)
    return EvalReport(
        mode=mode,
        n=len(truths),
        accuracy=accuracy(confusion),
        macro_f1=macro_f1(confusion),
        per_class_precision=precision,
        per_class_recall=recall,
        per_class_f1=f1,
        confusion=confusion,
    )


def evaluate(model: ModelParams, sequences: Sequence[SocialSequence], mode: str) -> EvalReport:
    """Argmax predictions per sequence (lowest index wins ties) scored
    against the taxonomy-wide class set for the chosen mode."""
    if mode not in EVAL_MODES:
        raise ValueError(f"unknown evaluation mode {mode!r}")
    if not sequences:
        raise ValueError("cannot evaluate an empty dataset")
    head, level = EVAL_MODES[mode]
    if head not in model.arch.tasks:
        raise ValidationError(f"mode {mode!r} needs a {head} head ({model.arch.value})")

    truths = []
    preds = []
    for seq in sequences:
        out = forward(model, seq.frames)
        probs = out.relation_probs if head == "relation" else out.domain_probs
        if head != level:
            probs = infer_domain_distribution(probs)
        truths.append(int(getattr(seq, level)))
        preds.append(int(np.argmax(probs)))
    n_classes = N_RELATIONS if level == "relation" else N_DOMAINS
    return report_from_predictions(truths, preds, n_classes, mode)


@dataclass
class HistoryRecord(Record):
    iteration: int
    lr: float
    train_loss: float
    selection: float
    val_relation_f1: float | None = None
    val_relation_acc: float | None = None
    val_domain_f1: float | None = None
    val_domain_acc: float | None = None
    is_best: bool = False


@dataclass(eq=False)
class TrainResult:
    model: ModelParams
    history: list[HistoryRecord]
    best_iteration: int
    best_selection: float


def task_class_weights(sequences: Sequence[SocialSequence]) -> dict[str, np.ndarray]:
    rel_counts = np.bincount([s.relation for s in sequences], minlength=N_RELATIONS)
    dom_counts = np.bincount([s.domain for s in sequences], minlength=N_DOMAINS)
    return {"relation": class_weights(rel_counts), "domain": class_weights(dom_counts)}


def dropout_masks(rng: Rng, n: int, hidden: int, rate: float) -> np.ndarray | list[None]:
    """One inverted-scaling dropout mask per training sequence, row i for
    sequence i, from one `uniform((n, hidden))` draw: the same stream and
    bits as n draws of size `hidden`. No draw, and no masks, at rate 0."""
    if rate == 0.0:
        return [None] * n
    return (rng.uniform(size=(n, hidden)) >= rate) / (1.0 - rate)


def selection_mode(arch: Arch) -> str:
    """Validation metric used for model selection: relation macro-F1 when a
    relation head exists, domain macro-F1 otherwise."""
    return "relation-direct" if arch.has_relation_head else "domain-direct"


# The weight gradients are products over all training frames, whose last
# bits change with the BLAS thread count above 512 frames.
@single_blas_thread()
def train(
    cfg: TrainConfig,
    train_set: Sequence[SocialSequence],
    val_set: Sequence[SocialSequence],
) -> TrainResult:
    """Full-batch training, deterministic given (cfg, data) whatever the
    core count: it runs BLAS on one thread.

    Augments the training side first when cfg.augment_multiplier > 0, then
    runs `iterations` epochs of mean-gradient Adam steps, evaluating
    validation macro-F1 after each step and returning the best snapshot
    (ties resolved to the earliest iteration)."""
    if not train_set or not val_set:
        raise ValueError("train and validation sets must be nonempty")
    rng = Rng(cfg.seed)
    train_seqs = list(train_set)
    if cfg.augment_multiplier > 0:
        aug_cfg = AugmentConfig(
            sigma=cfg.augment_sigma, multiplier=cfg.augment_multiplier, seed=cfg.seed
        )
        train_seqs += augment(train_seqs, aug_cfg, rng.split("augment"))
    weights = task_class_weights(train_seqs)

    input_dim = train_seqs[0].frames.shape[1]
    model = init_params(cfg.arch, input_dim, cfg.hidden, rng.split("init"))
    arrays = dict(model.named_arrays())  # the live arrays Adam updates in place
    state = AdamState.for_params(arrays)
    drop_rng = rng.split("dropout")
    sel_mode = selection_mode(cfg.arch)

    history: list[HistoryRecord] = []
    best_model = None
    best_sel = -np.inf
    best_iter = -1
    n = len(train_seqs)
    labels_cache = [(int(s.domain), int(s.relation)) for s in train_seqs]
    grad_sum = GradientSum(model, sum(len(s.frames) for s in train_seqs), n)
    for it in range(cfg.iterations):
        for name, arr in arrays.items():
            if not np.all(np.isfinite(arr)):
                raise TrainingDiverged(
                    f"non-finite parameters in {name!r} at iteration {it}", history)
        lr = lr_schedule(it, cfg)
        grad_sum.clear()
        loss_sum = 0.0
        # CE terms per sequence; the L2 term and its gradient are identical
        # for every sequence, so they are added once to the mean.
        masks = dropout_masks(drop_rng, n, cfg.hidden, cfg.dropout)
        for seq, labels, mask in zip(train_seqs, labels_cache, masks):
            out = forward(model, seq.frames, mask)
            loss_sum += joint_loss(out, labels, weights, 0.0, model)
            backward(model, out.trace, labels, weights, 0.0, out=grad_sum)
        mean_loss = loss_sum / n + l2_penalty(model.weight_matrices(), cfg.l2)
        if not np.isfinite(mean_loss):
            raise TrainingDiverged(f"non-finite loss at iteration {it}", history)
        try:
            adam_step(arrays, grad_sum.gradients(cfg.l2), state, lr)
        except TrainingDiverged as exc:
            raise TrainingDiverged(f"{exc} at iteration {it}", history) from None

        record = HistoryRecord(iteration=it, lr=lr, train_loss=mean_loss, selection=0.0)
        if model.arch.has_relation_head:
            rel_report = evaluate(model, val_set, "relation-direct")
            record.val_relation_f1 = rel_report.macro_f1
            record.val_relation_acc = rel_report.accuracy
        if model.arch.has_domain_head:
            dom_report = evaluate(model, val_set, "domain-direct")
            record.val_domain_f1 = dom_report.macro_f1
            record.val_domain_acc = dom_report.accuracy
        record.selection = (
            record.val_relation_f1 if sel_mode == "relation-direct" else record.val_domain_f1
        )
        if record.selection > best_sel:
            best_sel = record.selection
            best_iter = it
            best_model = model.copy()
            record.is_best = True
        history.append(record)

    return TrainResult(
        model=best_model,
        history=history,
        best_iteration=best_iter,
        best_selection=best_sel,
    )


@dataclass
class BenchmarkRow(Record):
    task: str  # REL / DOM / DOM-INF
    strategy: str  # ST / MT-IND / MT-TD
    subset: str  # attribute mask name
    f1_pct: float | None
    acc_pct: float | None
    error: str | None = None

    @property
    def label(self) -> str:
        return f"{self.task}-{self.strategy}"


_STRATEGIES = (
    ("ST", {"relation": Arch.ST_REL, "domain": Arch.ST_DOM}),
    ("MT-IND", {"relation": Arch.MT_IND, "domain": Arch.MT_IND}),
    ("MT-TD", {"relation": Arch.MT_TD, "domain": Arch.MT_TD}),
)

_TASK_MODES = (
    ("REL", "relation-direct"),
    ("DOM", "domain-direct"),
    ("DOM-INF", "domain-inferred"),
)


def benchmark_suite(
    cfg: TrainConfig,
    sequences_by_group: Mapping[tuple[str, str], Sequence[SocialSequence]],
    suite,
    masks: Mapping[str, np.ndarray] | None = None,
) -> list[BenchmarkRow]:
    """Train every strategy on every cross-validation split and report mean
    test metrics per (task, strategy, attribute subset).

    `masks` maps subset names to column index arrays; when given, an "ALL"
    subset is (re)built as the union of the others. Cell failures are
    recorded on their row and the rest of the grid still runs.
    """
    if masks is None:
        subset_cols: dict[str, np.ndarray | None] = {"ALL": None}
    else:
        subset_cols = {name: np.asarray(cols, dtype=np.intp) for name, cols in masks.items()}
        others = [set(c.tolist()) for n, c in subset_cols.items() if n != "ALL"]
        if others:  # ALL is always the union of the named subsets
            subset_cols["ALL"] = np.asarray(sorted(set().union(*others)), dtype=np.intp)

    test_seqs = sequences_in_groups(sequences_by_group, suite.outer.val_groups)
    folds = [(sequences_in_groups(sequences_by_group, plan.train_groups),
              sequences_in_groups(sequences_by_group, plan.val_groups))
             for plan in suite.inner]
    rows: list[BenchmarkRow] = []
    for subset_name, cols in subset_cols.items():
        def masked(seqs):
            if cols is None:
                return list(seqs)
            return [replace_frames(s, s.frames[:, cols]) for s in seqs]

        trained: dict[Arch, list[ModelParams] | Exception] = {}
        for arch in (Arch.ST_REL, Arch.ST_DOM, Arch.MT_IND, Arch.MT_TD):
            try:
                trained[arch] = [
                    train(replace(cfg, arch=arch), masked(tr), masked(va)).model
                    for tr, va in folds
                ]
            except Exception as exc:  # keep the rest of the grid running
                trained[arch] = exc

        mtest = masked(test_seqs)
        for task_name, mode in _TASK_MODES:
            for strat_name, archs in _STRATEGIES:
                arch = archs[EVAL_MODES[mode][0]]
                outcome = trained[arch]
                if isinstance(outcome, Exception):
                    rows.append(BenchmarkRow(task_name, strat_name, subset_name,
                                             None, None, error=str(outcome)))
                    continue
                try:
                    reports = [evaluate(m, mtest, mode) for m in outcome]
                    rows.append(BenchmarkRow(
                        task_name, strat_name, subset_name,
                        f1_pct=100.0 * float(np.mean([r.macro_f1 for r in reports])),
                        acc_pct=100.0 * float(np.mean([r.accuracy for r in reports])),
                    ))
                except Exception as exc:
                    rows.append(BenchmarkRow(task_name, strat_name, subset_name,
                                             None, None, error=str(exc)))
    return rows


def replace_frames(seq: SocialSequence, frames: np.ndarray) -> SocialSequence:
    return replace(seq, frames=frames)


def render_benchmark_table(rows: Sequence[BenchmarkRow]) -> str:
    """Human-readable table in the F1-score [%] / Acc [%] layout."""
    label_width = max(len("model"), max((len(f"{r.label}/{r.subset}") for r in rows), default=5))
    lines = [f"{'model':<{label_width}}  {'F1-score [%]':>12}  {'Acc [%]':>8}"]
    for r in rows:
        label = f"{r.label}/{r.subset}" if r.subset != "ALL" else r.label
        if r.error is not None:
            lines.append(f"{label:<{label_width}}  {'ERROR':>12}  {r.error}")
        else:
            lines.append(f"{label:<{label_width}}  {r.f1_pct:>12.2f}  {r.acc_pct:>8.2f}")
    return "\n".join(lines)
