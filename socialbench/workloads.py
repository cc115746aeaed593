"""The three workloads: inputs made from the seed, the job, and its checks.

Every workload has the same shape so the runner can treat them alike:

  setup(seed, workdir)          build the inputs (timed as setup_s)
  fingerprint(inputs)           hash of the inputs, for the determinism check
  job(inputs, ledger, tracer)   run the measured work once, return an Outcome
  expected_counts(inputs, out)  call counts a traced repetition must match

and `score` makes the eval-mode forward calls, one sequence per call.

Sequence lengths come from a fixed multiset that every (user, day) group
shares, permuted per group by the seed. Any grouped split then holds the
same number of frames for every seed, so the seed changes the data and
labels but not the amount of work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import shutil
import tempfile
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from socialseq import cli, dataset, model, splits, synth, training
from socialseq.model import Arch
from socialseq.numerics import Rng

import spans


class Ledger:
    """Operations attempted and failed, plus every failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, what: str, exc: BaseException | None = None) -> None:
        self.failed += 1
        self.problems.append(what if exc is None else f"{what}: {exc!r}")
        if exc is not None:
            traceback.print_exception(exc)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        if not ok:
            self.problems.append(f"check {name} failed {detail}".rstrip())
        return ok


@dataclass
class Outcome:
    """What one job did, for the end-to-end metrics and the checks."""

    wall_s: float
    train_frame_steps: int = 0  # training frames x iterations
    train_s: float = 0.0
    val_f1: list[float] = field(default_factory=list)
    test_f1: float = float("nan")
    scorer: object = None  # model used for the scoring calls
    score_seqs: list = field(default_factory=list)
    fingerprint: str = ""  # determinism check across repetitions
    extra: dict = field(default_factory=dict)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fixed_length_corpus(seed: int, users: int, days: int, lengths: tuple[int, ...],
                        **synth_knobs):
    """Synthetic corpus in which every (user, day) group holds one sequence
    of each length in `lengths`; returns (manifest, sequences)."""
    groups = users * days
    cfg = synth.SynthConfig(n_sequences=groups * len(lengths), users=users,
                            days_per_user=days, min_len=max(lengths),
                            max_len=max(lengths), seed=seed, **synth_knobs)
    ds = synth.generate_corpus(cfg)
    per_group = np.random.default_rng([seed, 7]).permuted(
        np.tile(np.asarray(lengths), (groups, 1)), axis=1)
    # generate_corpus deals sequence s to group s % groups
    seqs = [replace(s, frames=s.frames[:per_group[i % groups, i // groups]])
            for i, s in enumerate(ds.sequences)]
    return ds.manifest, seqs


def gather(by_group, keys) -> list:
    out = []
    for key in keys:
        out.extend(by_group[tuple(key)])
    return out


def by_group(seqs) -> dict:
    out: dict = {}
    for s in seqs:
        out.setdefault(s.group_key, []).append(s)
    return out


def digest_sequences(seqs) -> str:
    h = hashlib.sha256()
    for s in seqs:
        h.update(f"{s.id}|{s.user}|{s.day}|{int(s.relation)}|".encode())
        h.update(np.ascontiguousarray(s.frames).tobytes())
    return h.hexdigest()


def frames_of(seqs) -> int:
    return sum(s.frames.shape[0] for s in seqs)


def score(outcome: Outcome, ledger: Ledger, calls: int, start: int = 0) -> list[float]:
    """Eval-mode forward over held-out sequences, one per call, cycling from
    the `start`-th call; returns the per-call latencies in seconds."""
    seqs = outcome.score_seqs
    latencies = []
    for i in range(start, start + calls):
        frames = seqs[i % len(seqs)].frames
        ledger.attempted += 1
        t0 = time.perf_counter()
        try:
            out = model.forward(outcome.scorer, frames)
        except Exception as exc:  # count it and keep scoring
            ledger.fail("score call", exc)
            continue
        latencies.append(time.perf_counter() - t0)
        if i < len(seqs):
            for probs in (out.domain_probs, out.relation_probs):
                if probs is not None:
                    ledger.check("score.probabilities",
                                 bool(np.all(np.isfinite(probs)))
                                 and abs(float(probs.sum()) - 1.0) < 1e-9, f"call {i}")
    return latencies


# -- train-h128 ----------------------------------------------------------


@dataclass(frozen=True)
class TrainSize:
    users: int
    days: int
    lengths: tuple[int, ...]
    iterations: int
    hidden: int
    candidates: int
    pool_ratio: float  # share of sequences kept for training and validation
    train_ratio: float  # share of that pool used for training
    score_calls: int  # per job


class TrainH128:
    """One mt-td `train` at hidden 128, then per-sequence scoring."""

    name = "train-h128"
    sizes = {
        "full": TrainSize(users=5, days=8, lengths=(2, 6, 10, 14, 18, 20),
                          iterations=15, hidden=128, candidates=300,
                          pool_ratio=0.6, train_ratio=0.5, score_calls=1000),
        "tiny": TrainSize(users=2, days=3, lengths=(2, 5), iterations=3, hidden=8,
                          candidates=20, pool_ratio=0.6, train_ratio=0.6,
                          score_calls=20),
    }
    synth_knobs = dict(domain_sep=1.0, relation_sep=1.0, noise=0.5)

    def __init__(self, size: str):
        self.size = self.sizes[size]

    def setup(self, seed: int, workdir: Path) -> dict:
        z = self.size
        _, seqs = fixed_length_corpus(seed, z.users, z.days, z.lengths, **self.synth_knobs)
        groups = by_group(seqs)
        outer = splits.select_splits(seqs, n_candidates=z.candidates, k=1,
                                     ratio=z.pool_ratio, seed=seed).outer
        pool = gather(groups, outer.train_groups)
        inner = splits.select_splits(pool, n_candidates=z.candidates, k=1,
                                     ratio=z.train_ratio, seed=seed).outer
        return {
            "seed": seed,
            "train": gather(groups, inner.train_groups),
            "val": gather(groups, inner.val_groups),
            "test": gather(groups, outer.val_groups),
        }

    @staticmethod
    def fingerprint(inputs: dict) -> str:
        return sha256("".join(
            digest_sequences(inputs[k]) for k in ("train", "val", "test")).encode())

    def job(self, inputs: dict, ledger: Ledger, tracer=None) -> Outcome | None:
        z = self.size
        cfg = training.TrainConfig(arch=Arch.MT_TD, hidden=z.hidden,
                                   iterations=z.iterations, seed=inputs["seed"])
        ledger.attempted += 1
        t0 = time.perf_counter()
        try:
            result = training.train(cfg, inputs["train"], inputs["val"])
        except Exception as exc:
            ledger.fail("train", exc)
            return None
        wall = time.perf_counter() - t0
        test = training.evaluate(result.model, inputs["test"], "relation-direct")
        history = json.dumps([r.to_json() for r in result.history], sort_keys=True)
        return Outcome(
            wall_s=wall,
            train_frame_steps=frames_of(inputs["train"]) * cfg.iterations,
            train_s=wall,
            val_f1=[result.best_selection],
            test_f1=test.macro_f1,
            scorer=result.model,
            score_seqs=inputs["test"],
            fingerprint=sha256((history + json.dumps(test.to_json())).encode()),
        )

    def expected_counts(self, inputs: dict, outcome: Outcome) -> dict[str, int]:
        z = self.size
        n_train, n_val, n_test = (len(inputs[k]) for k in ("train", "val", "test"))
        backward = z.iterations * n_train
        return {
            "model.backward": backward,
            # mt-td evaluates the validation set once per head per iteration
            "model.forward": backward + 2 * z.iterations * n_val + n_test + z.score_calls,
            "training.evaluate": 2 * z.iterations + 1,
            "training.train": 1,
            "synth.generate_corpus": 1,
            "splits.select_splits": 2,
            "splits.propose_split": 2 * 2 * z.candidates,
        }


# -- grid-h16 ------------------------------------------------------------


@dataclass(frozen=True)
class GridSize:
    users: int
    days: int
    lengths: tuple[int, ...]
    iterations: int
    hidden: int
    candidates: int
    folds: int
    ratio: float
    alpha0: float
    score_calls: int  # per job


# Which architecture each (task, strategy) row of the grid scores.
ROW_ARCH = {
    ("REL", "ST"): Arch.ST_REL, ("DOM", "ST"): Arch.ST_DOM, ("DOM-INF", "ST"): Arch.ST_REL,
    ("REL", "MT-IND"): Arch.MT_IND, ("DOM", "MT-IND"): Arch.MT_IND,
    ("DOM-INF", "MT-IND"): Arch.MT_IND,
    ("REL", "MT-TD"): Arch.MT_TD, ("DOM", "MT-TD"): Arch.MT_TD,
    ("DOM-INF", "MT-TD"): Arch.MT_TD,
}
HEADS = {Arch.ST_REL: 1, Arch.ST_DOM: 1, Arch.MT_IND: 2, Arch.MT_TD: 2}


class GridH16:
    """`benchmark_suite` over FACE/BODY/CTX/ALL x four archs x K folds."""

    name = "grid-h16"
    sizes = {
        "full": GridSize(users=4, days=5, lengths=(2, 5, 8), iterations=6, hidden=16,
                         candidates=400, folds=3, ratio=0.75, alpha0=0.05,
                         score_calls=1000),
        "tiny": GridSize(users=2, days=3, lengths=(2, 4), iterations=2, hidden=4,
                         candidates=20, folds=2, ratio=0.7, alpha0=0.02,
                         score_calls=20),
    }
    synth_knobs = dict(domain_sep=2.0, relation_sep=2.0, noise=0.5)

    def __init__(self, size: str):
        self.size = self.sizes[size]

    def setup(self, seed: int, workdir: Path) -> dict:
        z = self.size
        manifest, seqs = fixed_length_corpus(seed, z.users, z.days, z.lengths,
                                             **self.synth_knobs)
        suite = splits.select_splits(seqs, n_candidates=z.candidates, k=z.folds,
                                     ratio=z.ratio, seed=seed)
        masks = synth.attribute_group_columns(manifest)
        return {"seed": seed, "seqs": seqs, "groups": by_group(seqs), "suite": suite,
                "masks": masks}

    @staticmethod
    def fingerprint(inputs: dict) -> str:
        return sha256((digest_sequences(inputs["seqs"]) + json.dumps(
            inputs["suite"].to_json(), sort_keys=True)).encode())

    def subsets(self, inputs) -> list[str]:
        return [*(n for n in inputs["masks"] if n != "ALL"), "ALL"]

    def job(self, inputs: dict, ledger: Ledger, tracer=None) -> Outcome | None:
        z = self.size
        cfg = training.TrainConfig(hidden=z.hidden, iterations=z.iterations,
                                   alpha0=z.alpha0, seed=inputs["seed"])
        with spans.Tap(training, "train") as tap:
            t0 = time.perf_counter()
            try:
                rows = training.benchmark_suite(cfg, inputs["groups"], inputs["suite"],
                                                inputs["masks"])
            except Exception as exc:
                ledger.attempted += 1
                ledger.fail("benchmark_suite", exc)
                return None
            wall = time.perf_counter() - t0
        ledger.attempted += len(rows)
        for r in rows:
            if r.error is not None:
                ledger.fail(f"grid row {r.task}/{r.strategy}/{r.subset}: {r.error}")
        expected = {(task, strat, sub) for (task, strat) in ROW_ARCH
                    for sub in self.subsets(inputs)}
        got = [(r.task, r.strategy, r.subset) for r in rows]
        ledger.check("grid.rows_present", sorted(got) == sorted(expected),
                     f"{len(got)} rows, expected {len(expected)}")
        good = [r for r in rows if r.error is None]
        for r in good:
            ledger.check("grid.row_range", bool(0.0 <= r.f1_pct <= 100.0
                                                and 0.0 <= r.acc_pct <= 100.0),
                         f"{r.task}/{r.strategy}/{r.subset}")
        trained = tap.calls
        if not trained:
            return None
        _, last_args, last = trained[-1]
        return Outcome(
            wall_s=wall,
            train_frame_steps=sum(frames_of(a[1]) * a[0].iterations for _, a, _ in trained),
            train_s=sum(dt for dt, _, _ in trained),
            val_f1=[res.best_selection for _, _, res in trained],
            test_f1=float(np.mean([r.f1_pct for r in good])) / 100.0 if good else float("nan"),
            scorer=last.model,
            score_seqs=list(last_args[2]),
            fingerprint=sha256(json.dumps([r.to_json() for r in rows],
                                          sort_keys=True).encode()),
            extra={"trainings": len(trained)},
        )

    def expected_counts(self, inputs: dict, outcome: Outcome) -> dict[str, int]:
        z = self.size
        groups, suite = inputs["groups"], inputs["suite"]
        n_sub = len(self.subsets(inputs))
        n_train = sum(len(gather(groups, p.train_groups)) for p in suite.inner)
        n_val = sum(len(gather(groups, p.val_groups)) for p in suite.inner)
        n_test = len(gather(groups, suite.outer.val_groups))
        heads = sum(HEADS.values())
        backward = n_sub * len(HEADS) * z.iterations * n_train
        test_evals = n_sub * len(ROW_ARCH) * z.folds
        return {
            "training.train": n_sub * len(HEADS) * z.folds,
            "model.backward": backward,
            "model.forward": (backward + n_sub * heads * z.iterations * n_val
                              + test_evals * n_test + z.score_calls),
            "training.evaluate": n_sub * heads * z.iterations * z.folds + test_evals,
            "training.replace_frames": n_sub * (len(HEADS) * (n_train + n_val) + n_test),
            "training.benchmark_suite": 1,
            "splits.propose_split": 2 * z.candidates,
        }


# -- pipeline ------------------------------------------------------------


@dataclass(frozen=True)
class PipeSize:
    users: int
    days: int
    per_group: int
    length: int
    raw_cnn_width: int
    presplit_candidates: int
    candidates: int
    folds: int
    ratio: float
    hidden: int
    iterations: int
    alpha0: float
    score_calls: int  # per job


ARTIFACTS = ("ds.dat", "ds.dat.pca", "split.json", "aug.dat", "model.bin",
             "model.bin.history.jsonl", "report.json", "pred.jsonl")


class Pipeline:
    """In-process CLI chain from a raw corpus to predictions."""

    name = "pipeline"
    sizes = {
        "full": PipeSize(users=4, days=5, per_group=8, length=10, raw_cnn_width=64,
                         presplit_candidates=200, candidates=6000, folds=3, ratio=0.6,
                         hidden=16, iterations=6, alpha0=0.05, score_calls=1000),
        "tiny": PipeSize(users=2, days=3, per_group=4, length=5, raw_cnn_width=50,
                         presplit_candidates=10, candidates=20, folds=2, ratio=0.6,
                         hidden=4, iterations=2, alpha0=0.02, score_calls=20),
    }
    synth_knobs = dict(domain_sep=2.0, relation_sep=2.0, noise=0.5)

    def __init__(self, size: str):
        self.size = self.sizes[size]

    @staticmethod
    def run_cli(argv, ledger: Ledger, tracer=None) -> int:
        stage = argv[0]
        argv = [str(a) for a in argv]
        ledger.attempted += 1
        ctx = tracer.span(f"cli.{stage}") if tracer is not None else contextlib.nullcontext()
        try:
            with ctx, contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except Exception as exc:  # a crash is a failed stage, not a lost run
            ledger.fail(f"cli {stage}", exc)
            return -1
        if code != 0:
            ledger.fail(f"cli {stage} exited {code}")
        return code

    def setup(self, seed: int, root: Path) -> dict:
        z = self.size
        cfg = synth.SynthConfig(n_sequences=z.users * z.days * z.per_group, users=z.users,
                                days_per_user=z.days, min_len=z.length, max_len=z.length,
                                seed=seed, **self.synth_knobs)
        synth.generate_raw_corpus(cfg, root / "raw", raw_cnn_width=z.raw_cnn_width)
        ledger = Ledger()
        self.run_cli(["split", "--sequences", root / "raw" / "sequences.json",
                      "--out", root / "presplit.json",
                      "--candidates", z.presplit_candidates, "--cv", 1, "--seed", seed],
                     ledger)
        if ledger.problems:
            raise RuntimeError("; ".join(ledger.problems))
        return {"seed": seed, "root": root}

    @staticmethod
    def fingerprint(inputs: dict) -> str:
        root = inputs["root"]
        h = hashlib.sha256()
        for path in [*sorted((root / "raw").rglob("*")), root / "presplit.json"]:
            if path.is_file():
                h.update(str(path.relative_to(root)).encode())
                h.update(path.read_bytes())
        return h.hexdigest()

    def stages(self, inputs: dict, out: Path) -> list[list]:
        z, seed, raw = self.size, inputs["seed"], inputs["root"]
        return [
            ["ingest", "--raw-dir", raw / "raw", "--out", out / "ds.dat",
             "--split", raw / "presplit.json"],
            ["split", "--dataset", out / "ds.dat", "--out", out / "split.json",
             "--candidates", z.candidates, "--cv", z.folds, "--ratio", z.ratio,
             "--seed", seed],
            ["augment", "--dataset", out / "ds.dat", "--out", out / "aug.dat",
             "--split", out / "split.json", "--multiplier", 1, "--seed", seed],
            ["train", "--dataset", out / "aug.dat", "--split", out / "split.json",
             "--out", out / "model.bin", "--arch", "mt-td", "--hidden", z.hidden,
             "--iterations", z.iterations, "--alpha0", z.alpha0, "--seed", seed],
            ["eval", "--model", out / "model.bin", "--dataset", out / "ds.dat",
             "--split", out / "split.json", "--side", "test",
             "--mode", "domain-inferred", "--out", out / "report.json"],
            ["predict", "--model", out / "model.bin", "--dataset", out / "ds.dat",
             "--out", out / "pred.jsonl"],
        ]

    def job(self, inputs: dict, ledger: Ledger, tracer=None) -> Outcome | None:
        out = Path(tempfile.mkdtemp(prefix="chain-", dir=inputs["root"]))
        try:
            return self._chain(inputs, out, ledger, tracer)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _chain(self, inputs: dict, out: Path, ledger: Ledger, tracer) -> Outcome | None:
        with spans.Tap(training, "train") as tap:
            t0 = time.perf_counter()
            codes = [self.run_cli(argv, ledger, tracer) for argv in self.stages(inputs, out)]
            wall = time.perf_counter() - t0
        if any(codes) or len(tap.calls) != 1:
            return None
        train_s, args, result = tap.calls[0]
        digests = {name: sha256((out / name).read_bytes()) for name in ARTIFACTS}
        report = json.loads((out / "report.json").read_text())
        ds = dataset.load_dataset(out / "ds.dat")
        scorer, _ = model.load_model(out / "model.bin")
        pred_lines = (out / "pred.jsonl").read_text().splitlines()
        ledger.check("pipeline.predictions", len(pred_lines) == len(ds.sequences) + 1,
                     f"{len(pred_lines)} lines for {len(ds.sequences)} sequences")
        split = json.loads((out / "split.json").read_text())
        return Outcome(
            wall_s=wall,
            train_frame_steps=frames_of(args[1]) * args[0].iterations,
            train_s=train_s,
            val_f1=[result.best_selection],
            test_f1=float(report["macro_f1"]),
            scorer=scorer,
            score_seqs=ds.sequences,
            fingerprint=sha256(json.dumps(digests, sort_keys=True).encode()),
            extra={"split": split, "n_sequences": len(ds.sequences)},
        )

    def expected_counts(self, inputs: dict, outcome: Outcome) -> dict[str, int]:
        z = self.size
        split = outcome.extra["split"]
        plan = split["inner"][0]
        # augment doubles the outer train side, which holds every inner group
        n_train = 2 * z.per_group * len(plan["train_groups"])
        n_val = 2 * z.per_group * len(plan["val_groups"])
        n_test = z.per_group * len(split["outer"]["val_groups"])
        n_all = outcome.extra["n_sequences"]
        backward = z.iterations * n_train
        return {
            "model.backward": backward,
            "model.forward": (backward + 2 * z.iterations * n_val + n_test + n_all
                              + z.score_calls),
            "training.train": 1,
            # five stages load the dataset, and so does the scoring set-up
            "dataset.load_dataset": 6,
            "container.write_container": 4,
            # plus the model, loaded by eval, predict and the scoring set-up
            "container.read_container": 9,
            "numerics.pca_fit": 9 + 1,
            "features.compress_attribute": 10,
            "splits.propose_split": 2 * (z.presplit_candidates + z.candidates),
            "synth.generate_raw_corpus": 1,
            "taxonomy.infer_domain_distribution": n_test + n_all,
        }


WORKLOADS = {w.name: w for w in (TrainH128, GridH16, Pipeline)}


# -- checks shared by every workload -----------------------------------------


def _fd_grads(arch_model, frames, labels, weights, eps=1e-5):
    def loss():
        out = model.forward(arch_model, frames)
        return model.joint_loss(out, labels, weights, 1e-3, arch_model)

    grads = {}
    for name, arr in arch_model.named_arrays():
        g = np.zeros_like(arr)
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + eps
            up = loss()
            arr[idx] = orig - eps
            down = loss()
            arr[idx] = orig
            g[idx] = (up - down) / (2 * eps)
        grads[name] = g
    return grads


def gradient_check(seed: int, ledger: Ledger) -> float:
    """`model.backward` against central finite differences on one tiny
    model per architecture; every entry must agree to 1e-4 relative."""
    weights = {"domain": np.ones(5), "relation": np.ones(9)}
    worst = 0.0
    for arch in Arch:
        rng = Rng(seed).split("gradcheck", arch.value)
        m = model.init_params(arch, 6, 4, rng.split("init"))
        # Central differences straddle the ReLU kink when an FC pre-activation
        # lies within a step of zero, so draw frames until none does.
        for attempt in itertools.count():
            frames = rng.split("x", attempt).normal(size=(5, 6))
            if np.abs(frames @ m.fc_in.w.T + m.fc_in.b).min() > 1e-3:
                break
        labels = (int(rng.split("yd").integers(0, 5)), int(rng.split("yr").integers(0, 9)))
        out = model.forward(m, frames)
        analytic = model.backward(m, out.trace, labels, weights, 1e-3)
        numeric = _fd_grads(m, frames, labels, weights)
        for name, g in analytic.items():
            f = numeric[name]
            rel = np.abs(g - f) / np.maximum(np.maximum(np.abs(g), np.abs(f)), 1e-6)
            worst = max(worst, float(rel.max()))
    ledger.check("gradient.finite_difference", worst < 1e-4, f"worst rel err {worst:.2e}")
    return worst


def warm_up() -> None:
    """One tiny untimed train, forward and evaluate, so lazy set-up in numpy
    and BLAS is done before anything is timed."""
    _, seqs = fixed_length_corpus(0, 1, 3, (2, 3))
    groups = by_group(seqs)
    keys = sorted(groups)
    result = training.train(training.TrainConfig(arch=Arch.MT_TD, hidden=8, iterations=2),
                            gather(groups, keys[:2]), gather(groups, keys[2:]))
    model.forward(result.model, seqs[0].frames)
    training.evaluate(result.model, seqs, "domain-inferred")
