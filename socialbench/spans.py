"""Span tracing from outside the program.

`Tracer.install()` replaces each traced socialseq function at every module
binding that holds it (the name its callers actually look up, such as
`socialseq.training.forward` as well as `socialseq.model.forward`) with a
wrapper that records one span per call: name, start, end and the span that
was open when the call began. Spans stay in memory in flat arrays; `summary`
turns them into per-layer metrics and `dump` writes them out.

`Tap` is the light counterpart, also used in untraced runs: it times one
function and keeps its arguments and results, so a workload can read what a
call it does not make itself (a `train` inside the grid or the CLI) did.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (module, function) pairs traced; the span name is "<module>.<function>".
TRACED = (
    ("model", "forward"),
    ("model", "backward"),
    ("model", "lstm_forward"),
    ("model", "lstm_backward"),
    ("training", "train"),
    ("training", "adam_step"),
    ("training", "evaluate"),
    ("training", "benchmark_suite"),
    ("training", "replace_frames"),
    ("splits", "select_splits"),
    ("splits", "propose_split"),
    ("features", "augment"),
    ("features", "compress_attribute"),
    ("features", "quantize"),
    ("features", "assemble_frame_vectors"),
    ("numerics", "pca_fit"),
    ("container", "read_container"),
    ("container", "write_container"),
    ("dataset", "load_dataset"),
    ("dataset", "save_dataset"),
    ("synth", "generate_corpus"),
    ("synth", "generate_raw_corpus"),
    ("taxonomy", "infer_domain_distribution"),
)

CLI_STAGES = ("ingest", "split", "augment", "train", "eval", "predict")

# Per-layer metric names and units, in report order.
PER_LAYER = (
    ("model.forward.calls", "count"),
    ("model.forward.self_s", "s"),
    ("model.lstm_forward.s", "s"),
    ("model.lstm_forward.timesteps", "count"),
    ("model.backward.calls", "count"),
    ("model.backward.self_s", "s"),
    ("model.lstm_backward.s", "s"),
    ("model.bwd_to_fwd", "ratio"),
    ("model.lstm.gflop", "GFLOP-computed"),
    ("model.lstm.gflop_per_s", "GFLOP/s-computed"),
    ("training.train.s", "s"),
    ("training.train.self_s", "s"),
    ("training.iterations", "count"),
    ("training.adam_step.s", "s"),
    ("training.evaluate.s", "s"),
    ("training.evaluate.calls", "count"),
    ("training.eval_share", "ratio"),
    ("training.benchmark_suite.s", "s"),
    ("training.grid.cells", "count"),
    ("training.grid.cells_failed", "count"),
    ("training.replace_frames.calls", "count"),
    ("training.best_iteration", "count"),
    ("training.useful_iter_ratio", "ratio"),
    ("splits.select_splits.s", "s"),
    ("splits.propose_split.calls", "count"),
    ("splits.propose_split.s", "s"),
    ("splits.distinct_ratio", "ratio"),
    ("features.augment.s", "s"),
    ("features.augment.frames", "count"),
    ("features.compress_attribute.s", "s"),
    ("features.quantize.s", "s"),
    ("features.assemble_frame_vectors.s", "s"),
    ("numerics.pca_fit.s", "s"),
    ("numerics.pca_fit.calls", "count"),
    ("container.read_container.s", "s"),
    ("container.read_container.bytes", "B"),
    ("container.write_container.s", "s"),
    ("container.write_container.bytes", "B"),
    ("dataset.load_dataset.calls", "count"),
    ("dataset.load_dataset.s", "s"),
    ("dataset.save_dataset.s", "s"),
    ("synth.generate_corpus.s", "s"),
    ("synth.generate_raw_corpus.s", "s"),
    *((f"cli.{stage}.{kind}", "s") for stage in CLI_STAGES for kind in ("s", "self_s")),
    ("taxonomy.infer_domain_distribution.calls", "count"),
    ("trace_overhead", "ratio"),
)


def _socialseq_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "socialseq" or name.startswith("socialseq."))]


def patch_everywhere(target, wrapper) -> list:
    """Point every socialseq module binding that holds `target` at `wrapper`;
    returns the undo list for `unpatch`."""
    undo = []
    for mod in _socialseq_modules():
        for attr, value in list(vars(mod).items()):
            if value is target:
                setattr(mod, attr, wrapper)
                undo.append((mod, attr, target))
    return undo


def unpatch(undo) -> None:
    for mod, attr, original in reversed(undo):
        setattr(mod, attr, original)


def _lstm_forward_flops(args):
    params, inputs = args[0], args[1]
    t_len = np.shape(inputs)[0]
    d, h = params.w.shape[1], params.u.shape[1]
    # input projection for all t, then the recurrent GEMV per timestep
    return t_len, 2 * t_len * 4 * h * d + 2 * t_len * 4 * h * h


def _lstm_backward_flops(args):
    params, trace = args[0], args[1]
    t_len, h = trace.h.shape
    d = params.w.shape[1]
    # dh recurrence, dW, dU (t >= 1) and d_inputs
    return 2 * 4 * h * (t_len * h + t_len * d + (t_len - 1) * h + t_len * d)


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class Tracer:
    """In-memory span recorder plus the counters the spans cannot give."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.reset()
        self._undo: list = []

    def reset(self) -> None:
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.failed: set[int] = set()
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self.assignments: set = set()
        self.train_results: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around a block of benchmark code."""
        idx = self._open(self._id(name))
        try:
            yield
        except BaseException:
            self._close(idx, True)
            raise
        self._close(idx, False)

    def _open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, failed: bool) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        if failed:
            self.failed.add(idx)

    def _wrap(self, name: str, fn, hook):
        name_id = self._id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(idx, True)
                raise
            tracer._close(idx, False)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def _hooks(self):
        def lstm_forward(args, kwargs, result):
            steps, flops = _lstm_forward_flops(args)
            self.counters["model.lstm_forward.timesteps"] += steps
            self.counters["model.lstm.flop"] += flops

        def lstm_backward(args, kwargs, result):
            self.counters["model.lstm.flop"] += _lstm_backward_flops(args)

        def augment(args, kwargs, result):
            self.counters["features.augment.frames"] += sum(s.frames.shape[0] for s in result)

        def read_container(args, kwargs, result):
            self.counters["container.read_container.bytes"] += _file_size(args[0])

        def write_container(args, kwargs, result):
            self.counters["container.write_container.bytes"] += _file_size(args[0])

        def propose_split(args, kwargs, result):
            self.assignments.add((frozenset(result.train_groups), frozenset(result.val_groups)))

        def train(args, kwargs, result):
            self.train_results.append(result)

        return {
            "model.lstm_forward": lstm_forward,
            "model.lstm_backward": lstm_backward,
            "features.augment": augment,
            "container.read_container": read_container,
            "container.write_container": write_container,
            "splits.propose_split": propose_split,
            "training.train": train,
        }

    def install(self) -> None:
        hooks = self._hooks()
        for mod_name, fn_name in TRACED:
            module = sys.modules[f"socialseq.{mod_name}"]
            original = getattr(module, fn_name)
            name = f"{mod_name}.{fn_name}"
            self._undo += patch_everywhere(original, self._wrap(name, original, hooks.get(name)))

    def uninstall(self) -> None:
        unpatch(self._undo)
        self._undo = []

    # -- summaries ---------------------------------------------------------

    def arrays(self):
        name = np.frombuffer(self.name, dtype=np.int32) if len(self.name) else np.zeros(0, np.int32)
        start = np.frombuffer(self.start, dtype=np.float64) if len(self.start) else np.zeros(0)
        end = np.frombuffer(self.end, dtype=np.float64) if len(self.end) else np.zeros(0)
        parent = np.frombuffer(self.parent, dtype=np.int32) if len(self.parent) else np.zeros(0, np.int32)
        return name, start, end, parent

    def summary(self) -> dict[str, float]:
        """Per-layer metrics from the spans and counters recorded since the
        last reset (all except trace_overhead, which needs an untraced run)."""
        name, start, end, parent = self.arrays()
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child

        def ids(n):
            return self._ids.get(n, -1)

        def sel(n):
            return name == ids(n)

        def total(n):
            return float(dur[sel(n)].sum())

        def self_s(n):
            return float(self_time[sel(n)].sum())

        def calls(n):
            return int(sel(n).sum())

        def under(n, ancestor):
            """Indices of `n` spans with an `ancestor` span above them."""
            anc = ids(ancestor)
            out = []
            for idx in np.flatnonzero(sel(n)):
                p = parent[idx]
                while p >= 0 and name[p] != anc:
                    p = parent[p]
                if p >= 0:
                    out.append(idx)
            return out

        m: dict[str, float] = {}
        fwd_calls, bwd_calls = calls("model.forward"), calls("model.backward")
        m["model.forward.calls"] = fwd_calls
        m["model.forward.self_s"] = self_s("model.forward")
        m["model.lstm_forward.s"] = total("model.lstm_forward")
        m["model.lstm_forward.timesteps"] = self.counters["model.lstm_forward.timesteps"]
        m["model.backward.calls"] = bwd_calls
        m["model.backward.self_s"] = self_s("model.backward")
        m["model.lstm_backward.s"] = total("model.lstm_backward")
        per_fwd = total("model.forward") / fwd_calls if fwd_calls else 0.0
        per_bwd = total("model.backward") / bwd_calls if bwd_calls else 0.0
        m["model.bwd_to_fwd"] = per_bwd / per_fwd if per_fwd else 0.0
        gflop = self.counters["model.lstm.flop"] / 1e9
        lstm_s = m["model.lstm_forward.s"] + m["model.lstm_backward.s"]
        m["model.lstm.gflop"] = gflop
        m["model.lstm.gflop_per_s"] = gflop / lstm_s if lstm_s else 0.0

        train_s = total("training.train")
        m["training.train.s"] = train_s
        m["training.train.self_s"] = self_s("training.train")
        results = self.train_results
        m["training.iterations"] = sum(len(r.history) for r in results)
        m["training.adam_step.s"] = total("training.adam_step")
        m["training.evaluate.s"] = total("training.evaluate")
        m["training.evaluate.calls"] = calls("training.evaluate")
        eval_in_train = float(dur[under("training.evaluate", "training.train")].sum())
        m["training.eval_share"] = eval_in_train / train_s if train_s else 0.0
        m["training.benchmark_suite.s"] = total("training.benchmark_suite")
        cells = under("training.train", "training.benchmark_suite")
        m["training.grid.cells"] = len(cells)
        m["training.grid.cells_failed"] = sum(1 for i in cells if i in self.failed)
        m["training.replace_frames.calls"] = calls("training.replace_frames")
        if results:
            m["training.best_iteration"] = float(np.mean([r.best_iteration for r in results]))
            m["training.useful_iter_ratio"] = float(np.mean(
                [(r.best_iteration + 1) / len(r.history) for r in results]))
        else:
            m["training.best_iteration"] = 0.0
            m["training.useful_iter_ratio"] = 0.0

        proposals = calls("splits.propose_split")
        m["splits.select_splits.s"] = total("splits.select_splits")
        m["splits.propose_split.calls"] = proposals
        m["splits.propose_split.s"] = total("splits.propose_split")
        m["splits.distinct_ratio"] = len(self.assignments) / proposals if proposals else 0.0

        m["features.augment.s"] = total("features.augment")
        m["features.augment.frames"] = self.counters["features.augment.frames"]
        for n in ("compress_attribute", "quantize", "assemble_frame_vectors"):
            m[f"features.{n}.s"] = total(f"features.{n}")
        m["numerics.pca_fit.s"] = total("numerics.pca_fit")
        m["numerics.pca_fit.calls"] = calls("numerics.pca_fit")

        for n in ("read_container", "write_container"):
            m[f"container.{n}.s"] = total(f"container.{n}")
            m[f"container.{n}.bytes"] = self.counters[f"container.{n}.bytes"]
        m["dataset.load_dataset.calls"] = calls("dataset.load_dataset")
        m["dataset.load_dataset.s"] = total("dataset.load_dataset")
        m["dataset.save_dataset.s"] = total("dataset.save_dataset")
        m["synth.generate_corpus.s"] = total("synth.generate_corpus")
        m["synth.generate_raw_corpus.s"] = total("synth.generate_raw_corpus")
        for stage in CLI_STAGES:
            m[f"cli.{stage}.s"] = total(f"cli.{stage}")
            m[f"cli.{stage}.self_s"] = self_s(f"cli.{stage}")
        m["taxonomy.infer_domain_distribution.calls"] = calls(
            "taxonomy.infer_domain_distribution")
        return m

    def call_counts(self) -> dict[str, int]:
        name = self.arrays()[0]
        counts = np.bincount(name, minlength=len(self.names)) if len(name) else []
        return {n: int(counts[i]) if len(counts) else 0 for i, n in enumerate(self.names)}

    def dump(self, path) -> None:
        """Write the recorded spans as arrays: name index, start, end, parent."""
        name, start, end, parent = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, start=start,
                 end=end, parent=parent,
                 failed=np.array(sorted(self.failed), dtype=np.int64))


class Tap:
    """Time every call of one socialseq function and keep (args, result)."""

    def __init__(self, module, fn_name: str):
        self.module, self.fn_name = module, fn_name
        self.calls: list[tuple[float, tuple, object]] = []
        self._undo: list = []

    def __enter__(self):
        target = getattr(self.module, self.fn_name)
        calls = self.calls

        @functools.wraps(target)
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            result = target(*args, **kwargs)
            calls.append((time.perf_counter() - t0, args, result))
            return result

        self._undo = patch_everywhere(target, timed)
        return self

    def __exit__(self, *exc):
        unpatch(self._undo)
        return False
