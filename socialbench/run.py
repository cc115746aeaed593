"""socialseq benchmark: three workloads, end-to-end metrics from untraced
runs and per-layer metrics from a separate traced run.

Run from the repository root:

    python3 socialbench/run.py --workload train-h128 --seed 1 --seconds 35 --trace 0

Workloads (see workloads.py): train-h128, grid-h16, pipeline. One process,
one caller (closed loop), BLAS pinned to one thread. The program is imported
from ./src; its inputs are generated from --seed.

Inputs come from PROBLEMS sub-seeds of --seed, so accuracy is averaged over
several corpora. A run with --trace 0 first sets up every sub-seed, several
times over, then runs jobs on them in turn, each job followed by a batch of
scoring calls, until --seconds have passed since the run began. At least
one sub-seed is set up and run twice, so that determinism is checked. The
host is shared and its speed drifts, so every timing is a median, mean or
percentile over many short samples spread over the run. It reports:

  setup_s             wall of one input set-up, median over set-ups
  peak_rss_mb         peak resident memory of this process
  job_s               wall of one job, median over jobs: a `train` call
                      (train-h128), a `benchmark_suite` call (grid-h16;
                      grid_cells_per_s is trainings / job_s), the CLI stage
                      chain (pipeline; this is pipeline_s)
  train_frames_per_s  training frames x iterations / wall of `train`,
                      median over jobs
  val_macro_f1        best validation macro-F1 of the trainings, mean over
                      sub-seeds
  test_macro_f1       held-out macro-F1, mean over sub-seeds: relation on
                      train-h128, the grid's mean row F1 on grid-h16
                      (grid_mean_f1), domain-inferred `eval` on pipeline
  score_ms_p50        eval-mode `forward`, one held-out sequence per call:
                      median latency of each batch of SCORE_BATCH calls,
                      mean over the run's batches
  score_ms_p99        the same calls: 99th percentile of each job's
                      calls, mean over the middle half of the jobs

With --trace 1 it repeats set-up, job and scoring as one repetition in a
fresh directory, alternating untraced and traced repetitions on the same
sub-seed, and reports the per-layer metrics of spans.PER_LAYER, with
trace_overhead = traced wall / untraced wall. Traced call counts must equal
the counts worked out from the workload's shape.

Every run also checks `model.backward` against finite differences, that
set-ups and jobs repeated on one sub-seed give identical results (and the
same as earlier runs of the same code and seed in this checkout), and that
every value is finite. The last line of standard output is the JSON result;
the lines before it are for people.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".socialbench-work"
PROBLEMS = 3  # distinct inputs per run, from sub-seeds of --seed
# At least one input is set up twice and run twice, for the determinism checks.
MIN_SETUPS = MIN_JOBS = PROBLEMS + 1
MAX_SETUPS = 15
SETUP_SHARE = 0.25  # of --seconds, that set-ups may use beyond MIN_SETUPS
SCORE_BATCH = 100  # scoring calls timed as one sample

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("job_s", "s"),
    ("train_frames_per_s", "frames/s"),
    ("val_macro_f1", "ratio"),
    ("test_macro_f1", "ratio"),
    ("score_ms_p50", "ms"),
    ("score_ms_p99", "ms"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["train-h128", "grid-h16", "pipeline"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "tiny"], default="full",
                   help="tiny: minimal inputs for the smoke test")
    return p.parse_args(argv)


def environment(args) -> dict:
    import ctypes
    import glob

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        getter = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            threads = int(getter())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "python": sys.version.split()[0], "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads,
        "blas_env": {v: os.environ.get(v) for v in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
    }


def code_hash() -> str:
    """Hash of the program's and the benchmark's sources."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "socialseq").rglob("*.py"), *Path(__file__).parent.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_across_runs(ledger, args, fingerprint: str) -> None:
    """Outputs for one (code, workload, size, seed) must match every earlier
    run in this checkout; the first run records them."""
    path = WORK / "fingerprints.json"
    key = f"{code_hash()}|{args.workload}|{args.size}|{args.seed}"
    try:
        known = json.loads(path.read_text())
    except (OSError, ValueError):
        known = {}
    if key in known:
        ledger.check("outputs.same_as_earlier_runs", known[key] == fingerprint)
    else:
        known[key] = fingerprint
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(known, sort_keys=True))
        os.replace(tmp, path)


def sub_seeds(seed: int) -> list[int]:
    return [seed * 1000 + i for i in range(PROBLEMS)]


def settle() -> None:
    """Flush files and collect garbage left by the previous phase, so that
    neither lands in the next phase's time."""
    os.sync()
    gc.collect()


@dataclass
class Rep:
    """One traced-mode repetition: set-up, job and a batch of scoring calls."""

    wall_s: float  # set-up, job and scoring
    outcome: object


def one_rep(w, seed, rundir, ledger, workloads, tracer=None) -> Rep:
    """Run one repetition in a fresh directory, removed afterwards."""
    repdir = Path(tempfile.mkdtemp(prefix="rep-", dir=rundir))
    try:
        settle()
        t0 = time.perf_counter()
        inputs = w.setup(seed, repdir)
        setup_s = time.perf_counter() - t0
        settle()
        t0 = time.perf_counter()
        outcome = w.job(inputs, ledger, tracer)
        job_s = time.perf_counter() - t0
        settle()
        t0 = time.perf_counter()
        if outcome is not None:
            workloads.score(outcome, ledger, w.size.score_calls)
        wall_s = setup_s + job_s + time.perf_counter() - t0
        if outcome is not None and tracer is not None:
            got = tracer.call_counts()
            for name, want in w.expected_counts(inputs, outcome).items():
                ledger.check(f"trace.count.{name}", got.get(name, 0) == want,
                             f"traced {got.get(name, 0)}, expected {want}")
    finally:
        shutil.rmtree(repdir, ignore_errors=True)
    return Rep(wall_s, outcome)


def interquartile_mean(values) -> float:
    """Mean of the middle half: a quarter of the values (rounded down) is
    dropped from each end."""
    v = sorted(values)
    cut = len(v) // 4
    return statistics.fmean(v[cut:len(v) - cut])


def untraced(w, args, rundir, ledger, workloads) -> tuple[dict, dict]:
    """Set up every sub-seed, then run jobs on them in turn, each job
    followed by a batch of scoring calls, until --seconds have passed since
    the run began.

    Every timing is a median, mean or percentile over many short samples
    spread over the whole run, so that a few seconds in which the shared
    host runs slower move it little."""
    start = time.perf_counter()
    seeds = sub_seeds(args.seed)
    problems: dict[int, object] = {}
    inputs_prints: dict[int, set] = {}
    setup_walls: list[float] = []
    # Set-ups cycle over the sub-seeds, so each is built at least twice
    # over MIN_SETUPS..MAX_SETUPS; the first build is the one the jobs use.
    while len(setup_walls) < MIN_SETUPS or (
            len(setup_walls) < MAX_SETUPS
            and sum(setup_walls) < SETUP_SHARE * args.seconds):
        seed = seeds[len(setup_walls) % PROBLEMS]
        workdir = Path(tempfile.mkdtemp(prefix="setup-", dir=rundir))
        settle()
        t0 = time.perf_counter()
        inputs = w.setup(seed, workdir)
        setup_walls.append(time.perf_counter() - t0)
        inputs_prints.setdefault(seed, set()).add(w.fingerprint(inputs))
        if seed in problems:
            shutil.rmtree(workdir, ignore_errors=True)
        else:
            problems[seed] = inputs
    for prints in inputs_prints.values():
        ledger.check("setup.deterministic", len(prints) == 1)

    done: dict[int, list] = {seed: [] for seed in seeds}
    batches: list[list[float]] = []  # per-call latencies, SCORE_BATCH calls each
    tails: list[float] = []  # 99th percentile of each job's scoring calls
    jobs = 0
    while time.perf_counter() - start < args.seconds or jobs < MIN_JOBS:
        seed = seeds[jobs % PROBLEMS]
        jobs += 1
        settle()
        outcome = w.job(problems[seed], ledger)
        if outcome is None:
            continue
        settle()
        job_batches = [
            workloads.score(outcome, ledger, min(SCORE_BATCH, w.size.score_calls - first), first)
            for first in range(0, w.size.score_calls, SCORE_BATCH)]
        batches.extend(job_batches)
        job_calls = [t for batch in job_batches for t in batch]
        if job_calls:
            tails.append(float(np.percentile(job_calls, 99)))
        # Keep what the metrics and checks need, not the model or inputs.
        done[seed].append(replace(outcome, scorer=None, score_seqs=[]))
    for same in done.values():
        ledger.check("outputs.deterministic", len({o.fingerprint for o in same}) <= 1)
    outcomes = [o for same in done.values() for o in same]
    latencies = [t for batch in batches for t in batch]
    if not outcomes or not latencies:
        raise RuntimeError("every job failed: " + "; ".join(ledger.problems))
    firsts = [same[0] for same in done.values() if same]
    if len(firsts) == PROBLEMS:
        check_across_runs(ledger, args, "".join(o.fingerprint for o in firsts))

    # A batch is short enough to fall in one state of the host, which flips
    # between fast and slow for seconds at a time; the mean over batches
    # moves smoothly with the share of slow time, where a median over calls
    # would jump from one state to the other. The tail is taken per job and
    # averaged over the middle half of the jobs, so that a stall in the
    # scoring after one or two jobs does not set it.
    p50 = statistics.fmean(float(np.median(b)) for b in batches if b) * 1e3
    p99 = interquartile_mean(tails) * 1e3
    metrics = {
        "setup_s": statistics.median(setup_walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "job_s": statistics.median(o.wall_s for o in outcomes),
        "train_frames_per_s": statistics.median(
            o.train_frame_steps / o.train_s for o in outcomes),
        "val_macro_f1": statistics.fmean(statistics.fmean(o.val_f1) for o in firsts),
        "test_macro_f1": statistics.fmean(o.test_f1 for o in firsts),
        "score_ms_p50": p50,
        "score_ms_p99": p99,
    }
    notes = {
        "set-ups": len(setup_walls),
        "jobs": len(outcomes),
        "score calls": len(latencies),
        "set-up walls (s)": " ".join(f"{t:.3f}" for t in setup_walls),
        "job walls (s)": " ".join(f"{o.wall_s:.3f}" for o in outcomes),
        "train rates (frames/s)": " ".join(
            f"{o.train_frame_steps / o.train_s:.1f}" for o in outcomes),
        "batch p50s (ms)": " ".join(
            f"{np.median(b) * 1e3:.4f}" for b in batches if b),
        "job p99s (ms)": " ".join(f"{t * 1e3:.4f}" for t in tails),
    }
    if w.name == "grid-h16":
        notes["grid_cells_per_s"] = outcomes[-1].extra["trainings"] / metrics["job_s"]
        notes["grid_mean_f1"] = metrics["test_macro_f1"]
    if w.name == "pipeline":
        notes["pipeline_s"] = metrics["job_s"]
    return metrics, notes


def repeat(args, min_reps: int, step) -> list[Rep]:
    """Call step(sub_seed), cycling over the sub-seeds, until --seconds have
    passed and at least min_reps calls were made."""
    seeds = sub_seeds(args.seed)
    reps: list[Rep] = []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or len(reps) < min_reps:
        reps.append(step(seeds[len(reps) % PROBLEMS]))
    return reps


def traced(w, args, rundir, ledger, workloads, spans) -> tuple[dict, dict]:
    """Pairs of untraced and traced repetitions on the same sub-seed."""
    tracer = spans.Tracer()
    summaries, ratios = [], []

    def pair(seed):
        plain = one_rep(w, seed, rundir, ledger, workloads)
        tracer.reset()
        tracer.install()
        try:
            traced_rep = one_rep(w, seed, rundir, ledger, workloads, tracer)
        finally:
            tracer.uninstall()
        ratios.append(traced_rep.wall_s / plain.wall_s)
        if traced_rep.outcome is not None:
            summaries.append(tracer.summary())
        return traced_rep

    repeat(args, 1, pair)
    if not summaries:
        raise RuntimeError("no traced repetition succeeded: " + "; ".join(ledger.problems))
    tracer.dump(WORK / f"trace-{w.name}.npz")
    metrics = {name: statistics.median(s[name] for s in summaries) for name in summaries[0]}
    metrics["trace_overhead"] = statistics.median(ratios)
    return metrics, {"traced repetitions": len(summaries), "spans in last": len(tracer.name)}


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "socialseq" / "__init__.py").is_file():
        print(f"error: no socialseq sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    w = workloads.WORKLOADS[args.workload](args.size)
    WORK.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK))
    ledger = workloads.Ledger()
    try:
        print("# env " + json.dumps(environment(args), sort_keys=True))
        workloads.warm_up()
        workloads.gradient_check(args.seed, ledger)
        if args.trace:
            metrics, notes = traced(w, args, rundir, ledger, workloads, spans)
            units = dict(spans.PER_LAYER)
        else:
            metrics, notes = untraced(w, args, rundir, ledger, workloads)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    missing = set(units) - set(metrics)
    ledger.check("metrics.complete", not missing, f"missing {sorted(missing)}")
    bad = sorted(k for k, v in metrics.items() if not math.isfinite(v))
    ledger.check("metrics.finite", not bad, f"non-finite {bad}")
    for name, unit in units.items():
        print(f"{name:<42} {metrics.get(name, float('nan')):>16.6g} {unit}")
    for name, value in notes.items():
        print(f"# {name}: {value:.6g}" if isinstance(value, float) else f"# {name}: {value}")
    for problem in ledger.problems:
        print(f"# problem: {problem}")
    print(json.dumps({
        "correct": not ledger.problems,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
