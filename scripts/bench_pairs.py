#!/usr/bin/env python3
"""Paired benchmark runs of a base revision against the working tree.

    python scripts/bench_pairs.py --base HEAD --workload train-h128 --seed 11 29 \
        --pairs 10 --out BENCH_n.json

Exports the base revision with `git archive` into one temporary directory,
and copies the working tree's files (tracked and untracked but not ignored,
as they are on disk) into another, so that both sides run from fresh copies.
It runs the same `socialbench/run.py` invocation from each, once per pair,
alternating which side goes first so that host drift falls on both sides
alike. Pair i uses seed i mod the --seed list.
For every end-to-end metric in BENCHMARK.json it prints and writes both
sides' median and quartiles, the change of the medians, the pairs the
working tree wins (ties count for neither side), and "unresolved" where the
base's interquartile range, relative to its median, exceeds the metric's
bound: such a metric cannot show a change within the bound.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(base: list[dict], head: list[dict], metrics: list[dict]) -> dict:
    """Per metric, both sides' quartiles, the median change, the wins of
    `head` and whether the base spread resolves the bound. `base[i]` and
    `head[i]` are pair i's metric values; each entry of `metrics` has the
    BENCHMARK.json fields name, unit, better and bound."""
    if len(base) != len(head) or not base:
        raise ValueError("need the same nonzero number of runs on each side")
    out = {}
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        pairs = [(b[name], h[name]) for b, h in zip(base, head) if name in b and name in h]
        if not pairs:
            continue
        sides = {}
        for side, values in (("base", [b for b, _ in pairs]), ("head", [h for _, h in pairs])):
            q1, median, q3 = quartiles(values)
            sides[side] = {"median": median, "q1": q1, "q3": q3, "values": values}
        base_median = sides["base"]["median"]
        base_iqr = sides["base"]["q3"] - sides["base"]["q1"]
        out[name] = {
            "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            **sides,
            "change": (sides["head"]["median"] / base_median - 1.0) if base_median else None,
            "wins": sum(sign * (h - b) > 0 for b, h in pairs),
            "losses": sum(sign * (h - b) < 0 for b, h in pairs),
            "pairs": len(pairs),
            "base_iqr_ratio": base_iqr / abs(base_median) if base_median else None,
            "unresolved": (base_iqr > metric["bound"] * abs(base_median)) if base_median
                          else base_iqr > 0,
        }
    return out


def render(summary: dict) -> str:
    lines = [f"{'metric':<20} {'base median [q1, q3]':>32} {'head median [q1, q3]':>32}"
             f" {'change':>8} {'wins':>6}"]
    for name, m in summary.items():
        cells = [f"{m[s]['median']:.4g} [{m[s]['q1']:.4g}, {m[s]['q3']:.4g}]"
                 for s in ("base", "head")]
        change = "n/a" if m["change"] is None else f"{100 * m['change']:+.1f}%"
        note = "  unresolved" if m["unresolved"] else ""
        lines.append(f"{name:<20} {cells[0]:>32} {cells[1]:>32} {change:>8} "
                     f"{m['wins']:>2}/{m['pairs']:<3}{note}")
    return "\n".join(lines)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "socialbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run.py in {checkout} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    env = next((json.loads(line[len("# env "):]) for line in lines
                if line.startswith("# env ")), {})
    return {"correct": result["correct"], "failed": result["failed"], "env": env,
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def export_working_tree(repo: Path, dest: Path) -> None:
    """Copy into `dest` the files that git lists for the working tree of
    `repo` (tracked, and untracked but not ignored) with their on-disk
    contents, skipping listed files that are gone from disk."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=repo, check=True, capture_output=True, text=True).stdout
    for name in filter(None, listed.split("\0")):
        if (repo / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(repo / name, dest / name)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True,
                        choices=["train-h128", "grid-h16", "pipeline"])
    parser.add_argument("--seed", type=int, nargs="+", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]  # the benchmark's run length, the same on both sides
    base_rev = git("rev-parse", args.base)
    runs = {"base": [], "head": []}
    with tempfile.TemporaryDirectory(prefix="bench-base-") as base_tmp, \
            tempfile.TemporaryDirectory(prefix="bench-head-") as head_tmp:
        checkouts = {"base": Path(base_tmp), "head": Path(head_tmp)}
        archive = subprocess.run(["git", "archive", base_rev], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", base_tmp], input=archive, check=True)
        export_working_tree(ROOT, checkouts["head"])
        for i in range(args.pairs):
            seed = args.seed[i % len(args.seed)]
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                run = run_once(checkouts[side], args.workload, seed, seconds)
                env = run.pop("env")
                runs[side].append({"pair": i, "seed": seed, "first": order[0] == side, **run})
                print(f"pair {i} seed {seed} {side}: correct {run['correct']}, "
                      + ", ".join(f"{k} {v:.4g}" for k, v in run["metrics"].items()),
                      flush=True)

    summary = summarize([r["metrics"] for r in runs["base"]],
                        [r["metrics"] for r in runs["head"]], bench["end_to_end"])
    print(render(summary))
    correct = all(r["correct"] and not r["failed"] for side in runs.values() for r in side)
    if not correct:
        print("# some run reported correct: false or failed operations")
    if args.out:
        Path(args.out).write_text(json.dumps({
            "workload": args.workload, "seeds": args.seed, "pairs": args.pairs,
            "seconds": seconds, "base": base_rev,
            "head": f"{git('rev-parse', 'HEAD')} + working tree"
                    + (" (modified)" if git("status", "--porcelain") else ""),
            "env": env, "all_correct": correct,
            "metrics": summary, "runs": runs,
        }, indent=1, sort_keys=True) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
