#!/usr/bin/env python3
"""Run the whole CLI chain with fixed seeds and print one `sha256  artifact`
line per file it wrote.

    PYTHONPATH=src python scripts/artifact_digests.py --workdir DIR [--size tiny|full]

The chain is synth (the raw corpus, and the same corpus generated ready
as corpus.dat) -> split -> ingest --split -> ingest without --split (PCA
fitted on every frame, written as ds-all.dat) -> split of the --split
dataset (the benchmark pipeline's --cv 3 --ratio 0.6) -> augment -> train
(mt-td) -> eval in two modes -> predict -> benchmark. At --size tiny,
train reads its --hidden and --iterations from a --config file and
benchmark its --groups from a JSON file, both written by the script first,
so the chain also reads JSON inputs through the CLI. Artifacts are named
relative to DIR, which must be empty or absent, and the CLI's own
printout is kept as `cli-output.txt` and digested with the rest. Running
the script on two versions of the code and diffing the outputs shows
whether a change kept every artifact byte for byte.
"""

import argparse
import contextlib
import hashlib
import json
import os
import sys
from pathlib import Path

from socialseq.cli import main as cli

SIZES = {
    "tiny": {
        "synth": ["--sequences", 24, "--users", 2, "--days-per-user", 3,
                  "--min-len", 2, "--max-len", 5, "--raw-cnn-width", 50],
        "split": ["--candidates", 32, "--cv", 2],
        "split_dataset": ["--candidates", 32],
        "train": ["--config", "train-config.json"],
        "benchmark": ["--hidden", 4, "--iterations", 2, "--groups", "groups.json"],
        "inputs": {"train-config.json": {"hidden": 8, "iterations": 3},
                   "groups.json": {"FACE": ["age-face", "facial-expression"],
                                   "CTX": ["activities", "proximity"]}},
    },
    "full": {
        "synth": ["--sequences", 108, "--users", 4, "--days-per-user", 5,
                  "--min-len", 2, "--max-len", 12],
        "split": ["--candidates", 500, "--cv", 3],
        "split_dataset": ["--candidates", 6000],
        "train": ["--hidden", 16, "--iterations", 20],
        "benchmark": ["--hidden", 16, "--iterations", 6, "--groups", "default"],
        "inputs": {},
    },
}


def run(argv):
    code = cli([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"socialseq {argv[0]} exited {code}")


def run_chain(size: dict) -> None:
    """The CLI chain, run in the current directory, after writing the size's
    JSON input files (a train config, an attribute-groups file)."""
    for name, obj in size["inputs"].items():
        Path(name).write_text(json.dumps(obj))
    run(["synth", "--raw-dir", "raw", "--out", "corpus.dat", "--domain-sep", 2.0,
         "--relation-sep", 2.0, "--noise", 0.5, "--seed", 0, *size["synth"]])
    run(["split", "--sequences", "raw/sequences.json", "--out", "split.json",
         "--seed", 0, *size["split"]])
    run(["ingest", "--raw-dir", "raw", "--out", "ds.dat", "--split", "split.json"])
    run(["ingest", "--raw-dir", "raw", "--out", "ds-all.dat"])
    run(["split", "--dataset", "ds.dat", "--out", "split-dataset.json", "--cv", 3,
         "--ratio", 0.6, "--seed", 0, *size["split_dataset"]])
    run(["augment", "--dataset", "ds.dat", "--split", "split.json", "--out", "aug.dat",
         "--multiplier", 1, "--seed", 0])
    run(["train", "--dataset", "aug.dat", "--split", "split.json", "--out", "model.bin",
         "--arch", "mt-td", "--seed", 1, *size["train"]])
    for mode in ("relation-direct", "domain-inferred"):
        run(["eval", "--model", "model.bin", "--dataset", "ds.dat", "--split", "split.json",
             "--side", "test", "--mode", mode, "--out", f"report-{mode}.json"])
    run(["predict", "--model", "model.bin", "--dataset", "ds.dat", "--out", "pred.jsonl"])
    run(["benchmark", "--dataset", "ds.dat", "--split", "split.json", "--seed", 0,
         "--out", "rows.jsonl", "--table-out", "rows.txt", *size["benchmark"]])


def digests(root: Path) -> list[str]:
    lines = []
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        lines.append(f"{digest}  {path.relative_to(root).as_posix()}")
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workdir", required=True, help="empty or absent directory")
    parser.add_argument("--size", choices=sorted(SIZES), default="tiny")
    args = parser.parse_args()

    workdir = Path(args.workdir).resolve()
    workdir.mkdir(parents=True, exist_ok=True)
    if any(workdir.iterdir()):
        parser.error(f"{workdir} is not empty")
    os.chdir(workdir)  # artifacts that name a path name a relative one
    with open("cli-output.txt", "w") as log, contextlib.redirect_stdout(log):
        run_chain(SIZES[args.size])
    sys.stdout.write("".join(line + "\n" for line in digests(workdir)))


if __name__ == "__main__":
    main()
