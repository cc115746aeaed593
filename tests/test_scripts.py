"""Smoke runs of the experiment scripts under scripts/ at tiny sizes: each
must exit 0."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=300)


def test_run_benchmark_fast(tmp_path):
    proc = run_script("run_benchmark.py", "--fast", "--workdir", tmp_path)
    assert proc.returncode == 0, proc.stderr
    rows = (tmp_path / "benchmark.jsonl").read_text().splitlines()
    assert len(rows) == 1 + 9 * 4  # header + every task x strategy x subset


def test_hierarchy_study_tiny():
    proc = run_script("hierarchy_study.py", "--seeds", 2, "--sequences", 54,
                      "--hidden", 4, "--iterations", 3)
    assert proc.returncode == 0, proc.stderr
    assert "mt-td >= mt-ind on" in proc.stdout


def test_artifact_digests_repeat(tmp_path):
    outputs = []
    for name in ("a", "b"):
        proc = run_script("artifact_digests.py", "--workdir", tmp_path / name, "--size", "tiny")
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    named = {line.split("  ", 1)[1] for line in outputs[0].splitlines()}
    for artifact in ("corpus.dat", "ds.dat", "ds.dat.pca", "ds-all.dat", "ds-all.dat.pca", "aug.dat", "model.bin", "model.bin.history.jsonl",
                     "report-relation-direct.json", "report-domain-inferred.json",
                     "pred.jsonl", "rows.jsonl", "cli-output.txt"):
        assert artifact in named
