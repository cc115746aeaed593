"""Smoke runs of the experiment scripts under scripts/ at tiny sizes: each
must exit 0. The paired-benchmark summary is checked on fixed numbers."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    return bench_pairs


def test_bench_pairs_summary_on_fixed_numbers():
    bench_pairs = load_bench_pairs()
    metrics = [{"name": "fps", "unit": "frames/s", "better": "higher", "bound": 0.25},
               {"name": "job_s", "unit": "s", "better": "lower", "bound": 0.1},
               {"name": "absent", "unit": "s", "better": "lower", "bound": 0.1}]
    base = [{"fps": v, "job_s": s} for v, s in [(100, 1.0), (110, 2.0), (90, 1.0), (100, 1.5)]]
    head = [{"fps": v, "job_s": s} for v, s in [(120, 1.0), (110, 1.5), (99, 0.5), (130, 2.0)]]
    summary = bench_pairs.summarize(base, head, metrics)
    assert list(summary) == ["fps", "job_s"]
    fps, job = summary["fps"], summary["job_s"]
    # inclusive quartiles of (90, 100, 100, 110) and (99, 110, 120, 130)
    assert (fps["base"]["q1"], fps["base"]["median"], fps["base"]["q3"]) == (97.5, 100, 102.5)
    assert (fps["head"]["q1"], fps["head"]["median"], fps["head"]["q3"]) == (107.25, 115, 122.5)
    assert fps["change"] == pytest.approx(0.15)
    assert (fps["wins"], fps["losses"], fps["pairs"]) == (3, 0, 4)  # the tie counts for neither
    assert fps["base_iqr_ratio"] == pytest.approx(0.05) and not fps["unresolved"]
    # lower is better: 2 wins, 1 tie, 1 loss; base IQR 0.625 on a median of 1.25
    assert (job["wins"], job["losses"]) == (2, 1)
    assert job["change"] == pytest.approx(0.0)
    assert job["base_iqr_ratio"] == pytest.approx(0.5) and job["unresolved"]
    assert "unresolved" in bench_pairs.render(summary).splitlines()[2]
    with pytest.raises(ValueError):
        bench_pairs.summarize(base, head[:3], metrics)


def test_bench_pairs_exports_the_working_tree_as_on_disk(tmp_path):
    repo, dest = tmp_path / "repo", tmp_path / "export"
    (repo / "sub").mkdir(parents=True)
    dest.mkdir()
    files = {".gitignore": "ignored.txt\n", "edited.txt": "committed\n",
             "deleted.txt": "committed\n", "sub/kept.txt": "committed\n"}
    for name, text in files.items():
        (repo / name).write_text(text)

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=repo, check=True, capture_output=True)

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (repo / "edited.txt").write_text("edited on disk\n")
    (repo / "deleted.txt").unlink()
    (repo / "sub" / "untracked.txt").write_text("new\n")
    (repo / "ignored.txt").write_text("ignored\n")

    load_bench_pairs().export_working_tree(repo, dest)
    exported = sorted(str(p.relative_to(dest)) for p in dest.rglob("*") if p.is_file())
    assert exported == [".gitignore", "edited.txt", "sub/kept.txt", "sub/untracked.txt"]
    assert (dest / "edited.txt").read_text() == "edited on disk\n"
    assert (dest / "sub" / "untracked.txt").read_text() == "new\n"
