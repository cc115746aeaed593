import json
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from helpers import MALFORMED_RAW, UNPICKLED_MARKER, write_raw_corpus

from socialseq import __version__, numerics
from socialseq.cli import build_parser, main
from socialseq.container import MAGIC, read_container, write_container
from socialseq.dataset import (
    Dataset,
    LayoutManifest,
    ManifestEntry,
    ValidationError,
    load_dataset,
    save_dataset,
    sequences_in_groups,
)
from socialseq.features import AugmentConfig
from socialseq.model import load_model
from socialseq.splits import load_split_suite
from socialseq.synth import SynthConfig, generate_raw_corpus
from socialseq.training import TrainConfig


def run(argv):
    return main([str(a) for a in argv])


def fill(argv, workdir, tmp_path):
    """argv with DATASET, SPLITS, OUT and MISSING (an absent file) replaced."""
    paths = {"DATASET": workdir["dataset"], "SPLITS": workdir["splits"],
             "OUT": tmp_path / "out", "MISSING": tmp_path / "absent"}
    return [paths.get(a, a) for a in argv]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One small pipeline shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    ds = root / "corpus.dat"
    splits = root / "splits.json"
    model = root / "model.bin"
    assert run(["synth", "--out", ds, "--sequences", "54", "--users", "3",
                "--days-per-user", "3", "--min-len", "2", "--max-len", "5",
                "--domain-sep", "2.5", "--relation-sep", "2.5",
                "--noise", "0.4", "--seed", "0"]) == 0
    assert run(["split", "--dataset", ds, "--out", splits,
                "--candidates", "64", "--cv", "2", "--seed", "0"]) == 0
    assert run(["train", "--dataset", ds, "--split", splits, "--out", model,
                "--arch", "mt-td", "--hidden", "12", "--iterations", "6",
                "--seed", "1"]) == 0
    return {"root": root, "dataset": ds, "splits": splits, "model": model}


class TestSynthAndSplit:
    def test_artifacts_exist_and_validate(self, workdir):
        ds = load_dataset(workdir["dataset"])
        assert len(ds.sequences) == 54
        assert ds.meta["toolkit_version"]
        assert ds.meta["config_hash"]
        suite = load_split_suite(workdir["splits"])
        assert len(suite.inner) == 2

    def test_synth_requires_a_target(self, tmp_path, capsys):
        assert run(["synth", "--sequences", "5"]) == 2

    def test_split_rejects_missing_dataset(self, tmp_path):
        assert run(["split", "--dataset", tmp_path / "nope.dat",
                    "--out", tmp_path / "s.json"]) == 2

    @pytest.mark.parametrize("argv, names", [
        (["synth", "--out", "OUT", "--min-len", 0], "min_len"),
        (["synth", "--out", "OUT", "--noise", -1], "noise"),
        (["split", "--dataset", "DATASET", "--out", "OUT", "--candidates", 0], "got 0 and 3"),
        (["split", "--dataset", "DATASET", "--out", "OUT", "--cv", 0], "got 1000 and 0"),
        (["split", "--dataset", "DATASET", "--out", "OUT", "--ratio", 1.5], "got 1.5"),
    ], ids=["synth-min-len", "synth-noise", "split-candidates", "split-cv", "split-ratio"])
    def test_bad_flag_value_exits_2(self, workdir, tmp_path, capsys, argv, names):
        assert run(fill(argv, workdir, tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error") and names in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["synth", "--raw-dir", "OUT", "--sequences", 10],
        ["split", "--dataset", "DATASET", "--out", "OUT", "--candidates", 8],
        ["augment", "--dataset", "DATASET", "--out", "OUT"],
        ["train", "--dataset", "DATASET", "--split", "SPLITS", "--out", "OUT",
         "--hidden", 4, "--iterations", 1],
        ["benchmark", "--dataset", "DATASET", "--split", "SPLITS", "--out", "OUT",
         "--hidden", 4, "--iterations", 1],
    ], ids=lambda argv: argv[0])
    def test_negative_seed_exits_2_and_writes_nothing(self, workdir, tmp_path, capsys, argv):
        assert run(fill(argv + ["--seed", -1], workdir, tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error") and "seed must be >= 0, got -1" in err
        assert not any(tmp_path.iterdir())

    def test_split_rejects_unknown_relation_in_dataset(self, workdir, tmp_path):
        header, arrays = read_container(workdir["dataset"])
        header["records"][0]["relation"] = "strangers"
        bad = tmp_path / "bad.dat"
        write_container(bad, header["kind"], header, list(arrays.items()))
        assert run(["split", "--dataset", bad, "--out", tmp_path / "s.json",
                    "--candidates", "8"]) == 2

    def test_split_file_byte_stable(self, workdir, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run(["split", "--dataset", workdir["dataset"], "--out", out,
                        "--candidates", "32", "--cv", "2", "--seed", "5"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_artifacts_embed_provenance(self, workdir, tmp_path):
        # config hash + seed + toolkit version in every artifact kind
        raw = write_raw_corpus(tmp_path / "raw")
        commands = [
            ["ingest", "--raw-dir", raw, "--out", tmp_path / "ingested.dat"],
            ["augment", "--dataset", workdir["dataset"], "--split", workdir["splits"],
             "--out", tmp_path / "aug.dat", "--multiplier", "1", "--seed", "3"],
            ["benchmark", "--dataset", workdir["dataset"], "--split", workdir["splits"],
             "--out", tmp_path / "rows.jsonl", "--hidden", "4", "--iterations", "1",
             "--seed", "2"],
            ["eval", "--model", workdir["model"], "--dataset", workdir["dataset"],
             "--out", tmp_path / "report.json"],
            ["predict", "--model", workdir["model"], "--dataset", workdir["dataset"],
             "--out", tmp_path / "pred.jsonl"],
        ]
        for argv in commands:
            assert run(argv) == 0

        def first_line(path):
            return json.loads(open(path).readline())

        _, model_header = load_model(workdir["model"])
        ingested = load_dataset(tmp_path / "ingested.dat").meta
        pca_header, _ = read_container(tmp_path / "ingested.dat.pca")
        runs = {
            "dataset": load_dataset(workdir["dataset"]).meta,
            "split": json.loads(open(workdir["splits"]).read())["meta"],
            "model": model_header,
            "history": first_line(str(workdir["model"]) + ".history.jsonl"),
            "ingested": ingested,
            "pca-bank": pca_header,
            "augmented": load_dataset(tmp_path / "aug.dat").meta,
            "rows": first_line(tmp_path / "rows.jsonl"),
        }
        for name, meta in runs.items():
            assert meta["toolkit_version"] == __version__, name
            assert len(meta["config_hash"]) == 64, name
            assert isinstance(meta["seed"], int), name
        assert pca_header["config_hash"] == ingested["config_hash"]
        assert runs["augmented"]["seed"] == 3 and runs["rows"]["seed"] == 2
        # eval and predict name the model's run, not a run of their own
        for meta in (json.loads((tmp_path / "report.json").read_text())["meta"],
                     first_line(tmp_path / "pred.jsonl")):
            assert meta["model_config_hash"] == model_header["config_hash"]
            assert meta["seed"] == model_header["seed"]
            assert meta["toolkit_version"] == __version__


class TestTrainEval:
    def test_model_and_history_written(self, workdir):
        model, header = load_model(workdir["model"])
        assert header["config_hash"]
        history_path = str(workdir["model"]) + ".history.jsonl"
        lines = [json.loads(l) for l in open(history_path)]
        assert lines[0]["config"]["arch"] == "mt-td"
        assert len(lines) == 1 + 6

    def test_eval_reproduces_recorded_best_selection(self, workdir, tmp_path, capsys):
        history_path = str(workdir["model"]) + ".history.jsonl"
        meta = json.loads(open(history_path).readline())
        out = tmp_path / "report.json"
        assert run(["eval", "--model", workdir["model"], "--dataset", workdir["dataset"],
                    "--split", workdir["splits"], "--side", "cv-val", "--cv-index", "0",
                    "--mode", "relation-direct", "--out", out]) == 0
        report = json.loads(out.read_text())
        assert report["macro_f1"] == meta["best_selection"]

    def test_eval_modes_on_mt_model(self, workdir, tmp_path):
        for mode in ("relation-direct", "domain-direct", "domain-inferred"):
            out = tmp_path / f"{mode}.json"
            assert run(["eval", "--model", workdir["model"],
                        "--dataset", workdir["dataset"], "--mode", mode,
                        "--out", out]) == 0
            report = json.loads(out.read_text())
            n = 9 if mode == "relation-direct" else 5
            assert len(report["confusion"]) == n

    def test_eval_mode_without_its_head_exits_2(self, workdir, tmp_path, capsys):
        model = tmp_path / "st-rel.bin"
        assert run(["train", "--dataset", workdir["dataset"], "--split", workdir["splits"],
                    "--out", model, "--arch", "st-rel", "--hidden", "4",
                    "--iterations", "1"]) == 0
        out = tmp_path / "report.json"
        assert run(["eval", "--model", model, "--dataset", workdir["dataset"],
                    "--mode", "domain-direct", "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error") and "needs a domain head" in err
        assert not out.exists()

    def test_train_determinism_byte_identical(self, workdir, tmp_path):
        args = ["--dataset", workdir["dataset"], "--split", workdir["splits"],
                "--arch", "st-rel", "--hidden", "8", "--iterations", "4",
                "--seed", "7", "--augment-multiplier", "1"]
        m1, m2 = tmp_path / "m1.bin", tmp_path / "m2.bin"
        assert run(["train", *args, "--out", m1]) == 0
        assert run(["train", *args, "--out", m2]) == 0
        assert m1.read_bytes() == m2.read_bytes()
        h1 = (str(m1) + ".history.jsonl", str(m2) + ".history.jsonl")
        assert open(h1[0], "rb").read() == open(h1[1], "rb").read()

    def test_same_manifest_dataset_accepted(self, workdir, tmp_path):
        other = tmp_path / "other.dat"
        assert run(["synth", "--out", other, "--sequences", "18", "--users", "3",
                    "--days-per-user", "2", "--max-len", "4", "--noise", "2.0",
                    "--seed", "9"]) == 0
        assert run(["eval", "--model", workdir["model"], "--dataset", other]) == 0

    def test_manifest_hash_mismatch_refused(self, workdir, tmp_path):
        ds = load_dataset(workdir["dataset"])
        renamed = LayoutManifest(tuple(
            replace(e, name="acts") if e.name == "activities" else e
            for e in ds.manifest.entries
        ))
        other = tmp_path / "renamed.dat"
        save_dataset(other, Dataset(manifest=renamed, sequences=ds.sequences,
                                    meta=ds.meta))
        assert run(["eval", "--model", workdir["model"], "--dataset", other]) == 2

    def test_cv_index_out_of_range(self, workdir, tmp_path):
        assert run(["train", "--dataset", workdir["dataset"],
                    "--split", workdir["splits"], "--cv-index", "5",
                    "--out", tmp_path / "m.bin"]) == 2


def damage(raw: bytes, how: str) -> bytes:
    header_end = len(MAGIC) + 8 + int.from_bytes(raw[len(MAGIC):len(MAGIC) + 8], "little")
    if how == "truncated-header":
        return raw[:header_end - 7]
    if how == "truncated-payload":
        return raw[:-5]
    if how == "header-not-an-object":
        return MAGIC + (2).to_bytes(8, "little") + b"[]"
    return raw + b"\0" * 8  # trailing bytes


# (case, edit of the (header, arrays) read back from a model, text the error names)
DAMAGED_MODELS = [
    ("array-missing", lambda h, a: a.pop("lstm.u"), "lstm.u"),
    ("bias-shape", lambda h, a: a.update({"fc_in.b": np.zeros(7)}), "fc_in.b"),
    ("recurrent-shape", lambda h, a: a.update({"lstm.u": np.zeros((16, 3))}), "lstm.u"),
    ("arch-missing", lambda h, a: h.pop("arch"), "arch"),
    ("arch-unknown", lambda h, a: h.update(arch="bogus"), "bogus"),
    ("hidden-disagrees", lambda h, a: h.update(hidden=h["hidden"] + 1), "lstm.u"),
    ("input-dim-disagrees", lambda h, a: h.update(input_dim=h["input_dim"] - 1), "fc_in.w"),
    ("extra-array", lambda h, a: a.update({"head_extra.w": np.zeros((2, 3))}), "head_extra.w"),
    ("manifest-hash-missing", lambda h, a: h.pop("manifest_hash"), "manifest hash"),
]

# (case, edit of the (header, arrays) read back from a dataset, text the error names)
DAMAGED_DATASETS = [
    ("frames-missing", lambda h, a: a.pop("frames/seq0000"), "frames/seq0000"),
    ("records-missing", lambda h, a: h.pop("records"), "records"),
    ("frame-count-wrong", lambda h, a: h["records"][0].update(frames=99), "frame count"),
    ("manifest-is-cnn-string",
     lambda h, a: next(e for e in h["manifest"]["entries"] if e["name"] == "proximity")
     .update(is_cnn="false"), "manifest entry 'proximity'"),
]

# (case, damaged copy of a split file's JSON object)
DAMAGED_SPLITS = [
    ("outer-val-groups-missing",
     lambda obj: {**obj, "outer": {k: v for k, v in obj["outer"].items() if k != "val_groups"}}),
    ("inner-not-a-list", lambda obj: {**obj, "inner": 5}),
    ("top-level-a-list", lambda obj: [obj]),
]


def edit_entries(raw: bytes, edit) -> bytes:
    """The container `raw` with `edit` applied to its header's array entries."""
    start = len(MAGIC) + 8
    end = start + int.from_bytes(raw[len(MAGIC):start], "little")
    header = json.loads(raw[start:end])
    edit(header["arrays"])
    encoded = json.dumps(header).encode()
    return MAGIC + len(encoded).to_bytes(8, "little") + encoded + raw[end:]


# (case, edit of a model's array entries, text the error names); the first two
# entries are fc_in.w [hidden, input_dim] and fc_in.b
DAMAGED_ENTRIES = [
    ("name-missing", lambda e: e[0].pop("name"), "array entry 0 has no string name"),
    ("name-duplicate", lambda e: e[1].update(name="fc_in.w"), "duplicate array name 'fc_in.w'"),
    ("shape-missing", lambda e: e[0].pop("shape"), "'fc_in.w': shape None"),
    ("shape-negated", lambda e: e[0].update(shape=[-d for d in e[0]["shape"]]),
     "is not a list of non-negative ints"),
    ("offset-missing", lambda e: e[0].pop("offset"), "'fc_in.w': offset None"),
    ("second-offset-zero", lambda e: e[1].update(offset=0), "'fc_in.b': offset 0"),
]


class TestDamagedContainer:
    """A damaged dataset, model or split file is a validation error (exit 2)
    naming the file; it never loads."""

    @staticmethod
    def rewrite(src, dst, edit):
        header, arrays = read_container(src)
        edit(header, arrays)
        write_container(dst, header["kind"], header, list(arrays.items()))
        return dst

    @pytest.mark.parametrize("case, edit, names", DAMAGED_MODELS,
                             ids=[c[0] for c in DAMAGED_MODELS])
    def test_damaged_model_exits_2(self, workdir, tmp_path, capsys, case, edit, names):
        bad = self.rewrite(workdir["model"], tmp_path / f"{case}.bin", edit)
        assert run(["eval", "--model", bad, "--dataset", workdir["dataset"],
                    "--out", tmp_path / "r.json"]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err
        assert names in err

    @pytest.mark.parametrize("case, edit, names", DAMAGED_DATASETS,
                             ids=[c[0] for c in DAMAGED_DATASETS])
    def test_damaged_dataset_exits_2(self, workdir, tmp_path, capsys, case, edit, names):
        bad = self.rewrite(workdir["dataset"], tmp_path / f"{case}.dat", edit)
        assert run(["split", "--dataset", bad, "--out", tmp_path / "s.json",
                    "--candidates", "8"]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err
        assert names in err
        assert not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize("case, edit", DAMAGED_SPLITS, ids=[c[0] for c in DAMAGED_SPLITS])
    def test_damaged_split_file_exits_2(self, workdir, tmp_path, capsys, case, edit):
        bad = tmp_path / f"{case}.json"
        bad.write_text(json.dumps(edit(json.loads(workdir["splits"].read_text()))))
        assert run(["eval", "--model", workdir["model"], "--dataset", workdir["dataset"],
                    "--split", bad, "--side", "test", "--out", tmp_path / "r.json"]) == 2
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("case, edit, names", DAMAGED_ENTRIES,
                             ids=[c[0] for c in DAMAGED_ENTRIES])
    def test_damaged_array_entry_exits_2(self, workdir, tmp_path, capsys, case, edit, names):
        bad = tmp_path / f"{case}.bin"
        bad.write_bytes(edit_entries(workdir["model"].read_bytes(), edit))
        assert run(["eval", "--model", bad, "--dataset", workdir["dataset"],
                    "--out", tmp_path / "r.json"]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err
        assert names in err

    @pytest.mark.parametrize("how", ["truncated-header", "truncated-payload", "trailing-bytes",
                                     "header-not-an-object"])
    @pytest.mark.parametrize("artifact", ["dataset", "model"])
    def test_damaged_artifact_exits_2(self, workdir, tmp_path, capsys, how, artifact):
        bad = tmp_path / f"bad-{artifact}.bin"
        bad.write_bytes(damage(workdir[artifact].read_bytes(), how))
        if artifact == "dataset":
            argv = ["split", "--dataset", bad, "--out", tmp_path / "s.json", "--candidates", "8"]
        else:
            argv = ["eval", "--model", bad, "--dataset", workdir["dataset"],
                    "--out", tmp_path / "r.json"]
        assert run(argv) == 2
        assert str(bad) in capsys.readouterr().err


# (case, argv in which MISSING names an absent input file)
MISSING_INPUTS = [
    ("split-dataset", ["split", "--dataset", "MISSING", "--out", "OUT"]),
    ("split-sequences", ["split", "--sequences", "MISSING", "--out", "OUT"]),
    ("train-split", ["train", "--dataset", "DATASET", "--split", "MISSING", "--out", "OUT"]),
    ("eval-model", ["eval", "--model", "MISSING", "--dataset", "DATASET", "--out", "OUT"]),
    ("ingest-raw-dir", ["ingest", "--raw-dir", "MISSING", "--out", "OUT"]),
    ("benchmark-groups", ["benchmark", "--dataset", "DATASET", "--split", "SPLITS",
                          "--groups", "MISSING", "--out", "OUT"]),
    ("config", ["synth", "--config", "MISSING", "--out", "OUT"]),
]


@pytest.mark.parametrize("case, argv", MISSING_INPUTS, ids=[c[0] for c in MISSING_INPUTS])
def test_missing_input_file_exits_2(workdir, tmp_path, capsys, case, argv):
    assert run(fill(argv, workdir, tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error") and str(tmp_path / "absent") in err
    assert not (tmp_path / "out").exists()


class TestPredict:
    def test_emits_all_probability_groups(self, workdir, tmp_path):
        out = tmp_path / "preds.jsonl"
        assert run(["predict", "--model", workdir["model"],
                    "--dataset", workdir["dataset"], "--out", out]) == 0
        lines = [json.loads(l) for l in open(out)]
        assert len(lines) == 1 + 54
        for row in lines[1:]:
            assert len(row["relation_probs"]) == 9
            assert len(row["domain_probs"]) == 5
            assert len(row["domain_inferred"]) == 5
            assert abs(sum(row["relation_probs"]) - 1.0) < 1e-9
            assert abs(sum(row["domain_inferred"]) - 1.0) < 1e-6
            assert row["relation_pred"]
            assert row["domain_pred"]


class TestAugmentCommand:
    def test_augment_extends_train_side_only(self, workdir, tmp_path):
        out = tmp_path / "augmented.dat"
        assert run(["augment", "--dataset", workdir["dataset"],
                    "--split", workdir["splits"], "--out", out,
                    "--multiplier", "1", "--sigma", "0.01", "--seed", "3"]) == 0
        ds = load_dataset(out)
        suite = load_split_suite(workdir["splits"])
        originals = [s for s in ds.sequences if s.origin is None]
        augmented = [s for s in ds.sequences if s.origin is not None]
        train_keys = set(tuple(k) for k in suite.outer.train_groups)
        assert len(originals) == 54
        assert augmented
        by_id = {s.id: s for s in originals}
        for a in augmented:
            assert a.group_key in train_keys
            src = by_id[a.origin]
            assert a.relation == src.relation
            assert a.frames.shape == src.frames.shape

    def test_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        """augment fits a 459-wide PCA, whose eigh changes its last bits with
        the OpenBLAS thread count unless the CLI pins BLAS to one thread;
        so do a hidden-128 train's weight-gradient products over more than
        512 frames."""
        src = Path(__file__).resolve().parent.parent / "src"
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                filter(None, [str(src), os.environ.get("PYTHONPATH")])))
            ds, aug = tmp_path / f"corpus-{threads}.dat", tmp_path / f"aug-{threads}.dat"
            splits, model = tmp_path / f"splits-{threads}.json", tmp_path / f"model-{threads}.bin"
            for argv in (["synth", "--out", ds, "--sequences", 60, "--users", 3,
                          "--days-per-user", 2, "--min-len", 5, "--max-len", 8, "--seed", 0],
                         ["augment", "--dataset", ds, "--out", aug, "--seed", 0],
                         ["split", "--dataset", aug, "--out", splits, "--candidates", 16,
                          "--cv", 2, "--seed", 0],
                         ["train", "--dataset", aug, "--split", splits, "--out", model,
                          "--arch", "mt-td", "--hidden", 128, "--iterations", 2, "--seed", 0]):
                proc = subprocess.run([sys.executable, "-m", "socialseq.cli", *map(str, argv)],
                                      env=env, capture_output=True, text=True, timeout=300)
                assert proc.returncode == 0, proc.stderr
            history = Path(f"{model}.history.jsonl")
            outputs.append((aug.read_bytes(), model.read_bytes(), history.read_bytes()))
        aug_ds = load_dataset(tmp_path / "aug-1.dat")
        train_groups = load_split_suite(tmp_path / "splits-1.json").inner[0].train_groups
        assert sum(s.frames.shape[0] for s in sequences_in_groups(
            aug_ds.by_group(), train_groups)) > 512
        assert outputs[0] == outputs[1]

    def test_exits_1_when_blas_cannot_be_pinned(self, tmp_path, monkeypatch, capsys):
        """a numpy with no bundled OpenBLAS (conda, distro, Accelerate) gets
        a one-line refusal, not a traceback, and no artifact."""
        monkeypatch.setattr(numerics, "_BUNDLED_LIB_DIRS", (tmp_path,))
        out = tmp_path / "corpus.dat"
        assert run(["synth", "--out", out, "--sequences", 4, "--users", 2,
                    "--days-per-user", 2, "--seed", 0]) == 1
        assert "cannot pin BLAS to one thread" in capsys.readouterr().err
        assert not out.exists()


class TestIngest:
    def test_raw_corpus_round_trip(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        ds_path = tmp_path / "ingested.dat"
        splits_path = tmp_path / "splits.json"
        assert run(["synth", "--raw-dir", raw, "--sequences", "24", "--users", "2",
                    "--days-per-user", "3", "--min-len", "3", "--max-len", "6",
                    "--seed", "4"]) == 0
        assert (raw / "manifest.json").exists()
        assert (raw / "sequences.json").exists()
        assert run(["split", "--sequences", raw / "sequences.json",
                    "--out", splits_path, "--candidates", "64", "--cv", "2",
                    "--seed", "0"]) == 0
        assert run(["ingest", "--raw-dir", raw, "--out", ds_path,
                    "--split", splits_path]) == 0
        captured = capsys.readouterr().out
        assert "total width: 459" in captured
        ds = load_dataset(ds_path)
        assert len(ds.sequences) == 24
        assert all(s.frames.shape[1] == 459 for s in ds.sequences)
        assert (tmp_path / "ingested.dat.pca").exists()

    def test_ingest_bit_stable(self, tmp_path):
        raw = tmp_path / "raw"
        assert run(["synth", "--raw-dir", raw, "--sequences", "12", "--users", "2",
                    "--days-per-user", "2", "--min-len", "5", "--max-len", "7",
                    "--seed", "5"]) == 0
        a, b = tmp_path / "a.dat", tmp_path / "b.dat"
        assert run(["ingest", "--raw-dir", raw, "--out", a]) == 0
        assert run(["ingest", "--raw-dir", raw, "--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("width", [49, 0, -3])
    def test_raw_cnn_width_below_the_manifest_exits_2_and_writes_nothing(
            self, tmp_path, capsys, width):
        assert run(["synth", "--out", tmp_path / "ds.dat", "--raw-dir", tmp_path / "raw",
                    "--raw-cnn-width", width, "--sequences", "10", "--seed", "6"]) == 2
        assert f"--raw-cnn-width {width}" in capsys.readouterr().err
        with pytest.raises(ValidationError, match="at least 50 wide"):
            generate_raw_corpus(SynthConfig(n_sequences=4), tmp_path / "raw",
                                raw_cnn_width=width)
        assert not any(tmp_path.iterdir())

    def test_fewer_frames_than_components_exits_2_and_writes_nothing(self, tmp_path, capsys):
        # 6 sequences of 2-5 frames draw 25 frames, too few for ingest's 50 components
        assert run(["synth", "--out", tmp_path / "ds.dat", "--raw-dir", tmp_path / "raw",
                    "--sequences", "6", "--min-len", "2", "--max-len", "5",
                    "--seed", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error")
        assert "block 'activities': k=50 exceeds min(frames=25, dim=64)" in err
        assert not any(tmp_path.iterdir())

    def test_as_many_frames_as_components_ingests(self, tmp_path):
        raw = tmp_path / "raw"
        assert run(["synth", "--raw-dir", raw, "--sequences", "10", "--min-len", "5",
                    "--max-len", "5", "--seed", "0"]) == 0
        assert run(["ingest", "--raw-dir", raw, "--out", tmp_path / "x.dat"]) == 0

    def test_raw_cnn_width_at_the_manifest_width_ingests(self, tmp_path):
        raw = tmp_path / "raw"
        assert run(["synth", "--raw-dir", raw, "--raw-cnn-width", "50", "--sequences", "12",
                    "--users", "2", "--days-per-user", "2", "--min-len", "5",
                    "--max-len", "7", "--seed", "5"]) == 0
        assert run(["ingest", "--raw-dir", raw, "--out", tmp_path / "x.dat"]) == 0
        assert load_dataset(tmp_path / "x.dat").manifest.total_width == 459

    def test_inconsistent_label_rejected(self, tmp_path):
        raw = tmp_path / "raw"
        assert run(["synth", "--raw-dir", raw, "--sequences", "10", "--seed", "6",
                    "--min-len", "5", "--max-len", "6"]) == 0
        seq_path = raw / "sequences.json"
        meta = json.loads(seq_path.read_text())
        meta["sequences"][0]["relation"] = "lovers"
        meta["sequences"][0]["domain"] = "attachment"
        seq_path.write_text(json.dumps(meta))
        assert run(["ingest", "--raw-dir", raw, "--out", tmp_path / "x.dat"]) == 2

    def test_unknown_relation_label_rejected(self, tmp_path):
        raw = tmp_path / "raw"
        assert run(["synth", "--raw-dir", raw, "--sequences", "10", "--seed", "6",
                    "--min-len", "5", "--max-len", "6"]) == 0
        seq_path = raw / "sequences.json"
        meta = json.loads(seq_path.read_text())
        meta["sequences"][0]["relation"] = "strangers"
        seq_path.write_text(json.dumps(meta))
        assert run(["ingest", "--raw-dir", raw, "--out", tmp_path / "x.dat"]) == 2

    def test_split_naming_unknown_group_rejected(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        splits_path = tmp_path / "splits.json"
        assert run(["synth", "--raw-dir", raw, "--sequences", "12", "--users", "2",
                    "--days-per-user", "2", "--min-len", "5", "--max-len", "6",
                    "--seed", "7"]) == 0
        assert run(["split", "--sequences", raw / "sequences.json",
                    "--out", splits_path, "--candidates", "16", "--cv", "2",
                    "--seed", "0"]) == 0
        suite = json.loads(splits_path.read_text())
        suite["outer"]["train_groups"].append(["zz", "zz"])
        splits_path.write_text(json.dumps(suite))
        capsys.readouterr()
        assert run(["ingest", "--raw-dir", raw, "--out", tmp_path / "x.dat",
                    "--split", splits_path]) == 2
        assert "split references unknown group ('zz', 'zz')" in capsys.readouterr().err
        assert not (tmp_path / "x.dat").exists()

    @pytest.mark.parametrize("case, mutate, names", MALFORMED_RAW,
                             ids=[case[0] for case in MALFORMED_RAW])
    def test_malformed_corpus_exits_2(self, tmp_path, capsys, case, mutate, names):
        raw = write_raw_corpus(tmp_path / "raw")
        mutate(raw)
        capsys.readouterr()
        assert run(["ingest", "--raw-dir", raw, "--out", tmp_path / "x.dat"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error") and names in err
        assert not (tmp_path / "x.dat").exists()
        assert not (tmp_path / "x.dat.pca").exists()
        assert not (raw / UNPICKLED_MARKER).exists()

    def test_quant_levels_below_two_exits_2(self, tmp_path):
        raw = write_raw_corpus(tmp_path / "raw")
        assert run(["ingest", "--raw-dir", raw, "--out", tmp_path / "x.dat",
                    "--quant-levels", "1"]) == 2

    def test_split_reads_the_named_sequences_file(self, tmp_path):
        raw = write_raw_corpus(tmp_path / "raw")
        argv = ["--candidates", "16", "--cv", "2", "--seed", "0"]
        assert run(["split", "--sequences", raw / "sequences.json",
                    "--out", tmp_path / "a.json", *argv]) == 0
        (raw / "sequences.json").rename(raw / "labels.json")
        assert run(["split", "--sequences", raw / "labels.json",
                    "--out", tmp_path / "b.json", *argv]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_split_refuses_a_duplicate_record_id(self, tmp_path, capsys):
        raw = write_raw_corpus(tmp_path / "raw")
        path = raw / "sequences.json"
        meta = json.loads(path.read_text())
        meta["sequences"][3]["id"] = meta["sequences"][2]["id"]
        path.write_text(json.dumps(meta))
        capsys.readouterr()
        assert run(["split", "--sequences", path, "--out", tmp_path / "s.json"]) == 2
        assert "duplicate record id 'seq0002'" in capsys.readouterr().err
        assert not (tmp_path / "s.json").exists()

    def test_split_rejects_sequences_file_without_records_object(self, tmp_path, capsys):
        path = tmp_path / "sequences.json"
        path.write_text(json.dumps([{"id": "s0", "user": "u0", "day": "d0"}]))
        capsys.readouterr()
        assert run(["split", "--sequences", path, "--out", tmp_path / "s.json"]) == 2
        assert "sequences.json" in capsys.readouterr().err


class TestBenchmarkCommand:
    def test_emits_all_rows(self, tmp_path, capsys):
        ds = tmp_path / "bench.dat"
        splits = tmp_path / "splits.json"
        out = tmp_path / "rows.jsonl"
        assert run(["synth", "--out", ds, "--sequences", "36", "--users", "3",
                    "--days-per-user", "2", "--min-len", "2", "--max-len", "4",
                    "--domain-sep", "2.0", "--relation-sep", "2.0", "--seed", "8"]) == 0
        assert run(["split", "--dataset", ds, "--out", splits,
                    "--candidates", "32", "--cv", "2", "--seed", "1"]) == 0
        assert run(["benchmark", "--dataset", ds, "--split", splits,
                    "--hidden", "8", "--iterations", "2", "--seed", "0",
                    "--out", out]) == 0
        table = capsys.readouterr().out
        for task in ("REL", "DOM", "DOM-INF"):
            for strat in ("ST", "MT-IND", "MT-TD"):
                assert f"{task}-{strat}" in table
        rows = [json.loads(l) for l in open(out)][1:]
        assert len(rows) == 9
        assert all(r["error"] is None for r in rows)

    def test_default_attribute_groups(self, tmp_path, capsys):
        ds = tmp_path / "bench.dat"
        splits = tmp_path / "splits.json"
        assert run(["synth", "--out", ds, "--sequences", "27", "--users", "3",
                    "--days-per-user", "2", "--min-len", "2", "--max-len", "3",
                    "--seed", "10"]) == 0
        assert run(["split", "--dataset", ds, "--out", splits,
                    "--candidates", "32", "--cv", "1", "--seed", "0"]) == 0
        out = tmp_path / "rows.jsonl"
        assert run(["benchmark", "--dataset", ds, "--split", splits,
                    "--hidden", "6", "--iterations", "1", "--seed", "0",
                    "--groups", "default", "--out", out]) == 0
        rows = [json.loads(l) for l in open(out)][1:]
        subsets = {r["subset"] for r in rows}
        assert subsets == {"FACE", "BODY", "CTX", "ALL"}
        assert len(rows) == 9 * 4
        table = capsys.readouterr().out
        assert "REL-MT-TD/FACE" in table


    def test_group_with_no_columns_exits_2(self, workdir, tmp_path, capsys):
        groups = tmp_path / "groups.json"
        groups.write_text(json.dumps({"FACE": [], "BODY": ["age-body"]}))
        out = tmp_path / "rows.jsonl"
        capsys.readouterr()
        assert run(["benchmark", "--dataset", workdir["dataset"], "--split", workdir["splits"],
                    "--hidden", "4", "--iterations", "1", "--groups", groups,
                    "--out", out]) == 2
        assert "['FACE']" in capsys.readouterr().err
        assert not out.exists()

    def test_split_naming_unknown_group_rejected(self, workdir, tmp_path):
        suite = json.loads(open(workdir["splits"]).read())
        suite["outer"]["val_groups"].append(["zz", "zz"])
        bad = tmp_path / "bad-split.json"
        bad.write_text(json.dumps(suite))
        assert run(["benchmark", "--dataset", workdir["dataset"], "--split", bad,
                    "--hidden", "4", "--iterations", "1"]) == 2


class TestDefaultFlags:
    @pytest.mark.parametrize("argv, cls", [
        (["train", "--dataset", "d", "--split", "s", "--out", "m"], TrainConfig),
        (["benchmark", "--dataset", "d", "--split", "s"], TrainConfig),
        (["augment", "--dataset", "d", "--out", "o"], AugmentConfig),
    ])
    def test_default_flags_build_the_default_config(self, argv, cls):
        parser, _ = build_parser()
        args = vars(parser.parse_args(argv))
        cfg = cls(**{f.name: args[f.name] for f in fields(cls)})
        assert cfg == cls()
        for f in fields(cls):
            assert type(getattr(cfg, f.name)) is type(f.default), f.name


class TestConfigFile:
    def test_config_file_defaults_and_flag_override(self, tmp_path):
        ds = tmp_path / "c.dat"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sequences": 18, "seed": 12, "max_len": 4}))
        assert run(["synth", "--config", cfg, "--out", ds, "--seed", "13"]) == 0
        loaded = load_dataset(ds)
        assert len(loaded.sequences) == 18  # from config
        assert loaded.meta["seed"] == 13  # flag wins

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert run(["synth", "--config", cfg, "--out", tmp_path / "x.dat"]) == 2

    @pytest.mark.parametrize("command, values", [
        ("train", {"hidden": 2.5}),
        ("train", {"arch": "bogus"}),
        ("eval", {"mode": "bogus"}),
    ])
    def test_config_value_checked_like_its_flag(self, workdir, tmp_path, command, values):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        flag, value = next(iter(values.items()))
        if command == "train":
            argv = ["train", "--dataset", workdir["dataset"], "--split", workdir["splits"],
                    "--out", tmp_path / "m.bin"]
        else:
            argv = ["eval", "--model", workdir["model"], "--dataset", workdir["dataset"]]
        assert run([*argv, "--config", cfg]) == 2
        with pytest.raises(SystemExit) as excinfo:
            run([*argv, f"--{flag}", value])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("command, flag, value", [
        ("train", "hidden", 0),
        ("augment", "multiplier", -1),
    ])
    def test_config_range_error_is_a_validation_error(self, workdir, tmp_path, capsys,
                                                      command, flag, value):
        argv = [command, "--dataset", workdir["dataset"], "--split", workdir["splits"],
                "--out", tmp_path / "out.bin"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({flag: value}))
        for source in ([f"--{flag}", value], ["--config", cfg]):
            assert run([*argv, *source]) == 2
            assert "validation error" in capsys.readouterr().err
        assert not (tmp_path / "out.bin").exists()

    def test_config_value_converted_like_its_flag(self, workdir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha0": 1, "hidden": "4", "iterations": 1}))
        model = tmp_path / "m.bin"
        assert run(["train", "--dataset", workdir["dataset"], "--split", workdir["splits"],
                    "--out", model, "--config", cfg]) == 0
        config = json.loads(open(f"{model}.history.jsonl").readline())["config"]
        assert config["alpha0"] == 1.0 and isinstance(config["alpha0"], float)
        assert config["hidden"] == 4 and config["iterations"] == 1
