import json

import numpy as np
import pytest

from socialseq import __version__
from socialseq.container import MAGIC, read_container, write_container
from socialseq.dataset import (
    Dataset,
    LayoutManifest,
    ManifestEntry,
    SocialSequence,
    ValidationError,
    load_dataset,
    load_manifest,
    save_dataset,
    save_manifest,
)
from socialseq.numerics import Rng
from socialseq.synth import (
    SynthConfig,
    attribute_group_columns,
    default_manifest,
    generate_corpus,
)
from socialseq.taxonomy import Relation


class TestContainer:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "c.bin"
        arrays = [("a", np.arange(6, dtype=float).reshape(2, 3)), ("b", np.zeros(4))]
        write_container(path, "x", {"n": 1}, arrays)
        header, loaded = read_container(path)
        assert header["kind"] == "x" and header["n"] == 1
        assert np.array_equal(loaded["a"], arrays[0][1])
        assert np.array_equal(loaded["b"], arrays[1][1])

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a container")
        with pytest.raises(ValueError):
            read_container(path)

    def test_stamps_kind_format_and_toolkit_version(self, tmp_path):
        path = tmp_path / "c.bin"
        write_container(path, "x", {"n": 1}, [("a", np.ones(2))])
        header, _ = read_container(path)
        assert header == {"kind": "x", "format": 1, "toolkit_version": __version__, "n": 1}

    def test_header_fields_win_over_the_stamp(self, tmp_path):
        path = tmp_path / "c.bin"
        given = {"kind": "given", "format": 7, "toolkit_version": "0.0.0"}
        write_container(path, "x", given, [])
        assert read_container(path)[0] == given

    def test_bytes_equal_a_hand_built_header(self, tmp_path):
        stamped, built = tmp_path / "stamped.bin", tmp_path / "built.bin"
        arrays = [("a", np.arange(6, dtype=float).reshape(2, 3)), ("b", np.zeros(4))]
        write_container(stamped, "x", {"n": 1}, arrays)
        header = json.dumps({"n": 1, "kind": "x", "toolkit_version": __version__, "format": 1,
                             "arrays": [{"name": "a", "shape": [2, 3], "offset": 0},
                                        {"name": "b", "shape": [4], "offset": 48}]},
                            sort_keys=True, separators=(",", ":")).encode()
        built.write_bytes(MAGIC + len(header).to_bytes(8, "little") + header
                          + b"".join(arr.astype("<f8").tobytes() for _, arr in arrays))
        assert stamped.read_bytes() == built.read_bytes()


class TestManifest:
    def test_total_width_enforced(self):
        with pytest.raises(ValidationError):
            LayoutManifest((ManifestEntry("a", 10, True),))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValidationError):
            LayoutManifest((ManifestEntry("a", 400, True), ManifestEntry("a", 59, False)))

    def test_columns_and_ranges(self):
        m = default_manifest()
        ranges = m.ranges()
        assert ranges["activities"] == (0, 50)
        assert m.total_width == 459
        cols = m.columns(["activities", "proximity"])
        assert cols.tolist() == list(range(0, 50)) + list(range(450, 452))
        with pytest.raises(ValidationError):
            m.columns(["missing"])

    def test_file_round_trip_and_hash(self, tmp_path):
        m = default_manifest()
        path = tmp_path / "manifest.json"
        save_manifest(path, m)
        loaded = load_manifest(path)
        assert loaded == m
        assert loaded.hash == m.hash

    def test_default_attribute_groups_union_covers_frame(self):
        # the union of the FACE/BODY/CTX masks, resolved by manifest
        # slicing, is exactly the full 459-column layout
        manifest = default_manifest()
        masks = attribute_group_columns(manifest)
        union = sorted(set().union(*(set(c.tolist()) for c in masks.values())))
        assert union == list(range(459))


def toy_dataset():
    manifest = default_manifest()
    rng = Rng(0)
    seqs = [
        SocialSequence(id=f"s{i}", user=f"u{i % 2}", day="d0",
                       relation=Relation(i % 9),
                       frames=rng.normal(size=(i % 3 + 1, 459)))
        for i in range(6)
    ]
    return Dataset(manifest=manifest, sequences=seqs, meta={"config_hash": "h", "seed": 0})


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        ds = toy_dataset()
        path = tmp_path / "data.bin"
        save_dataset(path, ds)
        loaded = load_dataset(path)
        assert len(loaded.sequences) == 6
        assert loaded.meta["config_hash"] == "h"
        for a, b in zip(ds.sequences, loaded.sequences):
            assert a.id == b.id and a.relation == b.relation
            assert (a.user, a.day) == (b.user, b.day)
            assert np.array_equal(a.frames, b.frames)

    def test_bytes_stable(self, tmp_path):
        ds = toy_dataset()
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_dataset(p1, ds)
        save_dataset(p2, ds)
        assert p1.read_bytes() == p2.read_bytes()

    def test_taxonomy_inconsistency_rejected_with_record_id(self, tmp_path):
        # A record claiming relation "lovers" under domain "attachment" can
        # only exist in a (hand-crafted) file, never in memory.
        manifest = default_manifest()
        path = tmp_path / "bad.bin"
        write_container(path, "dataset", {
            "manifest": manifest.to_json(),
            "manifest_hash": manifest.hash,
            "meta": {},
            "records": [{"id": "bad-record", "user": "u", "day": "d",
                         "relation": "lovers", "domain": "attachment",
                         "frames": 1, "origin": None}],
        }, [("frames/bad-record", np.zeros((1, 459)))])
        with pytest.raises(ValidationError, match="bad-record"):
            load_dataset(path)

    def test_duplicate_ids_rejected(self):
        ds = toy_dataset()
        dup = ds.sequences + [ds.sequences[0]]
        with pytest.raises(ValidationError, match="duplicate"):
            Dataset(manifest=ds.manifest, sequences=dup)

    def test_wrong_width_rejected(self):
        ds = toy_dataset()
        bad = SocialSequence(id="w", user="u", day="d", relation=Relation.LOVERS,
                             frames=np.zeros((2, 458)))
        with pytest.raises(ValidationError, match="width"):
            Dataset(manifest=ds.manifest, sequences=ds.sequences + [bad])

    def test_non_finite_frames_rejected(self):
        with pytest.raises(ValidationError):
            SocialSequence(id="x", user="u", day="d", relation=Relation.LOVERS,
                           frames=np.array([[np.nan]]))


class TestSynthCorpus:
    def test_deterministic(self):
        a = generate_corpus(SynthConfig(n_sequences=20, seed=5))
        b = generate_corpus(SynthConfig(n_sequences=20, seed=5))
        for sa, sb in zip(a.sequences, b.sequences):
            assert sa.id == sb.id and sa.relation == sb.relation
            assert np.array_equal(sa.frames, sb.frames)

    def test_covers_all_relations_and_groups(self):
        ds = generate_corpus(SynthConfig(n_sequences=54, users=3, days_per_user=2, seed=1))
        assert {int(s.relation) for s in ds.sequences} == set(range(9))
        assert len(ds.by_group()) == 6
        for s in ds.sequences:
            assert s.frames.shape[1] == 459
            t = s.frames.shape[0]
            assert 2 <= t <= 20

    def test_lengths_respect_bounds(self):
        ds = generate_corpus(SynthConfig(n_sequences=30, min_len=4, max_len=4, seed=2))
        assert all(s.frames.shape[0] == 4 for s in ds.sequences)

    def test_wearer_columns_are_one_hot(self):
        ds = generate_corpus(SynthConfig(n_sequences=10, seed=3))
        ranges = ds.manifest.ranges()
        for s in ds.sequences:
            for name in ("wearer-age", "wearer-gender"):
                lo, hi = ranges[name]
                block = s.frames[:, lo:hi]
                assert np.array_equal(block, np.tile(block[0], (block.shape[0], 1)))
                assert block[0].sum() == 1.0
                assert set(np.unique(block)) <= {0.0, 1.0}
