import json
import re
import shutil

import numpy as np
import pytest
from helpers import MALFORMED_RAW, UNPICKLED_MARKER, write_raw_corpus
from hypothesis import given, settings
from hypothesis import strategies as st

from socialseq.dataset import LayoutManifest, ManifestEntry, SocialSequence, ValidationError
from socialseq.features import (
    AugmentConfig,
    assemble_frame_vectors,
    augment,
    compress_attribute,
    ingest_raw_corpus,
    quantize,
)
from socialseq.numerics import Rng, pca_fit, pca_transform
from socialseq.synth import default_manifest
from socialseq.taxonomy import Relation


def arr(rows):
    return np.asarray(rows, dtype=float)


class TestQuantize:
    def test_binary_already_at_levels(self):
        assert np.array_equal(quantize(arr([[0.0], [1.0]]), 2), [[0.0], [1.0]])

    def test_five_levels_hand_case(self):
        q = quantize(arr([[0.0], [0.24], [0.5], [1.0]]), 5)
        assert np.array_equal(q, [[0.0], [0.25], [0.5], [1.0]])

    def test_constant_column_maps_to_zero(self):
        q = quantize(arr([[7.0, 1.0], [7.0, 3.0]]), 4)
        assert np.array_equal(q[:, 0], [0.0, 0.0])
        assert np.array_equal(q[:, 1], [0.0, 1.0])

    def test_rejects_q_below_2(self):
        with pytest.raises(ValidationError, match="quant_levels"):
            quantize(arr([[0.0], [1.0]]), 1)

    @given(
        st.integers(2, 17),
        st.lists(st.lists(st.floats(-100, 100), min_size=3, max_size=3),
                 min_size=2, max_size=8),
    )
    @settings(max_examples=60)
    def test_idempotent_and_on_levels(self, q, rows):
        once = quantize(arr(rows), q)
        levels = np.arange(q) / (q - 1)
        for v in once.ravel():
            assert any(v == lv for lv in levels)
        assert np.array_equal(quantize(once, q), once)


class TestCompressAttribute:
    def test_rank_one_block(self):
        t = np.linspace(0, 1, 8)[:, None]
        out, model = compress_attribute(ManifestEntry("attr", 1, True), np.hstack([t, t]), 8)
        assert out.shape == (8, 1)
        assert np.allclose(model.explained_variance_ratio, [1.0], atol=1e-9)

    def test_non_cnn_passthrough(self):
        data = np.array([[0.3], [0.9], [0.1]])
        out, model = compress_attribute(ManifestEntry("attr", 1, False), data, 32)
        assert model is None
        assert out is data

    def test_non_cnn_width_must_match_the_manifest(self):
        with pytest.raises(ValidationError, match="'proximity'"):
            compress_attribute(ManifestEntry("proximity", 2, False), np.zeros((3, 1)), 32)

    def test_fit_rows_restrict_the_fit(self):
        rng = Rng(1)
        data = rng.normal(size=(10, 4))
        out, model = compress_attribute(ManifestEntry("attr", 2, True), data, 9,
                                        fit_rows=np.arange(6))
        q = quantize(data, 9)
        ref = pca_fit(q[:6], 2)
        assert np.allclose(model.mean, ref.mean)
        assert np.allclose(model.components, ref.components)
        assert np.allclose(out, pca_transform(ref, q), atol=1e-12)

    def test_k_too_large(self):
        with pytest.raises(ValidationError, match="'attr': k=3"):
            compress_attribute(ManifestEntry("attr", 3, True), np.zeros((3, 2)), 32)

    def test_config_range_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="quant_levels"):
            compress_attribute(ManifestEntry("attr", 1, True), np.eye(3), 1)
        with pytest.raises(ValidationError, match="width must be >= 1"):
            LayoutManifest((ManifestEntry("attr", 0, True),))


class TestAssemble:
    def test_manifest_round_trip(self):
        manifest = default_manifest()
        rng = Rng(2)
        columns = {e.name: rng.normal(size=(3, e.width)) for e in manifest.entries}
        frames = assemble_frame_vectors(columns, manifest)
        assert frames.shape == (3, 459)
        for name, (lo, hi) in manifest.ranges().items():
            assert np.array_equal(frames[:, lo:hi], columns[name])


@pytest.fixture(scope="module")
def raw_corpus(tmp_path_factory):
    raw = write_raw_corpus(tmp_path_factory.mktemp("ingest") / "raw")
    records = json.loads((raw / "sequences.json").read_text())["sequences"]
    return raw, records


def raw_block(raw, records, i, name):
    """Record i's rows of one attribute's stacked raw block."""
    start = sum(rec["frames"] for rec in records[:i])
    return np.load(raw / "blocks" / f"{name}.npy")[start:start + records[i]["frames"]]


def quantized_frames(raw, name):
    """One attribute's stacked raw block quantized as ingest quantizes it
    (over every frame, at the default 32 levels)."""
    return quantize(np.load(raw / "blocks" / f"{name}.npy"), 32)


class TestIngestRawCorpus:
    def test_fit_groups_choose_the_pca_rows_in_file_order(self, raw_corpus):
        raw, records = raw_corpus
        groups = [("u1", "d0"), ("u0", "d2"), ("u0", "d0")]  # not in file order
        ds, pcas = ingest_raw_corpus(raw, fit_groups=groups)
        in_fit = np.repeat([(r["user"], r["day"]) in groups for r in records],
                           [s.frames.shape[0] for s in ds.sequences])
        assert 0 < in_fit.sum() < in_fit.size
        for name, pca in pcas.items():
            q = quantized_frames(raw, name)
            assert np.array_equal(pca.mean, q[in_fit].mean(axis=0))
            assert not np.allclose(pca.mean, q.mean(axis=0))

    def test_without_fit_groups_every_frame_is_fitted(self, raw_corpus):
        raw = raw_corpus[0]
        _, pcas = ingest_raw_corpus(raw)
        for name, pca in pcas.items():
            assert np.array_equal(pca.mean, quantized_frames(raw, name).mean(axis=0))

    def test_sequences_follow_the_records(self, raw_corpus):
        raw, records = raw_corpus
        ds, _ = ingest_raw_corpus(raw)
        assert [s.id for s in ds.sequences] == [r["id"] for r in records]
        assert ds.meta == {}
        ranges = ds.manifest.ranges()
        for i, (seq, rec) in enumerate(zip(ds.sequences, records)):
            proximity = raw_block(raw, records, i, "proximity")
            t_len = proximity.shape[0]
            assert seq.frames.shape == (t_len, 459)
            assert (seq.user, seq.day, seq.relation.label) == (
                rec["user"], rec["day"], rec["relation"])
            lo, hi = ranges["proximity"]
            assert np.array_equal(seq.frames[:, lo:hi], proximity)
            for slot, key in (("wearer-age", "age"), ("wearer-gender", "gender")):
                lo, hi = ranges[slot]
                onehot = np.eye(hi - lo)[rec["wearer"][key]]
                assert np.array_equal(seq.frames[:, lo:hi], np.tile(onehot, (t_len, 1)))

    def test_pcas_are_the_cnn_entries_in_layout_order(self, raw_corpus):
        ds, pcas = ingest_raw_corpus(raw_corpus[0])
        cnn = [e for e in ds.manifest.entries if e.is_cnn]
        assert list(pcas) == [e.name for e in cnn]
        for e in cnn:
            assert pcas[e.name].components.shape == (e.width, 56)

    @pytest.mark.parametrize("case, mutate, names", MALFORMED_RAW,
                             ids=[case[0] for case in MALFORMED_RAW])
    def test_malformed_corpus_rejected(self, raw_corpus, tmp_path, case, mutate, names):
        raw = shutil.copytree(raw_corpus[0], tmp_path / "raw")
        mutate(raw)
        with pytest.raises(ValidationError, match=re.escape(names)):
            ingest_raw_corpus(raw)
        assert not (raw / UNPICKLED_MARKER).exists()


def make_sequences(rng, n=4, t=6, width=12):
    seqs = []
    for i in range(n):
        seqs.append(SocialSequence(
            id=f"s{i}", user="u0", day=f"d{i % 2}",
            relation=Relation(i % 9),
            frames=rng.normal(size=(t, width)),
        ))
    return seqs


class TestAugment:
    def test_sigma_zero_is_identity(self):
        rng = Rng(3)
        seqs = make_sequences(rng)
        out = augment(seqs, AugmentConfig(sigma=0.0, multiplier=2), Rng(5))
        assert len(out) == 8
        by_origin = {s.id: s for s in seqs}
        for a in out:
            src = by_origin[a.origin]
            assert np.allclose(a.frames, src.frames, atol=1e-12)

    def test_zero_variance_data_unchanged_for_any_sigma(self):
        frames = np.tile([1.0, 2.0, 3.0], (5, 1))
        seqs = [SocialSequence(id="s0", user="u", day="d",
                               relation=Relation.LOVERS, frames=frames)]
        out = augment(seqs, AugmentConfig(sigma=0.5, multiplier=3), Rng(0))
        for a in out:
            assert np.allclose(a.frames, frames, atol=1e-12)

    def test_metadata_preserved_and_linked(self):
        rng = Rng(4)
        seqs = make_sequences(rng, n=5, t=4)
        out = augment(seqs, AugmentConfig(sigma=0.1, multiplier=2), Rng(9))
        assert len(out) == 10
        by_id = {s.id: s for s in seqs}
        for a in out:
            src = by_id[a.origin]
            assert a.relation == src.relation
            assert (a.user, a.day) == (src.user, src.day)
            assert a.frames.shape == src.frames.shape

    def test_noise_lies_in_component_span(self):
        rng = Rng(6)
        seqs = make_sequences(rng, n=3, t=5, width=40)  # rank 15 < 40
        frames = np.concatenate([s.frames for s in seqs])
        model = pca_fit(frames, min(frames.shape))
        out = augment(seqs, AugmentConfig(sigma=0.3, multiplier=1), Rng(1))
        by_id = {s.id: s for s in seqs}
        for a in out:
            noise = a.frames - by_id[a.origin].frames
            residual = noise - (noise @ model.components.T) @ model.components
            assert np.abs(residual).max() < 1e-10

    def test_noise_std_follows_eigenvalue_law(self):
        rng = Rng(7)
        base = SocialSequence(
            id="s0", user="u", day="d", relation=Relation.FRIENDS,
            frames=rng.normal(size=(50, 6)) * np.array([3.0, 2.0, 1.5, 1.0, 0.5, 0.25]),
        )
        sigma = 0.05
        out = augment([base], AugmentConfig(sigma=sigma, multiplier=200), Rng(2))
        model = pca_fit(base.frames, 6)
        diffs = np.concatenate([a.frames - base.frames for a in out])  # 10k rows
        proj = diffs @ model.components.T
        stds = proj.std(axis=0)
        for j in range(6):
            expected = model.eigenvalues[j] * sigma
            assert abs(stds[j] - expected) <= 0.05 * expected

    def test_multiplier_zero(self):
        assert augment(make_sequences(Rng(0)), AugmentConfig(multiplier=0), Rng(0)) == []

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AugmentConfig(sigma=-0.1)
        with pytest.raises(ValueError):
            AugmentConfig(multiplier=-1)
