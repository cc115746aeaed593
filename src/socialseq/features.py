"""Per-frame feature construction and PCA-noise data augmentation.

Raw attribute blocks are quantized, CNN blocks compressed per attribute
with PCA, and everything (plus wearer one-hots) concatenated into the
459-wide frame vector described by a layout manifest; `ingest_raw_corpus`
does all of this for a raw corpus directory. Augmentation fits a PCA on
training frames and perturbs along its axes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from socialseq.container import read_json
from socialseq.dataset import (
    WEARER_AGE,
    WEARER_GENDER,
    Dataset,
    LayoutManifest,
    SocialSequence,
    ValidationError,
    load_manifest,
    record_relation,
    sequences_in_groups,
)
from socialseq.numerics import PcaModel, Rng, pca_fit, pca_transform
from socialseq.taxonomy import Relation


@dataclass(frozen=True, eq=False)
class AttributeBlock:
    """One attribute's raw per-frame features; is_cnn marks high-dimensional
    embeddings that get compressed (low-dimensional signals pass through)."""

    name: str
    data: np.ndarray  # [frames, dim_raw]
    is_cnn: bool

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] < 1:
            raise ValueError(f"block {self.name!r}: need a nonempty 2-d array")
        if not np.all(np.isfinite(data)):
            raise ValueError(f"block {self.name!r}: non-finite entries")
        object.__setattr__(self, "data", data)


@dataclass(frozen=True)
class CompressionConfig:
    quant_levels: int = 32
    components: int = 50

    def __post_init__(self):
        if self.quant_levels < 2:
            raise ValidationError("quant_levels must be >= 2")
        if self.components < 1:
            raise ValidationError("components must be >= 1")


@dataclass(frozen=True)
class WearerInfo:
    """Camera wearer's age and gender category indices (one-hot encoded
    against the manifest's wearer entry widths)."""

    age: int
    gender: int

    def encode(self, manifest: LayoutManifest) -> dict[str, np.ndarray]:
        out = {}
        for name, idx in ((WEARER_AGE, self.age), (WEARER_GENDER, self.gender)):
            width = manifest.entry(name).width
            if not 0 <= idx < width:
                raise ValidationError(f"{name} category {idx} out of range [0, {width})")
            onehot = np.zeros(width)
            onehot[idx] = 1.0
            out[name] = onehot
        return out


@dataclass(frozen=True)
class AugmentConfig:
    sigma: float = 0.01
    multiplier: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.sigma < 0:
            raise ValidationError("sigma must be >= 0")
        if self.multiplier < 0:
            raise ValidationError("multiplier must be >= 0")


def quantize(block: AttributeBlock, quant_levels: int) -> AttributeBlock:
    """Min-max scale each feature dimension to [0, 1] and snap to the nearest
    of `quant_levels` uniform levels; constant dimensions map to 0."""
    if quant_levels < 2:
        raise ValueError("quant_levels must be >= 2")
    x = block.data
    lo = x.min(axis=0)
    span = x.max(axis=0) - lo
    safe = np.where(span > 0, span, 1.0)
    scaled = (x - lo) / safe
    scaled[:, span == 0] = 0.0
    levels = np.round(scaled * (quant_levels - 1)) / (quant_levels - 1)
    return replace(block, data=levels)


def compress_attribute(
    block: AttributeBlock,
    cfg: CompressionConfig,
    fitted: PcaModel | None = None,
    fit_rows=None,
) -> tuple[np.ndarray, PcaModel | None]:
    """Quantize then PCA-project a CNN block; non-CNN blocks pass through.

    The model is fitted on `fit_rows` (training frames) when none is given
    and applied to every row, so validation/test frames never leak into the
    fit. Returns (compressed frames, model used); the model is None for
    pass-through blocks.
    """
    if not block.is_cnn:
        return block.data.copy(), None
    q = quantize(block, cfg.quant_levels).data
    if fitted is None:
        rows = q if fit_rows is None else q[np.asarray(fit_rows, dtype=np.intp)]
        k = cfg.components
        if k > min(rows.shape[0], rows.shape[1]):
            raise ValidationError(
                f"block {block.name!r}: k={k} exceeds min(frames={rows.shape[0]}, "
                f"dim={rows.shape[1]})"
            )
        fitted = pca_fit(rows, k)
    elif fitted.n_features != q.shape[1]:
        raise ValueError(
            f"block {block.name!r}: fitted model expects {fitted.n_features} dims, "
            f"block has {q.shape[1]}"
        )
    return pca_transform(fitted, q), fitted


def assemble_frame_vectors(
    blocks: dict[str, np.ndarray],
    wearer: WearerInfo,
    manifest: LayoutManifest,
) -> np.ndarray:
    """Concatenate compressed blocks and wearer one-hots in manifest order.

    Every block must match its manifest width and share a frame count; the
    wearer one-hots repeat on every frame. Result is [frames, 459].
    """
    wearer_cols = wearer.encode(manifest)
    frame_counts = {name: arr.shape[0] for name, arr in blocks.items()}
    if len(set(frame_counts.values())) > 1:
        raise ValidationError(f"blocks disagree on frame count: {frame_counts}")
    n_frames = next(iter(frame_counts.values())) if frame_counts else 1

    parts = []
    widths = {}
    for entry in manifest.entries:
        if entry.name in wearer_cols:
            col = wearer_cols[entry.name]
            parts.append(np.tile(col, (n_frames, 1)))
            widths[entry.name] = len(col)
        elif entry.name in blocks:
            arr = np.asarray(blocks[entry.name], dtype=np.float64)
            widths[entry.name] = arr.shape[1]
            parts.append(arr)
        else:
            raise ValidationError(f"no block provided for manifest entry {entry.name!r}")
    total = sum(widths.values())
    expected = manifest.total_width
    mismatched = {
        name: (widths[name], manifest.entry(name).width)
        for name in widths
        if widths[name] != manifest.entry(name).width
    }
    if mismatched:
        raise ValidationError(
            f"block widths do not match manifest (got/expected): {mismatched}; "
            f"assembled {total} of {expected} columns"
        )
    extra = set(blocks) - {e.name for e in manifest.entries}
    if extra:
        raise ValidationError(f"blocks not in manifest: {sorted(extra)}")
    return np.hstack(parts)


def load_raw_records(path) -> tuple[list[dict], list[Relation]]:
    """The records of a raw corpus's sequences.json and their checked
    relations. Each record holds an id, user, day, relation, domain and a
    wearer object of integer age and gender categories."""
    records = read_json(path).get("sequences")
    if not isinstance(records, list) or not records:
        raise ValidationError(f"{path}: no list of sequence records under 'sequences'")
    relations = []
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise ValidationError(f"{path}: record {i} is not an object")
        missing = {"id", "user", "day", "relation", "domain", "wearer"} - set(rec)
        if missing:
            raise ValidationError(
                f"record {rec.get('id', '?')!r}: missing fields {sorted(missing)}"
            )
        wearer = rec["wearer"]
        # type(...) is int, so neither a JSON float nor a bool passes
        if not (isinstance(wearer, dict)
                and all(type(wearer.get(k)) is int for k in ("age", "gender"))):
            raise ValidationError(f"record {rec['id']!r}: wearer needs integer 'age' "
                                  f"and 'gender' categories, got {wearer!r}")
        relations.append(record_relation(rec))
    return records, relations


def ingest_raw_corpus(
    raw_dir, fit_groups=None, quant_levels: int = 32,
) -> tuple[Dataset, dict[str, PcaModel]]:
    """Read a raw corpus directory (manifest.json, sequences.json and one
    blocks/<id>__<attribute>.txt matrix per record and block entry) into a
    dataset with empty meta, and the PCA of each CNN attribute in layout
    order. CNN blocks are quantized and PCA-compressed to their manifest
    width, fitted on the frames of the `fit_groups` (user, day) groups in
    file order, or on every frame when None; other blocks pass through.
    Malformed input raises ValidationError naming the record or file."""
    raw_dir = Path(raw_dir)
    manifest = load_manifest(raw_dir / "manifest.json")
    records, relations = load_raw_records(raw_dir / "sequences.json")
    attrs = manifest.block_entries
    wearers = []
    for rec in records:  # the category range rule, before any block file is parsed
        wearer = WearerInfo(age=rec["wearer"]["age"], gender=rec["wearer"]["gender"])
        try:
            wearer.encode(manifest)
        except ValidationError as exc:
            raise ValidationError(f"record {rec['id']!r}: {exc}") from None
        wearers.append(wearer)

    in_fit = None
    if fit_groups is not None:
        by_group: dict[tuple[str, str], list[int]] = {}
        for i, rec in enumerate(records):
            by_group.setdefault((rec["user"], rec["day"]), []).append(i)
        in_fit = np.zeros(len(records), dtype=bool)
        in_fit[sequences_in_groups(by_group, fit_groups)] = True
        if not in_fit.any():
            raise ValidationError("fit_groups select no records")

    raw_blocks: dict[str, list[np.ndarray]] = {e.name: [] for e in attrs}
    lengths = np.zeros(len(records), dtype=np.intp)
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)  # numpy only warns on an empty file
        for i, rec in enumerate(records):
            where = f"record {rec['id']!r}"
            for e in attrs:
                path = raw_dir / "blocks" / f"{rec['id']}__{e.name}.txt"
                try:
                    data = np.loadtxt(path, ndmin=2)
                except (OSError, ValueError, UserWarning) as exc:
                    raise ValidationError(f"{where}: cannot read block file {path}: "
                                          f"{exc}") from None
                if not np.isfinite(data).all():
                    raise ValidationError(f"{where}: {path} has non-finite entries")
                blocks = raw_blocks[e.name]
                if blocks and data.shape[1] != blocks[0].shape[1]:
                    raise ValidationError(
                        f"{where}: {path} has {data.shape[1]} columns, the first "
                        f"record's {e.name} block has {blocks[0].shape[1]}"
                    )
                blocks.append(data)
            counts = {raw_blocks[e.name][-1].shape[0] for e in attrs}
            if len(counts) != 1:
                raise ValidationError(f"{where}: blocks disagree on frame count")
            lengths[i] = counts.pop()

    fit_rows = None if in_fit is None else np.flatnonzero(np.repeat(in_fit, lengths))
    compressed: dict[str, np.ndarray] = {}
    pcas: dict[str, PcaModel] = {}
    for e in attrs:
        block = AttributeBlock(e.name, np.concatenate(raw_blocks[e.name]), e.is_cnn)
        cfg = CompressionConfig(quant_levels=quant_levels, components=e.width)
        compressed[e.name], model = compress_attribute(block, cfg, fit_rows=fit_rows)
        if model is not None:
            pcas[e.name] = model

    ends = np.cumsum(lengths)
    sequences = []
    for rec, relation, wearer, end, t_len in zip(records, relations, wearers, ends, lengths):
        rows = slice(end - t_len, end)
        try:
            frames = assemble_frame_vectors(
                {name: arr[rows] for name, arr in compressed.items()}, wearer, manifest)
        except ValidationError as exc:
            raise ValidationError(f"record {rec['id']!r}: {exc}") from None
        sequences.append(SocialSequence(
            id=rec["id"], user=rec["user"], day=rec["day"],
            relation=relation, frames=frames,
        ))
    return Dataset(manifest=manifest, sequences=sequences), pcas


def augment(
    sequences: list[SocialSequence],
    cfg: AugmentConfig,
    rng: Rng,
) -> list[SocialSequence]:
    """Make `multiplier` noisy copies of each sequence.

    A PCA is fitted on all input frames; each copied frame x becomes
    x + sum_j lam_j * g_j * v_j with g_j ~ N(0, sigma^2) drawn per
    (copy, frame, component), so the perturbation lives in the span of the
    principal axes and scales with each axis' variance. Labels, provenance
    and frame counts are preserved; `origin` links copies to their source.
    """
    if cfg.multiplier == 0 or not sequences:
        return []
    frames = np.concatenate([s.frames for s in sequences], axis=0)
    if frames.shape[0] < 2:
        raise ValueError("augmentation needs at least 2 frames to fit a PCA")
    k = min(frames.shape[0], frames.shape[1])
    model = pca_fit(frames, k)
    scale = model.eigenvalues  # perturbation std along axis j is lam_j * sigma
    out = []
    for i, seq in enumerate(sequences):
        for m in range(cfg.multiplier):
            g = rng.split(i, m).normal(size=(seq.frames.shape[0], k), scale=cfg.sigma)
            noise = (g * scale) @ model.components
            out.append(
                replace(seq, id=f"{seq.id}#aug{m}", frames=seq.frames + noise, origin=seq.id)
            )
    return out
