"""Per-frame feature construction and PCA-noise data augmentation.

Raw attribute blocks are quantized, CNN blocks compressed per attribute
with PCA, and everything (plus wearer one-hots) concatenated into the
459-wide frame vector described by a layout manifest; `ingest_raw_corpus`
does all of this for a raw corpus directory, whose blocks are one .npy
matrix per attribute holding every record's frames in record order.
Augmentation fits a PCA on training frames and perturbs along its axes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from socialseq.container import read_json
from socialseq.dataset import (
    WEARER_FIELDS,
    Dataset,
    LayoutManifest,
    ManifestEntry,
    SocialSequence,
    ValidationError,
    load_manifest,
    record_relation,
    sequences_in_groups,
)
from socialseq.numerics import PcaModel, Rng, pca_fit, pca_transform
from socialseq.taxonomy import Relation


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
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")


def quantize(x: np.ndarray, quant_levels: int) -> np.ndarray:
    """Min-max scale each column of x to [0, 1] and snap it to the nearest
    of `quant_levels` uniform levels; constant columns map to 0."""
    if quant_levels < 2:
        raise ValidationError(f"quant_levels must be >= 2, got {quant_levels}")
    lo = x.min(axis=0)
    span = x.max(axis=0) - lo
    safe = np.where(span > 0, span, 1.0)
    scaled = (x - lo) / safe
    scaled[:, span == 0] = 0.0
    return np.round(scaled * (quant_levels - 1)) / (quant_levels - 1)


def check_components(entry: ManifestEntry, frames: int, dim: int) -> None:
    """Refuse a CNN entry that PCA fitted on `frames` rows of `dim` columns
    cannot compress to its manifest width."""
    if entry.width > min(frames, dim):
        raise ValidationError(
            f"block {entry.name!r}: k={entry.width} exceeds min(frames={frames}, dim={dim})")


def compress_attribute(
    entry: ManifestEntry, data: np.ndarray, quant_levels: int, fit_rows=None,
) -> tuple[np.ndarray, PcaModel | None]:
    """One attribute's frames [frames, entry.width] from its raw block rows.

    A CNN entry is quantized, then PCA-projected to its manifest width with
    the model fitted on `fit_rows` (training frames; every row when None),
    so validation/test frames never leak into the fit. Any other entry must
    already be `entry.width` wide and passes through as is. Returns the
    frames and the fitted model, None for a pass-through entry.
    """
    if not entry.is_cnn:
        if data.shape[1] != entry.width:
            raise ValidationError(f"block {entry.name!r}: {data.shape[1]} columns, "
                                  f"manifest width {entry.width}")
        return data, None
    q = quantize(data, quant_levels)
    rows = q if fit_rows is None else q[fit_rows]
    check_components(entry, *rows.shape)
    model = pca_fit(rows, entry.width)
    return pca_transform(model, q), model


def assemble_frame_vectors(
    columns: dict[str, np.ndarray], manifest: LayoutManifest,
) -> np.ndarray:
    """The [frames, 459] matrix: every manifest entry's [frames, width]
    columns side by side in layout order."""
    return np.hstack([columns[e.name] for e in manifest.entries])


def load_raw_records(path) -> tuple[list[dict], list[Relation]]:
    """The records of a raw corpus's sequences.json and their checked
    relations. Each record holds a unique id, user, day, relation, domain,
    a wearer object of integer age and gender categories, and its integer
    frame count."""
    records = read_json(path).get("sequences")
    if not isinstance(records, list) or not records:
        raise ValidationError(f"{path}: no list of sequence records under 'sequences'")
    relations = []
    seen = set()
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise ValidationError(f"{path}: record {i} is not an object")
        missing = {"id", "user", "day", "relation", "domain", "wearer", "frames"} - set(rec)
        if missing:
            raise ValidationError(
                f"record {rec.get('id', '?')!r}: missing fields {sorted(missing)}"
            )
        if not isinstance(rec["id"], str):
            raise ValidationError(f"{path}: record {i} id {rec['id']!r} is not a string")
        if rec["id"] in seen:
            raise ValidationError(f"{path}: duplicate record id {rec['id']!r}")
        seen.add(rec["id"])
        wearer = rec["wearer"]
        # type(...) is int, so neither a JSON float nor a bool passes
        if not (isinstance(wearer, dict)
                and all(type(wearer.get(k)) is int for k in ("age", "gender"))):
            raise ValidationError(f"record {rec['id']!r}: wearer needs integer 'age' "
                                  f"and 'gender' categories, got {wearer!r}")
        if not (type(rec["frames"]) is int and rec["frames"] >= 1):
            raise ValidationError(f"record {rec['id']!r}: frames needs an integer >= 1, "
                                  f"got {rec['frames']!r}")
        relations.append(record_relation(rec))
    return records, relations


def _load_block(path, n_frames: int) -> np.ndarray:
    """One attribute's stacked raw block: the [n_frames, raw_width] real
    matrix in the .npy file at `path`, as float64. Never unpickles."""
    try:
        with open(path, "rb") as fh:  # .npy only: no .npz, no pickles
            data = np.lib.format.read_array(fh, allow_pickle=False)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read block file {path}: {exc}") from None
    if data.ndim != 2 or data.dtype.kind not in "iuf":
        raise ValidationError(f"{path}: needs a 2-d integer or float array, "
                              f"got {data.dtype} of shape {data.shape}")
    data = data.astype(np.float64, copy=False)
    if not np.isfinite(data).all():
        raise ValidationError(f"{path} has non-finite entries")
    if data.shape[0] != n_frames:
        raise ValidationError(f"{path}: {data.shape[0]} rows, the records' frames "
                              f"sum to {n_frames}")
    return data


def ingest_raw_corpus(
    raw_dir, fit_groups=None, quant_levels: int = 32,
) -> tuple[Dataset, dict[str, PcaModel]]:
    """Read a raw corpus directory (manifest.json, sequences.json and one
    blocks/<attribute>.npy matrix per block entry, its rows every record's
    frames in record order) into a dataset with empty meta, and the PCA of
    each CNN attribute in layout order. CNN blocks are quantized and
    PCA-compressed to their manifest width, fitted on the frames of the
    `fit_groups` (user, day) groups in file order, or on every frame when
    None; other blocks pass through. Malformed input raises
    ValidationError naming the record, file or attribute."""
    raw_dir = Path(raw_dir)
    manifest = load_manifest(raw_dir / "manifest.json")
    records, relations = load_raw_records(raw_dir / "sequences.json")
    # the category range rule, before any block file is read
    wearer = np.array([[rec["wearer"]["age"], rec["wearer"]["gender"]] for rec in records])
    widths = [manifest.entry(name).width for name in WEARER_FIELDS]
    bad = np.argwhere((wearer < 0) | (wearer >= widths))
    if bad.size:
        i, j = bad[0]
        raise ValidationError(f"record {records[i]['id']!r}: {WEARER_FIELDS[j]} category "
                              f"{wearer[i, j]} out of range [0, {widths[j]})")
    lengths = np.array([rec["frames"] for rec in records], dtype=np.intp)
    n_frames = int(lengths.sum())

    fit_rows = None
    if fit_groups is not None:
        by_group: dict[tuple[str, str], list[int]] = {}
        for i, rec in enumerate(records):
            by_group.setdefault((rec["user"], rec["day"]), []).append(i)
        in_fit = np.zeros(len(records), dtype=bool)
        in_fit[sequences_in_groups(by_group, fit_groups)] = True
        if not in_fit.any():
            raise ValidationError("fit_groups select no records")
        fit_rows = np.flatnonzero(np.repeat(in_fit, lengths))

    columns: dict[str, np.ndarray] = {}
    pcas: dict[str, PcaModel] = {}
    for e in manifest.block_entries:
        data = _load_block(raw_dir / "blocks" / f"{e.name}.npy", n_frames)
        columns[e.name], model = compress_attribute(e, data, quant_levels, fit_rows)
        if model is not None:
            pcas[e.name] = model
    for j, (name, width) in enumerate(zip(WEARER_FIELDS, widths)):
        columns[name] = np.eye(width)[np.repeat(wearer[:, j], lengths)]

    frames = assemble_frame_vectors(columns, manifest)
    sequences = [
        SocialSequence(id=rec["id"], user=rec["user"], day=rec["day"],
                       relation=relation, frames=rows)
        for rec, relation, rows in zip(records, relations,
                                       np.split(frames, np.cumsum(lengths)[:-1]))
    ]
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
