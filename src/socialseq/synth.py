"""Synthetic corpus generation with controllable class separability.

Real per-frame attribute features cannot be regenerated here (they come
from external pretrained extractors), so every end-to-end test and demo
runs on generated corpora instead. Each relation's signal is the sum of a
domain prototype and a within-domain prototype shared across domains:
turning `domain_sep` up and `relation_sep` down yields corpora where the
coarse task is easy and the fine task needs the domain hint.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from socialseq.container import Record, ValidationError, write_json
from socialseq.dataset import (
    WEARER_AGE,
    WEARER_FIELDS,
    WEARER_GENDER,
    Dataset,
    LayoutManifest,
    ManifestEntry,
    SocialSequence,
    save_manifest,
)
from socialseq.features import check_components
from socialseq.numerics import Rng
from socialseq.taxonomy import Relation, domain_of, relations_in

CNN_ATTRIBUTES = (
    "activities",
    "age-face",
    "age-body",
    "clothing",
    "facial-expression",
    "gender-face",
    "gender-body",
    "head-appearance",
    "head-orientation",
)

DEFAULT_ATTRIBUTE_GROUPS = {
    "FACE": ["age-face", "facial-expression", "gender-face", "head-appearance",
             "head-orientation", WEARER_AGE, WEARER_GENDER],
    "BODY": ["age-body", "clothing", "gender-body", WEARER_AGE, WEARER_GENDER],
    "CTX": ["activities", "proximity"],
}


def default_manifest(components: int = 50) -> LayoutManifest:
    """9 compressed CNN attributes + proximity + wearer one-hots = 459."""
    entries = [ManifestEntry(name, components, True) for name in CNN_ATTRIBUTES]
    entries.append(ManifestEntry("proximity", 2, False))
    entries.append(ManifestEntry(WEARER_AGE, 5, False))
    entries.append(ManifestEntry(WEARER_GENDER, 2, False))
    return LayoutManifest(tuple(entries))


WITHIN_STYLES = ("shared", "aliased")


@dataclass(frozen=True)
class SynthConfig(Record):
    """Corpus knobs. `within_style` picks how the fine-grained signal is
    embedded: "shared" uses three within-domain prototypes common to all
    domains (relation separability independent of the domain signal);
    "aliased" points each relation's within signal along another domain's
    prototype axis, so fine-grained classes collide across domains unless
    the coarse class is resolved first."""

    n_sequences: int = 108
    users: int = 4
    days_per_user: int = 5
    min_len: int = 2
    max_len: int = 20
    domain_sep: float = 1.0
    relation_sep: float = 1.0
    noise: float = 0.5
    within_style: str = "shared"
    seed: int = 0

    def __post_init__(self):
        if self.n_sequences < 1 or self.users < 1 or self.days_per_user < 1:
            raise ValidationError("n_sequences, users and days_per_user must be >= 1")
        if not 1 <= self.min_len <= self.max_len:
            raise ValidationError("need 1 <= min_len <= max_len")
        if self.noise < 0 or self.domain_sep < 0 or self.relation_sep < 0:
            raise ValidationError("noise, domain_sep and relation_sep must be >= 0")
        if self.within_style not in WITHIN_STYLES:
            raise ValidationError(f"within_style must be one of {WITHIN_STYLES}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")


def _within_domain_index(relation: Relation) -> int:
    return relations_in(domain_of(relation)).index(relation)


def _relation_base(cfg: SynthConfig, domain_protos, within_protos,
                   relation: Relation) -> np.ndarray:
    dom = int(domain_of(relation))
    i = _within_domain_index(relation)
    if cfg.within_style == "aliased":
        within = domain_protos[(dom + 1 + i) % 5]
    else:
        within = within_protos[i]
    return cfg.domain_sep * domain_protos[dom] + cfg.relation_sep * within


def _generate(cfg: SynthConfig, attributes):
    """The one synthetic draw sequence. For (name, width) attributes, yields
    (id, relation, (user, day), {name: frames}, (age, gender)) per sequence:
    each attribute's frames are its relation signal plus noise, and
    sequences are dealt round-robin over relations and (user, day) groups so
    every class and group is populated."""
    rng = Rng(cfg.seed)
    proto_rng = rng.split("prototypes")
    protos = {name: (proto_rng.normal(size=(5, w)) / np.sqrt(w),
                     proto_rng.normal(size=(3, w)) / np.sqrt(w))
              for name, w in attributes}
    manifest = default_manifest()
    order = rng.split("labels").permutation(cfg.n_sequences)
    frame_rng = rng.split("frames")
    wearer_rng = rng.split("wearer")
    groups = [(f"u{u}", f"d{d}") for u in range(cfg.users) for d in range(cfg.days_per_user)]
    for s in range(cfg.n_sequences):
        relation = Relation(int(order[s]) % 9)
        t_len = int(frame_rng.integers(cfg.min_len, cfg.max_len + 1))
        blocks = {name: _relation_base(cfg, *protos[name], relation)
                  + frame_rng.normal(size=(t_len, w), scale=cfg.noise)
                  for name, w in attributes}
        wearer = tuple(int(wearer_rng.integers(0, manifest.entry(name).width))
                       for name in WEARER_FIELDS)
        yield f"seq{s:04d}", relation, groups[s % len(groups)], blocks, wearer


def generate_corpus(cfg: SynthConfig) -> Dataset:
    """Build a labelled Dataset of 459-wide frame sequences.

    Frame = domain_sep * domain prototype + relation_sep * within signal
    + noise * N(0, 1), with wearer columns overwritten by a per-sequence
    one-hot.
    """
    manifest = default_manifest()
    ranges = manifest.ranges()
    sequences = []
    for seq_id, relation, (user, day), blocks, wearer in _generate(
            cfg, [("frames", manifest.total_width)]):
        frames = blocks["frames"]
        for name, category in zip(WEARER_FIELDS, wearer):
            lo, hi = ranges[name]
            frames[:, lo:hi] = 0.0
            frames[:, lo + category] = 1.0
        sequences.append(SocialSequence(
            id=seq_id, user=user, day=day, relation=relation, frames=frames,
        ))
    return Dataset(manifest=manifest, sequences=sequences,
                   meta={"generator": "synth", "synth_config": cfg.to_json()})


def generate_raw_corpus(cfg: SynthConfig, out_dir, raw_cnn_width: int = 64) -> None:
    """Write a pre-ingest corpus: a layout manifest, a sequences.json with
    labels, provenance, wearer categories and frame counts, and one
    blocks/<attribute>.npy raw matrix per block entry, every sequence's
    frames stacked in record order. The raw CNN blocks carry the same
    class structure in `raw_cnn_width` dimensions so ingest's compression
    keeps the signal; it must be at least the manifest's CNN width, which
    ingest compresses them to, and so must the corpus's frame count. Either
    is refused before anything is written.
    """
    manifest = default_manifest()
    need = max(e.width for e in manifest.entries if e.is_cnn)
    if raw_cnn_width < need:
        raise ValidationError(
            f"--raw-cnn-width {raw_cnn_width}: raw CNN blocks must be at least {need} wide, "
            f"the width ingest compresses them to")
    raw_attrs = [(name, raw_cnn_width) for name in CNN_ATTRIBUTES] + [("proximity", 2)]
    stacks: dict[str, list[np.ndarray]] = {name: [] for name, _ in raw_attrs}
    records = []
    for seq_id, relation, (user, day), blocks, (age, gender) in _generate(cfg, raw_attrs):
        for name, data in blocks.items():
            stacks[name].append(data)
        records.append({
            "id": seq_id,
            "user": user,
            "day": day,
            "relation": relation.label,
            "domain": domain_of(relation).label,
            "wearer": {"age": age, "gender": gender},
            "frames": len(blocks["proximity"]),
        })
    n_frames = sum(r["frames"] for r in records)
    for e in manifest.entries:
        if e.is_cnn:
            check_components(e, n_frames, raw_cnn_width)
    out_dir = Path(out_dir)
    blocks_dir = out_dir / "blocks"
    blocks_dir.mkdir(parents=True, exist_ok=True)
    save_manifest(out_dir / "manifest.json", manifest)
    for name, parts in stacks.items():
        np.save(blocks_dir / f"{name}.npy", np.concatenate(parts))
    write_json(out_dir / "sequences.json", {"sequences": records, "synth_config": cfg.to_json()})


def attribute_group_columns(manifest: LayoutManifest,
                            groups: dict[str, list[str]] | None = None) -> dict[str, np.ndarray]:
    """Resolve attribute-group name lists to frame-vector column indices."""
    if groups is None:
        groups = DEFAULT_ATTRIBUTE_GROUPS
    return {name: manifest.columns(names) for name, names in groups.items()}
