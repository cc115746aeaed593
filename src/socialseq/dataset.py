"""Sequence records, the 459-wide layout manifest, and dataset file IO."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence, TypeVar

import numpy as np

from socialseq.container import (
    Record,
    ValidationError,
    canonical_json,
    read_container,
    read_json,
    sha256_hex,
    write_container,
)
from socialseq.taxonomy import (
    TAXONOMY_VERSION,
    Relation,
    domain_from_label,
    domain_of,
    relation_from_label,
)

FRAME_WIDTH = 459

_Member = TypeVar("_Member")

WEARER_AGE = "wearer-age"
WEARER_GENDER = "wearer-gender"
WEARER_FIELDS = (WEARER_AGE, WEARER_GENDER)


@dataclass(frozen=True, eq=False)
class SocialSequence:
    """One user-specific segment: per-frame feature rows plus labels and
    (user, day) provenance. `origin` points at the source sequence for
    augmented copies."""

    id: str
    user: str
    day: str
    relation: Relation
    frames: np.ndarray  # [T, width] float64
    origin: str | None = None

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=np.float64)
        if frames.ndim != 2 or frames.shape[0] < 1:
            raise ValidationError(f"sequence {self.id!r}: frames must be a nonempty 2-d array")
        if not np.all(np.isfinite(frames)):
            raise ValidationError(f"sequence {self.id!r}: frames contain non-finite values")
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "relation", Relation(self.relation))

    @property
    def domain(self):
        return domain_of(self.relation)

    @property
    def group_key(self) -> tuple[str, str]:
        return (self.user, self.day)


@dataclass(frozen=True)
class ManifestEntry:
    name: str
    width: int
    is_cnn: bool

    def __post_init__(self):
        # `type(...) is`, not isinstance: bool is a subclass of int
        if not (isinstance(self.name, str) and type(self.width) is int
                and type(self.is_cnn) is bool):
            raise ValidationError(
                f"manifest entry {self.name!r}: needs a string name, an int width and a "
                f"bool is_cnn, got width {self.width!r}, is_cnn {self.is_cnn!r}"
            )


@dataclass(frozen=True)
class LayoutManifest(Record):
    """Ordered (name, width, is_cnn) records describing how attribute blocks
    and wearer one-hots tile the 459-wide frame vector."""

    entries: tuple[ManifestEntry, ...]

    def __post_init__(self):
        names = [e.name for e in self.entries]
        if len(set(names)) != len(names):
            raise ValidationError("manifest entry names must be unique")
        for e in self.entries:
            if e.width < 1:
                raise ValidationError(f"manifest entry {e.name!r}: width must be >= 1")
        if self.total_width != FRAME_WIDTH:
            raise ValidationError(
                f"manifest widths sum to {self.total_width}, expected {FRAME_WIDTH}"
            )

    @property
    def total_width(self) -> int:
        return sum(e.width for e in self.entries)

    def ranges(self) -> dict[str, tuple[int, int]]:
        out = {}
        start = 0
        for e in self.entries:
            out[e.name] = (start, start + e.width)
            start += e.width
        return out

    def columns(self, names) -> np.ndarray:
        """Column indices covered by the named entries, in layout order."""
        ranges = self.ranges()
        cols: list[int] = []
        for e in self.entries:
            if e.name in names:
                cols.extend(range(*ranges[e.name]))
        missing = set(names) - {e.name for e in self.entries}
        if missing:
            raise ValidationError(f"unknown manifest entries: {sorted(missing)}")
        return np.asarray(cols, dtype=np.intp)

    @property
    def block_entries(self) -> tuple[ManifestEntry, ...]:
        """The entries filled from attribute blocks: all but the wearer slots."""
        return tuple(e for e in self.entries if e.name not in WEARER_FIELDS)

    def entry(self, name: str) -> ManifestEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise ValidationError(f"unknown manifest entry {name!r}")

    @classmethod
    def from_json(cls, obj: dict) -> "LayoutManifest":
        try:
            entries = tuple(
                ManifestEntry(name=e["name"], width=e["width"], is_cnn=e["is_cnn"])
                for e in obj["entries"]
            )
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed manifest: {exc}") from None
        return cls(entries)

    @property
    def hash(self) -> str:
        return sha256_hex(canonical_json(self.to_json()))


def save_manifest(path, manifest: LayoutManifest) -> None:
    Path(path).write_text(json.dumps(manifest.to_json(), indent=2) + "\n")


def load_manifest(path) -> LayoutManifest:
    obj = read_json(path)
    try:
        return LayoutManifest.from_json(obj)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


@dataclass
class Dataset:
    """A manifest plus sequence records, as persisted to a dataset file."""

    manifest: LayoutManifest
    sequences: list[SocialSequence]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        ids = [s.id for s in self.sequences]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValidationError(f"duplicate sequence ids: {dupes}")
        for s in self.sequences:
            if s.frames.shape[1] != self.manifest.total_width:
                raise ValidationError(
                    f"sequence {s.id!r}: frame width {s.frames.shape[1]} "
                    f"!= manifest width {self.manifest.total_width}"
                )

    def by_group(self) -> dict[tuple[str, str], list[SocialSequence]]:
        out: dict[tuple[str, str], list[SocialSequence]] = {}
        for s in self.sequences:
            out.setdefault(s.group_key, []).append(s)
        return out


def sequences_in_groups(
    by_group: Mapping[tuple[str, str], Sequence[_Member]], keys: Iterable
) -> list[_Member]:
    """The members (sequences, or raw record indices) of the given (user, day)
    groups, in key order."""
    out: list[_Member] = []
    for key in keys:
        key = tuple(key)
        if key not in by_group:
            raise ValidationError(f"split references unknown group {key}")
        out.extend(by_group[key])
    return out


def record_relation(rec: Mapping) -> Relation:
    """Parse a sequence record's relation label and check that its declared
    domain label is the relation's parent."""
    try:
        relation = relation_from_label(rec["relation"])
        declared = domain_from_label(rec["domain"])
    except ValueError as exc:
        raise ValidationError(f"record {rec['id']!r}: {exc}") from None
    if domain_of(relation) is not declared:
        raise ValidationError(
            f"record {rec['id']!r}: domain {rec['domain']!r} inconsistent with "
            f"relation {rec['relation']!r} (expected {domain_of(relation).label!r})"
        )
    return relation


def save_dataset(path, ds: Dataset) -> None:
    records = []
    arrays = []
    for s in ds.sequences:
        records.append(
            {
                "id": s.id,
                "user": s.user,
                "day": s.day,
                "relation": s.relation.label,
                "domain": s.domain.label,
                "frames": int(s.frames.shape[0]),
                "origin": s.origin,
            }
        )
        arrays.append((f"frames/{s.id}", s.frames))
    write_container(path, "dataset", {
        "taxonomy_version": TAXONOMY_VERSION,
        "feature_width": ds.manifest.total_width,
        "manifest": ds.manifest.to_json(),
        "manifest_hash": ds.manifest.hash,
        "meta": ds.meta,
        "records": records,
    }, arrays)


def load_dataset(path) -> Dataset:
    header, arrays = read_container(path)
    if header.get("kind") != "dataset":
        raise ValidationError(f"{path}: not a dataset container")
    try:
        manifest = LayoutManifest.from_json(header["manifest"])
        sequences = []
        for rec in header["records"]:
            relation = record_relation(rec)
            frames = arrays[f"frames/{rec['id']}"]
            if frames.shape[0] != rec["frames"]:
                raise ValidationError(f"record {rec['id']!r}: frame count mismatch")
            sequences.append(SocialSequence(id=rec["id"], user=rec["user"], day=rec["day"],
                                            relation=relation, frames=frames,
                                            origin=rec.get("origin")))
        return Dataset(manifest=manifest, sequences=sequences, meta=header.get("meta", {}))
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValidationError(f"{path}: malformed dataset: {exc!r}") from None
