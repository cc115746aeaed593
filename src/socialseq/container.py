"""Byte-stable artifact container: canonical JSON header + raw float64 blobs,
and the one JSON layer (record encoder, reader, writers) for the rest.

Every persisted artifact (dataset, model, PCA bank) uses this layout so
that re-running a command on identical inputs rewrites identical bytes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from enum import Enum
from itertools import chain
from pathlib import Path
from typing import Iterable

import numpy as np

from socialseq import __version__

MAGIC = b"#socialseq-container v1\n"


class ValidationError(ValueError):
    """Bad input artifact or record; maps to the CLI's validation exit code."""


def _plain(value):
    """A field value as JSON: ndarrays and tuples become lists, enums their values."""
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value.value if isinstance(value, Enum) else value


class Record:
    """Mixin for dataclasses persisted as JSON: `to_json()` is every field,
    nested records included, as plain dicts, lists, strs and numbers."""

    def to_json(self) -> dict:
        return dataclasses.asdict(self, dict_factory=lambda items: {
            key: _plain(value) for key, value in items})


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_hex(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def provenance(seed: int, config: dict) -> dict:
    """What every artifact embeds about its run: the config's hash, the seed, the version."""
    return {"config_hash": sha256_hex(canonical_json(config)), "seed": seed,
            "toolkit_version": __version__}


def read_json(path) -> dict:
    """The JSON object in the file at `path`; a file that is missing,
    unreadable or not a JSON object is a ValidationError naming it."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: not a JSON object")
    return obj


def write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n")


def write_jsonl(path, header: dict, rows: Iterable[dict]) -> None:
    """A header line, then one line per row (rows may be a generator)."""
    with open(path, "w") as fh:
        for obj in chain([header], rows):
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


def write_container(path, kind: str, header: dict, arrays: list[tuple[str, np.ndarray]]) -> None:
    """Write `header`, stamped with `kind`, format and toolkit version unless it
    gives them itself, plus named float64 arrays in the given order."""
    entries = []
    blobs = []
    offset = 0
    for name, arr in arrays:
        blob = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
        blobs.append(blob)
        offset += len(blob)
    encoded = canonical_json({"kind": kind, "format": 1, "toolkit_version": __version__,
                              **header, "arrays": entries}).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC + len(encoded).to_bytes(8, "little") + encoded)
        fh.writelines(blobs)


def read_container(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read back (header, {name: array}); inverse of write_container. Array
    entries must have distinct string names, shapes of non-negative ints,
    and offsets that tile the payload in entry order."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    if not raw.startswith(MAGIC):
        raise ValidationError(f"{path}: not a socialseq container")
    pos = len(MAGIC)
    hlen = int.from_bytes(raw[pos:pos + 8], "little")
    pos += 8
    try:
        header = json.loads(raw[pos:pos + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"{path}: damaged container header: {exc}") from None
    if not isinstance(header, dict):
        raise ValidationError(f"{path}: damaged container header: not a JSON object")
    payload = raw[pos + hlen:]
    entries = header.pop("arrays", [])
    if not isinstance(entries, list):
        raise ValidationError(f"{path}: damaged container header: 'arrays' is not a list")
    layout: dict[str, tuple[tuple[int, ...], int]] = {}
    end = 0
    for i, entry in enumerate(entries):
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)):
            raise ValidationError(f"{path}: array entry {i} has no string name")
        name, shape, offset = entry["name"], entry.get("shape"), entry.get("offset")
        if name in layout:
            raise ValidationError(f"{path}: duplicate array name {name!r}")
        if not (isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape)):
            raise ValidationError(f"{path}: array {name!r}: shape {shape!r} is not "
                                  f"a list of non-negative ints")
        if offset != end:
            raise ValidationError(f"{path}: array {name!r}: offset {offset!r}, but the "
                                  f"arrays before it end at {end}")
        layout[name] = (tuple(shape), end)
        end += 8 * math.prod(shape)
    if len(payload) != end:
        raise ValidationError(f"{path}: container payload is {len(payload)} bytes, "
                              f"its arrays need {end}")
    return header, {
        name: np.frombuffer(payload, dtype="<f8", count=math.prod(shape),
                            offset=start).reshape(shape).copy()
        for name, (shape, start) in layout.items()
    }
