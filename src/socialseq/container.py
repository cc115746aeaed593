"""Byte-stable artifact container: canonical JSON header + raw float64 blobs.

Every persisted artifact (dataset, model, PCA bank) uses this layout so
that re-running a command on identical inputs rewrites identical bytes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

MAGIC = b"#socialseq-container v1\n"


class ValidationError(ValueError):
    """Bad input artifact or record; maps to the CLI's validation exit code."""


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_hex(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def config_hash(config: dict) -> str:
    return sha256_hex(canonical_json(config))


def write_container(path, header: dict, arrays: list[tuple[str, np.ndarray]]) -> None:
    """Write header metadata plus named float64 arrays in the given order."""
    entries = []
    blobs = []
    offset = 0
    for name, arr in arrays:
        blob = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
        blobs.append(blob)
        offset += len(blob)
    full_header = dict(header)
    full_header["arrays"] = entries
    encoded = canonical_json(full_header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(len(encoded).to_bytes(8, "little"))
        fh.write(encoded)
        for blob in blobs:
            fh.write(blob)


def read_container(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read back (header, {name: array}); inverse of write_container."""
    path = Path(path)
    raw = path.read_bytes()
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
    pos += hlen
    payload = raw[pos:]
    entries = header.pop("arrays", [])
    counts = [int(np.prod(entry["shape"])) for entry in entries]
    if len(payload) != 8 * sum(counts):
        raise ValidationError(f"{path}: container payload is {len(payload)} bytes, "
                              f"its arrays need {8 * sum(counts)}")
    arrays: dict[str, np.ndarray] = {}
    for entry, count in zip(entries, counts):
        shape = tuple(entry["shape"])
        start = entry["offset"]
        arr = np.frombuffer(payload, dtype="<f8", count=count, offset=start)
        arrays[entry["name"]] = arr.reshape(shape).copy()
    return header, arrays
