"""Single-file tensor container: one JSON header line, then raw float64 data.

Layout: a UTF-8 JSON object on the first line declaring format, version,
caller metadata, tensor names/shapes in order, and a CRC-32 (zlib) of the
payload; then every tensor's bytes concatenated, little-endian float64,
C order. The checksum covers the payload only; header corruption surfaces as
a parse or schema error instead.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import numpy as np

FORMAT_NAME = "delaycast-model"
# 3: one fused weight matrix and bias per LSTM (version 2 stored twelve
# per-gate arrays; version 1 also used FNV-1a-64 and one node matrix per tree)
FORMAT_VERSION = 3


class ModelFileError(ValueError):
    """Raised for structural, version, or integrity problems in a container."""


def write_container(path, meta: dict, tensors: dict) -> None:
    """Write tensors (name -> array) with caller metadata under `meta`."""
    payload = bytearray()
    declared = []
    for name, arr in tensors.items():
        a = np.ascontiguousarray(arr, dtype="<f8")
        declared.append({"name": name, "shape": list(a.shape)})
        payload += a.tobytes()
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "meta": meta,
        "tensors": declared,
        "crc32": zlib.crc32(payload),
    }
    line = json.dumps(header, sort_keys=True, separators=(",", ":"))
    if "\n" in line:
        raise ModelFileError("header metadata must not contain newlines")
    with open(path, "wb") as fh:
        fh.write(line.encode("utf-8") + b"\n")
        fh.write(bytes(payload))


def read_container(path):
    """Return (meta, tensors) after verifying structure and checksum."""
    raw = Path(path).read_bytes()
    newline = raw.find(b"\n")
    if newline < 0:
        raise ModelFileError("missing header line")
    try:
        header = json.loads(raw[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelFileError(f"unreadable header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        raise ModelFileError("not a delaycast model file")
    if header.get("version") != FORMAT_VERSION:
        raise ModelFileError(f"unsupported container version {header.get('version')!r}")
    payload = raw[newline + 1:]
    declared = header.get("tensors")
    checksum = header.get("crc32")
    if not isinstance(declared, list) or not isinstance(checksum, int):
        raise ModelFileError("header is missing tensor declarations or checksum")
    expected = sum(int(np.prod(t["shape"])) * 8 for t in declared)
    if len(payload) != expected:
        raise ModelFileError(
            f"payload is {len(payload)} bytes but header declares {expected}")
    if zlib.crc32(payload) != checksum:
        raise ModelFileError("payload checksum mismatch, file is corrupt")
    tensors = {}
    offset = 0
    for t in declared:
        shape = tuple(int(s) for s in t["shape"])
        size = int(np.prod(shape)) * 8
        block = np.frombuffer(payload[offset:offset + size], dtype="<f8")
        tensors[t["name"]] = block.reshape(shape).astype(np.float64)
        offset += size
    return header["meta"], tensors
