"""Single-file tensor container: one JSON header line, then raw tensor data.

Layout: a UTF-8 JSON object on the first line declaring format, version,
caller metadata, tensor names/shapes in order, and a CRC-32 (zlib) of the
payload; then every tensor's bytes concatenated, little-endian, C order.
A tensor is float64 unless its declaration names a "dtype" (int8, int16,
int32 or int64), so a file of float64 tensors declares none. The checksum
covers the payload only; header corruption surfaces as a parse or schema
error instead.

Neither side copies the payload whole, as in safetensors: writing folds the
checksum over each tensor's own buffer and writes that buffer to the file,
and reading fills one payload buffer and returns read-only views of it.
"""

from __future__ import annotations

import json
import math
import os
import zlib

import numpy as np

FORMAT_NAME = "delaycast-model"
# 4: per-tensor dtypes; tree files drop child indices and leaf thresholds
# (version 3 stored every tensor as float64, version 2 twelve per-gate arrays
# per LSTM, version 1 used FNV-1a-64 and one node matrix per tree)
FORMAT_VERSION = 4
_DTYPES = {name: np.dtype(code) for name, code in (
    ("float64", "<f8"), ("int8", "<i1"), ("int16", "<i2"), ("int32", "<i4"),
    ("int64", "<i8"))}


class ModelFileError(ValueError):
    """Raised for structural, version, or integrity problems in a container."""


def write_container(path, meta: dict, tensors: dict) -> None:
    """Write tensors (name -> array) with caller metadata under `meta`.

    Signed integer arrays keep their type; every other array is stored as
    float64.
    """
    arrays, declared, crc = [], [], 0
    for name, arr in tensors.items():
        a = np.asarray(arr)
        dtype = a.dtype.name if a.dtype.kind == "i" else "float64"
        a = np.ascontiguousarray(a, dtype=_DTYPES[dtype])
        entry = {"name": name, "shape": list(a.shape)}
        if dtype != "float64":
            entry["dtype"] = dtype
        declared.append(entry)
        arrays.append(a)
        crc = zlib.crc32(a, crc)
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "meta": meta,
        "tensors": declared,
        "crc32": crc,
    }
    line = json.dumps(header, sort_keys=True, separators=(",", ":"))
    if "\n" in line:
        raise ModelFileError("header metadata must not contain newlines")
    with open(path, "wb") as fh:
        fh.write(line.encode("utf-8") + b"\n")
        for a in arrays:
            fh.write(a)


def _layout(declared):
    """(name, dtype, shape) per declared tensor, in file order."""
    layout = []
    for t in declared:
        try:
            name, shape = t["name"], tuple(t["shape"])
            dtype = _DTYPES[t.get("dtype", "float64")]
        except KeyError as exc:
            raise ModelFileError(f"unsupported tensor declaration {t!r}") from exc
        except TypeError as exc:
            raise ModelFileError(f"malformed tensor declaration {t!r}") from exc
        if not all(isinstance(s, int) and s >= 0 for s in shape):
            raise ModelFileError(f"tensor {name!r} has shape {list(shape)}")
        layout.append((name, dtype, shape))
    return layout


def read_container(path):
    """Return (meta, tensors) after verifying structure and checksum.

    Tensors are read-only views of one payload buffer; one is copied (and
    the copy made read-only) only where its dtype or alignment needs it.
    """
    with open(path, "rb") as fh:
        line = fh.readline()
        if not line.endswith(b"\n"):
            raise ModelFileError("missing header line")
        try:
            header = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ModelFileError(f"unreadable header: {exc}") from exc
        if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
            raise ModelFileError("not a delaycast model file")
        if header.get("version") != FORMAT_VERSION:
            raise ModelFileError(
                f"unsupported container version {header.get('version')!r}")
        declared = header.get("tensors")
        checksum = header.get("crc32")
        if not isinstance(declared, list) or not isinstance(checksum, int):
            raise ModelFileError("header is missing tensor declarations or checksum")
        layout = _layout(declared)
        sizes = [math.prod(shape) * dtype.itemsize for _, dtype, shape in layout]
        expected = sum(sizes)
        length = os.fstat(fh.fileno()).st_size - len(line)
        if length != expected:
            raise ModelFileError(
                f"payload is {length} bytes but header declares {expected}")
        payload = np.empty(expected, dtype=np.uint8)
        if fh.readinto(payload) != expected:
            raise ModelFileError("file changed while it was read")
    if zlib.crc32(payload) != checksum:
        raise ModelFileError("payload checksum mismatch, file is corrupt")
    payload.flags.writeable = False
    tensors = {}
    offset = 0
    for (name, dtype, shape), size in zip(layout, sizes):
        view = np.frombuffer(payload, dtype=dtype, count=size // dtype.itemsize,
                             offset=offset).reshape(shape)
        tensor = np.require(view, dtype.newbyteorder("="), "A")
        tensor.flags.writeable = False
        tensors[name] = tensor
        offset += size
    return header["meta"], tensors
