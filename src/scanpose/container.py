"""Versioned single-file binary container: a JSON manifest followed by raw
C-order array bytes. Byte-for-byte deterministic for identical inputs (unlike
zip-based formats, which embed timestamps), so fixed-seed reruns produce
identical files. Writes go through a temp file and an atomic rename.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import tempfile

import numpy as np

MAGIC = b"SPCONT1\n"
FORMAT_VERSION = 1


def atomic_write(path: str, *chunks: bytes) -> None:
    """Write chunks to path through a temp file in the same directory and an
    atomic rename; the temp file is removed on any failure."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header, rows) -> None:
    """Comma-separated header and rows, one line each, written atomically: a
    float cell as repr(float(v)), so it reads back exactly, and any other
    cell as str(v)."""
    lines = [header] + [[repr(float(v)) if isinstance(v, float) else str(v) for v in row]
                        for row in rows]
    atomic_write(path, "".join(",".join(line) + "\n" for line in lines).encode())


def fits(value, default) -> bool:
    """Whether a config value has the type of its field's default: an int
    field takes no float or bool, a float field also takes an int, and a
    tuple field takes a list of numbers as long as its default."""
    if isinstance(default, tuple):
        return (isinstance(value, (list, tuple)) and len(value) == len(default)
                and all(fits(v, 0.0) for v in value))
    if isinstance(default, float):
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return type(value) is type(default)


def build_dataclass(cls, doc: dict, where: str):
    """Config dataclass `cls` from the JSON object `doc`, every value checked
    by fits. Raises ValueError naming `where`."""
    require_keys(doc, where)
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    unknown = set(doc) - set(defaults)
    if unknown:
        raise ValueError(f"{where}: unknown keys {sorted(unknown)}")
    for name, value in doc.items():
        default = defaults[name]
        if not fits(value, default):
            raise ValueError(f"{where}: {name} must be {type(default).__name__} "
                             f"like {default!r}, got {value!r}")
    try:  # only a tuple field can hold a list here
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in doc.items()})
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from exc


def save_container(path: str, arrays: dict, meta: dict) -> None:
    entries = []
    offset = 0
    blobs = []
    for name in sorted(arrays):
        arr = np.asarray(arrays[name])  # 0-d stays 0-d
        blob = arr.tobytes()  # C order whatever the layout
        entries.append({"name": name, "dtype": str(arr.dtype),
                        "shape": list(arr.shape), "offset": offset,
                        "nbytes": len(blob)})
        blobs.append(blob)
        offset += len(blob)
    header = json.dumps({"version": FORMAT_VERSION, "arrays": entries,
                         "meta": meta}, sort_keys=True).encode()
    atomic_write(path, MAGIC, len(header).to_bytes(8, "little"), header, *blobs)


def load_json(path: str):
    """The JSON document at path; a ValueError names path if it is not valid."""
    with open(path, "rb") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc


def require_keys(doc, path: str, kind=None, *keys):
    """doc, a JSON value read from path, once it is an object of that "kind"
    (None: any) holding every key; else a ValueError names path and the fault."""
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    if kind is not None and doc.get("kind") != kind:
        raise ValueError(f"{path}: not a {kind} document")
    for key in keys:
        if key not in doc:
            raise ValueError(f"{path}: missing key {key!r}")
    return doc


def load_container(path: str):
    """(arrays, meta) of the container at path. A header or an array that the
    file does not hold whole raises ValueError naming path and the array."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(MAGIC):
        raise ValueError(f"{path}: not a scanpose container")
    start = len(MAGIC) + 8
    end = start + int.from_bytes(data[len(MAGIC):start], "little")
    try:
        if end > len(data):
            raise ValueError(f"it needs {end} bytes, the file has {len(data)}")
        header = json.loads(data[start:end].decode())
        version, meta = header["version"], header["meta"]
        entries = [(e["name"], np.dtype(e["dtype"]), tuple(e["shape"]), int(e["offset"]),
                    int(e["nbytes"])) for e in header["arrays"]]
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{path}: truncated or corrupt header: {exc}") from exc
    if version > FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported container version {version}")
    arrays = {}
    for name, dtype, shape, offset, nbytes in entries:
        if dtype.kind not in "biufc":
            raise ValueError(f"{path}: array {name} has dtype {dtype}, not a numeric one")
        if not all(type(d) is int and d >= 0 for d in shape):
            raise ValueError(f"{path}: array {name} has shape {list(shape)}, not sizes >= 0")
        if not 0 <= offset <= offset + nbytes <= len(data) - end:
            raise ValueError(f"{path}: array {name} needs payload bytes {offset} to "
                             f"{offset + nbytes}, the file holds {len(data) - end}")
        if nbytes != dtype.itemsize * math.prod(shape):
            raise ValueError(f"{path}: array {name} holds {nbytes} bytes, not the "
                             f"{dtype.itemsize * math.prod(shape)} of {dtype} {shape}")
        arrays[name] = np.frombuffer(data, dtype, math.prod(shape), end + offset
                                     ).reshape(shape).copy()
    return arrays, meta
