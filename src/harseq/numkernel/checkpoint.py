"""Versioned binary container for named float64 tensors plus metadata.

Layout:
    8-byte magic  b"NKTENS01"
    8-byte little-endian uint64: header length in bytes
    header: UTF-8 JSON {"version": 1, "metadata": {...},
                        "tensors": [{"name": ..., "shape": [...]}, ...]}
    raw data: for each tensor in header order, row-major little-endian
    float64 bytes.

Tensor names are written in sorted order so identical contents always
produce identical bytes; round-trips are bit-exact.
"""

import json
import math
import struct

import numpy as np

from ..errors import FormatError, check_json

MAGIC = b"NKTENS01"
FORMAT_VERSION = 1
_HEADER_FIELDS = {"metadata": dict, "tensors": [{"name": str, "shape": [int]}]}


def save_container(path, tensors: dict, metadata: dict | None = None) -> None:
    names = sorted(tensors)
    arrays = {}
    index = []
    for name in names:
        arr = np.ascontiguousarray(np.asarray(tensors[name], dtype="<f8"))
        arrays[name] = arr
        index.append({"name": name, "shape": list(arr.shape)})
    header = {
        "version": FORMAT_VERSION,
        "metadata": metadata if metadata is not None else {},
        "tensors": index,
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<Q", len(blob)))
        f.write(blob)
        for name in names:
            f.write(arrays[name].tobytes())


def load_container(path):
    """Returns (tensors: dict[str, np.ndarray], metadata: dict).

    Any byte string that is not exactly one well-formed container, truncated
    or with trailing bytes included, is a FormatError.
    """
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:8] != MAGIC:
        raise FormatError(f"{path}: not a tensor container (bad magic {blob[:8]!r})")
    if len(blob) < 16:
        raise FormatError(f"{path}: truncated container header")
    (hlen,) = struct.unpack_from("<Q", blob, 8)
    offset = 16 + hlen
    if offset > len(blob):
        raise FormatError(f"{path}: truncated container header")
    try:
        header = json.loads(blob[16:offset].decode("utf-8"))
        json.dumps(header, ensure_ascii=False).encode("utf-8")  # a lone "\ud800" is not text
    except (ValueError, RecursionError) as exc:  # also JSONDecodeError, UnicodeError
        raise FormatError(f"{path}: unreadable container header ({exc})") from None
    index = _check_header(header, path)
    tensors = {}
    for name, shape in index:
        nbytes = 8 * math.prod(shape)
        if offset + nbytes > len(blob):
            raise FormatError(f"{path}: truncated data for tensor '{name}'")
        tensors[name] = np.frombuffer(blob, dtype="<f8", count=nbytes // 8,
                                      offset=offset).reshape(shape).copy()
        offset += nbytes
    if offset != len(blob):
        raise FormatError(f"{path}: {len(blob) - offset} trailing bytes after the last tensor")
    return tensors, header["metadata"]


def _check_header(header, path) -> list:
    """[(name, shape)] from a decoded header, or a FormatError."""
    version = header.get("version") if isinstance(header, dict) else None
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported container version {version!r}")
    check_json(header, _HEADER_FIELDS, f"{path}: container header")
    index = [(entry["name"], tuple(entry["shape"])) for entry in header["tensors"]]
    # numpy refuses a shape whose nonzero dimensions multiply past its byte limit
    if (any(min(shape, default=0) < 0 or math.prod(d or 1 for d in shape) >= 2**60
            for _, shape in index) or len({name for name, _ in index}) != len(index)):
        raise FormatError(f"{path}: container header has a negative or oversized dimension "
                          f"or a repeated tensor name")
    return index
