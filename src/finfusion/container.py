"""The binary container that checkpoints and the dataset sidecar share.

Layout: a 4-byte magic naming what the file holds, a little-endian u32
version, a u64 header length, a UTF-8 JSON header, then every array's
little-endian bytes back to back in header order. The header lists each
array's name, dtype and shape and carries the writer's ``meta`` object.
It also holds a sha256 over the rest of the header (as sorted-key JSON)
followed by the array bytes, so that a changed array name, shape or meta
value fails the check as a changed array byte does. Only version 2 is
read.
"""

import hashlib
import json
import math
import struct

import numpy as np

from .errors import ContractError, SchemaError

VERSION = 2
DTYPES = ("<f8", "<i8", "|b1")  # float64, int64, bool


def write(path: str, magic: bytes, arrays, meta: dict) -> None:
    """Write ``arrays``, (name, ndarray) pairs in file order, of the dtypes
    in ``DTYPES``, with ``meta``. The same inputs give the same bytes."""
    blobs, entries = [], []
    for name, arr in arrays:
        arr = np.asarray(arr)
        dtype = arr.dtype.newbyteorder("<")
        if dtype.str not in DTYPES:
            raise ContractError(f"array {name} has unsupported dtype {arr.dtype}")
        blobs.append(np.ascontiguousarray(arr, dtype=dtype).tobytes())
        entries.append({"name": name, "dtype": dtype.str, "shape": list(arr.shape)})
    header = {"arrays": entries, "meta": meta}
    header["sha256"] = _digest(header, blobs)
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(magic + struct.pack("<IQ", VERSION, len(text)) + text)
        for blob in blobs:
            fh.write(blob)


def _digest(header: dict, blobs) -> str:
    """sha256 of ``header`` without its own digest, then the array bytes."""
    h = hashlib.sha256(json.dumps({k: v for k, v in header.items() if k != "sha256"},
                                  sort_keys=True).encode("utf-8"))
    for blob in blobs:
        h.update(blob)
    return h.hexdigest()


def read(path: str, magic: bytes) -> tuple:
    """-> (name -> array, in file order; meta).

    SchemaError names ``path`` unless the file has ``magic``, version 2, a
    well-formed header, exactly the array bytes the header describes, and a
    header and arrays that match their sha256.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return _parse(blob, magic)
    except SchemaError as e:
        raise SchemaError(f"{path}: {e}") from e


def _parse(blob: bytes, magic: bytes) -> tuple:
    if blob[:4] != magic:
        raise SchemaError(f"bad magic {blob[:4]!r}, expected {magic!r}")
    if len(blob) < 16:
        raise SchemaError(f"truncated in its {len(blob)}-byte preamble")
    version, hlen = struct.unpack("<IQ", blob[4:16])
    if version != VERSION:
        raise SchemaError(f"unsupported container version {version}")
    start = 16 + hlen
    if len(blob) < start:
        raise SchemaError(f"truncated: {len(blob)} bytes, header alone needs {start}")
    try:
        header = json.loads(blob[16:start])
        entries = [(e["name"], e["dtype"], tuple(int(d) for d in e["shape"]))
                   for e in header["arrays"]]
        meta = header["meta"]
        digest = header["sha256"]
    except (ValueError, KeyError, TypeError) as e:
        raise SchemaError(f"header is corrupt ({type(e).__name__}: {e})") from e
    if not isinstance(meta, dict):
        raise SchemaError("header meta is not an object")
    for name, dtype, shape in entries:
        if not isinstance(name, str) or dtype not in DTYPES or min(shape, default=0) < 0:
            raise SchemaError(f"array {name!r} has dtype {dtype!r} and shape {shape}")
    if len({name for name, _, _ in entries}) != len(entries):
        raise SchemaError("header names an array twice")
    counts = [math.prod(shape) for _, _, shape in entries]
    expected = start + sum(np.dtype(dtype).itemsize * n
                           for (_, dtype, _), n in zip(entries, counts))
    if len(blob) != expected:
        raise SchemaError(f"{len(blob)} bytes, its header describes {expected}")
    if _digest(header, [memoryview(blob)[start:]]) != digest:
        raise SchemaError("header or arrays fail their sha256 check")
    # one copy of the array bytes, writable and independent of the file's;
    # each array is a view into it, copied again only where it is unaligned
    body = np.frombuffer(blob, dtype=np.uint8, offset=start).copy()
    arrays, offset = {}, 0
    for (name, dtype, shape), n in zip(entries, counts):
        arr = np.frombuffer(body, dtype=dtype, count=n, offset=offset).reshape(shape)
        arrays[name] = arr if arr.flags.aligned else arr.copy()
        offset += np.dtype(dtype).itemsize * n
    return arrays, meta
