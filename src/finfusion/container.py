"""The binary container that checkpoints and the dataset sidecar share.

Layout: a 4-byte magic naming what the file holds, a little-endian u32
version, a u64 header length, a UTF-8 JSON header, then every array's
little-endian bytes back to back in header order. The header lists each
array's name, dtype and shape and carries the writer's ``meta`` object.
It also holds a sha256 over the rest of the header (as sorted-key JSON)
followed by the array bytes, so that a changed array name, shape or meta
value fails the check as a changed array byte does. Only version 2 is
read.

A read checks the sizes that the preamble and the header declare against
the open file's size before it allocates anything of that size, then
reads the array bytes once, into one buffer that the hash runs over and
the arrays are views of. A write hashes and writes each array's own
buffer, copying only an array that is not contiguous little-endian.
"""

import hashlib
import json
import math
import os
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
        blobs.append(np.ascontiguousarray(arr, dtype=dtype))
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

    The arrays are writable views (their ``base``) of one buffer of float64
    words, apart from the file; only an array that an earlier bool array
    left off its alignment is a copy.
    """
    with open(path, "rb") as fh:
        try:
            return _read(fh, os.fstat(fh.fileno()).st_size, magic)
        except SchemaError as e:
            raise SchemaError(f"{path}: {e}") from e


def _read(fh, size: int, magic: bytes) -> tuple:
    preamble = fh.read(16)
    if preamble[:4] != magic:
        raise SchemaError(f"bad magic {preamble[:4]!r}, expected {magic!r}")
    if size < 16:
        raise SchemaError(f"truncated in its {size}-byte preamble")
    version, hlen = struct.unpack("<IQ", preamble[4:16])
    if version != VERSION:
        raise SchemaError(f"unsupported container version {version}")
    start = 16 + hlen
    if size < start:
        raise SchemaError(f"truncated: {size} bytes, header alone needs {start}")
    try:
        header = json.loads(fh.read(hlen))
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
    nbytes = [np.dtype(dtype).itemsize * math.prod(shape) for _, dtype, shape in entries]
    if size != start + sum(nbytes):
        raise SchemaError(f"{size} bytes, its header describes {start + sum(nbytes)}")
    # float64 words keep the buffer aligned for every dtype
    body = np.empty((size - start + 7) // 8, np.float64).view(np.uint8)[:size - start]
    if fh.readinto(body) != body.size:
        raise SchemaError(f"truncated while its {body.size} array bytes were read")
    if _digest(header, [body]) != digest:
        raise SchemaError("header or arrays fail their sha256 check")
    arrays, offset = {}, 0
    for (name, dtype, shape), n in zip(entries, nbytes):
        arr = body[offset:offset + n].view(dtype).reshape(shape)
        arrays[name] = arr if arr.flags.aligned else arr.copy()
        offset += n
    return arrays, meta
