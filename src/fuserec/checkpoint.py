"""Binary tensor container (CKPT1) plus the JSON sidecar for run metadata.

Layout: magic "CKPT1", u32 little-endian tensor count, then per tensor a u16
name length, UTF-8 name, u8 dtype code (0 = f64, 1 = f32), u8 rank, u32 dims,
and raw little-endian data. Tensors are written in sorted name order so a
save -> load -> save round trip is byte-identical.
"""

from __future__ import annotations

import json
import math
import os
import struct
from contextlib import contextmanager

import numpy as np

MAGIC = b"CKPT1"
_DTYPES = {0: "<f8", 1: "<f4"}
_CODES = {np.dtype(np.float64): 0, np.dtype(np.float32): 1}


class CheckpointError(ValueError):
    """Corrupt or inconsistent checkpoint file."""


@contextmanager
def atomic_open(path: str, binary: bool = False):
    """A handle for writing the whole of path at once.

    The block writes a temp file in path's directory, which replaces path
    (os.replace) when the block ends without error; if it raises, the temp file
    is removed and path keeps what it held. No fsync: this guards against a run
    dying mid-write, not against power loss.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb" if binary else "w", encoding=None if binary else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def save_tensors(path: str, named: dict[str, np.ndarray]) -> None:
    names = sorted(named)
    if len(set(names)) != len(names):
        raise CheckpointError("duplicate tensor names")
    with atomic_open(path, binary=True) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(names)))
        for name in names:
            arr = np.asarray(named[name])
            if not arr.flags["C_CONTIGUOUS"]:
                arr = np.ascontiguousarray(arr)  # 0-d stays 0-d: it is already contiguous
            if arr.dtype not in _CODES:
                raise CheckpointError(f"tensor {name!r} has unsupported dtype {arr.dtype}")
            code = _CODES[arr.dtype]
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<BB", code, arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.astype(_DTYPES[code], copy=False).tobytes())


def load_tensors(path: str) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        blob = fh.read()
    off = 0

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(blob):
            raise CheckpointError(f"{path}: truncated, {len(blob)} bytes where at least {off + n} are needed")
        off += n
        return blob[off - n : off]

    if take(len(MAGIC)) != MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a CKPT1 container")
    (count,) = struct.unpack("<I", take(4))
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (nlen,) = struct.unpack("<H", take(2))
        try:
            name = take(nlen).decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"{path}: tensor name is not UTF-8") from None
        code, rank = struct.unpack("<BB", take(2))
        if code not in _DTYPES:
            raise CheckpointError(f"{path}: unknown dtype code {code} for {name!r}")
        dims = struct.unpack(f"<{rank}I", take(4 * rank))
        raw = take(math.prod(dims) * np.dtype(_DTYPES[code]).itemsize)
        if name in out:
            raise CheckpointError(f"{path}: duplicate tensor name {name!r}")
        try:
            out[name] = np.frombuffer(raw, dtype=_DTYPES[code]).reshape(dims).copy()
        except ValueError as exc:  # a corrupt rank can read dims whose product is 0 but too large to address
            raise CheckpointError(f"{path}: tensor {name!r} has unusable dims {dims} ({exc})") from None
    if off != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - off} trailing bytes")
    return out


def save_meta(path: str, meta: dict) -> None:
    with atomic_open(path) as fh:
        json.dump(meta, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_meta(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise CheckpointError(f"{path}: unreadable metadata ({exc})") from None
