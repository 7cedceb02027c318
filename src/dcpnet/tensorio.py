"""Flat binary tensor files and checkpoint manifests.

Tensor format (magic "DCPT"): u32 rank, u32 per dimension, then the
row-major little-endian float32 payload.  Values are float64 in memory;
arrays that round-trip bitwise must therefore hold float32-representable
values (everything the generator and the wire produce does).

Every file the package writes goes through `write_file`, which rewrites an
existing file in place, not truncated on open (README.md, Formats, says why).
A kill mid-rewrite can leave new bytes then old ones, so the tensor
directories empty their manifest first and write it last.
"""

from __future__ import annotations

import contextlib
import math
import os
import stat
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError, InputError

MAGIC = b"DCPT"
MANIFEST = "manifest.txt"  # key -> file list of a tensor directory


def write_file(path, data: bytes) -> None:
    """Make `data` the whole content of `path`, written over the old bytes in place."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view) :]
        st = os.fstat(fd)
        if stat.S_ISREG(st.st_mode) and st.st_size > len(data):  # a pipe or /dev/null cannot be cut
            os.ftruncate(fd, len(data))
    except BaseException:
        with contextlib.suppress(OSError):  # fails on a pipe; the error that got here is the one raised
            os.ftruncate(fd, 0)
        raise
    finally:
        os.close(fd)


def tensor_to_bytes(arr: np.ndarray) -> bytes:
    arr = np.asarray(arr)
    header = MAGIC + struct.pack("<I", arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b""
    return header + np.ascontiguousarray(arr, dtype="<f4").tobytes()


def tensor_from_bytes(buf: bytes) -> np.ndarray:
    if len(buf) < 8:
        raise FormatError("tensor blob shorter than header")
    if buf[:4] != MAGIC:
        raise FormatError(f"bad tensor magic {buf[:4]!r}")
    (rank,) = struct.unpack_from("<I", buf, 4)
    if rank > 8:
        raise FormatError(f"implausible tensor rank {rank}")
    if len(buf) < 8 + 4 * rank:
        raise FormatError("tensor blob truncated in dimension list")
    dims = struct.unpack_from(f"<{rank}I", buf, 8) if rank else ()
    count = math.prod(dims)
    payload = buf[8 + 4 * rank :]
    if len(payload) != 4 * count:
        raise FormatError(f"tensor payload is {len(payload)} bytes, expected {4 * count}")
    data = np.frombuffer(payload, dtype="<f4").reshape(dims)
    if not np.isfinite(data).all():
        raise FormatError("tensor payload holds non-finite values")
    return data.astype(np.float64)


def save_tensor(path, arr: np.ndarray) -> None:
    """A DCPT file of `arr`; what `load_tensor` would reject is an InputError before the file is opened."""
    arr = np.asarray(arr)
    if arr.ndim > 8 or max(arr.shape, default=0) >= 2**32:
        raise InputError(f"tensor shape {arr.shape} exceeds the format's rank 8 or u32 dimensions")
    with np.errstate(over="ignore"):
        f32 = np.ascontiguousarray(arr, dtype="<f4")
    if not np.isfinite(f32).all():
        raise InputError("tensor holds values that are not finite as float32")
    write_file(path, tensor_to_bytes(f32))


def load_tensor(path) -> np.ndarray:
    with open(path, "rb") as f:
        return tensor_from_bytes(f.read())


def save_tensor_dict(dirpath, tensors: dict[str, np.ndarray]) -> None:
    """Write a named set of tensors: a text manifest (key -> file) plus
    one DCPT file per tensor."""
    d = Path(dirpath)
    d.mkdir(parents=True, exist_ok=True)
    write_file(d / MANIFEST, b"")  # a save cut short must not load
    lines = []
    for key in sorted(tensors):
        fname = key.replace("/", "_") + ".dcpt"
        save_tensor(d / fname, tensors[key])
        lines.append(f"{key} {fname}")
    write_file(d / MANIFEST, ("\n".join(lines) + "\n").encode("utf-8"))


def read_manifest(path) -> list[str]:
    """The lines of a UTF-8 text manifest."""
    path = Path(path)
    if not path.is_file():
        raise FormatError(f"missing manifest {path}")
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"manifest {path} is not UTF-8 text") from exc
    if not text:
        raise FormatError(f"manifest {path} is empty: the save that wrote it was cut short")
    return text.splitlines()


def load_tensor_dict(dirpath) -> dict[str, np.ndarray]:
    d = Path(dirpath)
    out: dict[str, np.ndarray] = {}
    for line in read_manifest(d / MANIFEST):
        if not line.strip():
            continue
        try:
            key, fname = line.split()
        except ValueError as exc:
            raise FormatError(f"malformed manifest line {line!r}") from exc
        if key in out:
            raise FormatError(f"key {key!r} is listed twice in {d / MANIFEST}")
        if Path(fname).name != fname or not (d / fname).is_file():
            raise FormatError(f"missing tensor file {d / fname} listed for {key!r}")
        out[key] = load_tensor(d / fname)
    return out
