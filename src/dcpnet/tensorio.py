"""Flat binary tensor files and checkpoint manifests.

Tensor format (magic "DCPT"): u32 rank, u32 per dimension, then the
row-major little-endian float32 payload.  Values are float64 in memory;
arrays that round-trip bitwise must therefore hold float32-representable
values (everything the generator and the wire produce does).
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError

MAGIC = b"DCPT"
MANIFEST = "manifest.txt"  # key -> file list of a tensor directory


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
    Path(path).write_bytes(tensor_to_bytes(arr))


def load_tensor(path) -> np.ndarray:
    return tensor_from_bytes(Path(path).read_bytes())


def save_tensor_dict(dirpath, tensors: dict[str, np.ndarray]) -> None:
    """Write a named set of tensors: a text manifest (key -> file) plus
    one DCPT file per tensor."""
    d = Path(dirpath)
    d.mkdir(parents=True, exist_ok=True)
    lines = []
    for key in sorted(tensors):
        fname = key.replace("/", "_") + ".dcpt"
        save_tensor(d / fname, tensors[key])
        lines.append(f"{key} {fname}")
    (d / MANIFEST).write_text("\n".join(lines) + "\n")


def read_manifest(path) -> list[str]:
    """The lines of a UTF-8 text manifest."""
    path = Path(path)
    if not path.is_file():
        raise FormatError(f"missing manifest {path}")
    try:
        return path.read_bytes().decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"manifest {path} is not UTF-8 text") from exc


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
