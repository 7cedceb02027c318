"""Report files: metrics.json, a method-comparison CSV table, PGM/PPM dumps."""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path

import numpy as np

from .errors import FormatError, InputError
from .metrics import MetricsRecord
from .tensorio import write_file

TABLE_HEADER = "Type,Method,Noisy,Normal,Avg.,Comm. Cost,CE"

_METHOD_TYPE = {
    "no-interaction": "individual",
    "concat-all": "centralized",
    "aux-view-attention": "centralized",
    "random-selection": "distributed",
    "dcp-net": "distributed",
}


def write_pgm(path, image: np.ndarray) -> None:
    """Binary (P5) grayscale image from float values in [0, 1]."""
    gray = (np.clip(np.asarray(image), 0.0, 1.0) * 255).round().astype(np.uint8)
    h, w = gray.shape
    write_file(path, f"P5\n{w} {h}\n255\n".encode() + gray.tobytes())


def read_pgm(path) -> np.ndarray:
    buf = Path(path).read_bytes()
    return _read_netpbm(buf, b"P5", channels=1)


def write_ppm(path, image: np.ndarray) -> None:
    """Binary (P6) color image from float values in [0, 1]."""
    rgb = (np.clip(np.asarray(image), 0.0, 1.0) * 255).round().astype(np.uint8)
    h, w, _ = rgb.shape
    write_file(path, f"P6\n{w} {h}\n255\n".encode() + rgb.tobytes())


def read_ppm(path) -> np.ndarray:
    buf = Path(path).read_bytes()
    return _read_netpbm(buf, b"P6", channels=3)


# width, height and maxval, each after whitespace or comment lines, then one whitespace byte
_NETPBM_HEADER = re.compile(rb"(?:(?:\s|#[^\n]*\n)+(\d+))" * 3 + rb"\s")


def _read_netpbm(buf: bytes, magic: bytes, channels: int) -> np.ndarray:
    if not buf.startswith(magic):
        raise FormatError(f"bad netpbm magic {buf[:2]!r}")
    header = _NETPBM_HEADER.match(buf, 2)
    if header is None:
        raise FormatError(f"netpbm header is not three whole numbers: {buf[:40]!r}")
    w, h, maxval = map(int, header.groups())
    if not 1 <= maxval <= 255:
        raise FormatError(f"netpbm maxval {maxval} outside 1..255 (one byte per sample)")
    size = h * w * channels
    if len(buf) - header.end() < size:
        raise FormatError(f"netpbm payload truncated: {len(buf) - header.end()} of {size} bytes")
    data = np.frombuffer(buf, dtype=np.uint8, count=size, offset=header.end())
    if size and data.max() > maxval:
        raise FormatError(f"netpbm sample {data.max()} exceeds maxval {maxval}")
    return data.reshape((h, w) if channels == 1 else (h, w, channels))


def table_row(record: MetricsRecord) -> str:
    mtype = _METHOD_TYPE.get(record.method, "distributed")
    ce = "-" if record.ce is None else f"{record.ce:.2f}"

    def pct(x: float) -> str:
        return "-" if x != x else f"{100.0 * x:.2f}"  # NaN-safe

    return (
        f"{mtype},{record.method},{pct(record.miou_noisy)},{pct(record.miou_normal)},"
        f"{pct(record.miou_avg)},{record.comm_cost_mbpf:.3f},{ce}"
    )


def emit_report(records: list[MetricsRecord], dirpath, prediction_dumps=None) -> None:
    """Write metrics.json and tables.csv; optionally dump predictions.

    `prediction_dumps` maps a file stem to an image of floats in [0, 1]:
    a 2-D one is written as grayscale PGM, a 3-D one as color PPM.
    """
    d = Path(dirpath)
    try:
        d.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create report dir {d}: {exc}") from exc
    write_file(d / "metrics.json", (json.dumps([r.as_dict() for r in records], indent=2) + "\n").encode("utf-8"))
    lines = [TABLE_HEADER] + [table_row(r) for r in records]
    write_file(d / "tables.csv", ("\n".join(lines) + "\n").encode("utf-8"))
    for stem, arr in (prediction_dumps or {}).items():
        arr = np.asarray(arr)
        if arr.ndim == 2:
            write_pgm(d / f"{stem}.pgm", arr)
        else:
            write_ppm(d / f"{stem}.ppm", arr)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# the value check for each annotation a MetricsRecord field carries
_FIELD_CHECKS = {
    "str": lambda v: isinstance(v, str),
    "float": _is_number,
    "float | None": lambda v: v is None or _is_number(v),
    "list[float]": lambda v: isinstance(v, list) and all(map(_is_number, v)),
}


def load_metrics(path) -> list[MetricsRecord]:
    try:
        raw = json.loads(Path(path).read_text())
    except ValueError as exc:  # invalid JSON or invalid UTF-8
        raise FormatError(f"{path} is not JSON: {exc}") from exc
    if not isinstance(raw, list) or not all(isinstance(item, dict) for item in raw):
        raise FormatError(f"{path} must hold a list of metric objects")
    try:
        records = [MetricsRecord(**item) for item in raw]
    except TypeError as exc:  # a missing or unknown key
        raise FormatError(f"{path}: {exc}") from exc
    for n, record in enumerate(records):
        for f in dataclasses.fields(MetricsRecord):
            value = getattr(record, f.name)
            if not _FIELD_CHECKS[f.type](value):
                raise FormatError(f"{path}: record {n} field {f.name!r} must be {f.type}, got {value!r}")
    return records
