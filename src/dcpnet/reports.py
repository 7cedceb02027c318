"""Report files: metrics.json, a method-comparison CSV table, PGM/PPM dumps."""

from __future__ import annotations

import dataclasses
import json
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
    """Binary (P5) grayscale image from values in [0, 1], scaled in float64
    whatever their dtype, so a float32 image writes its widening's bytes."""
    gray = (np.clip(np.asarray(image, dtype=np.float64), 0.0, 1.0) * 255).round().astype(np.uint8)
    h, w = gray.shape
    write_file(path, f"P5\n{w} {h}\n255\n".encode() + gray.tobytes())


def write_ppm(path, image: np.ndarray) -> None:
    """Binary (P6) color image from values in [0, 1], scaled in float64 as in `write_pgm`."""
    rgb = (np.clip(np.asarray(image, dtype=np.float64), 0.0, 1.0) * 255).round().astype(np.uint8)
    h, w, _ = rgb.shape
    write_file(path, f"P6\n{w} {h}\n255\n".encode() + rgb.tobytes())


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
