"""Segmentation metrics and collaboration bookkeeping."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import InputError


def confusion_matrix(predictions, targets, n_classes: int) -> np.ndarray:
    """Pooled K x K confusion matrix (rows: target class, cols: predicted)."""
    total = np.zeros((n_classes, n_classes), dtype=np.int64)
    for pred, tgt in zip(predictions, targets):
        pred = np.asarray(pred)
        tgt = np.asarray(tgt)
        if pred.shape != tgt.shape:
            raise InputError(f"prediction {pred.shape} vs target {tgt.shape}")
        if pred.min() < 0 or pred.max() >= n_classes or tgt.min() < 0 or tgt.max() >= n_classes:
            raise InputError(f"class ids outside [0, {n_classes})")
        idx = tgt.reshape(-1) * n_classes + pred.reshape(-1)
        total += np.bincount(idx, minlength=n_classes * n_classes).reshape(n_classes, n_classes)
    return total


def miou(predictions, targets, n_classes: int) -> float:
    """Mean over present classes of TP / (TP + FP + FN), pooled over the set.

    Classes absent from both predictions and targets are excluded from
    the mean.
    """
    conf = confusion_matrix(predictions, targets, n_classes)
    tp = np.diag(conf).astype(np.float64)
    fp = conf.sum(axis=0) - tp
    fn = conf.sum(axis=1) - tp
    present = (tp + fp + fn) > 0
    if not present.any():
        raise InputError("no class present in either predictions or targets")
    return float(np.mean(tp[present] / (tp + fp + fn)[present]))


def collaboration_efficiency(miou_collab: float, miou_baseline: float, comm_mbpf: float):
    """Accuracy gain per megabyte: 100 * (collab - baseline) / MBpf.

    mIoU inputs are fractions in [0, 1]; the factor 100 converts the
    gain to percentage points.  Returns None when no bytes were spent
    (the ratio is undefined, not infinite).
    """
    if comm_mbpf <= 0.0:
        return None
    return 100.0 * (miou_collab - miou_baseline) / comm_mbpf


@dataclass
class MetricsRecord:
    """One evaluated method on one dataset."""

    method: str
    miou_noisy: float                 # victim-platform mIoU over degraded frames
    miou_normal: float                # ... over clean frames
    miou_avg: float                   # ... frame-weighted over all frames
    per_platform_miou: list[float]
    comm_cost_mbpf: float
    ce: float | None = None
    detect_acc: float | None = None
    select_acc: float | None = None

    def as_dict(self) -> dict:
        return asdict(self)


def split_miou(predictions_per_frame, dataset, n_classes: int):
    """Victim-split mIoU triple (noisy, normal, frame-weighted average), each frame on its own victim."""
    noisy_p, noisy_t, normal_p, normal_t = [], [], [], []
    for preds, sample in zip(predictions_per_frame, dataset):
        pred = preds[sample.victim]
        tgt = sample.masks[sample.victim]
        if sample.degraded[sample.victim]:
            noisy_p.append(pred)
            noisy_t.append(tgt)
        else:
            normal_p.append(pred)
            normal_t.append(tgt)
    noisy = miou(noisy_p, noisy_t, n_classes) if noisy_p else float("nan")
    normal = miou(normal_p, normal_t, n_classes) if normal_p else float("nan")
    avg = miou(noisy_p + normal_p, noisy_t + normal_t, n_classes)
    return noisy, normal, avg


def selection_accuracy(states_per_frame, dataset):
    """(degradation-detection accuracy, clean-twin selection accuracy).

    Only meaningful on homo-cis data, where ground truth exists: the
    victim should request exactly when degraded, and the platform
    holding its clean view is the correct supporter.
    """
    if not dataset:
        raise InputError("empty dataset")
    detect_hits = 0
    select_hits = 0
    n_degraded = 0
    for states, sample in zip(states_per_frame, dataset):
        if sample.mode != "homo-cis" or sample.clean_twin is None:
            raise InputError("selection accuracy needs a homo-cis dataset with clean twins")
        st = states[sample.victim]
        if st.requested == sample.degraded[sample.victim]:
            detect_hits += 1
        if sample.degraded[sample.victim]:
            n_degraded += 1
            if sample.clean_twin in st.supporters:
                select_hits += 1
    detect = detect_hits / len(dataset)
    select = select_hits / n_degraded if n_degraded else None
    return detect, select
