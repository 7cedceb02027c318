"""Segmentation metrics and collaboration bookkeeping."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import InputError


def _paired(predictions, targets) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The predictions and targets as arrays, checked to pair up one to one in shape."""
    preds = [np.asarray(p) for p in predictions]
    tgts = [np.asarray(t) for t in targets]
    if not preds or len(preds) != len(tgts):
        raise InputError(f"{len(preds)} predictions vs {len(tgts)} targets (need equal, nonzero counts)")
    for pred, tgt in zip(preds, tgts):
        if pred.shape != tgt.shape:
            raise InputError(f"prediction {pred.shape} vs target {tgt.shape}")
    return preds, tgts


def confusion_stack(predictions, targets, n_classes: int) -> np.ndarray:
    """One K x K confusion matrix per (prediction, target) pair, stacked: n x K x K.

    The whole list is range-checked once and counted by one bincount.
    """
    preds, tgts = _paired(predictions, targets)
    sizes = [pred.size for pred in preds]
    ids = np.concatenate(
        [t.ravel() for t in tgts] + [p.ravel() for p in preds], dtype=np.intp, casting="same_kind"
    )
    if ids.view(np.uintp).max() >= n_classes:  # a negative id reads as a huge unsigned one
        raise InputError(f"class ids outside [0, {n_classes})")
    n = ids.size // 2
    idx = ids[:n] * n_classes
    idx += ids[n:]
    start = 0
    for i, size in enumerate(sizes):  # pair i counts into its own K * K block
        if i:
            idx[start : start + size] += i * n_classes**2
        start += size
    return np.bincount(idx, minlength=len(preds) * n_classes**2).reshape(-1, n_classes, n_classes)


def mean_ious(conf: np.ndarray) -> list[float]:
    """`miou` of each K x K matrix of an n x K x K stack."""
    tp = np.diagonal(conf, axis1=1, axis2=2).astype(np.float64)
    union = np.add.reduce(conf, axis=1) + np.add.reduce(conf, axis=2) - tp  # TP + FP + FN, exact
    present = union > 0
    ious = tp[present] / union[present]
    # np.mean's arithmetic per matrix: one add.reduce over its present
    # classes' IoUs, divided by their count
    out, start = [], 0
    for count in present.sum(axis=1).tolist():
        if not count:
            raise InputError("no class present in either predictions or targets")
        out.append(float(np.add.reduce(ious[start : start + count]) / count))
        start += count
    return out


def miou(predictions, targets, n_classes: int) -> float:
    """Mean over present classes of TP / (TP + FP + FN), pooled over the set.

    Classes absent from both predictions and targets are excluded from
    the mean.
    """
    preds, tgts = _paired(predictions, targets)
    # summed one image's stack at a time, so the index arrays stay one image in size
    return mean_ious(sum(confusion_stack([p], [t], n_classes) for p, t in zip(preds, tgts)))[0]


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
    comm_cost_mbpf: float             # grant payload MB per frame: the feature plane, CE's cost
    comm_total_mbpf: float            # every DCPM message, headers included, MB per frame
    ce: float | None = None
    detect_acc: float | None = None
    select_acc: float | None = None

    def as_dict(self) -> dict:
        return asdict(self)


def score_frames(predictions_per_frame, dataset, n_classes: int):
    """Victim-split and per-platform mIoU of a run: (noisy, normal, avg, per-platform list).

    Each frame is scored on its own victim.  All are sums over one
    F x P x K x K confusion tensor, counted one frame at a time so the
    temporaries stay one frame in size.  A split side without frames
    scores NaN.
    """
    if not dataset or len(predictions_per_frame) != len(dataset):
        raise InputError(f"{len(predictions_per_frame)} prediction lists vs {len(dataset)} frames "
                         "(need equal, nonzero counts)")
    frames = list(zip(predictions_per_frame, dataset))
    conf = np.stack([confusion_stack(preds, s.masks, n_classes) for preds, s in frames])
    victim_conf = conf[np.arange(len(frames)), [s.victim for _, s in frames]]
    degraded = [s.degraded[s.victim] for _, s in frames]
    sides = [[f for f, d in enumerate(degraded) if d], [f for f, d in enumerate(degraded) if not d]]
    split = all(sides)
    # when one side holds every frame, its sum is the all-frame sum: scored once
    pooled = [victim_conf[side].sum(axis=0, keepdims=True) for side in sides] if split else []
    scores = mean_ious(np.concatenate(pooled + [victim_conf.sum(axis=0, keepdims=True), conf.sum(axis=0)]))
    if not split:
        scores = [scores[0] if side else float("nan") for side in sides] + scores
    return scores[0], scores[1], scores[2], scores[3:]


def split_miou(predictions_per_frame, dataset, n_classes: int):
    """Victim-split mIoU triple (noisy, normal, frame-weighted average), each frame on its own victim."""
    return score_frames(predictions_per_frame, dataset, n_classes)[:3]


def selection_accuracy(states_per_frame, dataset):
    """(degradation-detection accuracy, clean-twin selection accuracy).

    Only meaningful on homo-cis data, where ground truth exists: the
    victim should request exactly when degraded, and the platform
    holding its clean view is the correct supporter.
    """
    if not dataset or len(states_per_frame) != len(dataset):
        raise InputError(f"{len(states_per_frame)} state lists vs {len(dataset)} frames (need equal, nonzero counts)")
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
