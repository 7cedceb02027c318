"""Experiment harness: parameter bundles, training and evaluation per method,
budgeted experiments, ablation sweeps."""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import baselines as bl
from . import metrics as mt
from . import protocol as pr
from . import scenes
from .autodiff import Tensor
from .config import ModelConfig, WorldSpec
from .errors import ConfigError, InputError
from .network import init_decoder_params, init_encoder_params
from .rff import init_rff_params
from .scenes import SceneSample
from .smim import init_smim_params
from .tensorio import load_tensor_dict, save_tensor_dict
from .training import TrainConfig, train


def init_params(method: str, cfg: ModelConfig, seed: int) -> dict[str, Tensor]:
    """Fresh parameters for DCP-Net ("dcp-net") or one of the baselines: the shared
    encoder and decoder, then the method's own heads, all drawn from one seeded RNG."""
    rng = np.random.default_rng(seed)
    params = init_encoder_params(cfg, rng)
    params.update(init_decoder_params(cfg, rng))
    if method == "dcp-net":
        params.update(init_smim_params(cfg, rng))
        params.update(init_rff_params(cfg, rng))
    else:
        params.update(bl.init_head_params(method, cfg, rng))
    return params


def init_dcp_params(cfg: ModelConfig, seed: int) -> dict[str, Tensor]:
    """`init_params` of DCP-Net."""
    return init_params("dcp-net", cfg, seed)


def save_checkpoint(params: dict[str, Tensor], dirpath) -> None:
    save_tensor_dict(dirpath, {k: v.data for k, v in params.items()})


def load_checkpoint(dirpath) -> dict[str, Tensor]:
    return {k: Tensor(v) for k, v in load_tensor_dict(dirpath).items()}


def model_config(dataset: list[SceneSample], **flags) -> ModelConfig:
    """A config with the platform count, view size and class count of `dataset`, plus `flags`."""
    if not dataset:
        raise InputError("the dataset holds no samples")
    first = dataset[0]
    return ModelConfig(n_platforms=first.n_platforms, view_size=first.views[0].shape[0],
                       classes=first.classes, **flags)


def load_model(method: str, dataset: list[SceneSample], dirpath) -> tuple[ModelConfig, dict[str, Tensor]]:
    """The `method` model of `dataset` stored in `dirpath`, request size read from `smim.r.w`.

    Keys and shapes must match a fresh `method` init for that configuration."""
    params = load_checkpoint(dirpath)
    r = params.get("smim.r.w")
    flags = {"request_dim": r.shape[1]} if r is not None and r.data.ndim == 2 else {}
    cfg = model_config(dataset, **flags)
    fresh = init_params(method, cfg, seed=0)
    for key in sorted(params.keys() | fresh.keys()):
        got = params[key].shape if key in params else "missing"
        want = fresh[key].shape if key in fresh else "missing"
        if got != want:
            raise ConfigError(
                f"checkpoint {dirpath} does not fit the {method} model of the dataset: "
                f"{key!r} is {got}, the dataset needs {want}"
            )
    return cfg, params


def train_method(method: str, train_set: list[SceneSample], cfg: ModelConfig, tcfg: TrainConfig):
    """Fresh init plus the shared training loop; returns (params, loss curve)."""
    params = init_params(method, cfg, tcfg.seed)
    return params, train(train_set, params, cfg, tcfg, method)


def evaluate(
    method: str,
    dataset: list[SceneSample],
    params: dict[str, Tensor],
    cfg: ModelConfig,
    baseline_avg_miou: float | None = None,
    seed: int = 0,
) -> tuple[mt.MetricsRecord, list[pr.FrameResult]]:
    """Run every frame of `dataset` under `method` through the protocol: the victim-split,
    per-platform, feature-only and total MBpf metrics, CE of the feature-only MBpf against
    `baseline_avg_miou`, DCP-Net's detect/select accuracy on homo-cis data, and the frame results."""
    if not dataset:
        raise InputError(f"cannot evaluate {method} on an empty dataset")
    results = [pr.run_frame(s, params, cfg, method, seed) for s in dataset]
    preds = [r.predictions for r in results]
    noisy, normal, avg, per_platform = mt.score_frames(preds, dataset, cfg.classes)
    ledger = pr.CommLedger([e for r in results for e in r.ledger.entries])
    comm, total = (pr.mbpf(ledger, len(dataset), mode) for mode in ("feature_only", "total"))
    ce = None if baseline_avg_miou is None else mt.collaboration_efficiency(avg, baseline_avg_miou, comm)
    record = mt.MetricsRecord(method, noisy, normal, avg, per_platform, comm, total, ce)
    if method == "dcp-net" and dataset[0].mode == "homo-cis":
        record.detect_acc, record.select_acc = mt.selection_accuracy([r.states for r in results], dataset)
    return record, results


def evaluate_dcp(dataset, params, cfg, baseline_avg_miou=None):
    """`evaluate` of DCP-Net: the sweeps score through it, and the benchmark traces it by name."""
    return evaluate("dcp-net", dataset, params, cfg, baseline_avg_miou)


# the methods each budgeted experiment compares; the first is the CE referent
EXPERIMENT_METHODS = {
    "homo-cis": ("no-interaction", "dcp-net"),
    "homo-pis": bl.BASELINES + ("dcp-net",),
}


@dataclass
class Experiment:
    """What `run_experiment` trained and measured, keyed by method."""

    cfg: ModelConfig
    val_set: list[SceneSample]
    params: dict[str, dict[str, Tensor]]
    records: dict[str, mt.MetricsRecord]
    results: dict[str, list[pr.FrameResult]]


def run_experiment(
    mode: str,
    train_samples: int = 512,
    val_samples: int = 128,
    seed: int = 7,
    noise_strength: float | None = None,
) -> Experiment:
    """Train and evaluate every method of `mode` on the same data and budget.

    homo-cis compares No-Interaction and DCP-Net on the default world;
    homo-pis compares every method on a dense-overlap 80 px world.  The
    validation set is seeded with `seed + 1000`.  A `noise_strength` of
    None keeps `make_sample`'s.
    """
    if mode not in EXPERIMENT_METHODS:
        raise InputError(f"unknown experiment {mode!r}, expected one of {tuple(EXPERIMENT_METHODS)}")
    if train_samples < 1 or val_samples < 1:
        raise InputError(
            f"an experiment needs samples to train and validate on, got {train_samples} and {val_samples}"
        )
    spec = WorldSpec() if mode == "homo-cis" else WorldSpec(world_size=80, min_view_separation=0)
    noise = {} if noise_strength is None else {"noise_strength": noise_strength}
    train_set = scenes.make_dataset(spec, mode, train_samples, seed=seed, **noise)
    cfg = model_config(train_set)
    val_set = scenes.make_dataset(spec, mode, val_samples, seed=seed + 1000, **noise)
    tcfg = TrainConfig(seed=seed)
    run = Experiment(cfg, val_set, {}, {}, {})
    referent = None
    for method in EXPERIMENT_METHODS[mode]:
        params, _ = train_method(method, train_set, cfg, tcfg)
        record, results = evaluate(method, val_set, params, cfg, referent, seed=seed)
        if referent is None:
            referent = record.miou_avg
        run.params[method], run.records[method], run.results[method] = params, record, results
    return run


@dataclass
class SweepRow:
    request_dim: int
    knob: float  # the request threshold
    avg_miou: float
    comm_mbpf: float
    ce: float | None


def sweep_request_threshold(
    dataset: list[SceneSample],
    params: dict[str, Tensor],
    cfg: ModelConfig,
    grid=None,
) -> list[SweepRow]:
    """One inference pass per threshold over shared trained parameters, with each row's CE
    against the same checkpoint's local decode: every platform alone, nothing sent."""
    grid = [round(0.1 * i, 1) for i in range(11)] if grid is None else list(grid)
    if not grid or not all(0 <= t <= 1 for t in grid):  # NaN fails both comparisons
        raise InputError(f"threshold grid {grid} must hold values in [0, 1]")
    local, _ = evaluate("no-interaction", dataset, params, cfg)
    rows = []
    for thresh in grid:
        record, _ = evaluate_dcp(dataset, params, replace(cfg, request_threshold=thresh), local.miou_avg)
        rows.append(SweepRow(cfg.request_dim, thresh, record.miou_avg, record.comm_cost_mbpf, record.ce))
    return rows


def sweep_rows_to_csv(rows: list[SweepRow], path) -> None:
    lines = ["request_dim,threshold,avg_miou,mbpf,ce"]
    for row in rows:
        ce = "" if row.ce is None else f"{row.ce:.6f}"
        lines.append(f"{row.request_dim},{row.knob},{row.avg_miou:.6f},{row.comm_mbpf:.6f},{ce}")
    Path(path).write_text("\n".join(lines) + "\n")
