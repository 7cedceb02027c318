"""Centralized training: soft all-candidate fusion, Adam, seeded loop.

During training no thresholds are applied: every supervised platform
fuses related features from all candidates, weighted by its confidence
and the soft match scores, and the only supervision is the downstream
segmentation loss.  Inference-time gating then falls out of the learned
confidence and match scores.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import rff, smim
from .autodiff import Tensor
from .config import ModelConfig
from .errors import ConfigError, ContractError, InputError
from .network import decode_segmentation, encode_view
from .scenes import SceneSample


@dataclass
class TrainConfig:
    lr: float = 2e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    epochs: int = 20
    batch_size: int = 2
    seed: int = 0
    supervision: str = "victim_only"   # victim_only | all_platforms

    def __post_init__(self):
        if self.lr <= 0:
            raise ConfigError("learning rate must be positive")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ConfigError("adam betas must lie in (0, 1)")
        if self.supervision not in ("victim_only", "all_platforms"):
            raise ConfigError(f"unknown supervision target {self.supervision!r}")


class Adam:
    """Standard Adam with bias correction; per-parameter moment state."""

    def __init__(self, cfg: TrainConfig):
        self.cfg = cfg
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0

    def step(self, params: dict[str, Tensor]) -> None:
        c = self.cfg
        self.t += 1
        bc1 = 1.0 - c.beta1**self.t
        bc2 = 1.0 - c.beta2**self.t
        for name in sorted(params):
            p = params[name]
            g = p.grad
            if g is None:
                continue
            if not np.all(np.isfinite(g)):
                raise ContractError(f"non-finite gradient in parameter block {name!r}")
            if name not in self.m:
                self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
            self.m[name] = c.beta1 * self.m[name] + (1 - c.beta1) * g
            self.v[name] = c.beta2 * self.v[name] + (1 - c.beta2) * g * g
            mhat = self.m[name] / bc1
            vhat = self.v[name] / bc2
            p.data = p.data - c.lr * mhat / (np.sqrt(vhat) + c.eps)


def zero_grad(params: dict[str, Tensor]) -> None:
    for p in params.values():
        p.grad = None


def supervised_loss(sample: SceneSample, params: dict[str, Tensor], supervision: str, fusion) -> Tensor:
    """Summed cross-entropy over the supervised platforms of one sample.

    Every view is encoded first; `fusion(feats)` then returns `fuse(i)`,
    platform i's fused feature grid.  The fusion is the only part that
    differs between DCP-Net and the baselines.
    """
    n = sample.n_platforms
    feats = [encode_view(Tensor(sample.views[i], requires_grad=False), params) for i in range(n)]
    fuse = fusion(feats)

    if supervision == "victim_only":
        supervised = [sample.victim]
    elif supervision == "all_platforms":
        supervised = list(range(n))
    else:
        raise InputError(f"unknown supervision target {supervision!r}")

    loss = None
    for i in supervised:
        logits = decode_segmentation(fuse(i), params)
        term = ad.cross_entropy(logits, sample.masks[i])
        loss = term if loss is None else ad.add(loss, term)
    return loss


def soft_fusion(feats: list[Tensor], params: dict[str, Tensor]):
    """DCP-Net's training-time fusion: every candidate, soft match scores."""
    qk = [smim.encode_query_key(f, params) for f in feats]

    def fuse(i: int) -> Tensor:
        q, k = qk[i]
        p = smim.self_confidence(q, k)
        r = smim.encode_request(feats[i], params)
        relevances = {
            j: smim.candidate_relevance(r, qk[j][1], params["smim.w_alpha"])
            for j in range(len(feats))
            if j != i
        }
        scores = smim.match_scores(relevances)
        related = {j: rff.compute_related(feats[i], feats[j], params) for j in scores}
        return rff.fuse(feats[i], related, p, scores, requested=True)

    return fuse


def centralized_forward(
    sample: SceneSample,
    params: dict[str, Tensor],
    cfg: ModelConfig,
    supervision: str = "victim_only",
) -> Tensor:
    """Soft fused loss over the supervised platforms of one sample."""
    return supervised_loss(sample, params, supervision, lambda feats: soft_fusion(feats, params))


@dataclass
class LossCurve:
    steps: list[int] = field(default_factory=list)
    losses: list[float] = field(default_factory=list)
    val_mious: list[float] = field(default_factory=list)

    def append(self, step: int, loss: float, val_miou: float = float("nan")) -> None:
        self.steps.append(step)
        self.losses.append(loss)
        self.val_mious.append(val_miou)

    def to_csv(self, path) -> None:
        from pathlib import Path

        lines = ["step,loss,val_miou"]
        lines += [f"{s},{l:.6f},{v:.6f}" for s, l, v in zip(self.steps, self.losses, self.val_mious)]
        Path(path).write_text("\n".join(lines) + "\n")


def train(
    dataset: list[SceneSample],
    params: dict[str, Tensor],
    cfg: ModelConfig,
    tcfg: TrainConfig,
    forward_fn=None,
    on_epoch_end=None,
) -> LossCurve:
    """Seeded mini-batch loop; mutates `params` in place.

    `forward_fn(sample, params, cfg, supervision) -> scalar Tensor` lets
    baseline fusion heads reuse the same harness.  `on_epoch_end(epoch,
    params)` is the hook for checkpointing / validation.
    """
    if not dataset and tcfg.epochs > 0:
        raise InputError("empty training set")
    fwd = forward_fn or centralized_forward
    opt = Adam(tcfg)
    curve = LossCurve()
    step = 0
    for epoch in range(tcfg.epochs):
        order = np.random.default_rng((tcfg.seed, epoch)).permutation(len(dataset))
        for start in range(0, len(order), tcfg.batch_size):
            batch = [dataset[i] for i in order[start : start + tcfg.batch_size]]
            zero_grad(params)
            total = 0.0
            for sample in batch:
                loss = fwd(sample, params, cfg, tcfg.supervision)
                ad.backward(loss)
                total += loss.item()
            for p in params.values():
                if p.grad is not None:
                    p.grad /= len(batch)
            opt.step(params)
            step += 1
            curve.append(step, total / len(batch))
        if on_epoch_end is not None:
            on_epoch_end(epoch, params)
    return curve
