"""Centralized training: one forward for every method, Adam, seeded loop.

DCP-Net trains through the protocol's own two rounds, `request_match`
and `grant_fuse`, over the `lossless` wire, which keeps the graph
intact.  No gate is applied: every supervised platform requests, every
candidate grants, and the related features are weighted by the
platform's confidence and the soft match scores.  The only supervision
is the downstream segmentation loss; inference-time gating then falls
out of the learned confidence and match scores.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import baselines as bl
from . import smim
from .autodiff import Tensor
from .config import ModelConfig
from .errors import ConfigError, ContractError, InputError
from .network import decode_segmentation, encode_view
from .protocol import grant_fuse, lossless, request_match
from .scenes import SceneSample
from .tensorio import write_file

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # moment decays, denominator floor


@dataclass
class TrainConfig:
    lr: float = 2e-3
    epochs: int = 20
    batch_size: int = 2
    seed: int = 0
    supervision: str = "victim_only"   # victim_only | all_platforms

    def __post_init__(self):
        if not 0 < self.lr < np.inf:
            raise ConfigError(f"learning rate must be finite and positive, got {self.lr}")
        if self.epochs < 0:
            raise ConfigError(f"epoch count must not be negative, got {self.epochs}")
        if self.seed < 0:
            raise ConfigError(f"seed must not be negative, got {self.seed}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be at least 1, got {self.batch_size}")
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
        """One update of every parameter that has a gradient.  A non-finite
        gradient raises ContractError before any parameter, moment or the
        step count changes."""
        grads = {name: params[name].grad for name in sorted(params) if params[name].grad is not None}
        for name, g in grads.items():
            if not np.all(np.isfinite(g)):
                raise ContractError(f"non-finite gradient in parameter block {name!r}")
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        for name, g in grads.items():
            p = params[name]
            if name not in self.m:
                self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
            m, v = self.m[name], self.v[name]
            # in place, in the operation order of m = b1 * m + (1 - b1) * g
            # and v = b2 * v + (1 - b2) * g * g
            m *= ADAM_BETA1
            m += (1 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            sq = (1 - ADAM_BETA2) * g
            sq *= g
            v += sq
            # lr * mhat / (sqrt(vhat) + eps), with two temporaries
            step = m / bc1
            step *= self.cfg.lr
            den = v / bc2
            np.sqrt(den, out=den)
            den += ADAM_EPS
            step /= den
            p.data = p.data - step


def zero_grad(params: dict[str, Tensor]) -> None:
    for p in params.values():
        p.grad = None


def centralized_forward(
    sample: SceneSample,
    params: dict[str, Tensor],
    cfg: ModelConfig,
    supervision: str = "victim_only",
    method: str = "dcp-net",
    seed: int = 0,
) -> Tensor:
    """Summed cross-entropy over the supervised platforms of one sample under `method`.

    Every view is encoded first.  DCP-Net then runs the protocol's rounds
    over the `lossless` wire and fuses every candidate with soft match
    scores; a baseline fuses its regime's partners, and random selection
    draws them from (`seed`, frame, platform) as inference does.
    """
    n = sample.n_platforms
    if supervision == "victim_only":
        supervised = [sample.victim]
    elif supervision == "all_platforms":
        supervised = list(range(n))
    else:
        raise InputError(f"unknown supervision target {supervision!r}")

    feats = [encode_view(Tensor(sample.views[i], requires_grad=False), params) for i in range(n)]
    if method == "dcp-net":
        # every view's key is read by every fused platform; a query only by its own
        keys = [smim.encode_key(f, params) for f in feats]

        def fuse(i: int) -> Tensor:
            p = smim.self_confidence(smim.encode_query(feats[i], params), keys[i])
            scores = request_match(i, feats, keys, params, lossless)
            return grant_fuse(i, feats, params, p, scores, lossless)
    else:
        def fuse(i: int) -> Tensor:
            return bl.fuse_baseline(method, feats, i, bl.baseline_partners(method, sample, i, seed), params)

    loss = None
    for i in supervised:
        logits = decode_segmentation(fuse(i), params)
        term = ad.cross_entropy(logits, sample.masks[i])
        loss = term if loss is None else ad.add(loss, term)
    return loss


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
        lines = ["step,loss,val_miou"]
        lines += [f"{s},{l:.6f},{v:.6f}" for s, l, v in zip(self.steps, self.losses, self.val_mious)]
        write_file(path, ("\n".join(lines) + "\n").encode("utf-8"))


def train(
    dataset: list[SceneSample],
    params: dict[str, Tensor],
    cfg: ModelConfig,
    tcfg: TrainConfig,
    method: str = "dcp-net",
    on_epoch_end=None,
) -> LossCurve:
    """Seeded mini-batch loop of `method` ("dcp-net" or a baseline); mutates `params` in place.

    Each sample's loss is `centralized_forward` under `tcfg.supervision`
    and `tcfg.seed`.  `on_epoch_end(epoch, params)` is the hook for
    checkpointing / validation.
    """
    if method != "dcp-net" and method not in bl.BASELINES:
        raise InputError(f"unknown method {method!r}, expected dcp-net or one of {bl.BASELINES}")
    if not dataset and tcfg.epochs > 0:
        raise InputError("empty training set")
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
                loss = centralized_forward(sample, params, cfg, tcfg.supervision, method, tcfg.seed)
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
