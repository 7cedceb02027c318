"""Reference fusion policies trained and run like DCP-Net.

Each baseline owns its fusion head, `fuse_baseline`.
`training.centralized_forward` trains it with the shared loop, and
`protocol.run_frame` runs it on the victim platform with the same byte
accounting as the full protocol (centralized policies pull all candidate
features, random selection pulls exactly one, no-interaction pulls none).
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import ModelConfig
from .errors import InputError
from .network import glorot
from .scenes import SceneSample

BASELINES = ("no-interaction", "concat-all", "aux-view-attention", "random-selection")


def init_head_params(kind: str, cfg: ModelConfig, rng: np.random.Generator) -> dict[str, Tensor]:
    """The fusion head of baseline `kind`; only concat-all has parameters of its own."""
    if kind not in BASELINES:
        raise InputError(f"unknown baseline {kind!r}")
    if kind != "concat-all":
        return {}
    cin = cfg.n_platforms * cfg.feature_channels
    return {"cat.reduce.w": glorot(rng, (cin, cfg.feature_channels), cin, cfg.feature_channels),
            "cat.reduce.b": Tensor(np.zeros(cfg.feature_channels))}


def _pooled_attention_weights(feats: list[Tensor], i: int) -> list[Tensor]:
    """Softmax over platforms of pooled dot products with the local feature."""
    pools = [ad.mean_over(f, (0, 1)) for f in feats]
    logits = ad.concat(
        [ad.reshape(ad.sum_all(ad.mul(pools[i], p)), (1,)) for p in pools], axis=0
    )
    probs = ad.softmax(logits, axis=0)
    return [ad.take1d(probs, j) for j in range(len(feats))]


def baseline_partners(kind: str, sample: SceneSample, i: int, seed: int = 0) -> list[int]:
    """Platforms whose features platform i pulls under a baseline regime.

    Random selection draws its one partner from (seed, frame, i), so
    training and inference pick the same partner for the same frame.
    """
    if seed < 0:
        raise InputError(f"seed must not be negative, got {seed}")
    others = [j for j in range(sample.n_platforms) if j != i]
    if kind == "no-interaction":
        return []
    if kind in ("concat-all", "aux-view-attention"):
        return others
    if kind == "random-selection":
        rng = np.random.default_rng((seed, sample.frame, i))
        return [others[int(rng.integers(0, len(others)))]]
    raise InputError(f"unknown baseline {kind!r}")


def fuse_baseline(kind: str, feats: list[Tensor], i: int, partners: list[int], params) -> Tensor:
    """Platform i's fused feature grid under baseline `kind`, given the partners it pulls."""
    if kind == "no-interaction":
        return feats[i]
    if kind == "concat-all":
        cat = ad.concat([feats[i]] + [feats[j] for j in partners], axis=2)
        return ad.conv1x1(cat, params["cat.reduce.w"], params["cat.reduce.b"])
    if kind == "aux-view-attention":
        members = sorted([i] + partners)
        weights = _pooled_attention_weights([feats[j] for j in members], members.index(i))
        out = None
        for j, w in zip(members, weights):
            term = ad.scale_by(feats[j], w)
            out = term if out is None else ad.add(out, term)
        return out
    if kind == "random-selection":
        return ad.add(feats[i], feats[partners[0]])
    raise InputError(f"unknown baseline {kind!r}")

