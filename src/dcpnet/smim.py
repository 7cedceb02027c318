"""Self/mutual information matching: when to ask for help and whom to ask.

Each platform pools its feature grid into a vector, encodes query and
key, and scores its own information sufficiency as sigmoid(q . k).  A
platform below the request threshold broadcasts a compressed request;
candidates reply with a relevance logit computed against their own key,
and the requester softmax-normalizes the replies into match scores.
Candidates scoring above 1/(N-1) become supporters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import ModelConfig
from .errors import ProtocolError, ShapeError
from .network import glorot


@dataclass
class SmimState:
    """Per-platform decision state for one frame."""

    confidence: float = 0.0          # p_i = sigmoid(q . k)
    scores: dict[int, float] = field(default_factory=dict)
    requested: bool = False
    supporters: frozenset[int] = frozenset()


def init_smim_params(cfg: ModelConfig, rng: np.random.Generator) -> dict[str, Tensor]:
    """Query/key weights start small so confidence begins near 0.5 instead
    of a saturated sigmoid; the match projection starts at zero so match
    scores begin uniform and only accumulate loss-driven correlation."""
    c, k, r = cfg.feature_channels, cfg.qk_dim, cfg.request_dim
    q_w = glorot(rng, (c, k), c, k)
    k_w = glorot(rng, (c, k), c, k)
    q_w.data *= 0.02
    k_w.data *= 0.02
    return {
        "smim.q.w": q_w,
        "smim.q.b": Tensor(np.zeros(k)),
        "smim.k.w": k_w,
        "smim.k.b": Tensor(np.zeros(k)),
        "smim.r.w": glorot(rng, (c, r), c, r),
        "smim.r.b": Tensor(np.zeros(r)),
        "smim.w_alpha": Tensor(np.zeros((r, k))),
    }


def _pool(feat: Tensor, w: Tensor) -> Tensor:
    """Global-average-pool an H x W x C grid into a 1 x C row."""
    if feat.data.ndim != 3 or feat.shape[2] != w.shape[0]:
        raise ShapeError(f"pooled encoder: feature {feat.shape} vs weight {w.shape}")
    return ad.reshape(ad.mean_over(feat, (0, 1)), (1, w.shape[0]))


def _pool_encode(feat: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Global-average-pool an H x W x C grid, then one linear map."""
    pooled = _pool(feat, w)
    return ad.reshape(ad.add(ad.matmul(pooled, w), ad.reshape(b, (1, w.shape[1]))), (w.shape[1],))


def encode_query(feat: Tensor, params: dict[str, Tensor]) -> Tensor:
    return _pool_encode(feat, params["smim.q.w"], params["smim.q.b"])


def encode_key(feat: Tensor, params: dict[str, Tensor]) -> Tensor:
    return _pool_encode(feat, params["smim.k.w"], params["smim.k.b"])


def encode_query_key(feat: Tensor, params: dict[str, Tensor]) -> tuple[Tensor, Tensor]:
    """`(encode_query(feat), encode_key(feat))` with equal bits, pooling the grid once.

    Each head adds its bias after the reshape, one op fewer than
    `_pool_encode`; training keeps `_pool_encode`, so its graph keeps its
    node count.
    """
    q_w, q_b = params["smim.q.w"], params["smim.q.b"]
    k_w, k_b = params["smim.k.w"], params["smim.k.b"]
    pooled = _pool(feat, q_w)
    q = ad.add(ad.reshape(ad.matmul(pooled, q_w), q_b.shape), q_b)
    k = ad.add(ad.reshape(ad.matmul(pooled, k_w), k_b.shape), k_b)
    return q, k


def self_confidence(q: Tensor, k: Tensor) -> Tensor:
    """sigmoid(q . k): probability that local information suffices."""
    if q.shape != k.shape:
        raise ShapeError(f"confidence: query {q.shape} vs key {k.shape}")
    return ad.sigmoid(ad.sum_all(ad.mul(q, k)))


def decide_request(confidence: float, cfg: ModelConfig) -> bool:
    """Request collaboration unless confidence exceeds the threshold.

    The boundary confidence == threshold requests: only a confidence
    strictly above the threshold keeps the platform silent.
    """
    return not confidence > cfg.request_threshold


def encode_request(feat: Tensor, params: dict[str, Tensor]) -> Tensor:
    return _pool_encode(feat, params["smim.r.w"], params["smim.r.b"])


def candidate_relevance(r: Tensor, k_j: Tensor, w_alpha: Tensor) -> Tensor:
    """Unnormalized match logit r^T W_alpha k_j, computed candidate-side."""
    if r.shape[0] != w_alpha.shape[0] or k_j.shape[0] != w_alpha.shape[1]:
        raise ShapeError(
            f"relevance: request {r.shape}, projection {w_alpha.shape}, key {k_j.shape}"
        )
    proj = ad.matmul(ad.reshape(r, (1, r.shape[0])), w_alpha)
    return ad.reshape(ad.matmul(proj, ad.reshape(k_j, (k_j.shape[0], 1))), ())


def match_scores(relevances: dict[int, Tensor]) -> dict[int, Tensor]:
    """Softmax the relevance replies into mutual-information match scores."""
    if not relevances:
        raise ProtocolError("match scores requested with no candidate replies")
    ids = sorted(relevances)
    logits = ad.concat([ad.reshape(relevances[j], (1,)) for j in ids], axis=0)
    probs = ad.softmax(logits, axis=0)
    return {j: ad.take1d(probs, i) for i, j in enumerate(ids)}


def select_supporters(scores: dict[int, float], n_platforms: int) -> frozenset[int]:
    """Candidates of a requesting platform whose score strictly exceeds 1/(N-1).

    With N=2 the threshold is 1.0 and the sole candidate's score is
    exactly 1, which can never strictly exceed it; in that degenerate
    case the sole candidate is selected.
    """
    thresh = 1.0 / (n_platforms - 1)
    chosen = frozenset(j for j, s in scores.items() if s > thresh)
    if not chosen and n_platforms == 2 and len(scores) == 1:
        chosen = frozenset(scores)
    return chosen
