"""Related-feature fusion: pixel-level cross-attention plus gated mixing.

Local and collaborative feature grids are embedded by 1x1 convolutions,
a row-stochastic HW x HW affinity matrix aligns every local pixel with
collaborative pixels, and the re-aligned ("related") features are mixed
into the local ones weighted by the confidence and match scores.
"""

from __future__ import annotations

import functools

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import ModelConfig
from .errors import ProtocolError, ShapeError
from .network import glorot


def init_rff_params(cfg: ModelConfig, rng: np.random.Generator) -> dict[str, Tensor]:
    """Collaboration-friendly init for the fusion pathway.

    The query/phi embeddings start tied and the value map starts at
    identity, so related features are a faithful (if blurry) copy of the
    collaborative grid from the very first step.  Without this the
    confidence gate shuts off the collaborative branch before attention
    has learned anything useful.  The two coordinate rows get a larger
    scale so attention is position-aware at init.
    """
    c, cp = cfg.feature_channels, cfg.embed_channels
    theta = glorot(rng, (c + 2, cp), c + 2, cp)
    theta.data[c:, :] *= 4.0
    return {
        "rff.theta.w": theta,
        "rff.theta.b": Tensor(np.zeros(cp)),
        "rff.phi.w": Tensor(theta.data.copy()),
        "rff.phi.b": Tensor(np.zeros(cp)),
        "rff.g.w": Tensor(np.eye(c)),
        "rff.g.b": Tensor(np.zeros(c)),
    }


@functools.lru_cache(maxsize=8)
def _coord_grid(h: int, w: int) -> np.ndarray:
    """Two channels of normalized (y, x) coordinates in [-1, 1], read-only
    because every caller shares the cached array."""
    yy, xx = np.mgrid[0:h, 0:w]
    grid = np.stack([2.0 * yy / (h - 1) - 1.0, 2.0 * xx / (w - 1) - 1.0], axis=2)
    grid.flags.writeable = False
    return grid


def embed_features(f_local: Tensor, f_collab: Tensor, params: dict[str, Tensor]):
    """Returns (theta(local), phi(collab), g(collab)).

    Normalized grid coordinates are appended to the attention inputs, so
    the embedding weights take two rows beyond the feature channels and
    affinity can condition on position as well as appearance.  The value
    map g sees the plain features.
    """
    if f_local.shape != f_collab.shape:
        raise ShapeError(f"embed: local {f_local.shape} vs collaborative {f_collab.shape}")
    h, w, c = f_local.shape
    cin = params["rff.theta.w"].shape[0]
    if cin != c + 2:
        raise ShapeError(f"embed weights take {cin} channels, features have {c} plus 2 coordinates")
    coords = Tensor(_coord_grid(h, w), requires_grad=False)
    f_local = ad.concat([f_local, coords], axis=2)
    f_collab_in = ad.concat([f_collab, coords], axis=2)
    theta_out = ad.conv1x1(f_local, params["rff.theta.w"], params["rff.theta.b"])
    phi_out = ad.conv1x1(f_collab_in, params["rff.phi.w"], params["rff.phi.b"])
    g_out = ad.conv1x1(f_collab, params["rff.g.w"], params["rff.g.b"])
    return theta_out, phi_out, g_out


def affinity(theta_out: Tensor, phi_out: Tensor) -> Tensor:
    """Row-softmax of the flattened dot products: HW x HW, rows sum to 1."""
    if theta_out.shape != phi_out.shape:
        raise ShapeError(f"affinity: {theta_out.shape} vs {phi_out.shape}")
    h, w, cp = theta_out.shape
    tf = ad.reshape(theta_out, (h * w, cp))
    pf = ad.reshape(phi_out, (h * w, cp))
    logits = ad.matmul(tf, ad.transpose2d(pf))
    return ad.softmax(logits, axis=1)


def related_feature(aff: Tensor, g_out: Tensor) -> Tensor:
    """Convex recombination of collaborative pixels: reshape(A @ g_flat)."""
    h, w, c = g_out.shape
    if aff.shape != (h * w, h * w):
        raise ShapeError(f"related: affinity {aff.shape} vs features {g_out.shape}")
    mixed = ad.matmul(aff, ad.reshape(g_out, (h * w, c)))
    return ad.reshape(mixed, (h, w, c))


def compute_related(f_local: Tensor, f_collab: Tensor, params: dict[str, Tensor]) -> Tensor:
    """Full per-candidate pass: embed, attend, recombine."""
    theta_out, phi_out, g_out = embed_features(f_local, f_collab, params)
    return related_feature(affinity(theta_out, phi_out), g_out)


def fuse(
    f_local: Tensor,
    related: dict[int, Tensor],
    confidence: Tensor,
    scores: dict[int, Tensor],
) -> Tensor:
    """Gated mix: p * local + (1 - p) * sum_j s_j * related_j.

    During centralized training the caller passes the full candidate
    score set.  At inference a platform that received no grant passes no
    scores, and its local features pass through unscaled.
    """
    if not scores:
        return f_local
    missing = [j for j in scores if j not in related]
    if missing:
        raise ProtocolError(f"no related features for scored candidates {missing}")
    out = ad.scale_by(f_local, confidence)
    complement = ad.affine(confidence, -1.0, 1.0)
    for j in sorted(scores):
        term = ad.scale_by(ad.scale_by(related[j], scores[j]), complement)
        out = ad.add(out, term)
    return out
