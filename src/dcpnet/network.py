"""Per-platform encoder and segmentation decoder.

The encoder is a small stride-8 CNN: three stride-2 3x3 conv + relu
stages followed by a 1x1 projection to the exchange channel count.  The
decoder is a 1x1 conv to class logits plus 8x nearest-neighbor
upsampling back to image resolution.  Inference takes the class mask
before upsampling, which gives the same mask without upsampling logits.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import ModelConfig
from .errors import InputError, ShapeError


def glorot(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> Tensor:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-limit, limit, size=shape))


def bias_init(rng: np.random.Generator, size: int) -> Tensor:
    # small nonzero values keep relu pre-activations off the exact kink
    # for constant (e.g. fully occluded) input patches
    return Tensor(rng.uniform(-0.05, 0.05, size=size))


def init_encoder_params(cfg: ModelConfig, rng: np.random.Generator) -> dict[str, Tensor]:
    chans = (3,) + tuple(cfg.encoder_channels)
    params: dict[str, Tensor] = {}
    for i in range(3):
        cin, cout = chans[i], chans[i + 1]
        params[f"enc.conv{i}.w"] = glorot(rng, (3, 3, cin, cout), 9 * cin, 9 * cout)
        params[f"enc.conv{i}.b"] = bias_init(rng, cout)
    cin, cout = chans[-1], cfg.feature_channels
    params["enc.proj.w"] = glorot(rng, (cin, cout), cin, cout)
    params["enc.proj.b"] = Tensor(np.zeros(cout))
    return params


def init_decoder_params(cfg: ModelConfig, rng: np.random.Generator) -> dict[str, Tensor]:
    cin = cfg.feature_channels
    return {
        "dec.head.w": glorot(rng, (cin, cfg.classes), cin, cfg.classes),
        "dec.head.b": Tensor(np.zeros(cfg.classes)),
    }


def encode_view(image: Tensor, params: dict[str, Tensor]) -> Tensor:
    """Image H x W x 3 -> feature grid H/8 x W/8 x C."""
    h, w = image.shape[0], image.shape[1]
    if h % 8 or w % 8:
        raise InputError(f"image dims {h}x{w} not divisible by 8")
    x = image
    for i in range(3):
        x = ad.relu(ad.conv2d(x, params[f"enc.conv{i}.w"], params[f"enc.conv{i}.b"], stride=2, pad=1))
    return ad.conv1x1(x, params["enc.proj.w"], params["enc.proj.b"])


def _head(fused: Tensor, params: dict[str, Tensor]) -> Tensor:
    """Feature grid -> class logits at feature resolution."""
    if fused.data.ndim != 3:
        raise ShapeError(f"decoder expects H x W x C features, got {fused.shape}")
    return ad.conv1x1(fused, params["dec.head.w"], params["dec.head.b"])


def decode_segmentation(fused: Tensor, params: dict[str, Tensor]) -> Tensor:
    """Feature grid -> per-pixel class logits at image resolution."""
    return ad.upsample_nearest(_head(fused, params), 8)


def predict_segmentation(fused: Tensor, params: dict[str, Tensor]) -> np.ndarray:
    """Feature grid -> H x W uint8 class mask at image resolution.

    Equal to `np.argmax(decode_segmentation(fused, params).data, axis=2)`:
    nearest upsampling copies each logit vector unchanged, and both
    argmaxes pick the first maximum on ties.  `ModelConfig` caps the
    class count at 256, so every id fits a byte.
    """
    mask = np.argmax(_head(fused, params).data, axis=2).astype(np.uint8)
    return mask.repeat(8, 0).repeat(8, 1)
