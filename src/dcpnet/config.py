"""Experiment configuration shared by the model, protocol and harness."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigError

# smallest view: its stride-8 feature grid must be at least 2 x 2, because
# RFF's coordinate channels divide by the grid's side minus one
MIN_VIEW_SIZE = 16

# class ids are held in uint8 masks and predictions
MAX_CLASSES = 256


@dataclass
class ModelConfig:
    """Shapes and thresholds for one collaborative-perception setup."""

    n_platforms: int = 4
    view_size: int = 64          # square input images, stride-8 encoder
    classes: int = 6
    feature_channels: int = 32   # C, channels of the exchanged feature maps
    encoder_channels: tuple[int, int, int] = (8, 16, 32)
    qk_dim: int = 128            # query/key vector length
    request_dim: int = 32        # compressed request length r
    embed_channels: int = 8      # C' for the cross-attention embeddings
    request_threshold: float = 0.8

    def __post_init__(self):
        if self.n_platforms < 2:
            raise ConfigError("need at least 2 platforms")
        if self.view_size < MIN_VIEW_SIZE:
            raise ConfigError(
                f"view size {self.view_size} below {MIN_VIEW_SIZE} (the fusion grid must be at least 2x2)"
            )
        if self.view_size % 8 != 0:
            raise ConfigError(f"view size {self.view_size} not divisible by 8")
        if not 2 <= self.classes <= MAX_CLASSES:
            raise ConfigError(f"{self.classes} classes outside [2, {MAX_CLASSES}]")
        if not 0.0 <= self.request_threshold <= 1.0:
            raise ConfigError(f"request threshold {self.request_threshold} outside [0, 1]")
        # r == qk_dim is allowed as the no-compression ceiling in sweeps
        if not 1 <= self.request_dim <= self.qk_dim:
            raise ConfigError(
                f"request dim {self.request_dim} outside [1, qk dim {self.qk_dim}]"
            )
        if self.embed_channels > self.feature_channels // 4:
            raise ConfigError(
                f"embed channels {self.embed_channels} must be at most a quarter of "
                f"feature channels {self.feature_channels}"
            )
        grid = self.feature_size * self.feature_size
        if grid > 256:
            raise ConfigError(
                f"fusion grid {grid} pixels exceeds the 256-pixel cap "
                f"(affinity memory grows with its square)"
            )

    @property
    def feature_size(self) -> int:
        """Spatial side of the encoder output (stride-8)."""
        return self.view_size // 8


# smallest world the painter draws: shape radii are drawn from [world // 16, world // 4)
MIN_WORLD_SIZE = 16


@dataclass
class WorldSpec:
    """Procedural world used to synthesize overlapping multi-view scenes."""

    world_size: int = 128
    view_size: int = 64
    classes: int = 6
    min_view_separation: int | None = None  # partner crops' distance; None: min(48, world - view)

    def __post_init__(self):
        if self.world_size < MIN_WORLD_SIZE:
            raise ConfigError(f"world size {self.world_size} is below {MIN_WORLD_SIZE} pixels")
        if self.view_size < 1:
            raise ConfigError(f"view size {self.view_size} is not positive")
        if self.view_size > self.world_size:
            raise ConfigError(f"view {self.view_size} larger than world {self.world_size}")
        if not 2 <= self.classes <= MAX_CLASSES:
            raise ConfigError(f"{self.classes} classes outside [2, {MAX_CLASSES}]")
        if self.min_view_separation is None:
            self.min_view_separation = min(48, self.world_size - self.view_size)
        if not 0 <= self.min_view_separation <= self.world_size - self.view_size:
            raise ConfigError(
                f"view separation {self.min_view_separation} not achievable in a "
                f"{self.world_size} world with {self.view_size} views"
            )


@dataclass
class NoiseConfig:
    """One degradation applied to a victim view."""

    kind: str = "gaussian"       # gaussian | occlusion | blur
    strength: float = 0.3        # gaussian sigma as a fraction of dynamic range

    def __post_init__(self):
        if self.kind not in ("gaussian", "occlusion", "blur"):
            raise ConfigError(f"unknown noise kind {self.kind!r}")
        if not (math.isfinite(self.strength) and self.strength >= 0):
            raise ConfigError(f"noise strength {self.strength} is not a finite value >= 0")
