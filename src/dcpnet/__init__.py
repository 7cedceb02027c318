"""Distributed collaborative perception on a synthetic multi-view world.

Submodules:

* autodiff  — small reverse-mode tensor engine (float64)
* network   — toy stride-8 encoder and segmentation decoder
* smim      — request / supporter-selection matching
* rff       — cross-attention related-feature fusion
* scenes    — procedural multi-view dataset factory
* protocol  — round-based message passing with byte accounting
* training  — one training forward for every method, Adam loop
* metrics, baselines, harness, reports — evaluation workbench
* cli       — `dcpnet` command-line interface
"""

from .autodiff import Tensor, backward, grad_check
from .config import ModelConfig, NoiseConfig, WorldSpec
from .errors import (
    ConfigError,
    ContractError,
    DcpError,
    FormatError,
    InputError,
    ProtocolError,
    ShapeError,
)
from .training import TrainConfig

__all__ = [
    "Tensor",
    "backward",
    "grad_check",
    "ModelConfig",
    "WorldSpec",
    "NoiseConfig",
    "TrainConfig",
    "DcpError",
    "ShapeError",
    "ContractError",
    "InputError",
    "ConfigError",
    "FormatError",
    "ProtocolError",
]

__version__ = "0.1.0"
