"""Shared fixtures: the two budgeted toy runs are trained once per session."""

import time

import pytest

from dcpnet import harness
from dcpnet.config import ModelConfig, WorldSpec

NOISE = dict(noise_kinds=("gaussian", "occlusion"), noise_strength=0.72)
TRAIN_SEED = 7
VAL_SEED = 1007


def small_cfg(**overrides) -> ModelConfig:
    """Tiny model for fast structural tests."""
    base = dict(
        n_platforms=2, view_size=16, classes=3,
        feature_channels=8, encoder_channels=(4, 4, 8),
        qk_dim=8, request_dim=4, embed_channels=2,
    )
    base.update(overrides)
    return ModelConfig(**base)


def small_spec(**overrides) -> WorldSpec:
    base = dict(world_size=32, view_size=16, classes=3, min_view_separation=0)
    base.update(overrides)
    return WorldSpec(**base)


@pytest.fixture(scope="session")
def toy_cis():
    """Homo-CIS budgeted run: DCP-Net and No-Interaction, identically trained."""
    t0 = time.time()
    run = harness.run_experiment("homo-cis", seed=TRAIN_SEED)
    return {
        "cfg": run.cfg, "params": run.params["dcp-net"],
        "dcp": run.records["dcp-net"], "ni": run.records["no-interaction"],
        "train_seconds": time.time() - t0,
    }


@pytest.fixture(scope="session")
def toy_pis():
    """Homo-PIS budgeted run: all implemented methods on the same data."""
    run = harness.run_experiment("homo-pis", seed=TRAIN_SEED)
    return {"cfg": run.cfg, "records": run.records}
