"""Build the trained checkpoint that the inference and sweep workloads load.

It trains DCP-Net exactly as the `toy_cis` test fixture does (default
ModelConfig, 512 homo-cis frames, 20 epochs, seed 7), so its confidence
and match scores, and therefore its traffic, look like a trained model's.
Run it once from the repository root; it takes a few minutes on one core:

    OPENBLAS_NUM_THREADS=1 python3 benchmarks/make_checkpoint.py

Later changes to the training code do not move inference traffic, because
the workloads read the stored tensors instead of retraining.
"""

from __future__ import annotations

import shutil
import time

from common import CHECKPOINT_DIR, NOISE, TRAIN_SEED, import_dcpnet


def main() -> None:
    import_dcpnet()
    from dcpnet import harness, scenes, training
    from dcpnet.config import ModelConfig, WorldSpec

    cfg = ModelConfig()
    train_set = scenes.make_dataset(WorldSpec(), "homo-cis", 512, seed=TRAIN_SEED, **NOISE)
    params = harness.init_dcp_params(cfg, seed=TRAIN_SEED)
    t0 = time.perf_counter()
    training.train(train_set, params, cfg, training.TrainConfig(seed=TRAIN_SEED))
    print(f"trained in {time.perf_counter() - t0:.1f} s")
    if CHECKPOINT_DIR.exists():
        shutil.rmtree(CHECKPOINT_DIR)
    harness.save_checkpoint(params, CHECKPOINT_DIR)
    print(f"wrote {CHECKPOINT_DIR}")


if __name__ == "__main__":
    main()
