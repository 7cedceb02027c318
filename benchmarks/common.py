"""Settings shared by the benchmark runner and the checkpoint builder."""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHECKPOINT_DIR = BENCH_DIR / "checkpoint"
EXPECTED_PATH = BENCH_DIR / "expected.json"

# the degradation settings and seeds of tests/conftest.py (toy_cis fixture)
NOISE = dict(noise_kinds=("gaussian", "occlusion"), noise_strength=0.72)
TRAIN_SEED = 7
VAL_SEED = 1007


def import_dcpnet():
    """Import dcpnet from this checkout's `src`, never from elsewhere.

    Exits with status 2 when the checkout has no `src/dcpnet`, so a copy
    holding only the benchmark fails before it measures anything.
    """
    init = SRC / "dcpnet" / "__init__.py"
    if not init.is_file():
        print(f"benchmark: no dcpnet sources at {init}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import dcpnet

    if Path(dcpnet.__file__).resolve() != init.resolve():
        print(f"benchmark: imported dcpnet from {dcpnet.__file__}, not {init}", file=sys.stderr)
        raise SystemExit(2)
    return dcpnet
