"""The benchmark's trace targets still name live functions of the package.

`benchmarks/tracing.py` patches functions by their dotted names; a rename
in `src` would make the benchmark report wrong outputs, so it fails here first.
"""

import importlib.util
from pathlib import Path

from dcpnet import harness, protocol as pr, scenes

from conftest import small_cfg, small_spec

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_resolve_install_and_uninstall():
    tracing = _load_tracing()
    tracer = tracing.Tracer()  # AttributeError when a target no longer exists
    assert {name for _, name, _ in tracer.sites} == {name for _, name, _ in tracing.TARGETS}

    cfg = small_cfg(request_threshold=1.0)  # every platform requests
    params = harness.init_dcp_params(cfg, seed=0)
    sample = scenes.make_sample(small_spec(), "homo-cis", 0, 0, n_platforms=2)
    tracer.install()
    try:
        res = pr.run_frame(sample, params, cfg)
    finally:
        tracer.uninstall()
    assert tracer.clean()

    total, _, calls, _ = tracer.summary()
    assert calls["protocol.run_frame"] == 1
    for phase in ("phase1_encode", "phase2_decide", "phase3_request_relevance", "phase4_grant_fuse_decode"):
        assert total[f"protocol.{phase}"] > 0
    assert tracer.counts["protocol.requests_per_frame"] == res.ledger.counts()["request"] == 2
