"""The benchmark still runs against the package's public API.

`benchmarks/tracing.py` patches functions by their dotted names and
`benchmarks/workloads.py` calls and reads the package by name; a rename
in `src` would make the benchmark fail or report wrong outputs, so it
fails here first.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from dcpnet import harness, protocol as pr, scenes

from conftest import small_cfg, small_spec

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"
TRACING = BENCH / "tracing.py"


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


def _load_workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # workloads.py imports `common` from its own folder
    spec = importlib.util.spec_from_file_location("benchmark_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_benchmark_workloads_run_a_cycle_and_match_expected_counts(tmp_path, monkeypatch):
    workloads = _load_workloads(monkeypatch)
    expected = json.loads((BENCH / "expected.json").read_text())["infer-collab"]
    for name, workload_cls in workloads.WORKLOADS.items():
        tally = workloads.Tally()
        workload = workload_cls(1, tally, tmp_path)
        assert workload.cycle(), name
        guards = workload.guards()
        assert tally.failed == 0, (name, tally.problems)
        if name == "infer-collab":
            assert "protocol.wire_bytes_per_frame" in guards and "metrics.victim_miou" in guards
            for key, value in guards.items():
                tolerance = 0.005 if key == "metrics.victim_miou" else 0
                assert value == pytest.approx(expected[key], rel=0, abs=tolerance), key
