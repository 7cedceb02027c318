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


def _load_bench_module(monkeypatch, name):
    monkeypatch.syspath_prepend(str(BENCH))  # the modules import `common` from their own folder
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_benchmark_workloads_run_a_cycle_and_match_expected_counts(tmp_path, monkeypatch):
    """One traced cycle of each workload reproduces every count of expected.json,
    each resolved per item as `run.py --trace 1` resolves it."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # run.py sets these on import; teardown restores them
    run = _load_bench_module(monkeypatch, "run")
    workloads = _load_bench_module(monkeypatch, "workloads")
    tracing = _load_tracing()
    expected = json.loads((BENCH / "expected.json").read_text())
    assert set(expected) == set(workloads.WORKLOADS)
    for name, workload_cls in workloads.WORKLOADS.items():
        tally = workloads.Tally()
        workload = workload_cls(1, tally, tmp_path)
        tracer = tracing.Tracer()
        tracer.install()
        tally.tracer = tracer
        try:
            units = workload.cycle()
        finally:
            tracer.uninstall()
            tally.tracer = None
        assert units and tracer.clean(), name
        items = sum(u[3] for u in units)
        summary = tracer.summary()
        values = {key: run.resolve(key, items, 1.0, tracer, summary) for key in expected[name]}
        c = tracer.counts
        traffic = workloads.traffic_metrics(
            c["protocol.requests_per_frame"], c["protocol.relevances_per_frame"],
            c["protocol.grants_per_frame"], c["protocol.wire_bytes_per_frame"], items,
        )
        values.update(traffic)
        values.update((key, v) for key, v in workload.guards().items() if key not in traffic)
        assert tally.failed == 0, (name, tally.problems)
        for key, want in expected[name].items():
            tolerance = run.TOLERANCE.get(key, 0)
            assert values[key] == pytest.approx(want, rel=0, abs=tolerance), (name, key)


def test_the_benchmark_frames_messages_with_the_package_header(monkeypatch):
    """The infer-collab check charges each message `WIRE_HEADER_BYTES` plus its payload."""
    workloads = _load_bench_module(monkeypatch, "workloads")
    assert pr.HEADER_BYTES == workloads.WIRE_HEADER_BYTES
    message = pr.ProtocolMessage(pr.KIND_GRANT, 1, 2, 3, b"")
    assert len(pr.serialize_message(message)) == workloads.WIRE_HEADER_BYTES
