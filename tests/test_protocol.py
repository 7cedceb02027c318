"""Wire format, ledger accounting, and frame execution."""

import ast
import dataclasses
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from dcpnet import autodiff as ad
from dcpnet import baselines as bl
from dcpnet import harness, protocol as pr, rff, scenes, training
from dcpnet.autodiff import Tensor
from dcpnet.errors import ProtocolError
from dcpnet.network import decode_segmentation, encode_view, predict_segmentation

from conftest import small_cfg, small_spec


def test_message_round_trip_and_header_layout():
    vec = np.arange(4, dtype=np.float32)
    msg = pr.ProtocolMessage(pr.KIND_REQUEST, 2, 5, 77, vec.astype("<f4").tobytes())
    buf = pr.serialize_message(msg)
    assert buf[:4] == b"DCPM"
    assert len(buf) == pr.HEADER_BYTES + 16
    back = pr.parse_message(buf)
    assert (back.kind, back.src, back.dst, back.frame) == (pr.KIND_REQUEST, 2, 5, 77)
    assert np.array_equal(np.frombuffer(back.payload, dtype="<f4"), vec)


def test_serialize_rejects_unknown_kind():
    with pytest.raises(ProtocolError):
        pr.serialize_message(pr.ProtocolMessage(9, 0, 0, 0, b""))


def test_relevance_payload_is_one_float():
    ledger = pr.CommLedger()
    got = pr.transmit(ledger, pr.KIND_RELEVANCE, 1, 0, 3, 0.25)
    assert ledger.entries == [(3, 1, 0, pr.KIND_RELEVANCE, pr.HEADER_BYTES + 4)]
    assert got.shape == () and got.dtype == np.float64 and got == 0.25


def test_feature_payload_round_trip():
    feat = np.random.default_rng(0).normal(size=(2, 2, 3)).astype(np.float32)
    out = pr.transmit(pr.CommLedger(), pr.KIND_GRANT, 0, 1, 0, feat)
    assert np.array_equal(out, feat.astype(np.float64))
    assert out.dtype == np.float64 and out is not feat


@pytest.mark.parametrize("kind, values", [
    (pr.KIND_REQUEST, np.random.default_rng(1).normal(size=4)),
    (pr.KIND_RELEVANCE, np.float64(1 / 3)),
    (pr.KIND_GRANT, np.random.default_rng(2).normal(size=(2, 2, 3))),
], ids=["request", "relevance", "grant"])
def test_transmit_charges_and_delivers_what_the_codec_carries(kind, values):
    ledger = pr.CommLedger()
    got = pr.transmit(ledger, kind, 3, 1, 9, values)
    buf = pr.serialize_message(pr.ProtocolMessage(kind, 3, 1, 9, np.asarray(values, "<f4").tobytes()))
    assert ledger.entries == [(9, 3, 1, kind, len(buf))]
    parsed = np.frombuffer(pr.parse_message(buf).payload, dtype="<f4").astype(np.float64)
    assert got.shape == np.shape(values) and got.dtype == np.float64
    assert np.array_equal(got.ravel(), parsed)


def test_a_relevance_beyond_float32_is_a_protocol_error():
    cfg = small_cfg(n_platforms=3, request_threshold=1.0)  # every platform requests
    params = harness.init_dcp_params(cfg, seed=0)
    params["smim.w_alpha"] = Tensor(np.full_like(params["smim.w_alpha"].data, 1e300))
    sample = scenes.make_sample(small_spec(), "homo-cis", 0, 0, n_platforms=3)
    with np.errstate(over="ignore"), pytest.raises(ProtocolError, match="relevance from 1 to 0 in frame 0"):
        pr.run_frame(sample, params, cfg)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, 1e39])
def test_transmit_rejects_a_value_float32_cannot_carry(value):
    ledger = pr.CommLedger()
    with np.errstate(over="ignore"), pytest.raises(ProtocolError, match="grant from 2 to 0 in frame 5"):
        pr.transmit(ledger, pr.KIND_GRANT, 2, 0, 5, np.array([[0.5, value], [1.0, 2.0]]))
    assert ledger.entries == []


def test_ledger_counts_and_accounting_modes():
    ledger = pr.CommLedger()
    pr.transmit(ledger, pr.KIND_REQUEST, 0, 1, 0, np.zeros(4, dtype=np.float32))
    pr.transmit(ledger, pr.KIND_RELEVANCE, 1, 0, 0, 0.5)
    pr.transmit(ledger, pr.KIND_GRANT, 1, 0, 0, np.zeros((2, 2, 3), dtype=np.float32))
    assert ledger.counts() == {"request": 1, "relevance": 1, "grant": 1}
    assert ledger.feature_payload_bytes == 48
    assert ledger.total_wire_bytes == (pr.HEADER_BYTES * 3) + 16 + 4 + 48
    assert pr.mbpf(ledger, 2, "feature_only") == 24 / 2**20
    assert pr.mbpf(ledger, 2, "total") == ledger.total_wire_bytes / 2 / 2**20
    with pytest.raises(ProtocolError):
        pr.mbpf(ledger, 0)
    with pytest.raises(ProtocolError):
        pr.mbpf(ledger, 1, "bogus")


def test_run_frame_message_pattern():
    cfg = small_cfg(n_platforms=3, request_threshold=1.0)   # everyone asks
    spec = small_spec()
    params = harness.init_dcp_params(cfg, seed=0)
    # the zero matching init gives exactly uniform scores (never strictly
    # above threshold); randomize it so some candidate wins
    rng = np.random.default_rng(0)
    params["smim.w_alpha"].data = rng.normal(size=params["smim.w_alpha"].shape) * 100.0
    sample = scenes.make_sample(spec, "homo-cis", 0, 0, n_platforms=3)
    res = pr.run_frame(sample, params, cfg)
    counts = res.ledger.counts()
    # every platform requests from both candidates and receives replies
    assert counts["request"] == 6
    assert counts["relevance"] == 6
    assert counts["grant"] >= 1
    for st in res.states:
        assert st.requested
        assert abs(sum(st.scores.values()) - 1.0) < 1e-6


@pytest.mark.parametrize("method", ["dcp-net", "concat-all", "random-selection"])
def test_every_message_of_a_frame_goes_through_transmit(monkeypatch, method):
    cfg = small_cfg(n_platforms=3, request_threshold=1.0)
    params = harness.init_params(method, cfg, seed=0)
    sample = scenes.make_sample(small_spec(), "homo-cis", 0, 0, n_platforms=3)
    sent, transmit = [], pr.transmit

    def spy(ledger, kind, src, dst, frame, values):
        sent.append((frame, src, dst, kind))
        return transmit(ledger, kind, src, dst, frame, values)

    monkeypatch.setattr(pr, "transmit", spy)
    res = pr.run_frame(sample, params, cfg, method)
    assert sent and sent == [e[:4] for e in res.ledger.entries]


@pytest.mark.parametrize("method", ["dcp-net", "concat-all"])
def test_fusion_receives_the_float32_rounded_partner_grids(monkeypatch, method):
    cfg = small_cfg(n_platforms=3, request_threshold=1.0)
    params = harness.init_params(method, cfg, seed=0)
    if method == "dcp-net":  # scores that are not uniform, so some candidate is granted
        params["smim.w_alpha"].data = np.random.default_rng(0).normal(size=params["smim.w_alpha"].shape) * 100.0
    sample = scenes.make_sample(small_spec(), "homo-cis", 0, 0, n_platforms=3)
    feats = [encode_view(Tensor(v), params).data for v in sample.views]
    received = []  # (local grid, collaborative grid) of every pull, in the order fusion got them
    if method == "dcp-net":
        compute_related = rff.compute_related

        def spy(f_local, f_collab, p):
            received.append((f_local.data, f_collab.data))
            return compute_related(f_local, f_collab, p)

        monkeypatch.setattr(rff, "compute_related", spy)
    else:
        fuse_baseline = bl.fuse_baseline

        def spy(kind, pulled, i, partners, p):
            received.extend((pulled[i].data, pulled[j].data) for j in partners)
            return fuse_baseline(kind, pulled, i, partners, p)

        monkeypatch.setattr(bl, "fuse_baseline", spy)
    res = pr.run_frame(sample, params, cfg, method)
    if method == "dcp-net":
        pulls = [(i, j) for i, st in enumerate(res.states) for j in sorted(st.supporters)]
    else:
        pulls = [(sample.victim, j) for j in bl.baseline_partners(method, sample, sample.victim)]
    assert pulls and len(received) == len(pulls) == res.ledger.counts()["grant"]
    for (i, j), (local, collab) in zip(pulls, received):
        rounded = feats[j].astype(np.float32).astype(np.float64)
        assert not np.array_equal(rounded, feats[j])  # the rounding shows in these grids
        assert collab.dtype == np.float64 and collab.tobytes() == rounded.tobytes(), (i, j)
        assert local.tobytes() == feats[i].tobytes(), (i, j)  # the local grid does not cross the wire


def test_no_requests_means_no_bytes_and_local_predictions():
    cfg = small_cfg(request_threshold=0.0)
    spec = small_spec()
    params = harness.init_dcp_params(cfg, seed=0)
    sample = scenes.make_sample(spec, "homo-cis", 0, 0, n_platforms=2)
    res = pr.run_frame(sample, params, cfg)
    assert res.ledger.total_wire_bytes == 0
    for i in range(2):
        local = np.argmax(
            decode_segmentation(encode_view(Tensor(sample.views[i]), params), params).data, axis=2
        )
        assert np.array_equal(res.predictions[i], local)


def test_frame_ledgers_hold_their_own_frame_and_sum_to_mbpf():
    cfg = small_cfg(request_threshold=1.0)   # both platforms request and pull
    params = harness.init_dcp_params(cfg, seed=0)
    samples = scenes.make_dataset(small_spec(), "homo-cis", 3, seed=0, n_platforms=2)
    results = [pr.run_frame(s, params, cfg) for s in samples]
    for res, sample in zip(results, samples):
        assert res.ledger.entries and {e[0] for e in res.ledger.entries} == {sample.frame}
    record, _ = harness.evaluate("dcp-net", samples, params, cfg)
    for field, total in (("comm_cost_mbpf", "feature_payload_bytes"), ("comm_total_mbpf", "total_wire_bytes")):
        summed = sum(getattr(r.ledger, total) for r in results)
        assert summed > 0
        assert getattr(record, field) == summed / len(samples) / 2**20
    assert [f.name for f in dataclasses.fields(pr.CommLedger)] == ["entries"]


def test_run_frame_builds_no_graph(monkeypatch):
    cfg = small_cfg(n_platforms=3, request_threshold=1.0)
    params = harness.init_dcp_params(cfg, seed=0)
    sample = scenes.make_sample(small_spec(), "homo-cis", 0, 0, n_platforms=3)
    fused = []

    def spy(f, p):
        fused.append(f)
        return predict_segmentation(f, p)

    monkeypatch.setattr(pr, "predict_segmentation", spy)
    pr.run_frame(sample, params, cfg)
    assert len(fused) == 3
    assert all(f._parents == () and f._backward is None and not f.requires_grad for f in fused)


def test_training_after_threaded_run_frame_still_gets_every_gradient():
    # the order of the threaded c6 test followed by a training fixture
    cfg = small_cfg(n_platforms=3, request_threshold=1.0)
    params = harness.init_dcp_params(cfg, seed=0)
    samples = scenes.make_dataset(small_spec(), "homo-cis", 16, seed=0, n_platforms=3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)   # frames overlap on every worker
    try:
        # a mode lost to interleaved save/restore calls would stay lost, so
        # repeated rounds make the loss near certain
        with ThreadPoolExecutor(max_workers=8) as pool:
            for _ in range(10):
                results = list(pool.map(lambda s: pr.run_frame(s, params, cfg), samples))
                assert len(results) == len(samples)
    finally:
        sys.setswitchinterval(interval)
    training.zero_grad(params)
    ad.backward(training.centralized_forward(samples[0], params, cfg))
    assert [k for k, p in params.items() if p.grad is None] == []


def test_samples_and_predictions_are_held_at_file_precision(tmp_path):
    cfg = small_cfg(n_platforms=3)
    params = harness.init_dcp_params(cfg, seed=0)
    for k, mode in enumerate(scenes.MODES):
        # crops, degraded victims (every noise kind), clean twins and hetero partners
        made = scenes.make_dataset(small_spec(), mode, 6, seed=k, n_platforms=3,
                                   noise_kinds=("blur", "gaussian", "occlusion"))
        assert any(s.degraded[s.victim] for s in made) and not all(s.degraded[s.victim] for s in made)
        scenes.save_dataset(made, tmp_path / mode)
        for s in made + scenes.load_dataset(tmp_path / mode):
            assert [(v.dtype, m.dtype) for v, m in zip(s.views, s.masks)] == [(np.float32, np.uint8)] * 3
        predictions = pr.run_frame(made[0], params, cfg).predictions
        assert [p.dtype for p in predictions] == [np.uint8] * 3


def test_predict_segmentation_is_the_argmax_of_the_decoded_logits():
    cfg = small_cfg(classes=4)
    rng = np.random.default_rng(0)
    params = harness.init_dcp_params(cfg, seed=0)
    feats = Tensor(rng.normal(size=(2, 2, cfg.feature_channels)))
    cases = [(feats, params)]
    # small integer features and weights: a quarter of the pixels tie between classes
    tied = dict(params)
    tied["dec.head.w"] = Tensor(rng.integers(-1, 2, size=(cfg.feature_channels, 4)).astype(np.float64))
    tied["dec.head.b"] = Tensor(np.zeros(4))
    cases.append((Tensor(rng.integers(-1, 2, size=(4, 4, cfg.feature_channels)).astype(np.float64)), tied))
    cases.append((feats, dict(params, **{"dec.head.w": Tensor(np.zeros((cfg.feature_channels, 4))),
                                         "dec.head.b": Tensor(np.array([0.0, 1.0, 1.0, 1.0]))})))
    for f, p in cases:
        got = predict_segmentation(f, p)
        want = np.argmax(decode_segmentation(f, p).data, axis=2)
        assert got.dtype == np.uint8 and np.array_equal(got, want)
    assert np.all(got == 1)   # all-tied classes 1-3: the first maximum wins


# DCP-Net's exchange steps, by module; only the two protocol rounds may run them
EXCHANGE = {"smim": {"encode_request", "candidate_relevance", "match_scores"}, "rff": {"compute_related", "fuse"}}
ROUNDS = {"request_match", "grant_fuse"}


def _exchange_uses(tree: ast.Module, module: str):
    """(line, what) of every use of an exchange step in `module` outside protocol's two rounds:
    `smim.x` or `rff.x`, a `from`-import of one, or a bare call of one inside its own module."""
    rounds = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name in ROUNDS] if module == "protocol" else []
    exempt = {id(n) for f in rounds for n in ast.walk(f)}
    own = EXCHANGE.get(module, set())
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.Attribute) and node.attr in EXCHANGE.get(getattr(node.value, "id", None), ()):
            yield node.lineno, f"{node.value.id}.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] in EXCHANGE:
            for alias in node.names:
                if alias.name in EXCHANGE[node.module.split(".")[-1]]:
                    yield node.lineno, f"import {alias.name}"
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in own:
            yield node.lineno, node.func.id


@pytest.mark.parametrize("src, module, hits", [
    ("smim.encode_request(f, p)", "training", 1),
    ("smim.encode_query(f, p)", "training", 0),
    ("related = rff.compute_related", "harness", 1),
    ("from .rff import fuse", "training", 1),
    ("from dcpnet.smim import encode_key, match_scores", "harness", 1),
    ("def fuse(i):\n    return fuse(i)", "training", 0),
    ("def request_match(i):\n    smim.encode_request(f, p)", "protocol", 0),
    ("def request_match(i):\n    smim.encode_request(f, p)", "training", 1),
    ("def run_frame():\n    rff.fuse(f, {}, p, {})", "protocol", 1),
    ("class C:\n    def grant_fuse(self):\n        rff.fuse(f, {}, p, {})", "protocol", 1),
    ("def fuse(a, b, c, d):\n    return a", "rff", 0),
    ("def fuse(a, b, c, d):\n    return compute_related(a, b, c)", "rff", 1),
])
def test_the_exchange_use_finder(src, module, hits):
    assert len(list(_exchange_uses(ast.parse(src), module))) == hits


def test_training_and_inference_run_the_one_dcp_net_exchange():
    src = Path(pr.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(src.glob("*.py"))}
    found = [f"{name}.py:{line} {what}" for name, tree in trees.items() for line, what in _exchange_uses(tree, name)]
    assert found == []
    # the rounds themselves hold every step, so the guard is not vacuous
    every = {what for _, what in _exchange_uses(trees["protocol"], "")}
    assert every == {f"{m}.{f}" for m, names in EXCHANGE.items() for f in names}
    assert not hasattr(training, "soft_fusion")
