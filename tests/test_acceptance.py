"""The eleven acceptance criteria, one test (or test group) each.

Budgeted end-to-end runs are trained once per session in conftest.py and
shared between criteria 7-9.
"""

import struct
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from dcpnet import harness, metrics as mt, protocol as pr, scenes, smim, rff, training
from dcpnet.autodiff import Tensor, grad_check
from dcpnet.config import ModelConfig, WorldSpec
from dcpnet.errors import DcpError
from dcpnet.network import decode_segmentation, encode_view
from dcpnet.tensorio import tensor_from_bytes, tensor_to_bytes

from conftest import NOISE, VAL_SEED, small_cfg, small_spec


# -- criterion 1: gradient correctness of the full centralized forward ------

def test_c1_gradient_check_full_forward():
    cfg = small_cfg()
    spec = small_spec()
    sample = scenes.make_sample(spec, "homo-cis", 0, 1, n_platforms=2)
    params = harness.init_dcp_params(cfg, seed=1)
    # the shaped init is degenerate (exact zeros and ties); check at a
    # perturbed generic point where finite differences are well conditioned
    rng = np.random.default_rng(5)
    for p in params.values():
        p.data = p.data + rng.normal(0.0, 0.05, size=p.data.shape)
    names = sorted(params)
    plist = [params[n] for n in names]

    def f(pl):
        return training.centralized_forward(sample, dict(zip(names, pl)), cfg)

    t0 = time.time()
    worst = grad_check(f, plist, eps=1e-4)
    assert worst < 1e-4
    assert time.time() - t0 < 60.0


# -- criterion 2: published communication arithmetic, bit exact -------------

def test_c2_mbpf_published_values():
    cfg = ModelConfig(view_size=128, feature_channels=512)
    assert cfg.feature_size == 16
    feature = np.zeros((16, 16, 512), dtype=np.float32)
    frames = 4

    concat = pr.CommLedger()
    single = pr.CommLedger()
    for frame in range(frames):
        for src in (1, 2, 3):   # centralized regimes pull every candidate
            pr.transmit(concat, pr.KIND_GRANT, src, 0, frame, feature)
        pr.transmit(single, pr.KIND_GRANT, 1, 0, frame, feature)
    assert pr.mbpf(concat, frames, "feature_only") == 1.500
    assert pr.mbpf(single, frames, "feature_only") == 0.500
    assert 3 * 4 * cfg.feature_size**2 * cfg.feature_channels == int(1.5 * 2**20)  # float32 grids


# -- criterion 3: CE formula on published numbers ---------------------------

def test_c3_ce_formula():
    ce = mt.collaboration_efficiency(0.6582, 0.5738, 0.255)
    assert ce == pytest.approx(33.10, abs=0.01)


# -- criterion 4: normalization invariants over 1000 seeds ------------------

def test_c4_normalization_invariants():
    from dcpnet import autodiff as ad

    for seed in range(1000):
        rng = np.random.default_rng(seed)
        probs = ad.softmax(Tensor(rng.normal(size=(4, 5)) * 10.0), axis=1).data
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-9)
        scores = smim.match_scores(
            {j: Tensor(float(v)) for j, v in enumerate(rng.normal(size=3))}
        )
        total = sum(s.item() for s in scores.values())
        assert abs(total - 1.0) < 1e-9
        assert all(s.item() >= 0.0 for s in scores.values())

        theta = Tensor(rng.normal(size=(3, 3, 2)))
        phi = Tensor(rng.normal(size=(3, 3, 2)))
        aff = rff.affinity(theta, phi).data
        assert np.all(np.abs(aff.sum(axis=1) - 1.0) < 1e-9)
        assert np.all(aff >= 0.0)

        q = Tensor(rng.normal(size=16))
        k = Tensor(rng.normal(size=16))
        p = smim.self_confidence(q, k).item()
        assert 0.0 < p < 1.0


# -- criterion 5: fusion limits -------------------------------------------

def test_c5_confident_platform_keeps_local_features():
    rng = np.random.default_rng(0)
    local = Tensor(rng.normal(size=(4, 4, 8)))
    related = {1: Tensor(rng.normal(size=(4, 4, 8)))}
    scores = {1: Tensor(1.0)}
    fused = rff.fuse(local, related, Tensor(1.0), scores)
    assert np.array_equal(fused.data, local.data)


def test_c5_no_request_equals_no_interaction_bitwise():
    cfg = small_cfg(request_threshold=0.0)   # p > 0 always: nobody requests
    spec = small_spec()
    params = harness.init_dcp_params(cfg, seed=3)
    samples = scenes.make_dataset(spec, "homo-cis", 8, seed=3, n_platforms=2)
    for sample in samples:
        res = pr.run_frame(sample, params, cfg)
        assert res.ledger.total_wire_bytes == 0
        for i in range(sample.n_platforms):
            feats = encode_view(Tensor(sample.views[i]), params)
            local = np.argmax(decode_segmentation(feats, params).data, axis=2)
            assert np.array_equal(res.predictions[i], local)


# -- criterion 6: protocol determinism under threading ----------------------

def test_c6_threaded_inference_is_bitwise_deterministic():
    cfg = small_cfg(n_platforms=3)
    spec = small_spec()
    params = harness.init_dcp_params(cfg, seed=11)
    samples = scenes.make_dataset(spec, "homo-cis", 100, seed=11, n_platforms=3)
    serial = [pr.run_frame(s, params, cfg) for s in samples]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(lambda s: pr.run_frame(s, params, cfg), samples))
    assert len(serial) == len(threaded) == len(samples)
    for a, b in zip(serial, threaded):
        assert a.ledger.entries == b.ledger.entries
        for pa, pb in zip(a.predictions, b.predictions):
            assert np.array_equal(pa, pb)


# -- criterion 7: Homo-CIS budgeted run -------------------------------------

def test_c7_runtime_budget(toy_cis):
    assert toy_cis["train_seconds"] <= 15 * 60


def test_c7_victim_miou_gap(toy_cis):
    gap = 100.0 * (toy_cis["dcp"].miou_noisy - toy_cis["ni"].miou_noisy)
    assert gap >= 5.0


def test_c7_degradation_detection(toy_cis):
    assert toy_cis["dcp"].detect_acc >= 0.85


def test_c7_clean_twin_selection(toy_cis):
    # Known shortfall: selection plateaus at ~0.72 under the pinned
    # pooled-descriptor architecture and 20-epoch budget; see the
    # decisions ledger for the measured ceilings behind this number.
    assert toy_cis["dcp"].select_acc >= 0.80


# -- criterion 8: Homo-PIS ordering -----------------------------------------

def test_c8_homo_pis_ordering(toy_pis):
    rec = toy_pis["records"]
    dcp, ni, concat = rec["dcp-net"], rec["no-interaction"], rec["concat-all"]
    assert 100.0 * (dcp.miou_avg - ni.miou_avg) >= 2.0
    assert dcp.comm_cost_mbpf < concat.comm_cost_mbpf
    ces = {k: r.ce for k, r in rec.items() if r.ce is not None}
    assert max(ces, key=ces.get) == "dcp-net"


# -- criterion 9: threshold sweep shape -------------------------------------

def test_c9_threshold_sweep(toy_cis):
    cfg = toy_cis["cfg"]
    params = toy_cis["params"]
    val = scenes.make_dataset(WorldSpec(), "homo-cis", 32, seed=VAL_SEED, **NOISE)
    rows = harness.sweep_request_threshold(val, params, cfg)
    assert [r.knob for r in rows] == [round(0.1 * i, 1) for i in range(11)]
    mbpf = [r.comm_mbpf for r in rows]
    assert all(b >= a for a, b in zip(mbpf, mbpf[1:]))
    assert mbpf[0] == 0.0

    # threshold 0 must reproduce the no-interaction decode of the same params
    preds = []
    for s in val:
        preds.append([
            np.argmax(decode_segmentation(encode_view(Tensor(v), params), params).data, axis=2)
            for v in s.views
        ])
    _, _, avg = mt.split_miou(preds, val, cfg.classes)
    assert rows[0].avg_miou == avg


# -- criterion 10: mIoU against brute-force enumeration ---------------------

def _brute_miou(pred, tgt, k):
    ious = []
    for c in range(k):
        tp = fp = fn = 0
        for p, t in zip(pred.reshape(-1), tgt.reshape(-1)):
            tp += p == c and t == c
            fp += p == c and t != c
            fn += p != c and t == c
        if tp + fp + fn:
            ious.append(tp / (tp + fp + fn))
    return sum(ious) / len(ious)


def test_c10_miou_oracle():
    rng = np.random.default_rng(42)
    for _ in range(50):
        k = int(rng.integers(2, 6))
        pred = rng.integers(0, k, size=(7, 5))
        tgt = rng.integers(0, k, size=(7, 5))
        assert mt.miou([pred], [tgt], k) == pytest.approx(_brute_miou(pred, tgt, k), abs=1e-12)


# -- criterion 11: serialization round trips and corruption -----------------

def test_c11_message_round_trips():
    rng = np.random.default_rng(0)
    for i in range(10000):
        kind = int(rng.integers(1, 4))
        if kind == pr.KIND_RELEVANCE:
            payload = struct.pack("<f", float(np.float32(rng.normal())))
        else:
            payload = rng.normal(size=int(rng.integers(1, 9))).astype("<f4").tobytes()
        msg = pr.ProtocolMessage(kind, int(rng.integers(0, 8)), int(rng.integers(0, 8)), i, payload)
        back = pr.parse_message(pr.serialize_message(msg))
        assert (back.kind, back.src, back.dst, back.frame, back.payload) == (
            msg.kind, msg.src, msg.dst, msg.frame, msg.payload
        )


def test_c11_dataset_round_trips(tmp_path):
    spec = small_spec()
    for seed in range(20):
        samples = scenes.make_dataset(spec, scenes.MODES[seed % 3], 3, seed=seed, n_platforms=2)
        out = tmp_path / f"ds{seed}"
        scenes.save_dataset(samples, out)
        loaded = scenes.load_dataset(out)
        for a, b in zip(samples, loaded):
            assert (a.victim, a.clean_twin, a.mode, a.degraded) == (
                b.victim, b.clean_twin, b.mode, b.degraded
            )
            for va, vb in zip(a.views, b.views):
                assert np.array_equal(va, vb)
            for ma, mb in zip(a.masks, b.masks):
                assert np.array_equal(ma, mb)


def test_c11_corruption_is_typed_never_a_crash(tmp_path):
    good = pr.serialize_message(pr.ProtocolMessage(pr.KIND_REQUEST, 0, 1, 7, np.zeros(4, dtype="<f4").tobytes()))
    tensor = tensor_to_bytes(np.ones((2, 3)))
    corruptions = [
        good[:10],                                  # truncated message
        b"XXXX" + good[4:],                         # bad magic
        good[:4] + b"\x09" + good[5:],              # unknown kind
        good[:-3],                                  # payload length mismatch
        tensor[:6],                                 # truncated tensor header
        b"YYYY" + tensor[4:],                       # bad tensor magic
        tensor[:4] + struct.pack("<I", 99) + tensor[8:],   # implausible rank
        tensor[:-2],                                # truncated tensor payload
    ]
    for buf in corruptions[:4]:
        with pytest.raises(DcpError):
            pr.parse_message(buf)
    for buf in corruptions[4:]:
        with pytest.raises(DcpError):
            tensor_from_bytes(buf)
    # datasets: a damaged manifest surfaces as a typed error too
    samples = scenes.make_dataset(small_spec(), "homo-cis", 1, seed=0, n_platforms=2)
    out = tmp_path / "ds"
    scenes.save_dataset(samples, out)
    (out / "manifest.txt").write_text("count 1 classes 3\nsample garbage\n")
    with pytest.raises(DcpError):
        scenes.load_dataset(out)
