"""Properties of `run_frame` that the sweep's CE referent rests on.

The sweep scores every threshold against the same checkpoint's local
decode.  That referent is exact when a platform that does not request
predicts its local decode, when the threshold only decides who requests,
and when the bytes a record reports are the bytes those decisions send.
Two more pin what a prediction is made of: a requester's is the fuse of
exactly its supporters' grants, and under a baseline only the victim
pulls, from exactly its regime's partners.  Each property is drawn over
tiny random models: 2 to 4 platforms, 16 px views, 3 classes, every
scene mode, random biases, and SMIM heads redrawn at scales from
near-uniform confidences to saturated ones (a confidence of exactly 0.0
or 1.0 included).
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dcpnet import baselines as bl
from dcpnet import harness, rff, scenes
from dcpnet import protocol as pr
from dcpnet.autodiff import Tensor, no_grad
from dcpnet.network import decode_segmentation, encode_view, predict_segmentation

from conftest import small_cfg, small_spec

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
GRID = [round(0.1 * i, 1) for i in range(11)]


@st.composite
def models(draw):
    """(cfg, params, samples): a random tiny DCP-Net and 1 or 2 frames it runs on."""
    n = draw(st.integers(2, 4))
    seed = draw(st.integers(0, 2**16))
    cfg = small_cfg(n_platforms=n)
    params = harness.init_params("dcp-net", cfg, seed)
    rng = np.random.default_rng(seed)
    gate = draw(st.sampled_from([1.0, 30.0, 1e4]))  # q . k from about 0 to far past sigmoid's underflow
    for key in sorted(params):  # the gate and match heads redrawn, and no bias left at zero
        if key in ("smim.q.w", "smim.k.w"):
            params[key] = Tensor(rng.normal(0.0, gate, params[key].shape))
        elif key == "smim.w_alpha":
            params[key] = Tensor(rng.normal(0.0, 3.0, params[key].shape))
        elif key.endswith(".b"):
            params[key] = Tensor(rng.normal(0.0, 0.1, params[key].shape))
    mode = draw(st.sampled_from(scenes.MODES))
    samples = scenes.make_dataset(small_spec(), mode, draw(st.integers(1, 2)), seed=seed, n_platforms=n)
    return cfg, params, samples


def _thresholds(sample, params, cfg) -> list[float]:
    """The grid plus every confidence of the frame, where a platform's decision flips."""
    confidences = [s.confidence for s in pr.run_frame(sample, params, replace(cfg, request_threshold=1.0)).states]
    return sorted(set(GRID + confidences))


@PROPERTY
@given(models())
def test_a_platform_that_does_not_request_predicts_its_local_decode(model):
    cfg, params, samples = model
    for sample in samples:
        local = pr.run_frame(sample, params, cfg, "no-interaction")
        assert not local.ledger.entries
        for view, pred in zip(sample.views, local.predictions):
            logits = decode_segmentation(encode_view(Tensor(view), params), params).data
            assert np.array_equal(pred, np.argmax(logits, axis=2))
        for t in _thresholds(sample, params, cfg):
            res = pr.run_frame(sample, params, replace(cfg, request_threshold=t))
            for i, state in enumerate(res.states):
                if not state.requested:
                    assert np.array_equal(res.predictions[i], local.predictions[i]), (t, i)
                    assert state.supporters == frozenset() and not state.scores


@PROPERTY
@given(models())
def test_the_threshold_only_decides_who_requests(model):
    cfg, params, samples = model
    for sample in samples:
        runs = [(t, pr.run_frame(sample, params, replace(cfg, request_threshold=t)))
                for t in _thresholds(sample, params, cfg)]
        full = runs[-1][1].states  # threshold 1.0: every platform requests
        requesters = []
        for t, run in runs:
            requesters.append({i for i, s in enumerate(run.states) if s.requested})
            for state, ref in zip(run.states, full):
                assert state.confidence == ref.confidence
                assert state.requested == (not state.confidence > t)
                if state.requested:
                    assert (state.scores, state.supporters) == (ref.scores, ref.supporters)
        assert requesters[-1] == set(range(cfg.n_platforms))
        assert all(a <= b for a, b in zip(requesters, requesters[1:]))


@PROPERTY
@given(models(), st.data())
def test_both_byte_totals_are_the_messages_the_decisions_send(model, data):
    cfg, params, samples = model
    cfg = replace(cfg, request_threshold=data.draw(st.sampled_from(_thresholds(samples[0], params, cfg))))
    record, results = harness.evaluate("dcp-net", samples, params, cfg)
    n, fs = cfg.n_platforms, cfg.feature_size
    payload = {pr.KIND_REQUEST: 4 * cfg.request_dim, pr.KIND_RELEVANCE: 4,
               pr.KIND_GRANT: 4 * fs * fs * cfg.feature_channels}
    grant_bytes = wire_bytes = 0
    for sample, res in zip(samples, results):
        requesters = [i for i, s in enumerate(res.states) if s.requested]
        others = [(i, j) for i in requesters for j in range(n) if j != i]
        grants = [(j, i) for i in requesters for j in res.states[i].supporters]
        sent = ([(sample.frame, i, j, pr.KIND_REQUEST) for i, j in others]
                + [(sample.frame, j, i, pr.KIND_RELEVANCE) for i, j in others]
                + [(sample.frame, j, i, pr.KIND_GRANT) for j, i in grants])
        assert sorted(e[:4] for e in res.ledger.entries) == sorted(sent)
        assert all(e[4] == pr.HEADER_BYTES + payload[e[3]] for e in res.ledger.entries)
        frame_grant = len(grants) * payload[pr.KIND_GRANT]
        frame_wire = sum(pr.HEADER_BYTES + payload[kind] for *_, kind in sent)
        assert (res.ledger.feature_payload_bytes, res.ledger.total_wire_bytes) == (frame_grant, frame_wire)
        grant_bytes += frame_grant
        wire_bytes += frame_wire
    assert record.comm_cost_mbpf == grant_bytes / len(samples) / 2**20
    assert record.comm_total_mbpf == wire_bytes / len(samples) / 2**20


def _wire_copy(feat: Tensor) -> Tensor:
    """The receiver's copy of a granted feature grid: rounded once to float32."""
    return Tensor(feat.data.astype(np.float32).astype(np.float64))


@PROPERTY
@given(models())
def test_a_requester_predicts_the_fuse_of_exactly_its_supporters(model):
    cfg, params, samples = model
    for sample in samples:
        with no_grad():
            feats = [encode_view(Tensor(view), params) for view in sample.views]
        for t in _thresholds(sample, params, cfg):
            res = pr.run_frame(sample, params, replace(cfg, request_threshold=t))
            for i, state in enumerate(res.states):
                if not state.requested:
                    continue
                assert set(state.scores) == set(range(cfg.n_platforms)) - {i}
                supporters = sorted(state.supporters)
                with no_grad():
                    related = {j: rff.compute_related(feats[i], _wire_copy(feats[j]), params) for j in supporters}
                    # the scores the requester received, not renormalized over the supporters
                    scores = {j: Tensor(state.scores[j]) for j in supporters}
                    fused = rff.fuse(feats[i], related, Tensor(state.confidence), scores)
                assert np.array_equal(res.predictions[i], predict_segmentation(fused, params)), (t, i)


@PROPERTY
@given(models(), st.sampled_from(bl.BASELINES), st.integers(0, 2**16))
def test_under_a_baseline_only_the_victim_pulls_its_partners(model, method, seed):
    cfg, params, samples = model
    params = {**params, **bl.init_head_params(method, cfg, np.random.default_rng(seed))}
    for sample in samples:
        res = pr.run_frame(sample, params, cfg, method, seed)
        v = sample.victim
        partners = bl.baseline_partners(method, sample, v, seed)
        assert [e[:4] for e in res.ledger.entries] == [(sample.frame, j, v, pr.KIND_GRANT) for j in partners]
        assert all(s.confidence == 1.0 and not s.requested and not s.supporters for s in res.states)
        with no_grad():
            feats = [encode_view(Tensor(view), params) for view in sample.views]
            pulled = [_wire_copy(f) if j in partners else f for j, f in enumerate(feats)]
            victim = bl.fuse_baseline(method, pulled, v, partners, params)
        for i, pred in enumerate(res.predictions):
            assert np.array_equal(pred, predict_segmentation(victim if i == v else feats[i], params)), i
