"""Request/matching decisions and cross-attention fusion."""

import contextlib

import numpy as np
import pytest

from dcpnet import autodiff as ad, rff, smim
from dcpnet.autodiff import Tensor, backward, no_grad
from dcpnet.config import ModelConfig
from dcpnet.errors import ConfigError, ProtocolError, ShapeError

from conftest import small_cfg

RNG = np.random.default_rng(0)


def test_pool_encode_matches_manual():
    feat = Tensor(RNG.normal(size=(3, 3, 4)))
    w = Tensor(RNG.normal(size=(4, 5)))
    b = Tensor(RNG.normal(size=5))
    out = smim._pool_encode(feat, w, b)
    manual = feat.data.mean(axis=(0, 1)) @ w.data + b.data
    assert np.allclose(out.data, manual, atol=1e-12)


@pytest.mark.parametrize("grad", [True, False])
def test_encode_query_key_pools_once_and_keeps_both_heads_bits(grad):
    cfg = small_cfg()
    params = smim.init_smim_params(cfg, np.random.default_rng(3))
    for p in params.values():
        p.data += RNG.normal(scale=0.1, size=p.shape)  # nonzero biases
    feat = Tensor(RNG.normal(size=(2, 2, cfg.feature_channels)), requires_grad=grad)
    mode = contextlib.nullcontext() if grad else no_grad()
    with mode:
        q, k = smim.encode_query_key(feat, params)
        q_ref, k_ref = smim.encode_query(feat, params), smim.encode_key(feat, params)
    assert q.data.tobytes() == q_ref.data.tobytes() and k.data.tobytes() == k_ref.data.tobytes()
    assert q.shape == q_ref.shape == (cfg.qk_dim,) and k.shape == k_ref.shape
    assert q.requires_grad is k.requires_grad is grad
    if grad:
        grads = []
        for pair in ((q, k), (q_ref, k_ref)):
            for t in [feat, *params.values()]:
                t.grad = None
            backward(ad.sum_all(ad.mul(*pair)))
            grads.append([None if t.grad is None else t.grad.tobytes() for t in [feat, *params.values()]])
        assert grads[0] == grads[1]


def test_confidence_is_sigmoid_of_dot():
    q = Tensor(np.array([1.0, -2.0]))
    k = Tensor(np.array([0.5, 0.25]))
    p = smim.self_confidence(q, k).item()
    assert p == pytest.approx(1.0 / (1.0 + np.exp(0.0)), rel=1e-12)


def test_decide_request_boundary():
    cfg = small_cfg(request_threshold=0.8)
    assert smim.decide_request(0.79, cfg)
    assert smim.decide_request(0.80, cfg)      # boundary does not exceed
    assert not smim.decide_request(0.81, cfg)


def test_match_scores_sum_to_one_and_keep_order():
    rel = {3: Tensor(2.0), 1: Tensor(0.0), 2: Tensor(-1.0)}
    scores = smim.match_scores(rel)
    total = sum(s.item() for s in scores.values())
    assert total == pytest.approx(1.0, abs=1e-12)
    assert scores[3].item() > scores[1].item() > scores[2].item()
    with pytest.raises(ProtocolError):
        smim.match_scores({})


def test_select_supporters_threshold_and_degenerate_pair():
    chosen = smim.select_supporters({1: 0.5, 2: 0.3, 3: 0.2}, 4)
    assert chosen == frozenset({1})            # threshold 1/3 strict
    assert smim.select_supporters({1: 1.0}, 2) == frozenset({1})


def test_shaped_init_starts_neutral():
    cfg = small_cfg()
    params = smim.init_smim_params(cfg, np.random.default_rng(0))
    assert np.all(params["smim.w_alpha"].data == 0.0)
    feat = Tensor(RNG.normal(size=(2, 2, cfg.feature_channels)))
    q, k = smim.encode_query_key(feat, params)
    p = smim.self_confidence(q, k).item()
    assert abs(p - 0.5) < 0.05


def test_relevance_shape_guard():
    with pytest.raises(ShapeError):
        smim.candidate_relevance(Tensor(np.zeros(3)), Tensor(np.zeros(4)), Tensor(np.zeros((2, 4))))


# -- fusion -----------------------------------------------------------------

def test_affinity_rows_are_stochastic():
    theta = Tensor(RNG.normal(size=(3, 3, 2)))
    phi = Tensor(RNG.normal(size=(3, 3, 2)))
    aff = rff.affinity(theta, phi)
    assert aff.shape == (9, 9)
    assert np.allclose(aff.data.sum(axis=1), 1.0, atol=1e-12)


def test_related_feature_is_convex_recombination():
    aff = Tensor(np.full((4, 4), 0.25))
    g = Tensor(RNG.normal(size=(2, 2, 3)))
    rel = rff.related_feature(aff, g)
    expected = np.tile(g.data.reshape(4, 3).mean(axis=0), (2, 2, 1))
    assert np.allclose(rel.data, expected, atol=1e-12)


def test_coordinate_channels_follow_weight_shape():
    cfg = small_cfg()
    params = rff.init_rff_params(cfg, np.random.default_rng(0))
    c = cfg.feature_channels
    assert params["rff.theta.w"].shape == (c + 2, cfg.embed_channels)
    assert np.array_equal(params["rff.theta.w"].data, params["rff.phi.w"].data)
    assert np.array_equal(params["rff.g.w"].data, np.eye(c))
    f = Tensor(RNG.normal(size=(2, 2, c)))
    theta_out, phi_out, g_out = rff.embed_features(f, f, params)
    assert theta_out.shape == (2, 2, cfg.embed_channels)
    assert g_out.shape == (2, 2, c)

    for rows in (c, c + 1, c + 3):   # only the c feature rows plus 2 coordinate rows fit
        theta = Tensor(np.zeros((rows, cfg.embed_channels)))
        with pytest.raises(ShapeError, match="2 coordinates"):
            rff.embed_features(f, f, {**params, "rff.theta.w": theta})


def test_identity_init_makes_related_a_blur_of_collab():
    cfg = small_cfg()
    params = rff.init_rff_params(cfg, np.random.default_rng(0))
    local = Tensor(RNG.normal(size=(2, 2, cfg.feature_channels)))
    collab = Tensor(RNG.normal(size=(2, 2, cfg.feature_channels)))
    rel = rff.compute_related(local, collab, params)
    lo, hi = collab.data.min(axis=(0, 1)), collab.data.max(axis=(0, 1))
    assert np.all(rel.data >= lo - 1e-9) and np.all(rel.data <= hi + 1e-9)


def test_fuse_mixes_by_confidence_and_scores():
    local = Tensor(np.ones((1, 1, 2)))
    related = {1: Tensor(np.full((1, 1, 2), 3.0)), 2: Tensor(np.full((1, 1, 2), 5.0))}
    scores = {1: Tensor(0.25), 2: Tensor(0.75)}
    fused = rff.fuse(local, related, Tensor(0.6), scores)
    expected = 0.6 * 1.0 + 0.4 * (0.25 * 3.0 + 0.75 * 5.0)
    assert np.allclose(fused.data, expected, atol=1e-12)


def test_fuse_passthrough_and_literal_mode():
    local = Tensor(RNG.normal(size=(2, 2, 3)))
    out = rff.fuse(local, {}, Tensor(0.3), {})
    assert out is local


def test_fuse_requires_related_for_every_score():
    local = Tensor(np.zeros((1, 1, 2)))
    with pytest.raises(ProtocolError):
        rff.fuse(local, {}, Tensor(0.5), {1: Tensor(1.0)})


def test_config_guards():
    with pytest.raises(ConfigError):
        ModelConfig(embed_channels=16, feature_channels=32)
    with pytest.raises(ConfigError):
        ModelConfig(request_dim=256, qk_dim=128)
    with pytest.raises(ConfigError):
        ModelConfig(request_dim=0)   # as read from a checkpoint whose smim.r.w has no columns
    with pytest.raises(ConfigError):
        ModelConfig(view_size=200)   # fusion grid over the cap
    with pytest.raises(ConfigError):
        ModelConfig(view_size=30)
    for size in (0, 8):   # a 0x0 or 1x1 fusion grid; 1x1 divides 0/0 in rff._coord_grid
        with pytest.raises(ConfigError, match="below 16"):
            ModelConfig(view_size=size)
    with pytest.raises(ConfigError):
        ModelConfig(n_platforms=1)
    assert ModelConfig(classes=256).classes == 256
    with pytest.raises(ConfigError, match="257 classes"):
        ModelConfig(classes=257)   # predictions are uint8 class ids
