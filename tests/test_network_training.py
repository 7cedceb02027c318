"""Encoder/decoder shapes and the shared training loop."""

import hashlib

import numpy as np
import pytest

from dcpnet import autodiff as ad
from dcpnet import harness, scenes, training
from dcpnet import protocol as pr
from dcpnet import baselines as bl
from dcpnet.autodiff import Tensor
from dcpnet.config import ModelConfig
from dcpnet.errors import ConfigError, InputError
from dcpnet.network import (
    decode_segmentation,
    encode_view,
    init_decoder_params,
    init_encoder_params,
)
from dcpnet.training import Adam, TrainConfig

from conftest import NOISE, small_cfg, small_spec


def test_encoder_decoder_shapes():
    cfg = small_cfg()
    rng = np.random.default_rng(0)
    params = init_encoder_params(cfg, rng)
    params.update(init_decoder_params(cfg, rng))
    img = Tensor(rng.uniform(size=(16, 16, 3)))
    feats = encode_view(img, params)
    assert feats.shape == (2, 2, cfg.feature_channels)
    logits = decode_segmentation(feats, params)
    assert logits.shape == (16, 16, cfg.classes)


def test_encoder_rejects_unaligned_input():
    cfg = small_cfg()
    params = init_encoder_params(cfg, np.random.default_rng(0))
    with pytest.raises(InputError):
        encode_view(Tensor(np.zeros((15, 15, 3))), params)


def test_adam_minimizes_a_quadratic():
    tcfg = TrainConfig(lr=0.1, epochs=1)
    opt = Adam(tcfg)
    x = Tensor(np.array([5.0, -3.0]))
    for _ in range(200):
        x.grad = 2.0 * x.data
        opt.step({"x": x})
    assert np.all(np.abs(x.data) < 1e-2)


def test_adam_rejects_nonfinite_gradients():
    opt = Adam(TrainConfig())
    x = Tensor(np.zeros(2))
    x.grad = np.array([np.nan, 0.0])
    from dcpnet.errors import ContractError

    with pytest.raises(ContractError):
        opt.step({"x": x})


def test_adam_changes_nothing_when_a_gradient_is_not_finite():
    from dcpnet.errors import ContractError

    params = harness.init_dcp_params(small_cfg(), 0)
    opt = Adam(TrainConfig())
    rng = np.random.default_rng(0)
    for p in params.values():
        p.grad = rng.normal(size=p.shape)
    opt.step(params)
    for p in params.values():
        p.grad = rng.normal(size=p.shape)
    params["smim.w_alpha"].grad.reshape(-1)[0] = np.nan   # sorts after most blocks
    data = {k: p.data.tobytes() for k, p in params.items()}
    moments = {k: (opt.m[k].tobytes(), opt.v[k].tobytes()) for k in params}
    with pytest.raises(ContractError, match="smim.w_alpha"):
        opt.step(params)
    assert opt.t == 1
    assert {k: p.data.tobytes() for k, p in params.items()} == data
    assert {k: (opt.m[k].tobytes(), opt.v[k].tobytes()) for k in params} == moments


def test_train_config_validation():
    for bad in (dict(lr=0.0), dict(lr=float("nan")), dict(lr=float("inf")), dict(epochs=-1),
                dict(batch_size=0), dict(supervision="sometimes")):
        with pytest.raises(ConfigError):
            TrainConfig(**bad)
    TrainConfig(epochs=0)


def test_training_reduces_loss_and_is_deterministic():
    cfg = small_cfg()
    spec = small_spec()
    data = scenes.make_dataset(spec, "homo-cis", 8, seed=0, n_platforms=2)
    tcfg = TrainConfig(lr=1e-2, epochs=4, batch_size=4, seed=0)

    params_a = harness.init_dcp_params(cfg, seed=0)
    curve_a = training.train(data, params_a, cfg, tcfg)
    assert np.mean(curve_a.losses[-2:]) < np.mean(curve_a.losses[:2])

    params_b = harness.init_dcp_params(cfg, seed=0)
    curve_b = training.train(data, params_b, cfg, tcfg)
    assert curve_a.losses == curve_b.losses
    for name in params_a:
        assert np.array_equal(params_a[name].data, params_b[name].data)


# SHA-256 over the loss bits and every parameter's bytes of each run below,
# recorded before DCP-Net's training and inference shared one exchange
TRAINING_GOLDEN = "695750f6b8ab1371ce204921179f72c14d5e5a4816605d9e32b0903af9cf98f6"


def test_training_keeps_its_bits_for_every_method():
    cfg = small_cfg(n_platforms=3)
    data = scenes.make_dataset(small_spec(), "homo-cis", 4, seed=3, n_platforms=3, **NOISE)
    h = hashlib.sha256()
    runs = [(m, "victim_only") for m in ("dcp-net",) + bl.BASELINES] + [("dcp-net", "all_platforms")]
    for method, supervision in runs:
        params = harness.init_params(method, cfg, seed=5)
        curve = training.train(data, params, cfg, TrainConfig(epochs=2, seed=5, supervision=supervision), method)
        h.update(np.array(curve.losses).tobytes())
        for key in sorted(params):
            h.update(key.encode() + params[key].data.tobytes())
    assert h.hexdigest() == TRAINING_GOLDEN


def test_training_rejects_empty_dataset():
    cfg = small_cfg()
    with pytest.raises(InputError):
        training.train([], harness.init_dcp_params(cfg, 0), cfg, TrainConfig(epochs=1))


def test_loss_curve_csv(tmp_path):
    curve = training.LossCurve()
    curve.append(1, 0.5)
    curve.append(2, 0.25, 0.6)
    path = tmp_path / "curve.csv"
    curve.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,loss,val_miou"
    assert lines[2].startswith("2,0.250000,0.600000")


def test_baseline_forwards_run_and_train():
    cfg = small_cfg()
    spec = small_spec()
    data = scenes.make_dataset(spec, "homo-cis", 4, seed=0, n_platforms=2)
    tcfg = TrainConfig(lr=1e-2, epochs=1, batch_size=2, seed=0)
    for kind in bl.BASELINES:
        params = harness.init_params(kind, cfg, 0)
        curve = training.train(data, params, cfg, tcfg, method=kind)
        assert all(np.isfinite(v) for v in curve.losses)
        results = [pr.run_frame(s, params, cfg, kind) for s in data]
        assert len(results) == 4
        if kind == "no-interaction":
            assert sum(r.ledger.total_wire_bytes for r in results) == 0
        else:
            assert sum(r.ledger.counts()["grant"] for r in results) > 0


def test_unknown_method_is_rejected_before_training():
    cfg = small_cfg()
    data = scenes.make_dataset(small_spec(), "homo-cis", 2, seed=0, n_platforms=2)
    params = harness.init_dcp_params(cfg, 0)
    before = {k: v.data.copy() for k, v in params.items()}
    for epochs in (0, 1):
        with pytest.raises(InputError, match="unknown method 'telepathy'"):
            training.train(data, params, cfg, TrainConfig(epochs=epochs), method="telepathy")
    for k, v in params.items():
        assert np.array_equal(v.data, before[k]) and v.grad is None


def test_baselines_do_not_depend_on_training():
    # training imports baselines for their fusion heads, never the reverse
    for value in vars(bl).values():
        assert value is not training
        assert getattr(value, "__module__", None) != training.__name__


def test_baseline_grant_counts_follow_regime():
    cfg = small_cfg(n_platforms=3)
    spec = small_spec()
    data = scenes.make_dataset(spec, "homo-cis", 2, seed=0, n_platforms=3)
    for kind, per_frame in (("concat-all", 2), ("aux-view-attention", 2), ("random-selection", 1)):
        params = harness.init_params(kind, cfg, 0)
        grants = [pr.run_frame(s, params, cfg, kind).ledger.counts()["grant"] for s in data]
        assert sum(grants) == per_frame * len(data)


def test_empty_evaluation_set_is_rejected():
    cfg = small_cfg()
    for method in ("dcp-net",) + bl.BASELINES:
        with pytest.raises(InputError, match="empty"):
            harness.evaluate(method, [], harness.init_params(method, cfg, 0), cfg)


@pytest.mark.parametrize("train_samples,val_samples", [(0, 2), (2, 0)])
def test_experiment_rejects_empty_sets_before_training(monkeypatch, train_samples, val_samples):
    def reached(*args, **kwargs):
        raise AssertionError("an empty experiment generated data or trained a model")

    monkeypatch.setattr(harness.scenes, "make_dataset", reached)
    monkeypatch.setattr(harness, "train_method", reached)
    with pytest.raises(InputError, match="samples"):
        harness.run_experiment("homo-pis", train_samples=train_samples, val_samples=val_samples)


def test_unknown_baseline_rejected():
    with pytest.raises(InputError):
        harness.init_params("telepathy", small_cfg(), 0)


def test_every_method_draws_the_same_encoder_and_decoder_first():
    cfg = small_cfg()
    for seed in (0, 7):
        shared = harness.init_dcp_params(cfg, seed)
        for method in bl.BASELINES:
            params = harness.init_params(method, cfg, seed)
            for key in params.keys() & shared.keys():
                assert params[key].data.tobytes() == shared[key].data.tobytes()
            assert set(params) - set(shared) == ({"cat.reduce.w", "cat.reduce.b"} if method == "concat-all" else set())


def test_all_platforms_supervision_trains_every_method():
    cfg = small_cfg(n_platforms=3)
    data = scenes.make_dataset(small_spec(), "homo-pis", 4, seed=0, n_platforms=3)
    tcfg = TrainConfig(lr=1e-2, epochs=1, batch_size=2, seed=0, supervision="all_platforms")
    for method in ("dcp-net",) + bl.BASELINES:
        params = harness.init_params(method, cfg, 0)
        loss = training.centralized_forward(data[0], params, cfg, "all_platforms", method=method)
        victim_loss = training.centralized_forward(data[0], params, cfg, "victim_only", method=method)
        assert np.isfinite(loss.item()) and loss.item() > victim_loss.item()
        ad.backward(loss)
        for key in ("dec.head.w", "dec.head.b"):
            grad = params[key].grad
            assert grad is not None and np.all(np.isfinite(grad)) and np.any(grad != 0.0)
        _, curve = harness.train_method(method, data, cfg, tcfg)
        assert all(np.isfinite(v) for v in curve.losses)


def test_random_selection_fuses_the_granted_partner():
    cfg = small_cfg(n_platforms=4)
    data = scenes.make_dataset(small_spec(), "homo-pis", 12, seed=0, n_platforms=4)
    params = harness.init_params("random-selection", cfg, 0)
    distinguishable = 0
    for sample in data:
        res = pr.run_frame(sample, params, cfg, "random-selection", seed=3)
        [(_, src, dst, kind, _)] = res.ledger.entries
        assert (dst, kind) == (sample.victim, pr.KIND_GRANT)
        feats = [encode_view(Tensor(v), params) for v in sample.views]
        # inference fuses the float32 copy the grant carries
        granted = Tensor(feats[src].data.astype(np.float32).astype(np.float64))
        fused = decode_segmentation(ad.add(feats[sample.victim], granted), params)
        assert np.array_equal(res.predictions[sample.victim], np.argmax(fused.data, axis=2))
        logits = {
            j: decode_segmentation(ad.add(feats[sample.victim], feats[j]), params)
            for j in range(1, 4)
        }
        # training fuses the same partner
        expected = ad.cross_entropy(logits[src], sample.masks[sample.victim]).item()
        loss = training.centralized_forward(sample, params, cfg, "victim_only", method="random-selection", seed=3)
        assert loss.item() == expected
        others = [ad.cross_entropy(logits[j], sample.masks[sample.victim]).item() for j in logits if j != src]
        distinguishable += expected not in others
    assert distinguishable == len(data)
