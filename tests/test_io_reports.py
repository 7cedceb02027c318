"""DCPT tensor files, checkpoints, report emission, netpbm dumps."""

import json
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest

from dcpnet import harness, reports, scenes, tensorio
from dcpnet import metrics as mt
from dcpnet.autodiff import Tensor
from dcpnet.config import WorldSpec
from dcpnet.errors import FormatError
from dcpnet.metrics import MetricsRecord

from conftest import NOISE, VAL_SEED, small_cfg

BENCH_CHECKPOINT = Path(__file__).resolve().parents[1] / "benchmarks" / "checkpoint"


def test_tensor_round_trip_various_ranks():
    rng = np.random.default_rng(0)
    for shape in ((), (5,), (3, 4), (2, 3, 4), (2, 2, 2, 2)):
        arr = rng.normal(size=shape).astype(np.float32).astype(np.float64)
        back = tensorio.tensor_from_bytes(tensorio.tensor_to_bytes(arr))
        assert back.shape == arr.shape
        assert np.array_equal(back, arr)


def test_tensor_file_round_trip(tmp_path):
    arr = np.arange(12, dtype=np.float64).reshape(3, 4)
    path = tmp_path / "t.dcpt"
    tensorio.save_tensor(path, arr)
    assert path.read_bytes()[:4] == b"DCPT"
    assert np.array_equal(tensorio.load_tensor(path), arr)


def test_tensor_dict_round_trip(tmp_path):
    tensors = {"a.w": np.ones((2, 2)), "b/c": np.zeros(3)}
    tensorio.save_tensor_dict(tmp_path / "d", tensors)
    back = tensorio.load_tensor_dict(tmp_path / "d")
    assert set(back) == set(tensors)
    for k in tensors:
        assert np.array_equal(back[k], tensors[k])
    with pytest.raises(FormatError):
        tensorio.load_tensor_dict(tmp_path / "nope")


def test_checkpoint_round_trip_is_f32_faithful(tmp_path):
    cfg = small_cfg()
    params = harness.init_dcp_params(cfg, seed=0)
    harness.save_checkpoint(params, tmp_path / "ckpt")
    back = harness.load_checkpoint(tmp_path / "ckpt")
    assert set(back) == set(params)
    for name in params:
        assert np.array_equal(back[name].data, params[name].data.astype(np.float32))


def test_missing_checkpoint_tensor_is_named(tmp_path):
    harness.save_checkpoint(harness.init_dcp_params(small_cfg(), seed=0), tmp_path / "ckpt")
    (tmp_path / "ckpt" / "dec.head.w.dcpt").unlink()
    with pytest.raises(FormatError, match="dec.head.w.dcpt"):
        harness.load_checkpoint(tmp_path / "ckpt")


@pytest.mark.parametrize("fname", ["../b.dcpt", "sub", "/b.dcpt", "."])
def test_tensor_dict_files_must_lie_in_the_directory(tmp_path, fname):
    tensorio.save_tensor_dict(tmp_path / "d", {"a": np.ones(2)})
    tensorio.save_tensor(tmp_path / "b.dcpt", np.ones(2))
    (tmp_path / "d" / "sub").mkdir()
    (tmp_path / "d" / "manifest.txt").write_text(f"a {fname}\n")
    with pytest.raises(FormatError, match="missing tensor file"):
        tensorio.load_tensor_dict(tmp_path / "d")


def test_tensor_dict_rejects_a_repeated_key(tmp_path):
    tensorio.save_tensor_dict(tmp_path / "d", {"a": np.ones(2), "b": np.zeros(3)})
    (tmp_path / "d" / "manifest.txt").write_text("a a.dcpt\na b.dcpt\n")
    with pytest.raises(FormatError, match="'a' is listed twice"):
        tensorio.load_tensor_dict(tmp_path / "d")


def test_manifest_must_be_utf8(tmp_path):
    tensorio.save_tensor_dict(tmp_path / "d", {"a": np.ones(2)})
    (tmp_path / "d" / "manifest.txt").write_bytes(b"a a.dcpt\xff\n")
    with pytest.raises(FormatError, match="UTF-8"):
        tensorio.load_tensor_dict(tmp_path / "d")


def test_load_model_reads_the_benchmark_checkpoint_shape():
    before = {p.name: p.read_bytes() for p in BENCH_CHECKPOINT.iterdir()}
    sample = scenes.make_sample(WorldSpec(), "homo-cis", 0, 1007)
    cfg, params = harness.load_model("dcp-net", [sample], BENCH_CHECKPOINT)
    assert (cfg.request_dim, cfg.classes, cfg.n_platforms, cfg.view_size) == (32, 6, 4, 64)
    assert params["rff.theta.w"].shape == (34, 8)
    assert {p.name: p.read_bytes() for p in BENCH_CHECKPOINT.iterdir()} == before


# recorded before `evaluate` scored from one confusion tensor per frame:
# (request_dim, threshold, avg mIoU, MBpf, CE) of each sweep row
GOLDEN_SWEEP_ROWS = [
    (32, 0.0, 0.6283554983339209, 0.0, None),
    (32, 0.1, 0.6283554983339209, 0.0, None),
    (32, 0.2, 0.6283554983339209, 0.0, None),
    (32, 0.3, 0.6283554983339209, 0.0, None),
    (32, 0.4, 0.6283554983339209, 0.0, None),
    (32, 0.5, 0.6283554983339209, 0.0, None),
    (32, 0.6, 0.6488760613010375, 0.0009765625, 2101.305647832737),
    (32, 0.7, 0.643276847562615, 0.0029296875, 509.31538700609354),
    (32, 0.8, 0.652775252178274, 0.00390625, 625.1456984154402),
    (32, 0.9, 0.652775252178274, 0.00390625, 625.1456984154402),
    (32, 1.0, 0.652775252178274, 0.0341796875, 71.4452226760503),
]
GOLDEN_RECORD = MetricsRecord(
    "dcp-net", 0.5085535358553451, 0.6897490317386739, 0.652775252178274,
    [0.652775252178274, 0.6963328435315329, 0.7321066008405074, 0.7110671663798241],
    0.00390625, 0.004151821136474609, None, 1.0, 0.5,
)


def test_sweep_and_record_on_the_benchmark_checkpoint_keep_their_recorded_values():
    before = {p.name: p.read_bytes() for p in BENCH_CHECKPOINT.iterdir()}
    frames = scenes.make_dataset(WorldSpec(), "homo-cis", 8, seed=VAL_SEED, **NOISE)
    cfg, params = harness.load_model("dcp-net", frames, BENCH_CHECKPOINT)
    rows = harness.sweep_request_threshold(frames, params, cfg)
    assert [astuple(r) for r in rows] == GOLDEN_SWEEP_ROWS
    record, _ = harness.evaluate_dcp(frames, params, cfg)
    assert record == GOLDEN_RECORD
    assert {p.name: p.read_bytes() for p in BENCH_CHECKPOINT.iterdir()} == before


def test_the_sweep_referent_is_the_local_decode_even_when_every_confidence_underflows():
    """With q = -1e6 k every q . k lies below sigmoid's underflow at about -745: every
    confidence is exactly 0.0, so every platform requests at every threshold, 0.0 included."""
    before = {p.name: p.read_bytes() for p in BENCH_CHECKPOINT.iterdir()}
    frames = scenes.make_dataset(WorldSpec(), "homo-cis", 8, seed=VAL_SEED, **NOISE)
    cfg, params = harness.load_model("dcp-net", frames, BENCH_CHECKPOINT)
    for head in ("w", "b"):
        params[f"smim.q.{head}"] = Tensor(-1e6 * params[f"smim.k.{head}"].data)
    _, results = harness.evaluate_dcp(frames, params, replace(cfg, request_threshold=0.0))
    assert {s.confidence for r in results for s in r.states} == {0.0}

    local, _ = harness.evaluate("no-interaction", frames, params, cfg)
    assert local.miou_avg == GOLDEN_SWEEP_ROWS[0][2]  # the SMIM heads never reach the local decode
    rows = harness.sweep_request_threshold(frames, params, cfg)
    assert [r.knob for r in rows] == [row[1] for row in GOLDEN_SWEEP_ROWS]
    for row in rows:
        assert row.comm_mbpf > 0 and row.avg_miou < local.miou_avg
        assert row.ce == mt.collaboration_efficiency(row.avg_miou, local.miou_avg, row.comm_mbpf)
        assert row.ce < 0
    assert {p.name: p.read_bytes() for p in BENCH_CHECKPOINT.iterdir()} == before


def test_pgm_ppm_round_trip(tmp_path):
    mask = np.array([[0, 1], [2, 2]])
    reports.write_pgm(tmp_path / "m.pgm", mask / 2)  # class k of 3 at gray k / 2
    assert (tmp_path / "m.pgm").read_bytes() == b"P5\n2 2\n255\n" + bytes([0, 128, 255, 255])

    img = np.array([[[0.0, 0.5, 1.0]]])
    reports.write_ppm(tmp_path / "i.ppm", img)
    assert (tmp_path / "i.ppm").read_bytes() == b"P6\n1 1\n255\n" + bytes([0, 128, 255])


def test_float32_images_write_the_bytes_of_their_float64_widening(tmp_path):
    # float32 values beside the rounding points (k + 0.5) / 255, where half of the
    # products by 255 taken in float32 round to the other integer
    gray = ((np.arange(255) + 0.5) / 255).astype(np.float32).reshape(15, 17)
    rgb = np.stack([gray, gray[::-1], 1 - gray], axis=2)
    for write, image in ((reports.write_pgm, gray), (reports.write_ppm, rgb)):
        write(tmp_path / "narrow", image)
        write(tmp_path / "wide", image.astype(np.float64))
        assert (tmp_path / "narrow").read_bytes() == (tmp_path / "wide").read_bytes()


def _record():
    return MetricsRecord("dcp-net", 0.55, 0.68, 0.62, [0.6, 0.62], 0.005, 0.0054, 123.4, 0.99, 0.7)


def test_emit_report_writes_all_artifacts(tmp_path):
    out = tmp_path / "report"
    dumps = {"frame0000_pred": np.array([[0, 1], [1, 2]]),
             "frame0000_view": np.zeros((2, 2, 3))}
    reports.emit_report([_record()], out, dumps)
    assert (out / "metrics.json").is_file()
    assert (out / "tables.csv").is_file()
    assert (out / "frame0000_pred.pgm").is_file()
    assert (out / "frame0000_view.ppm").is_file()
    table = (out / "tables.csv").read_text().splitlines()
    assert table[0] == reports.TABLE_HEADER
    assert table[1].startswith("distributed,dcp-net,55.00,68.00,62.00,0.005,123.40")


def test_metrics_json_round_trip(tmp_path):
    out = tmp_path / "report"
    reports.emit_report([_record()], out)
    back = reports.load_metrics(out / "metrics.json")
    assert len(back) == 1
    assert back[0].as_dict() == _record().as_dict()
    raw = json.loads((out / "metrics.json").read_text())
    assert raw[0]["method"] == "dcp-net"


def test_sweep_rows_csv(tmp_path):
    rows = [harness.SweepRow(4, 0.5, 0.61, 0.004, 25.0),
            harness.SweepRow(32, 0.8, 0.63, 0.0, None)]
    harness.sweep_rows_to_csv(rows, tmp_path / "sweep.csv")
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines == ["request_dim,threshold,avg_miou,mbpf,ce",
                     "4,0.5,0.610000,0.004000,25.000000",
                     "32,0.8,0.630000,0.000000,"]
