"""End-to-end CLI pipeline on a miniature configuration."""

import argparse
import inspect
import json
import re
import shlex
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from dcpnet import cli, harness, metrics as mt, protocol as pr, reports, scenes
from dcpnet.config import ModelConfig, WorldSpec
from dcpnet.errors import ConfigError, InputError
from dcpnet.training import TrainConfig

from conftest import small_spec

BENCH_CHECKPOINT = Path(__file__).resolve().parents[1] / "benchmarks" / "checkpoint"
README = Path(__file__).resolve().parents[1] / "README.md"


def test_gen_train_eval_sweep_report_pipeline(tmp_path, capsys):
    ds = tmp_path / "ds"
    rc = cli.main([
        "gen", "--mode", "homo-cis", "--samples", "6", "--seed", "1", "--out", str(ds),
        "--world-size", "32", "--view-size", "16", "--classes", "3", "--platforms", "2",
    ])
    assert rc == 0
    assert (ds / "manifest.txt").is_file()

    ckpt = tmp_path / "ckpt"
    curve = tmp_path / "curve.csv"
    rc = cli.main([
        "train", "--dataset", str(ds), "--ckpt", str(ckpt),
        "--epochs", "1", "--lr", "1e-3", "--batch-size", "2", "--seed", "1",
        "--curve", str(curve),
    ])
    assert rc == 0
    assert (ckpt / "manifest.txt").is_file()
    assert curve.read_text().startswith("step,loss,val_miou")

    out = tmp_path / "report"
    rc = cli.main([
        "eval", "--dataset", str(ds), "--ckpt", str(ckpt), "--out", str(out),
        "--dump-predictions", "1",
    ])
    assert rc == 0
    assert (out / "metrics.json").is_file()
    assert (out / "tables.csv").is_file()
    assert (out / "frame0000_pred.pgm").is_file()
    assert (out / "frame0000_view.ppm").is_file()

    sweep = tmp_path / "sweep.csv"
    rc = cli.main([
        "sweep", "--dataset", str(ds), "--ckpt", str(ckpt),
        "--grid", "0.0", "0.5", "1.0", "--out", str(sweep),
    ])
    assert rc == 0
    assert sweep.read_text().splitlines()[0] == "request_dim,threshold,avg_miou,mbpf,ce"

    rewritten = tmp_path / "report2"
    rc = cli.main(["report", "--metrics", str(out / "metrics.json"), "--out", str(rewritten)])
    assert rc == 0
    assert (rewritten / "tables.csv").read_text() == (out / "tables.csv").read_text()
    capsys.readouterr()


def test_baseline_train_eval(tmp_path, capsys):
    ds = tmp_path / "ds"
    cli.main([
        "gen", "--mode", "homo-cis", "--samples", "4", "--seed", "2", "--out", str(ds),
        "--world-size", "32", "--view-size", "16", "--classes", "3", "--platforms", "2",
    ])
    ckpt = tmp_path / "ni"
    rc = cli.main([
        "train", "--dataset", str(ds), "--ckpt", str(ckpt), "--baseline", "no-interaction",
        "--epochs", "1", "--batch-size", "2",
    ])
    assert rc == 0
    out = tmp_path / "report"
    rc = cli.main([
        "eval", "--dataset", str(ds), "--ckpt", str(ckpt), "--baseline", "no-interaction",
        "--out", str(out),
    ])
    assert rc == 0
    capsys.readouterr()


def test_cli_surfaces_typed_errors_as_exit_codes(tmp_path, capsys):
    rc = cli.main([
        "eval", "--dataset", str(tmp_path / "missing"), "--ckpt", str(tmp_path / "none"),
        "--out", str(tmp_path / "r"),
    ])
    assert rc == 1
    rc = cli.main(["sweep", "--dataset", str(tmp_path / "missing"), "--out", str(tmp_path / "s.csv")])
    assert rc == 2  # argparse: no --ckpt
    capsys.readouterr()


@pytest.mark.parametrize("flags", [
    pytest.param(["--samples", "8", "--noise-strength", "-1"], id="negative-noise"),
    pytest.param(["--samples", "8", "--noise-strength", "nan"], id="nan-noise"),
    pytest.param(["--view-size", "0", "--samples", "4"], id="zero-view-size"),
    pytest.param(["--samples", "-3"], id="negative-samples"),
    pytest.param(["--samples", "0", "--noise-strength", "nan"], id="zero-samples"),
    pytest.param(["--samples", "2", "--seed", "-1"], id="negative-seed"),
])
def test_gen_rejects_bad_settings_before_writing(tmp_path, capsys, flags):
    ds = tmp_path / "ds"
    rc = cli.main(["gen", "--mode", "homo-cis", "--seed", "4", "--out", str(ds), "--world-size", "32",
                   "--view-size", "16", "--classes", "3", "--platforms", "2", *flags])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (ds / "manifest.txt").exists()


@pytest.mark.parametrize("world", ["3", "15"])
def test_gen_rejects_a_world_below_the_painter_floor(tmp_path, capsys, world):
    ds = tmp_path / "ds"
    rc = cli.main(["gen", "--mode", "homo-cis", "--samples", "400", "--out", str(ds), "--world-size", world,
                   "--view-size", "2", "--min-separation", "0"])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [f"error: world size {world} is below 16 pixels"]
    assert not ds.exists()


def test_checkpoint_must_fit_the_dataset(tmp_path, capsys):
    ds, five = tmp_path / "ds", tmp_path / "five"
    assert _gen_small(ds, 2) == 0
    assert _gen_small(five, 2, classes="5") == 0
    ckpt = tmp_path / "ckpt"
    rc = cli.main(["train", "--dataset", str(ds), "--ckpt", str(ckpt), "--epochs", "1",
                   "--request-dim", "4"])
    assert rc == 0
    capsys.readouterr()
    # the request size is read from the checkpoint
    assert cli.main(["eval", "--dataset", str(ds), "--ckpt", str(ckpt), "--out", str(tmp_path / "r")]) == 0
    capsys.readouterr()
    for cmd in ("eval", "sweep"):
        rc = cli.main([cmd, "--dataset", str(five), "--ckpt", str(ckpt), "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "'dec.head.b'" in err and "does not fit" in err
    rc = cli.main(["eval", "--dataset", str(ds), "--ckpt", str(ckpt), "--baseline", "concat-all",
                   "--out", str(tmp_path / "r")])
    assert rc == 1
    assert "'cat.reduce.b'" in capsys.readouterr().err


def test_six_class_checkpoint_on_a_three_class_set_is_rejected(tmp_path, capsys):
    ds = tmp_path / "ds"
    assert _gen_small(ds, 2) == 0
    capsys.readouterr()
    rc = cli.main(["eval", "--dataset", str(ds), "--ckpt", str(BENCH_CHECKPOINT), "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and "'dec.head.b'" in err
    assert not (tmp_path / "r").exists()


def test_missing_checkpoint_tensor_is_a_typed_error(tmp_path, capsys):
    ds, ckpt = tmp_path / "ds", tmp_path / "ckpt"
    assert _gen_small(ds, 2) == 0
    assert cli.main(["train", "--dataset", str(ds), "--ckpt", str(ckpt), "--epochs", "1"]) == 0
    (ckpt / "dec.head.w.dcpt").unlink()
    capsys.readouterr()
    rc = cli.main(["eval", "--dataset", str(ds), "--ckpt", str(ckpt), "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and "dec.head.w.dcpt" in err and "Traceback" not in err


def test_tiny_experiments_write_reports(tmp_path, capsys):
    for mode, methods in (
        ("homo-cis", ["no-interaction", "dcp-net"]),
        ("homo-pis", ["no-interaction", "concat-all", "aux-view-attention", "random-selection", "dcp-net"]),
    ):
        out = tmp_path / mode
        rc = cli.main(["experiment", "--mode", mode, "--train-samples", "2", "--val-samples", "2",
                       "--seed", "1", "--out", str(out)])
        assert rc == 0
        records = json.loads((out / "metrics.json").read_text())
        assert [r["method"] for r in records] == methods
        assert records[0]["ce"] is None   # No-Interaction is the CE referent
        for r in records[1:]:
            if r["comm_cost_mbpf"] > 0:
                gain = r["miou_avg"] - records[0]["miou_avg"]
                assert r["ce"] == pytest.approx(100 * gain / r["comm_cost_mbpf"])
        assert (out / "tables.csv").is_file()
        dumps = sorted(p.name for p in out.glob("frame*"))
        assert len(dumps) == (6 if mode == "homo-cis" else 0)
    printed = capsys.readouterr().out
    assert "clean-twin selection accuracy" in printed and "report written to" in printed


def _gen_small(out, samples, platforms="2", classes="3"):
    return cli.main([
        "gen", "--mode", "homo-cis", "--samples", str(samples), "--seed", "4", "--out", str(out),
        "--world-size", "32", "--view-size", "16", "--classes", classes, "--platforms", platforms,
    ])


def test_model_shape_comes_from_the_dataset(tmp_path, capsys):
    ds = tmp_path / "ds"
    assert _gen_small(ds, 2, platforms="3") == 0
    ckpt = tmp_path / "ckpt"
    assert cli.main(["train", "--dataset", str(ds), "--ckpt", str(ckpt), "--epochs", "1"]) == 0
    out = tmp_path / "r"
    assert cli.main(["eval", "--dataset", str(ds), "--ckpt", str(ckpt), "--out", str(out)]) == 0
    [record] = json.loads((out / "metrics.json").read_text())
    assert len(record["per_platform_miou"]) == 3
    train = ["train", "--dataset", str(ds), "--ckpt", str(ckpt)]
    evaluate = ["eval", "--dataset", str(ds), "--ckpt", str(ckpt), "--out", str(out)]
    sweep = ["sweep", "--dataset", str(ds), "--ckpt", str(ckpt), "--out", str(out)]
    for argv in (train, evaluate, sweep):
        cli.build_parser().parse_args(argv)
        for flag in (["--platforms", "4"], ["--view-size", "32"], ["--classes", "3"]):
            with pytest.raises(SystemExit):
                cli.build_parser().parse_args(argv + flag)
    cli.build_parser().parse_args(train + ["--request-dim", "4"])
    for argv in (evaluate, sweep):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(argv + ["--request-dim", "4"])
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(train + ["--request-threshold", "0.5"])
    capsys.readouterr()


def test_empty_evaluation_set_is_a_typed_error(tmp_path, capsys):
    ds, empty, ckpt = tmp_path / "ds", tmp_path / "empty", tmp_path / "ckpt"
    assert _gen_small(ds, 2) == 0
    empty.mkdir()   # gen refuses to write an empty set; one can still arrive on disk
    (empty / "manifest.txt").write_text("count 0 classes 3\n")
    assert cli.main(["train", "--dataset", str(ds), "--ckpt", str(ckpt), "--epochs", "1"]) == 0
    capsys.readouterr()
    for cmd in ("eval", "sweep"):
        rc = cli.main([cmd, "--dataset", str(empty), "--ckpt", str(ckpt), "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("text", [
    pytest.param("{", id="invalid-json"),
    pytest.param('[{"method": 1}]', id="missing-keys"),
    pytest.param('{"method": "m"}', id="not-a-list"),
    pytest.param("[1]", id="item-not-object"),
    pytest.param('[{"method": "m", "miou_noisy": 0, "miou_normal": 0, "miou_avg": 0, '
                 '"per_platform_miou": [], "comm_cost_mbpf": 0, "speed": 1}]', id="unknown-key"),
])
def test_malformed_metrics_is_a_typed_error(tmp_path, capsys, text):
    metrics = tmp_path / "metrics.json"
    metrics.write_text(text)
    rc = cli.main(["report", "--metrics", str(metrics), "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and "Traceback" not in err


VALID_RECORD = {"method": "m", "miou_noisy": 0.5, "miou_normal": 1, "miou_avg": 0.75,
                "per_platform_miou": [0.5, 1], "comm_cost_mbpf": 0, "ce": None,
                "detect_acc": None, "select_acc": 0.5}


@pytest.mark.parametrize("field,value", [
    pytest.param("miou_noisy", "x", id="string-float"),
    pytest.param("miou_avg", True, id="bool-float"),
    pytest.param("comm_cost_mbpf", None, id="null-float"),
    pytest.param("ce", "1.0", id="string-optional"),
    pytest.param("per_platform_miou", 0.5, id="number-list"),
    pytest.param("per_platform_miou", [0.5, "x"], id="string-in-list"),
    pytest.param("method", 3, id="number-method"),
])
def test_metrics_value_types_are_checked(tmp_path, capsys, field, value):
    metrics = tmp_path / "metrics.json"
    metrics.write_text(json.dumps([VALID_RECORD]))
    assert cli.main(["report", "--metrics", str(metrics), "--out", str(tmp_path / "ok")]) == 0
    metrics.write_text(json.dumps([{**VALID_RECORD, field: value}]))
    capsys.readouterr()
    rc = cli.main(["report", "--metrics", str(metrics), "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and repr(field) in err and "Traceback" not in err


@pytest.mark.parametrize("flag", [
    pytest.param(["--batch-size", "0"], id="batch-size-0"),
    pytest.param(["--epochs", "-1"], id="negative-epochs"),
    pytest.param(["--lr", "nan"], id="nan-lr"),
    pytest.param(["--seed", "-1"], id="negative-seed"),
])
def test_bad_training_settings_are_typed_errors(tmp_path, capsys, flag):
    ds, ckpt = tmp_path / "ds", tmp_path / "ckpt"
    assert _gen_small(ds, 2) == 0
    capsys.readouterr()
    rc = cli.main(["train", "--dataset", str(ds), "--ckpt", str(ckpt), "--epochs", "1", *flag])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and "Traceback" not in err
    assert not ckpt.exists()


def test_negative_seed_is_a_typed_error_for_eval_and_experiment(tmp_path, capsys):
    ds, ckpt, out = tmp_path / "ds", tmp_path / "ckpt", tmp_path / "r"
    assert _gen_small(ds, 2) == 0
    assert cli.main(["train", "--dataset", str(ds), "--ckpt", str(ckpt), "--epochs", "1",
                     "--baseline", "random-selection"]) == 0
    capsys.readouterr()
    for argv in (["eval", "--dataset", str(ds), "--ckpt", str(ckpt), "--baseline", "random-selection"],
                 ["experiment", "--mode", "homo-cis", "--train-samples", "1", "--val-samples", "1"]):
        rc = cli.main([*argv, "--seed", "-1", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and "seed" in err and "-1" in err and "Traceback" not in err
        assert not (out / "metrics.json").exists()


@pytest.mark.parametrize("source,named", [
    pytest.param([], "--ckpt", id="neither"),
    pytest.param(["--ckpt", "c", "--train-dataset", "t"], "--train-dataset", id="both"),
    pytest.param(["--ckpt", "c", "--epochs", "1"], "--epochs", id="epochs"),
    pytest.param(["--ckpt", "c", "--lr", "1e-3"], "--lr", id="lr"),
    pytest.param(["--ckpt", "c", "--seed", "1"], "--seed", id="seed"),
    pytest.param(["--ckpt", "c", "--request-threshold", "0.5"], "--request-threshold", id="request-threshold"),
])
def test_sweep_takes_a_checkpoint_or_a_training_set(tmp_path, capsys, source, named):
    # sweep takes checkpoints only; the dataset is never read: argparse rejects the call first
    rc = cli.main(["sweep", "--dataset", str(tmp_path / "missing"), *source, "--out", str(tmp_path / "s.csv")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "error: " in err and named in err
    assert not (tmp_path / "s.csv").exists()


def test_sweep_scores_each_checkpoint_against_its_own_protocol_off_pass(tmp_path, capsys):
    ds, out = tmp_path / "ds", tmp_path / "s.csv"
    assert _gen_small(ds, 4) == 0
    ckpts = [tmp_path / f"r{r}" for r in (2, 8)]
    for seed, (r, ckpt) in enumerate(zip((2, 8), ckpts)):  # two seeds, so the two referents differ
        assert cli.main(["train", "--dataset", str(ds), "--ckpt", str(ckpt), "--epochs", "1",
                         "--request-dim", str(r), "--seed", str(seed)]) == 0
    rc = cli.main(["sweep", "--dataset", str(ds), "--ckpt", *map(str, ckpts),
                   "--grid", "0.5", "1.0", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == "request_dim,threshold,avg_miou,mbpf,ce"
    assert [line.split(",")[:2] for line in lines[1:]] == [["2", "0.5"], ["2", "1.0"], ["8", "0.5"], ["8", "1.0"]]
    dataset = scenes.load_dataset(ds)
    offs = []
    for ckpt, group in zip(ckpts, (lines[1:3], lines[3:5])):
        cfg, params = harness.load_model("dcp-net", dataset, ckpt)
        off, _ = harness.evaluate_dcp(dataset, params, replace(cfg, request_threshold=0.0))
        offs.append(off.miou_avg)
        for line, thresh in zip(group, (0.5, 1.0)):
            record, _ = harness.evaluate_dcp(dataset, params, replace(cfg, request_threshold=thresh))
            ce = mt.collaboration_efficiency(record.miou_avg, off.miou_avg, record.comm_cost_mbpf)
            assert line.split(",")[2:] == [f"{record.miou_avg:.6f}", f"{record.comm_cost_mbpf:.6f}",
                                           "" if ce is None else f"{ce:.6f}"]
    assert offs[0] != offs[1]  # so a referent shared by both checkpoints would show


def test_every_checkpoint_is_checked_before_any_frame_runs(tmp_path, capsys, monkeypatch):
    def reached(*args, **kwargs):
        raise AssertionError("a frame ran before every checkpoint was checked")

    ds, five, ckpt, ckpt5, out = (tmp_path / name for name in ("ds", "five", "ckpt", "ckpt5", "s.csv"))
    assert _gen_small(ds, 2) == 0
    assert _gen_small(five, 2, classes="5") == 0
    for data, dest in ((ds, ckpt), (five, ckpt5)):
        assert cli.main(["train", "--dataset", str(data), "--ckpt", str(dest), "--epochs", "1"]) == 0
    monkeypatch.setattr(pr, "run_frame", reached)
    capsys.readouterr()
    rc = cli.main(["sweep", "--dataset", str(ds), "--ckpt", str(ckpt), str(ckpt), str(ckpt5), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and "ckpt5" in err and "does not fit" in err
    assert not out.exists()


def test_bad_threshold_grid_fails_before_any_frame_runs(tmp_path, capsys, monkeypatch):
    def reached(*args, **kwargs):
        raise AssertionError("a frame ran before the threshold grid was checked")

    ds, ckpt, out = tmp_path / "ds", tmp_path / "ckpt", tmp_path / "s.csv"
    assert _gen_small(ds, 2) == 0
    assert cli.main(["train", "--dataset", str(ds), "--ckpt", str(ckpt), "--epochs", "1"]) == 0
    monkeypatch.setattr(pr, "run_frame", reached)
    capsys.readouterr()
    sweep = ["sweep", "--dataset", str(ds), "--ckpt", str(ckpt), "--out", str(out), "--grid"]
    for grid in (["0.5", "nan"], ["1.5"], ["-0.1", "0.5"]):
        rc = cli.main([*sweep, *grid])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and "threshold grid" in err
    assert cli.main(sweep) == 2  # --grid with no values
    capsys.readouterr()
    assert not out.exists()
    dataset = scenes.load_dataset(ds)
    cfg, params = harness.load_model("dcp-net", dataset, ckpt)
    with pytest.raises(InputError, match="threshold grid"):
        harness.sweep_request_threshold(dataset, params, cfg, [])


def test_readme_commands_parse():
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(), re.M | re.S)
    commands = [line for block in blocks for line in block.splitlines() if line.startswith("dcpnet ")]
    assert len(commands) >= 10
    for line in commands:
        try:
            cli.build_parser().parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


def test_negative_dump_count_fails_before_any_frame_runs(tmp_path, capsys, monkeypatch):
    def reached(*args, **kwargs):
        raise AssertionError("a frame ran before the dump count was checked")

    ds, ckpt, out = tmp_path / "ds", tmp_path / "ckpt", tmp_path / "r"
    assert _gen_small(ds, 3) == 0
    assert cli.main(["train", "--dataset", str(ds), "--ckpt", str(ckpt), "--epochs", "1"]) == 0
    monkeypatch.setattr(pr, "run_frame", reached)
    capsys.readouterr()
    rc = cli.main(["eval", "--dataset", str(ds), "--ckpt", str(ckpt), "--out", str(out), "--dump-predictions", "-1"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and "--dump-predictions -1" in err
    assert not out.exists()


def test_one_class_has_one_gray_level_in_every_dump(tmp_path):
    sample = scenes.make_sample(small_spec(), "homo-cis", 0, 0, n_platforms=2)  # 3 classes
    mask = sample.masks[sample.victim]
    assert mask.max() == 2
    prediction = np.ones_like(mask)  # class 1 everywhere
    result = pr.FrameResult([prediction, prediction], [], pr.CommLedger())
    reports.emit_report([], tmp_path, cli._victim_dumps([result], [sample], 1))
    assert (reports.read_pgm(tmp_path / "frame0000_pred.pgm") == 128).all()
    levels = {0: 0, 1: 128, 2: 255}
    assert np.array_equal(reports.read_pgm(tmp_path / "frame0000_mask.pgm"), np.vectorize(levels.get)(mask))


@pytest.mark.parametrize("cmd,method,flag", [
    pytest.param("train", "no-interaction", ["--request-dim", "2"], id="train-request-dim"),
    pytest.param("eval", "concat-all", ["--request-threshold", "0.1"], id="eval-request-threshold"),
    pytest.param("eval", "no-interaction", ["--seed", "5"], id="eval-seed-baseline"),
    pytest.param("eval", None, ["--seed", "5"], id="eval-seed-dcp-net"),
])
def test_options_the_method_ignores_are_rejected(tmp_path, capsys, cmd, method, flag):
    ds, ckpt, out = tmp_path / "ds", tmp_path / "ckpt", tmp_path / "r"
    baseline = ["--baseline", method] if method else []
    assert _gen_small(ds, 2) == 0
    argv = [cmd, "--dataset", str(ds), "--ckpt", str(ckpt), *baseline, *flag]
    if cmd == "eval":  # a checkpoint the command would otherwise evaluate
        assert cli.main(["train", "--dataset", str(ds), "--ckpt", str(ckpt), "--epochs", "1", *baseline]) == 0
        argv += ["--out", str(out)]
    capsys.readouterr()
    rc = cli.main(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: {flag[0]} ") and "Traceback" not in err
    assert not (out if cmd == "eval" else ckpt).exists()


def test_the_separation_default_lives_in_world_spec(tmp_path, capsys):
    assert WorldSpec().min_view_separation == 48
    assert WorldSpec(world_size=80).min_view_separation == 16
    for bad in (17, -1):
        with pytest.raises(ConfigError, match="separation"):
            WorldSpec(world_size=80, min_view_separation=bad)

    def gen(out, *flags):
        return cli.main(["gen", "--mode", "homo-pis", "--samples", "2", "--out", str(out),
                         "--world-size", "80", "--view-size", "64", *flags])

    ds, bad = tmp_path / "ds", tmp_path / "bad"
    assert gen(ds) == 0
    expected = scenes.make_dataset(WorldSpec(world_size=80, min_view_separation=16), "homo-pis", 2, seed=0)
    for got, want in zip(scenes.load_dataset(ds), expected):
        assert all(np.array_equal(a, b) for a, b in zip(got.views + got.masks, want.views + want.masks))
    capsys.readouterr()
    rc = gen(bad, "--min-separation", "17")
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith("error: ") and "separation 17" in err
    assert not bad.exists()


def _tree(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_omitted_options_match_the_library_defaults_byte_for_byte(tmp_path, capsys):
    spec, tcfg, mcfg = WorldSpec(), TrainConfig(), ModelConfig()
    sample = inspect.signature(scenes.make_sample).parameters
    spelled = {
        "gen": ["--world-size", spec.world_size, "--view-size", spec.view_size, "--classes", spec.classes,
                "--platforms", sample["n_platforms"].default, "--noise-strength", sample["noise_strength"].default,
                "--min-separation", spec.min_view_separation],
        "train": ["--epochs", tcfg.epochs, "--lr", tcfg.lr, "--batch-size", tcfg.batch_size, "--seed", tcfg.seed,
                  "--supervision", tcfg.supervision, "--request-dim", mcfg.request_dim],
        "eval": ["--comm-accounting", inspect.signature(harness.evaluate).parameters["comm_accounting"].default,
                 "--request-threshold", mcfg.request_threshold],
    }
    trees = []
    for name, spell in (("omitted", False), ("spelled", True)):
        root = tmp_path / name
        ds, ckpt, out = root / "ds", root / "ckpt", root / "report"

        def run(argv, cmd):
            assert cli.main([*argv, *(map(str, spelled[cmd]) if spell else [])]) == 0

        run(["gen", "--mode", "homo-cis", "--samples", "2", "--out", str(ds)], "gen")
        run(["train", "--dataset", str(ds), "--ckpt", str(ckpt), "--curve", str(root / "curve.csv")], "train")
        run(["eval", "--dataset", str(ds), "--ckpt", str(ckpt), "--out", str(out), "--dump-predictions", "1"], "eval")
        trees.append(_tree(root))
    capsys.readouterr()
    assert len(trees[0]) > 20 and trees[0] == trees[1]


# the library owners of each subcommand's options; a library default belongs there alone
OWNERS = {
    "gen": (WorldSpec, scenes.make_dataset, scenes.make_sample),
    "train": (TrainConfig, ModelConfig),
    "eval": (ModelConfig, harness.evaluate),
    "sweep": (harness.sweep_request_threshold,),
    "report": (),
    "experiment": (harness.run_experiment,),
}


def _library_defaults(owner) -> set:
    if isinstance(owner, type):
        return {f.name for f in fields(owner)}
    return {k for k, p in inspect.signature(owner).parameters.items() if p.default is not p.empty}


def test_no_option_restates_a_library_default():
    [commands] = [a.choices for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(commands) == set(OWNERS)
    checked = set()
    for name, parser in commands.items():
        owned = set().union(*map(_library_defaults, OWNERS[name]))
        for action in parser._actions:
            if action.dest in owned:
                checked.add((name, action.dest))
                assert action.default is argparse.SUPPRESS, f"{name} --{action.dest} restates a library default"
    assert {("gen", "min_view_separation"), ("gen", "n_platforms"), ("gen", "noise_strength"),
            ("train", "request_dim"), ("eval", "seed"), ("sweep", "grid"), ("experiment", "seed")} <= checked
    assert len(checked) == 20
