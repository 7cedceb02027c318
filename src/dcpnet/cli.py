"""Command-line entry points: gen / train / eval / sweep / report / experiment."""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import fields, replace

from . import harness, reports, scenes
from .baselines import BASELINES
from .config import WorldSpec
from .errors import DcpError, InputError
from .training import TrainConfig


def build_parser() -> argparse.ArgumentParser:
    """An omitted option stays out of `args`, so the library's default is its only one."""
    parser = argparse.ArgumentParser(prog="dcpnet", description="collaborative perception workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help):
        cmd = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        cmd.set_defaults(run=run)
        return cmd

    g = command("gen", _cmd_gen, "generate a synthetic multi-view dataset")
    g.add_argument("--mode", choices=scenes.MODES, required=True)
    g.add_argument("--samples", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--world-size", type=int)
    g.add_argument("--view-size", type=int)
    g.add_argument("--classes", type=int)
    g.add_argument("--platforms", type=int, dest="n_platforms")
    g.add_argument("--noise-strength", type=float)
    g.add_argument("--min-separation", type=int, dest="min_view_separation",
                   help="minimum partner-crop distance; default clamps 48 to the world")

    t = command("train", _cmd_train, "train a model on a generated dataset")
    t.add_argument("--dataset", required=True)
    t.add_argument("--ckpt", required=True, help="output checkpoint directory")
    t.add_argument("--baseline", choices=BASELINES, default=None,
                   help="train a baseline head instead of the full network")
    t.add_argument("--epochs", type=int)
    t.add_argument("--lr", type=float)
    t.add_argument("--batch-size", type=int)
    t.add_argument("--seed", type=int)
    t.add_argument("--supervision", choices=("victim_only", "all_platforms"))
    t.add_argument("--curve", default=None, help="optional loss-curve CSV path")
    t.add_argument("--request-dim", type=int, help="compressed request length (DCP-Net only)")

    e = command("eval", _cmd_eval, "evaluate a checkpoint on a dataset")
    e.add_argument("--dataset", required=True)
    e.add_argument("--ckpt", required=True)
    e.add_argument("--baseline", choices=BASELINES, default=None)
    e.add_argument("--out", required=True)
    e.add_argument("--seed", type=int, help="partner draw of random-selection")
    e.add_argument("--request-threshold", type=float, help="DCP-Net only")
    e.add_argument("--dump-predictions", type=int, default=0,
                   help="dump the first N frames as PGM/PPM files")

    s = command("sweep", _cmd_sweep, "request-threshold ablation of one or more checkpoints")
    s.add_argument("--dataset", required=True)
    s.add_argument("--ckpt", required=True, nargs="+", help="trained DCP-Net checkpoints")
    s.add_argument("--grid", type=float, nargs="+",
                   help="request thresholds (default 0.0 to 1.0 in steps of 0.1)")
    s.add_argument("--out", required=True)

    r = command("report", _cmd_report, "rewrite tables.csv from a metrics.json")
    r.add_argument("--metrics", required=True)
    r.add_argument("--out", required=True)

    x = command("experiment", _cmd_experiment, "train and compare the methods of one budgeted experiment")
    x.add_argument("--mode", choices=tuple(harness.EXPERIMENT_METHODS), required=True)
    x.add_argument("--train-samples", type=int)
    x.add_argument("--val-samples", type=int)
    x.add_argument("--seed", type=int)
    x.add_argument("--noise-strength", type=float)
    x.add_argument("--out", default=None, help="report directory (default runs/<mode>)")

    return parser


def _given(args, *names) -> dict:
    """The options among `names` that the user set."""
    return {k: v for k, v in vars(args).items() if k in names}


def _cmd_gen(args) -> int:
    spec = WorldSpec(**_given(args, *(f.name for f in fields(WorldSpec))))
    samples = scenes.make_dataset(
        spec, args.mode, args.samples, args.seed, **_given(args, "n_platforms", "noise_strength")
    )
    scenes.save_dataset(samples, args.out)
    print(f"wrote {len(samples)} samples to {args.out}")
    return 0


def _cmd_train(args) -> int:
    if args.baseline and "request_dim" in args:
        raise InputError(f"--request-dim sets DCP-Net's request length; {args.baseline} sends no requests")
    tcfg = TrainConfig(**_given(args, *(f.name for f in fields(TrainConfig))))
    dataset = scenes.load_dataset(args.dataset)
    cfg = harness.model_config(dataset, **_given(args, "request_dim"))
    params, curve = harness.train_method(args.baseline or "dcp-net", dataset, cfg, tcfg)
    harness.save_checkpoint(params, args.ckpt)
    if args.curve:
        curve.to_csv(args.curve)
    final = curve.losses[-1] if curve.losses else float("nan")
    print(f"trained {tcfg.epochs} epochs, final loss {final:.4f}, checkpoint in {args.ckpt}")
    return 0


def _victim_dumps(results, dataset, count: int) -> dict:
    """Prediction, mask and view of the victim platform for the first frames.

    Class k of the dataset's K classes is drawn at gray level k / (K - 1)."""
    top = dataset[0].classes - 1
    dumps = {}
    for i, (res, sample) in enumerate(zip(results[:count], dataset)):
        dumps[f"frame{i:04d}_pred"] = res.predictions[sample.victim] / top
        dumps[f"frame{i:04d}_mask"] = sample.masks[sample.victim] / top
        dumps[f"frame{i:04d}_view"] = sample.views[sample.victim]
    return dumps


def _cmd_eval(args) -> int:
    method = args.baseline or "dcp-net"
    if args.dump_predictions < 0:
        raise InputError(f"--dump-predictions {args.dump_predictions} is negative")
    if args.baseline and "request_threshold" in args:
        raise InputError(f"--request-threshold gates DCP-Net's requests; {args.baseline} sends none")
    if "seed" in args and args.baseline != "random-selection":
        raise InputError(f"--seed draws random-selection's partners; {method} draws none")
    dataset = scenes.load_dataset(args.dataset)
    cfg, params = harness.load_model(method, dataset, args.ckpt)
    cfg = replace(cfg, **_given(args, "request_threshold"))
    record, results = harness.evaluate(method, dataset, params, cfg, **_given(args, "seed"))
    reports.emit_report([record], args.out, _victim_dumps(results, dataset, args.dump_predictions))
    print(f"avg mIoU {100 * record.miou_avg:.2f}, comm {record.comm_cost_mbpf:.4f} MBpf -> {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    dataset = scenes.load_dataset(args.dataset)
    # every checkpoint must fit the dataset before the first frame runs
    models = [harness.load_model("dcp-net", dataset, ckpt) for ckpt in args.ckpt]
    rows = [row for cfg, params in models
            for row in harness.sweep_request_threshold(dataset, params, cfg, **_given(args, "grid"))]
    harness.sweep_rows_to_csv(rows, args.out)
    print(f"wrote sweep table to {args.out}")
    return 0


def _cmd_report(args) -> int:
    records = reports.load_metrics(args.metrics)
    reports.emit_report(records, args.out)
    print(f"rewrote report in {args.out}")
    return 0


def _cmd_experiment(args) -> int:
    out = args.out or f"runs/{args.mode}"
    t0 = time.time()
    run = harness.run_experiment(
        args.mode, **_given(args, "train_samples", "val_samples", "seed", "noise_strength")
    )
    records = list(run.records.values())
    print(f"trained and evaluated {len(records)} methods in {time.time() - t0:.0f} s")
    print("\n".join([reports.TABLE_HEADER] + [reports.table_row(r) for r in records]))
    dumps = {}
    if args.mode == "homo-cis":
        dcp, ni = run.records["dcp-net"], run.records["no-interaction"]
        gap = 100.0 * (dcp.miou_noisy - ni.miou_noisy)
        select = "-" if dcp.select_acc is None else f"{dcp.select_acc:.3f}"
        print(f"victim mIoU (degraded frames): {100 * dcp.miou_noisy:.2f} "
              f"vs no-interaction {100 * ni.miou_noisy:.2f}  (gap {gap:+.2f} points)")
        print(f"degradation detection accuracy: {dcp.detect_acc:.3f}")
        print(f"clean-twin selection accuracy:  {select}")
        print(f"communication: {dcp.comm_cost_mbpf:.4f} MBpf")
        dumps = _victim_dumps(run.results["dcp-net"], run.val_set, 4)
    reports.emit_report(records, out, dumps)
    print(f"report written to {out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.run(args)
    except (DcpError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
