"""dcpnet benchmark: one workload per run, end-to-end or traced per-layer metrics.

    python3 benchmarks/run.py --workload train --seed 3 --seconds 15 --trace 0

`--trace 0` runs whole cycles of a workload for `--seconds` with nothing
patched, setting it up again before each fifth of that time (the median
set-up time is `setup_s`), and reports the end-to-end metrics of
BENCHMARK.json.  `--trace 1` runs untraced for half the time, then with
span wrappers installed for the other half, and reports the per-layer
metrics of BENCHMARK.json, per item (sample, frame or frame-pass), plus
the tracing overhead.  Times are scaled to a reference host speed, which
a probe timed around every unit measures (see workloads.py); the wall
times are printed beside them.  The last line of standard output is one
JSON object; earlier lines carry the environment stamp and the metrics
under their workload-specific names.  See benchmarks/README.md.
"""

from __future__ import annotations

import os

# one BLAS thread: the default thread count spreads training throughput
# by about 15% between processes on a 2-core machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from common import EXPECTED_PATH, ROOT, SRC, import_dcpnet

SETUP_REPEATS = 5
MIN_UNITS = 100  # so the 90th percentile has at least ten samples beyond it
# absolute tolerance of the accuracy guard; every other expected value is exact
TOLERANCE = {"metrics.victim_miou": 0.005}
# workload-specific names of the generic end-to-end metrics, with their units
ALIASES = {
    "gen": {"items_per_s": ("gen_samples_per_s", "samples/s")},
    "train": {"items_per_s": ("train_samples_per_s", "samples/s")},
    "infer-collab": {
        "items_per_s": ("frames_per_s", "frames/s"),
        "item_ms_p50": ("frame_ms_p50", "ms"),
        "item_ms_p90": ("frame_ms_p90", "ms"),
    },
    "sweep": {"items_per_s": ("sweep_frames_per_s", "frame-passes/s")},
}
GUARD_UNITS = {
    "training.loss_final": ("train_loss_final", "nats"),
    "metrics.victim_miou": ("victim_miou", "fraction"),
    "protocol.mbpf_total": ("mbpf_total", "MB/frame"),
}


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": len(os.listdir("/proc/self/task")),
        "git_commit": commit,
        "src_dcpnet_lines": sum(
            len(p.read_text().splitlines()) for p in sorted((SRC / "dcpnet").glob("*.py"))
        ),
    }


def measure(workload, seconds: float):
    """Timed units of whole cycles, until `seconds` have passed."""
    units = []
    t0 = perf_counter()
    while perf_counter() - t0 < seconds:
        units += workload.cycle()
    return units


def per_item_ms(units) -> float:
    """Reference milliseconds per item."""
    return 1e3 * sum(u[2] for u in units) / sum(u[3] for u in units)


def timings(setups, units, column: int) -> dict:
    """Time metrics from the wall (column 1) or reference (column 2) seconds."""
    ms = [1e3 * u[column] / u[3] for u in units]
    return {
        "setup_s": statistics.median(s[column - 1] for s in setups),
        "items_per_s": sum(u[3] for u in units) / sum(u[column] for u in units),
        "item_ms_p50": statistics.median(ms),
        "item_ms_p90": statistics.quantiles(ms, n=10)[-1] if len(ms) > 1 else ms[0],
    }


def check_expected(values: dict, expected: dict, tally) -> None:
    for name, want in expected.items():
        if name in values:
            got = values[name]
            ok = abs(got - want) <= TOLERANCE[name] if name in TOLERANCE else got == want
            tally.add(1, ok, f"{name} is {got!r}, expected {want!r}")


def end_to_end(wl_cls, args, tally, tracer, workdir, names) -> dict:
    from workloads import Timer

    # one set-up before each fifth of the run, so that their median samples
    # the host's speed across the run; the first set-up's workload is measured
    setups, units, workload, timer = [], [], None, Timer()
    for _ in range(SETUP_REPEATS):
        timer.begin()
        fresh = wl_cls(args.seed, tally, workdir)
        setups.append(timer.end())
        workload = workload or fresh
        del fresh  # a discarded set-up must not add to peak memory
        tally.add(1, tracer.clean(), "a span wrapper is installed in the untraced run")
        units += measure(workload, args.seconds / SETUP_REPEATS)
    tally.add(1, tracer.clean(), "a span wrapper is installed in the untraced run")
    tally.add(1, len(units) >= MIN_UNITS, f"only {len(units)} timed units, need {MIN_UNITS}")
    values = timings(setups, units, 2)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    guards = workload.guards()
    check_expected(guards, args.expected, tally)
    wall = timings(setups, units, 1)
    for name, value in values.items():
        alias, unit = ALIASES[args.workload].get(name, (name, names[name]))
        print(f"metric {alias} = {value!r} {unit}" + (f" (wall: {wall[name]!r})" if name in wall else ""))
    for name, value in guards.items():
        if name in GUARD_UNITS:
            print(f"metric {GUARD_UNITS[name][0]} = {value!r} {GUARD_UNITS[name][1]}")
    return values


def resolve(name, items, speed, tracer, summary) -> float:
    """A per-layer metric per item, from the tracer's counts or span times
    (scaled to the reference host speed)."""
    total, self_s, calls, _ = summary
    if name in tracer.counts:
        return tracer.counts[name] / items
    if name.endswith("_self_ms"):
        return 1e3 * speed * self_s.get(name[: -len("_self_ms")], 0.0) / items
    if name.endswith("_ms"):
        return 1e3 * speed * total.get(name[: -len("_ms")], 0.0) / items
    if name.endswith("_calls"):
        return calls.get(name[: -len("_calls")], 0) / items
    return 0.0


def per_layer(wl_cls, args, tally, tracer, workdir, names) -> dict:
    from workloads import traffic_metrics

    workload = wl_cls(args.seed, tally, workdir)
    tally.add(1, tracer.clean(), "a span wrapper is installed in the untraced run")
    untraced = measure(workload, args.seconds / 2)
    tracer.install()
    tally.tracer = tracer
    t0 = perf_counter()
    try:
        traced = measure(workload, args.seconds / 2)
    finally:
        wall = perf_counter() - t0
        tracer.uninstall()
        tally.tracer = None
    tally.add(1, tracer.clean(), "a span wrapper survived uninstall")
    summary = tracer.summary()
    tally.add(1, summary[3] <= wall, f"span self times sum to {summary[3]} s > traced wall {wall} s")
    items = sum(u[3] for u in traced)
    speed = sum(u[2] for u in traced) / sum(u[1] for u in traced)
    values = {name: resolve(name, items, speed, tracer, summary) for name in names}
    c = tracer.counts
    traffic = traffic_metrics(
        c["protocol.requests_per_frame"], c["protocol.relevances_per_frame"],
        c["protocol.grants_per_frame"], c["protocol.wire_bytes_per_frame"], items,
    )
    values.update(traffic)
    guards = workload.guards()
    check_expected(guards, args.expected, tally)
    values.update((name, v) for name, v in guards.items() if name not in traffic)
    check_expected(values, args.expected, tally)
    values["bench.trace_overhead_ms"] = per_item_ms(traced) - per_item_ms(untraced)
    values["bench.host_speed"] = speed
    values["bench.spans_per_item"] = len(tracer.spans) / items
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_dcpnet()
    import tracing
    from workloads import WORKLOADS, Tally

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    args.expected = json.loads(EXPECTED_PATH.read_text()).get(args.workload, {})
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = {m["name"]: m["unit"] for m in declared}

    tally = Tally()
    tracer = tracing.Tracer()
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        run = per_layer if args.trace else end_to_end
        values = run(WORKLOADS[args.workload], args, tally, tracer, workdir, names)
    finally:
        shutil.rmtree(workdir)
        if not any(tmp_root.iterdir()):
            tmp_root.rmdir()

    env = environment()
    tally.add(1, env["threads"] <= env["nproc"], f"{env['threads']} threads on {env['nproc']} cores")
    print("env " + json.dumps(env, sort_keys=True))
    for problem in tally.problems[:20]:
        print(f"benchmark check failed: {problem}", file=sys.stderr)
    missing = set(names) - set(values)
    if missing:
        raise SystemExit(f"benchmark: metrics not produced: {sorted(missing)}")
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
