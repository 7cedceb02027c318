"""The four benchmark workloads, each with its own set-up and output checks.

A workload object is built by its set-up (inputs, parameters and a
warm-up cycle for train and infer-collab, one warm-up unit for gen and
sweep) and then runs whole cycles, the same fixed set of units each time.  `cycle()` returns one
(unit key, wall seconds, reference seconds, items) tuple per timed unit.
Checks run outside the timed calls and add to the shared `Tally`.  Every
workload uses the default ModelConfig (4 platforms, 64 px views, 6
classes) and homo-cis data with the noise settings of the tests.

Reference seconds are wall seconds at a fixed host speed.  On a shared
virtual machine (measured: 2 vCPUs, x86-64) speed swings by up to 1.6x
within seconds and stays slow or fast for minutes, because of load
elsewhere on the physical host.  A fixed probe
of small numpy ops and Python loop work, like the engine's, is timed
before and after every unit, and the unit's wall time is scaled by
PROBE_REF_S over the mean of the two probes.  The probe does not use
dcpnet, so changes to the program cannot move it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from common import CHECKPOINT_DIR, NOISE, VAL_SEED
from dcpnet import harness, metrics, protocol, scenes, training
from dcpnet.config import ModelConfig, WorldSpec
from dcpnet.errors import ContractError, DcpError

# DCPM framing: 4 magic + 1 kind + 2 src + 2 dst + 4 frame + 4 payload length
WIRE_HEADER_BYTES = 17
SWEEP_GRID = [round(0.1 * i, 1) for i in range(11)]
SWEEP_PASSES = len(SWEEP_GRID) + 1  # the grid plus the protocol-off reference pass

# probe time on an unloaded host: its fast-state time on a 2-vCPU x86-64
# virtual machine with OpenBLAS 0.3.31 on one thread
PROBE_REF_S = 130e-6
_PROBE_A = np.random.default_rng(0).normal(size=(64, 72))
_PROBE_B = np.random.default_rng(1).normal(size=(72, 16))


def probe() -> float:
    """Seconds taken by a fixed mix of small matmuls and Python loop work."""
    t0 = perf_counter()
    for _ in range(8):
        float(np.maximum(_PROBE_A @ _PROBE_B, 0.0).sum())
    x = 0
    for i in range(1500):
        x += i * i
    return perf_counter() - t0


class Timer:
    """Times one unit at a time, probing the host's speed after each."""

    def __init__(self):
        self.last_probe = probe()

    def begin(self) -> None:
        self.t0 = perf_counter()

    def end(self) -> tuple[float, float]:
        """Wall seconds since `begin()`, and the same at the reference speed."""
        wall = perf_counter() - self.t0
        after = probe()
        ref = wall * 2 * PROBE_REF_S / (self.last_probe + after)
        self.last_probe = after
        return wall, ref


@dataclass
class Tally:
    """Operations attempted and failed, run-level problems, and the item
    id that traced spans are stamped with."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    tracer: object = None

    def add(self, items: int, ok: bool, what: str = "") -> None:
        self.attempted += items
        if not ok:
            self.failed += items
            self.problems.append(what)

    def start_item(self) -> None:
        if self.tracer is not None:
            self.tracer.item += 1


def traffic_metrics(requests: int, relevances: int, grants: int, wire_bytes: int, frames: int) -> dict:
    """Per-frame message counts, bytes and MB/frame over all message kinds."""
    return {
        "protocol.requests_per_frame": requests / frames,
        "protocol.relevances_per_frame": relevances / frames,
        "protocol.grants_per_frame": grants / frames,
        "protocol.wire_bytes_per_frame": wire_bytes / frames,
        "protocol.grant_ratio": grants / requests if requests else 0.0,
        "protocol.mbpf_total": wire_bytes / frames / 2**20,
    }


def _val_pool(size: int) -> list:
    return scenes.make_dataset(WorldSpec(), "homo-cis", size, seed=VAL_SEED, **NOISE)


def _same_sample(a, b) -> bool:
    return (
        all(np.array_equal(x, y) for x, y in zip(a.views, b.views))
        and all(np.array_equal(x, y) for x, y in zip(a.masks, b.masks))
        and len(a.views) == len(b.views) == len(a.masks) == len(b.masks)
        and (a.degraded, a.victim, a.clean_twin, a.mode, a.seed, a.frame)
        == (b.degraded, b.victim, b.clean_twin, b.mode, b.seed, b.frame)
    )


class Gen:
    """make_dataset -> save_dataset -> load_dataset on the default 128 px
    world, for 24 chunks of 4 samples with their own seeds; only scenes and
    tensorio run.  World cost varies with the number of shapes drawn, so
    a cycle covers 96 worlds to keep the seed's share of the spread small."""

    CHUNKS = 24
    CHUNK = 4

    def __init__(self, seed: int, tally: Tally, workdir):
        self.spec = WorldSpec()
        self.seeds = [seed * 100_000 + k for k in range(self.CHUNKS)]
        self.tally = tally
        self.dir = workdir / "gen"
        self.timer = Timer()
        self._unit(0)

    def _unit(self, k: int):
        self.tally.start_item()
        self.timer.begin()
        try:
            made = scenes.make_dataset(self.spec, "homo-cis", self.CHUNK, seed=self.seeds[k], **NOISE)
            scenes.save_dataset(made, self.dir)
            loaded = scenes.load_dataset(self.dir)
        except DcpError as exc:
            self.tally.add(self.CHUNK, False, f"gen chunk {self.seeds[k]}: {exc!r}")
            return []
        wall, ref = self.timer.end()
        ok = len(made) == len(loaded) == self.CHUNK and all(map(_same_sample, made, loaded))
        self.tally.add(self.CHUNK, ok, f"gen chunk {self.seeds[k]}: loaded samples differ from generated")
        return [(k, wall, ref, self.CHUNK)]

    def cycle(self):
        return [unit for k in range(self.CHUNKS) for unit in self._unit(k)]

    def guards(self) -> dict:
        return {}


class Train:
    """training.train of DCP-Net (centralized soft fusion, victim_only,
    batch 2, Adam) from a fresh init, one timed unit per epoch."""

    POOL = 4
    EPOCHS = 8

    def __init__(self, seed: int, tally: Tally, workdir):
        self.cfg = ModelConfig()
        self.seed = seed
        self.tally = tally
        self.pool = scenes.make_dataset(WorldSpec(), "homo-cis", self.POOL, seed=seed, **NOISE)
        self.tcfg = training.TrainConfig(epochs=self.EPOCHS, seed=seed)
        self.final_losses: list[float] = []
        self.timer = Timer()
        self.cycle()

    def _epoch_end(self, epoch: int, params) -> None:
        self.epochs.append((epoch, *self.timer.end(), self.POOL))
        self.timer.begin()

    def cycle(self):
        params = harness.init_dcp_params(self.cfg, self.seed)
        items = self.POOL * self.EPOCHS
        self.epochs = []
        self.tally.start_item()
        self.timer.begin()
        try:
            curve = training.train(self.pool, params, self.cfg, self.tcfg, on_epoch_end=self._epoch_end)
        except ContractError as exc:
            self.tally.add(items, False, f"train: {exc!r}")
            return []
        steps = math.ceil(self.POOL / self.tcfg.batch_size)
        final = float(np.mean(curve.losses[-steps:]))
        ok = all(math.isfinite(x) for x in curve.losses) and len(self.epochs) == self.EPOCHS
        self.tally.add(items, ok, "train: non-finite loss or missing epoch")
        self.final_losses.append(final)
        return self.epochs

    def guards(self) -> dict:
        self.tally.add(1, len(set(self.final_losses)) <= 1,
                       f"train: final loss differs between episodes {self.final_losses}")
        return {"training.loss_final": self.final_losses[-1]} if self.final_losses else {}


class InferCollab:
    """protocol.run_frame per frame with request_threshold=1.0, so every
    platform requests from every other one: the protocol's worst case."""

    POOL = 32

    def __init__(self, seed: int, tally: Tally, workdir):
        self.cfg = ModelConfig(request_threshold=1.0)
        self.params = harness.load_checkpoint(CHECKPOINT_DIR)
        self.pool = _val_pool(self.POOL)
        self.rng = np.random.default_rng(seed)
        self.tally = tally
        self.traffic = Counter()
        self.mious: list[float] = []
        fs = self.cfg.feature_size
        self.payload = {
            protocol.KIND_REQUEST: 4 * self.cfg.request_dim,
            protocol.KIND_RELEVANCE: 4,
            protocol.KIND_GRANT: 4 * fs * fs * self.cfg.feature_channels,
        }
        self.timer = Timer()
        self.cycle()

    def _check(self, sample, res) -> bool:
        n = sample.n_platforms
        sent = Counter((src, kind) for _, src, _, kind, _ in res.ledger.entries)
        received = Counter((dst, kind) for _, _, dst, kind, _ in res.ledger.entries)
        for i, st in enumerate(res.states):
            if st.requested and (
                sent[i, protocol.KIND_REQUEST] != n - 1 or received[i, protocol.KIND_RELEVANCE] != n - 1
            ):
                return False
        expected_bytes = sum(WIRE_HEADER_BYTES + self.payload[kind] for *_, kind, _ in res.ledger.entries)
        return res.ledger.total_wire_bytes == expected_bytes and all(
            p.shape == m.shape and p.min() >= 0 and p.max() < self.cfg.classes
            for p, m in zip(res.predictions, sample.masks)
        )

    def cycle(self):
        units = []
        victim_preds = [None] * self.POOL
        for idx in self.rng.permutation(self.POOL):
            sample = self.pool[idx]
            self.tally.start_item()
            self.timer.begin()
            try:
                res = protocol.run_frame(sample, self.params, self.cfg)
            except DcpError as exc:
                self.tally.add(1, False, f"infer frame {sample.frame}: {exc!r}")
                return units
            units.append((idx, *self.timer.end(), 1))
            self.tally.add(1, self._check(sample, res), f"infer frame {sample.frame}: bad traffic or prediction")
            counts = res.ledger.counts()
            self.traffic.update(counts)
            self.traffic["wire_bytes"] += res.ledger.total_wire_bytes
            self.traffic["frames"] += 1
            victim_preds[idx] = res.predictions[sample.victim]
        self.mious.append(metrics.miou(victim_preds, [s.masks[s.victim] for s in self.pool], self.cfg.classes))
        return units

    def guards(self) -> dict:
        if not self.mious:
            return {}
        self.tally.add(1, len(set(self.mious)) <= 1, f"infer: victim mIoU differs between passes {self.mious}")
        t = self.traffic
        out = traffic_metrics(t["request"], t["relevance"], t["grant"], t["wire_bytes"], t["frames"])
        out["metrics.victim_miou"] = self.mious[-1]
        return out


class Sweep:
    """harness.sweep_request_threshold over the default grid (11
    thresholds plus the protocol-off pass) with the trained checkpoint,
    one timed call per frame, each counted as 12 frame-passes."""

    POOL = 32

    def __init__(self, seed: int, tally: Tally, workdir):
        self.cfg = ModelConfig()
        self.params = harness.load_checkpoint(CHECKPOINT_DIR)
        self.pool = _val_pool(self.POOL)
        self.rng = np.random.default_rng(seed)
        self.tally = tally
        self.timer = Timer()
        harness.sweep_request_threshold(self.pool[:1], self.params, self.cfg)

    def cycle(self):
        units = []
        for idx in self.rng.permutation(self.POOL):
            self.tally.start_item()
            self.timer.begin()
            try:
                rows = harness.sweep_request_threshold([self.pool[idx]], self.params, self.cfg)
            except DcpError as exc:
                self.tally.add(SWEEP_PASSES, False, f"sweep: {exc!r}")
                return units
            units.append((idx, *self.timer.end(), SWEEP_PASSES))
            mbpf = [r.comm_mbpf for r in rows]
            ok = (
                [r.knob for r in rows] == SWEEP_GRID
                and mbpf[0] == 0.0
                and all(b >= a for a, b in zip(mbpf, mbpf[1:]))
            )
            self.tally.add(SWEEP_PASSES, ok, "sweep: rows off the grid or MBpf not monotone from 0")
        return units

    def guards(self) -> dict:
        return {}


WORKLOADS = {"gen": Gen, "train": Train, "infer-collab": InferCollab, "sweep": Sweep}
