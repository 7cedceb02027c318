"""Procedural multi-view world: overlapping crops, degradation, modes.

A scene sample is built by painting a small world of colored shapes with
an exact per-pixel class mask, cropping N overlapping views from it, and
optionally degrading one designated victim platform.  Three assembly
modes mirror increasingly hard collaboration settings:

* homo-cis  — a clean copy of the victim's view is planted on another
  platform (complete information supplement);
* homo-pis  — partners only hold their own partially overlapping crops;
* hetero-pis — as homo-pis, but partner views additionally pass a fixed
  "second sensor" transform (channel remap + resolution round-trip).

Samples are held at the precision their DCPT files store: float32 views,
computed in float64 and rounded once, and uint8 class ids, so a dataset
round-trips bitwise and `WorldSpec`, `ModelConfig` and the dataset header
cap the class count at 256.

`make_dataset` shares its frames across cores, with no option: frame k is
made by process k mod P, the caller and one worker per extra core
(`workers.borrowed`), and the dataset is bit-identical to the serial loop
of `make_sample`.  A worker is forked on the first call with two or more
samples and kept, so it runs the code as it was when it was forked: a
function patched later reaches only the caller's share.  One core, no
fork, a call off the main thread or a process forked from the worker's
owner runs the serial loop.
"""

from __future__ import annotations

import functools
import os
import re
import threading
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import workers
from .config import MAX_CLASSES, NoiseConfig, WorldSpec
from .errors import ConfigError, FormatError, InputError
from .tensorio import load_tensor, read_manifest, save_tensor, write_file

MODES = ("homo-cis", "homo-pis", "hetero-pis")
_KINDS = ("rect", "ellipse", "strip")  # shape kinds of the world painter

SHAPE_DENSITY = 1.0  # expected shapes per 32x32 world patch, roughly
DEGRADE_PROB = 0.5   # chance that a sample's victim view is degraded
_TRIES = 64          # uniform draws a partner crop gets to sit min_sep from the first
_SHARE = 16          # frames a process makes per round of make_dataset: what a worker holds at most

# fixed palette: one anchor color per class, background first
_PALETTE = np.array(
    [
        [0.15, 0.15, 0.15],
        [0.85, 0.20, 0.20],
        [0.20, 0.75, 0.25],
        [0.20, 0.35, 0.85],
        [0.90, 0.80, 0.20],
        [0.75, 0.25, 0.80],
        [0.25, 0.80, 0.80],
        [0.90, 0.55, 0.15],
    ]
)


@dataclass
class SceneSample:
    """One collaborative frame: N views with masks plus degradation info.

    Views and masks are held at the precision of their DCPT files, so a
    sample takes 4 bytes per pixel channel and 1 per class id; consumers
    widen where they compute (`autodiff.conv2d` widens a view in its patch copy)."""

    views: list[np.ndarray]          # N arrays H x W x 3, float32 values in [0, 1]
    masks: list[np.ndarray]          # N arrays H x W, uint8 class ids
    degraded: list[bool]
    victim: int
    clean_twin: int | None           # platform holding the victim's noise-free view (homo-cis)
    mode: str
    seed: int
    frame: int
    classes: int                     # masks hold class ids in [0, classes)

    @property
    def n_platforms(self) -> int:
        return len(self.views)


def _world_planes(n: int):
    """Buffers for the background noise (n x n x 3) and channel planes (3 x n x n) of an n px world."""
    return np.empty((n, n, 3)), np.empty((3, n, n))


class _WorldBuffers(threading.local):
    """Per thread, so that two threads never paint into one buffer;
    bounded like `autodiff._pad_buffers`."""

    def __init__(self):
        self.get = functools.lru_cache(maxsize=2)(_world_planes)


_world_buffers = _WorldBuffers()


def generate_world(spec: WorldSpec, rng: np.random.Generator):
    """Paint one world from `rng`: returns (image H x W x 3, mask H x W).

    Each shape is painted inside its clipped bounding box (a strip spans
    the world), one channel plane at a time, so a masked write is a run
    over one plane rather than over 3-wide pixel rows.  The draws, their
    order and so the world are those of the full-grid reference painter
    in tests/test_scenes.py.
    """
    if spec.classes > len(_PALETTE):
        raise ConfigError(f"at most {len(_PALETTE)} classes supported by the palette")
    n = spec.world_size
    # allocated before the painting temporaries, so that it does not end at the top
    # of the heap, which glibc trims when it is freed: the next world would then
    # fault its pages in anew (x86-64 glibc: 80 against 1 minor fault per default sample)
    image = np.empty((n, n, 3))
    background, planes = _world_buffers.get(n)
    # the draws of rng.normal(0.0, 0.02, size=(n, n, 3)), which returns 0.0 + 0.02 * z;
    # dropping the 0.0 + changes only the sign of a zero, and the palette add absorbs it
    rng.standard_normal(out=background)
    np.multiply(background.transpose(2, 0, 1), 0.02, out=planes)
    planes += _PALETTE[0][:, None, None]
    mask = np.zeros((n, n), dtype=np.int64)

    n_shapes = rng.poisson(SHAPE_DENSITY * (n / 32) ** 2)
    axis = np.arange(n)
    for _ in range(n_shapes):
        cls = int(rng.integers(1, spec.classes))
        kind = _KINDS[rng.integers(3)]  # the draw of rng.choice(_KINDS)
        cy, cx = rng.integers(0, n, size=2).tolist()
        ry, rx = rng.integers(n // 16, n // 4, size=2).tolist()
        if kind == "strip":
            angle = rng.uniform(0, np.pi)
            width = rng.integers(2, max(3, n // 20))
            rows = cols = slice(None)
            offset = np.subtract.outer((axis - cy) * np.cos(angle), (axis - cx) * np.sin(angle))
            region = np.abs(offset) <= width
        else:
            rows, cols = slice(max(cy - ry, 0), cy + ry + 1), slice(max(cx - rx, 0), cx + rx + 1)
            dy, dx = axis[rows] - cy, axis[cols] - cx
            region = ... if kind == "rect" else ((dy / ry) ** 2)[:, None] + (dx / rx) ** 2 <= 1.0
        # a rect fills its box, so its pixel noise is drawn in the box's shape
        size = (dy.size, dx.size) if region is ... else (np.count_nonzero(region),)
        color = _PALETTE[cls] + rng.normal(0.0, 0.04, size=3)
        noise = rng.normal(0.0, 0.02, size=(*size, 3))
        for c, plane in enumerate(planes):
            plane[rows, cols][region] = noise[..., c] + color[c]
        mask[rows, cols][region] = cls
    np.clip(planes, 0.0, 1.0, out=planes)
    for c, plane in enumerate(planes.astype(np.float32)):  # rounded once to float32, as views are held
        image[:, :, c] = plane
    return image, mask


def crop_views(
    image: np.ndarray,
    mask: np.ndarray,
    view_size: int,
    n_views: int,
    rng: np.random.Generator,
    min_sep: int = 0,
):
    """N randomly placed crops, as float32 views with their exact uint8 mask crops.

    The first crop lands anywhere.  Each later crop takes the first of up
    to 64 uniform draws that sits at least `min_sep` pixels (Chebyshev)
    from the first one, or the 64th when none does: the first crop may
    land where the constraint cannot be met.  Spread placement keeps
    partner views from collapsing onto the first view, so whole-view
    descriptors of different platforms stay distinguishable.

    The partners' candidates are drawn ahead, all 64 per partner in one
    call.  Unless the placement used them all, `rng` is then rewound to
    its state before that call and advanced by one call over exactly the
    draws it used.  numpy draws each bounded integer from the bit
    generator's 32-bit outputs, whose buffer is part of its state, so the
    offsets and the state `rng` ends in are those of drawing one pair per
    call until each partner fits.
    """
    if n_views < 2:
        raise InputError("need at least 2 views")
    world = image.shape[0]
    if view_size > world:
        raise InputError(f"view {view_size} larger than world {world}")
    hi = world - view_size + 1
    ovy, ovx = rng.integers(0, hi, size=2).tolist()
    saved = rng.bit_generator.state
    ahead = rng.integers(0, hi, size=(_TRIES * (n_views - 1), 2))
    fits = (np.maximum(np.abs(ahead[:, 0] - ovy), np.abs(ahead[:, 1] - ovx)) >= min_sep).tolist()
    picks, used = [], 0
    for _ in range(n_views - 1):
        tries = fits[used : used + _TRIES]
        used += tries.index(True) + 1 if True in tries else _TRIES
        picks.append(used - 1)
    if used < len(fits):  # rewind, then replay only the draws the placement used
        rng.bit_generator.state = saved
        rng.integers(0, hi, size=(used, 2))
    offsets = [(ovy, ovx)] + [tuple(pair) for pair in ahead[picks].tolist()]
    # exact: the image holds float32 values, the mask class ids below 256
    views = [image[oy : oy + view_size, ox : ox + view_size].astype(np.float32) for oy, ox in offsets]
    masks = [mask[oy : oy + view_size, ox : ox + view_size].astype(np.uint8) for oy, ox in offsets]
    return views, masks, offsets


def degrade(view: np.ndarray, cfg: NoiseConfig, rng: np.random.Generator) -> np.ndarray:
    """Apply one degradation, computed in float64 and rounded once to a
    new float32 view; the mask is never touched."""
    if cfg.kind == "gaussian":
        out = view + rng.normal(0.0, cfg.strength, size=view.shape)
        return np.clip(out, 0.0, 1.0, out=out).astype(np.float32)
    if cfg.kind == "occlusion":
        h, w = view.shape[:2]
        # sampled strictly inside [0.25, 0.5] so integer rounding of the
        # rectangle sides cannot push the realized area outside the band
        frac = rng.uniform(0.26, 0.49)
        rh = int(rng.integers(h // 2, h + 1))
        rw = max(1, min(w, int(round(frac * h * w / rh))))
        oy = int(rng.integers(0, h - rh + 1))
        ox = int(rng.integers(0, w - rw + 1))
        out = view.astype(np.float32)
        out[oy : oy + rh, ox : ox + rw] = 0.0
        return out
    if cfg.kind == "blur":
        pad = 2
        xp = np.pad(view, ((pad, pad), (pad, pad), (0, 0)), mode="edge")
        acc = np.zeros(view.shape)
        for i in range(5):
            for j in range(5):
                acc += xp[i : i + view.shape[0], j : j + view.shape[1]]
        return (acc / 25.0).astype(np.float32)
    raise InputError(f"unknown noise kind {cfg.kind!r}")


def _hetero_transform(view: np.ndarray) -> np.ndarray:
    """Fixed stand-in for a different imaging payload: channel remap plus
    a 2x down/up resolution round-trip."""
    remap = view[:, :, [2, 0, 1]] * np.array([0.9, 1.05, 0.85]) + 0.03
    down = remap[::2, ::2]
    up = np.repeat(np.repeat(down, 2, axis=0), 2, axis=1)
    return np.clip(up, 0.0, 1.0).astype(np.float32)


def make_sample(
    spec: WorldSpec,
    mode: str,
    frame: int,
    seed: int,
    n_platforms: int = 4,
    noise_kinds: tuple[str, ...] = ("gaussian", "occlusion"),
    noise_strength: float = 0.72,
) -> SceneSample:
    """Build one sample deterministically from (seed, frame)."""
    if seed < 0 or not 0 <= frame < 2**32:
        raise InputError(f"seed {seed} is negative or frame {frame} lies outside [0, 2**32)")
    if mode not in MODES:
        raise InputError(f"unknown mode {mode!r}, expected one of {MODES}")
    noises = [NoiseConfig(kind, noise_strength) for kind in noise_kinds]  # checked before any draw
    rng = np.random.default_rng((seed, frame))
    image, mask = generate_world(spec, rng)
    views, masks, _ = crop_views(
        image, mask, spec.view_size, n_platforms, rng, min_sep=spec.min_view_separation
    )

    victim = 0
    clean_view = views[victim]  # degrade returns a new view, so this stays the clean crop
    degraded = [False] * n_platforms
    if rng.random() < DEGRADE_PROB:
        degraded[victim] = True
        for noise in noises:
            views[victim] = degrade(views[victim], noise, rng)

    clean_twin = None
    if mode == "homo-cis":
        clean_twin = int(rng.integers(1, n_platforms))
        # into the twin's own crops, which it no longer needs
        views[clean_twin][...] = clean_view
        masks[clean_twin][...] = masks[victim]
    elif mode == "hetero-pis":
        for j in range(n_platforms):
            if j != victim:
                views[j] = _hetero_transform(views[j])

    return SceneSample(views, masks, degraded, victim, clean_twin, mode, seed, frame, spec.classes)


def _make_share(task, send) -> None:
    """A worker's share of a dataset: its samples in frame order, sent once all
    are made (a sample outgrows a pipe's buffer, so sending each at once would
    stall the worker until the caller has made its own share), ending with
    None at the first frame that fails."""
    spec, mode, frames, seed, kwargs = task
    made = []
    for frame in frames:
        try:
            made.append(make_sample(spec, mode, frame, seed, **kwargs))
        except Exception:
            made.append(None)
            break
    for sample in made:
        send(sample)


def make_dataset(
    spec: WorldSpec,
    mode: str,
    n_samples: int,
    seed: int,
    **kwargs,
) -> list[SceneSample]:
    """`make_sample(spec, mode, frame, seed, **kwargs)` for frames 0 .. n_samples - 1.

    With P processes (the caller and its workers, see `workers`), frame k
    is made by process k mod P, at most `_SHARE` frames per process before
    the workers' samples come back, and the caller puts them in frame
    order.  A frame that no process made (one that failed, those after it
    in its process's share, or a lost worker's) is made here at the end,
    in order, so the call returns or raises what the serial loop would."""
    if n_samples < 1:
        raise InputError(f"sample count {n_samples} is below 1")
    samples: list[SceneSample | None] = [None] * n_samples
    try:
        with workers.borrowed(_make_share, n_samples) as pool:
            p = len(pool) + 1
            for start in range(0, n_samples if pool else 0, p * _SHARE):  # without a pool, the loop below makes all
                frames = range(start, min(start + p * _SHARE, n_samples))
                for j, worker in enumerate(pool, 1):
                    worker.send((spec, mode, frames[j::p], seed, kwargs))
                for frame in frames[::p]:
                    try:
                        samples[frame] = make_sample(spec, mode, frame, seed, **kwargs)
                    except Exception:
                        break
                for j, worker in enumerate(pool, 1):
                    for frame in frames[j::p]:
                        samples[frame] = worker.receive()
                        if samples[frame] is None:
                            break
    except (EOFError, OSError):
        pass  # a worker was lost and the pool dropped; the frames it owed are made below
    return [make_sample(spec, mode, frame, seed, **kwargs) if s is None else s for frame, s in enumerate(samples)]


# ---------------------------------------------------------------------------
# on-disk layout: manifest.txt plus DCPT tensors per sample


# per-sample tensor files are named by frame id and platform index
_SAMPLE_FILE = re.compile(r"f(\d+)_(?:view|mask)(\d+)\.dcpt")


def save_dataset(samples: list[SceneSample], dirpath) -> None:
    if not samples:
        raise InputError("a dataset needs at least one sample")
    repeated = sorted(f for f, k in Counter(s.frame for s in samples).items() if k > 1)
    if repeated:
        raise InputError(f"frame ids {repeated} are shared by several samples; their tensor files would collide")
    classes = sorted({s.classes for s in samples})
    if len(classes) > 1:
        raise InputError(f"samples disagree on the class count: {classes}")
    modes = sorted({s.mode for s in samples})
    if len(modes) > 1:
        raise InputError(f"samples disagree on the mode: {modes}")
    unlisted = [(s.seed, s.frame) for s in samples if s.seed < 0 or not 0 <= s.frame < 2**32]
    if unlisted:
        raise InputError(f"(seed, frame) pairs {unlisted} have a negative seed or a frame outside [0, 2**32)")
    misfit = [s.frame for s in samples if (s.clean_twin is None) == (s.mode == "homo-cis")]
    if misfit:
        raise InputError(f"frames {misfit} do not fit {modes[0]}: a homo-cis sample has a clean twin, others none")
    d = Path(dirpath)
    d.mkdir(parents=True, exist_ok=True)
    write_file(d / "manifest.txt", b"")  # a save cut short must not load
    # a platform file beyond a rewritten frame's platform count would make load_dataset reject it
    platforms = {s.frame: s.n_platforms for s in samples}
    for name in os.listdir(d):
        m = _SAMPLE_FILE.fullmatch(name)
        if m and int(m[2]) >= platforms.get(int(m[1]), float("inf")):
            os.remove(d / name)
    prefix = os.path.join(d, "f")
    lines = [f"count {len(samples)} classes {classes[0]}"]
    for s in samples:
        twin = -1 if s.clean_twin is None else s.clean_twin
        flags = "".join("1" if f else "0" for f in s.degraded)
        lines.append(f"sample {s.frame} {s.mode} {s.seed} {s.victim} {twin} {flags}")
        for i in range(s.n_platforms):
            save_tensor(f"{prefix}{s.frame:05d}_view{i}.dcpt", s.views[i])
            save_tensor(f"{prefix}{s.frame:05d}_mask{i}.dcpt", s.masks[i])
    write_file(d / "manifest.txt", ("\n".join(lines) + "\n").encode("utf-8"))


def _parse_sample_line(line: str):
    """(frame, mode, seed, victim, twin, degraded) of one manifest sample line."""
    parts = line.split()
    if len(parts) != 7 or parts[0] != "sample":
        raise FormatError(f"malformed manifest line {line!r}")
    try:
        frame, seed, victim, twin = (int(parts[k]) for k in (1, 3, 4, 5))
    except ValueError as exc:
        raise FormatError(f"non-integer field in manifest line {line!r}") from exc
    mode, flags = parts[2], parts[6]
    n = len(flags)
    if seed < 0 or not 0 <= frame < 2**32:
        raise FormatError(f"seed {seed} is negative or frame {frame} outside [0, 2**32) in manifest line {line!r}")
    if mode not in MODES:
        raise FormatError(f"unknown mode {mode!r} in manifest line {line!r}")
    if set(flags) - {"0", "1"}:
        raise FormatError(f"degradation flags {flags!r} are not 0/1")
    if not 0 <= victim < n:
        raise FormatError(f"victim {victim} outside [0, {n}) in manifest line {line!r}")
    if twin != -1 and not 0 <= twin < n or twin == victim:
        raise FormatError(f"clean twin {twin} is neither -1 nor another platform in [0, {n})")
    if (twin == -1) == (mode == "homo-cis"):
        raise FormatError(f"clean twin {twin} does not fit {mode}: homo-cis has one, the other modes -1")
    return frame, mode, seed, victim, twin, [c == "1" for c in flags]


def _load_mask(path: str, classes: int) -> np.ndarray:
    """A mask file as uint8 ids, each checked to be a class id in [0, classes).

    The float32 values are range-checked before they are narrowed, so no
    cast sees a value outside uint8 (`classes` is at most 256)."""
    raw = load_tensor(path)
    ids = raw.astype(np.uint8) if not raw.size or 0 <= raw.min() and raw.max() < classes else None
    if ids is None or not np.array_equal(ids, raw):
        raise FormatError(f"{path} holds values that are not class ids in [0, {classes})")
    return ids


def load_dataset(dirpath) -> list[SceneSample]:
    d = Path(dirpath)
    manifest = d / "manifest.txt"
    lines = read_manifest(manifest)
    header = lines[0].split() if lines else []
    if len(header) != 4 or header[::2] != ["count", "classes"] or not all(h.isdecimal() for h in header[1::2]):
        raise FormatError(f"manifest {manifest} lacks its 'count N classes K' header")
    expected, classes = int(header[1]), int(header[3])
    if classes > MAX_CLASSES:
        raise FormatError(f"manifest {manifest} declares {classes} classes, above the {MAX_CLASSES} a uint8 mask holds")
    present = set(os.listdir(d))
    platform_files: dict[int, list[tuple[int, str]]] = {}  # frame -> (platform index, file name)
    for name in present:
        m = _SAMPLE_FILE.fullmatch(name)
        if m:
            platform_files.setdefault(int(m[1]), []).append((int(m[2]), name))
    samples = []
    seen = set()
    for line in lines[1:]:
        if not line.strip():
            continue
        frame, mode, seed, victim, twin, degraded = _parse_sample_line(line)
        n = len(degraded)
        if samples and n != samples[0].n_platforms:
            raise FormatError(f"frame {frame} has {n} platforms, the first sample has {samples[0].n_platforms}")
        if samples and mode != samples[0].mode:
            raise FormatError(f"frame {frame} is {mode}, the first sample is {samples[0].mode}")
        if frame in seen:
            raise FormatError(f"frame {frame} is listed twice in {manifest}")
        seen.add(frame)
        stray = sorted(name for i, name in platform_files.get(frame, ()) if i >= n)
        if stray:
            raise FormatError(f"{d / stray[0]} belongs to a platform beyond the {n} flags of frame {frame}")
        names = [f"f{frame:05d}_{kind}{i}.dcpt" for kind in ("view", "mask") for i in range(n)]
        for name in names:
            if name not in present:
                raise FormatError(f"missing tensor file {d / name} listed by frame {frame}")
        views = [load_tensor(os.path.join(d, name)) for name in names[:n]]
        masks = [_load_mask(os.path.join(d, name), classes) for name in names[n:]]
        if samples:
            shapes = [a.shape for a in views + masks]
            first = [a.shape for a in samples[0].views + samples[0].masks]
            if shapes != first:
                raise FormatError(f"frame {frame} has view and mask shapes {shapes}, the first has {first}")
        samples.append(
            SceneSample(views, masks, degraded, victim, None if twin < 0 else twin, mode, seed, frame, classes)
        )
    if len(samples) != expected:
        raise FormatError(f"manifest promises {expected} samples, found {len(samples)}")
    return samples
