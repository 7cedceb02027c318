"""World generation, cropping, degradation, dataset persistence."""

import hashlib
import itertools
import pickle
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcpnet import scenes
from dcpnet.config import NoiseConfig, WorldSpec
from dcpnet.errors import ConfigError, FormatError, InputError
from dcpnet.scenes import SHAPE_DENSITY, _PALETTE
from dcpnet.tensorio import tensor_to_bytes

from conftest import small_spec


def full_grid_world(spec: WorldSpec, rng: np.random.Generator):
    """Reference painter: every shape is a boolean region over the whole
    pixel grid, written into the pixel-interleaved image."""
    if spec.classes > len(_PALETTE):
        raise ConfigError(f"at most {len(_PALETTE)} classes supported by the palette")
    n = spec.world_size
    image = np.empty((n, n, 3))
    image[:] = _PALETTE[0]
    image += rng.normal(0.0, 0.02, size=image.shape)
    mask = np.zeros((n, n), dtype=np.int64)

    n_shapes = rng.poisson(SHAPE_DENSITY * (n / 32) ** 2)
    yy, xx = np.mgrid[0:n, 0:n]
    for _ in range(n_shapes):
        cls = int(rng.integers(1, spec.classes))
        kind = rng.choice(("rect", "ellipse", "strip"))
        cy, cx = rng.integers(0, n, size=2)
        ry, rx = rng.integers(n // 16, n // 4, size=2)
        if kind == "rect":
            region = (np.abs(yy - cy) <= ry) & (np.abs(xx - cx) <= rx)
        elif kind == "ellipse":
            region = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0
        else:
            angle = rng.uniform(0, np.pi)
            width = rng.integers(2, max(3, n // 20))
            region = np.abs((yy - cy) * np.cos(angle) - (xx - cx) * np.sin(angle)) <= width
        color = _PALETTE[cls] + rng.normal(0.0, 0.04, size=3)
        image[region] = color + rng.normal(0.0, 0.02, size=(int(region.sum()), 3))
        mask[region] = cls
    return np.clip(image, 0.0, 1.0).astype(np.float32).astype(np.float64), mask


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(world=st.integers(16, 160), classes=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
def test_world_painter_matches_the_full_grid_reference_bitwise(world, classes, seed):
    spec = WorldSpec(world_size=world, view_size=world, classes=classes)
    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    ref_image, ref_mask = full_grid_world(spec, ref_rng)
    image, mask = scenes.generate_world(spec, rng)
    assert image.dtype == np.float64 and image.flags.c_contiguous and image.shape == (world, world, 3)
    assert image.tobytes() == ref_image.tobytes()
    assert mask.dtype == ref_mask.dtype and mask.tobytes() == ref_mask.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_threads_paint_worlds_in_their_own_buffers():
    spec = WorldSpec(world_size=64, view_size=32, classes=6)
    seeds = range(64)
    serial = [scenes.generate_world(spec, np.random.default_rng(s))[0] for s in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(lambda s: scenes.generate_world(spec, np.random.default_rng(s))[0], seeds,
                                     timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(serial, threaded))


def test_shape_kind_draw_is_the_stream_of_rng_choice():
    kinds = ("rect", "ellipse", "strip")
    a, b = np.random.default_rng(11), np.random.default_rng(11)
    assert [a.choice(kinds) for _ in range(2000)] == [scenes._KINDS[b.integers(3)] for _ in range(2000)]
    assert a.bit_generator.state == b.bit_generator.state


def test_world_is_deterministic_and_consistent():
    spec = WorldSpec(world_size=64, view_size=32, classes=4, min_view_separation=16)
    img1, mask1 = scenes.generate_world(spec, np.random.default_rng(9))
    img2, mask2 = scenes.generate_world(spec, np.random.default_rng(9))
    assert np.array_equal(img1, img2)
    assert np.array_equal(mask1, mask2)
    assert img1.shape == (64, 64, 3)
    assert mask1.shape == (64, 64)
    assert 0 <= mask1.min() and mask1.max() < 4
    assert img1.min() >= 0.0 and img1.max() <= 1.0


def test_make_sample_deterministic_in_seed_and_frame():
    spec = small_spec()
    a = scenes.make_sample(spec, "homo-cis", 3, 5, n_platforms=2)
    b = scenes.make_sample(spec, "homo-cis", 3, 5, n_platforms=2)
    c = scenes.make_sample(spec, "homo-cis", 4, 5, n_platforms=2)
    for va, vb in zip(a.views, b.views):
        assert np.array_equal(va, vb)
    assert not all(np.array_equal(x, y) for x, y in zip(a.views, c.views))


def test_crop_views_respects_separation_when_feasible():
    spec = WorldSpec()   # 128 world, 64 views, separation 48
    rng = np.random.default_rng(0)
    img, mask = scenes.generate_world(spec, rng)
    hi = 128 - 64   # largest valid offset
    for trial in range(20):
        _, _, offs = scenes.crop_views(img, mask, 64, 4, rng, min_sep=48)
        oy, ox = offs[0]
        # a central first crop can make the Chebyshev constraint impossible,
        # in which case placement falls back to a uniform draw
        feasible = any(o - 48 >= 0 or o + 48 <= hi for o in (oy, ox))
        if not feasible:
            continue
        for jy, jx in offs[1:]:
            assert max(abs(jy - oy), abs(jx - ox)) >= 48


def test_crop_views_masks_match_views():
    spec = small_spec()
    rng = np.random.default_rng(1)
    img, mask = scenes.generate_world(spec, rng)
    views, masks, offs = scenes.crop_views(img, mask, 16, 3, rng)
    for v, m, (oy, ox) in zip(views, masks, offs):
        assert np.array_equal(v, img[oy:oy + 16, ox:ox + 16])
        assert np.array_equal(m, mask[oy:oy + 16, ox:ox + 16])


def rejection_crop_offsets(world: int, view_size: int, n_views: int, rng: np.random.Generator, min_sep: int):
    """Reference placement: the first crop anywhere, then each partner's
    pairs drawn one call at a time until one sits `min_sep` away (Chebyshev),
    keeping the 64th when none does."""
    hi = world - view_size + 1
    ovy, ovx = rng.integers(0, hi, size=2).tolist()
    offsets = [(ovy, ovx)]
    for _ in range(n_views - 1):
        for _try in range(64):
            oy, ox = rng.integers(0, hi, size=2).tolist()
            if max(abs(oy - ovy), abs(ox - ovx)) >= min_sep:
                break
        offsets.append((oy, ox))
    return offsets


def _first_crop_seeds(hi: int) -> dict[str, list[int]]:
    """Two seeds each whose first crop lands in a corner, on an edge (one
    coordinate extreme) or at the centre (both within 1 of the middle)."""
    found: dict[str, list[int]] = {"corner": [], "edge": [], "centre": []}
    mid = (hi - 1) / 2
    for seed in range(20_000):
        oy, ox = np.random.default_rng(seed).integers(0, hi, size=2).tolist()
        extremes = (oy in (0, hi - 1)) + (ox in (0, hi - 1))
        place = ("centre" if max(abs(oy - mid), abs(ox - mid)) <= 1 else None, "edge", "corner")[extremes]
        if place and len(found[place]) < 2:
            found[place].append(seed)
        if all(len(seeds) == 2 for seeds in found.values()):
            return found
    raise AssertionError(f"no seeds for every first-crop place: {found}")


@pytest.mark.parametrize("world, view_size", [(32, 16), (128, 64)])
def test_crop_views_draws_ahead_to_the_reference_offsets_and_state(world, view_size):
    reach = world - view_size
    # 0 always fits; a quarter of the range fits from nearly anywhere; from the
    # centre, past half the range fits nowhere, so every partner spends all 64
    # tries; the full range fits only opposite an extreme, so tries run out now
    # and then
    separations = sorted({0, reach // 4, reach // 2 + 2, reach * 3 // 4, reach})
    image, mask = np.zeros((world, world, 3)), np.zeros((world, world), dtype=np.int64)
    for place, seeds in _first_crop_seeds(reach + 1).items():
        for seed, parity, n_views, min_sep in itertools.product(seeds, (0, 1), range(2, 6), separations):
            ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for r in (ref_rng, rng):  # an odd draw leaves half a 64-bit output buffered
                r.integers(0, 7, size=parity)
            want = rejection_crop_offsets(world, view_size, n_views, ref_rng, min_sep)
            views, masks, got = scenes.crop_views(image, mask, view_size, n_views, rng, min_sep)
            where = (place, seed, parity, n_views, min_sep)
            assert got == want, where
            assert rng.bit_generator.state == ref_rng.bit_generator.state, where
            assert len(views) == len(masks) == n_views


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937])
@pytest.mark.parametrize("parity", [0, 1])
@pytest.mark.parametrize("hi", [17, 65, 3 * 2**30])
def test_k_bounded_pair_draws_are_one_k_by_2_draw(bit_generator, parity, hi):
    """crop_views' draw-ahead rests on this: numpy draws each bounded integer
    below 2**32 from the bit generator's 32-bit outputs, and PCG64 keeps the
    spare half of a 64-bit output in its state, so call boundaries do not
    matter.  If a numpy release changes that, crop_views is no longer the
    reference placement and this fails."""
    for k in (1, 2, 3, 64, 193):
        one_by_one, at_once = (np.random.Generator(bit_generator(k + parity)) for _ in range(2))
        for rng in (one_by_one, at_once):
            rng.integers(0, 7, size=parity)  # an odd draw count leaves half a PCG64 output buffered
        if bit_generator is np.random.PCG64:
            assert one_by_one.bit_generator.state["has_uint32"] == parity
        singles = [one_by_one.integers(0, hi, size=2).tolist() for _ in range(k)]
        assert singles == at_once.integers(0, hi, size=(k, 2)).tolist(), (k, parity)
        assert pickle.dumps(one_by_one.bit_generator.state) == pickle.dumps(at_once.bit_generator.state), (k, parity)


# SHA-256 over make_dataset of every mode on the specs below: each sample's
# views, masks and fields, and the state its generator ends in; recorded
# before crop_views drew its partner candidates ahead
DATASET_GOLDEN = "8c6dbaf4bfb94ba4ec0b4a96a65d34448fee572d871f8890ea3940c5a3e896ef"


def test_datasets_keep_their_bits(monkeypatch):
    made, default_rng = [], np.random.default_rng  # every sample's generator, in order

    def recording(*args):
        made.append(default_rng(*args))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", recording)
    runs = [
        (WorldSpec(), 8, {}),
        (small_spec(), 16, dict(n_platforms=2)),
        (small_spec(min_view_separation=12), 16, dict(n_platforms=3, noise_kinds=("blur", "gaussian"))),
        (small_spec(min_view_separation=16), 16, dict(n_platforms=5, noise_kinds=("occlusion",))),
    ]
    h = hashlib.sha256()
    for spec, count, kwargs in runs:
        for seed, mode in enumerate(scenes.MODES):
            made.clear()
            samples = scenes.make_dataset(spec, mode, count, seed=seed, **kwargs)
            assert len(made) == len(samples)
            for s, rng in zip(samples, made):
                for a in s.views + s.masks:  # widened: recorded when samples were held in float64 / int64
                    wide = a.astype(np.float64 if a.dtype.kind == "f" else np.int64)
                    h.update(f"{wide.dtype.str}{wide.shape}".encode() + wide.tobytes())
                h.update(repr((s.degraded, s.victim, s.clean_twin, s.mode, s.seed, s.frame, s.classes)).encode())
                h.update(repr(rng.bit_generator.state).encode())
    assert h.hexdigest() == DATASET_GOLDEN


def test_make_dataset_keeps_a_default_sample_in_a_quarter_megabyte():
    # float64 views and int64 masks kept 0.52 MB per default sample (4 platforms, 64 px)
    scenes.make_sample(WorldSpec(), "homo-cis", 0, 0)  # this thread's world buffers, kept from here on
    tracemalloc.start()
    try:
        samples = scenes.make_dataset(WorldSpec(), "homo-cis", 8, seed=3)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(samples) == 8
    assert kept / 8 <= 0.25e6


def test_occlusion_area_stays_in_band():
    rng = np.random.default_rng(2)
    view = np.full((64, 64, 3), 0.5)
    for _ in range(50):
        out = scenes.degrade(view, NoiseConfig("occlusion", 0.3), rng)
        frac = np.mean(np.all(out == 0.0, axis=2))
        assert 0.25 <= frac <= 0.50


def test_degrade_never_touches_mask_or_range():
    rng = np.random.default_rng(3)
    view = np.full((16, 16, 3), 0.4)
    for kind in ("gaussian", "occlusion", "blur"):
        out = scenes.degrade(view, NoiseConfig(kind, 0.72), rng)
        assert out.shape == view.shape
        assert out.min() >= 0.0 and out.max() <= 1.0
    with pytest.raises(ConfigError):
        NoiseConfig("sparkle", 0.1)


def test_homo_cis_plants_clean_twin():
    spec = small_spec()
    found_degraded = False
    for frame in range(30):
        s = scenes.make_sample(spec, "homo-cis", frame, 0, n_platforms=3)
        assert s.victim == 0
        assert s.clean_twin is not None and s.clean_twin != s.victim
        assert np.array_equal(s.masks[s.clean_twin], s.masks[s.victim])
        if s.degraded[s.victim]:
            found_degraded = True
            assert not np.array_equal(s.views[s.victim], s.views[s.clean_twin])
    assert found_degraded


def test_homo_pis_has_no_twin_and_hetero_transforms_partners():
    spec = small_spec()
    s = scenes.make_sample(spec, "homo-pis", 0, 0, n_platforms=3)
    assert s.clean_twin is None
    h = scenes.make_sample(spec, "hetero-pis", 0, 0, n_platforms=3)
    assert h.clean_twin is None
    # partner views pass the fixed second-sensor transform, victim does not
    raw = scenes.make_sample(spec, "homo-pis", 0, 0, n_platforms=3)
    assert np.array_equal(h.views[0], raw.views[0])


def test_mode_validation():
    with pytest.raises(InputError):
        scenes.make_sample(small_spec(), "nonsense", 0, 0)


def test_worldspec_validation():
    with pytest.raises(ConfigError):
        WorldSpec(world_size=32, view_size=64)
    with pytest.raises(ConfigError):
        WorldSpec(world_size=128, view_size=64, min_view_separation=100)
    with pytest.raises(ConfigError, match="view size 0"):
        WorldSpec(world_size=32, view_size=0, min_view_separation=0)
    with pytest.raises(ConfigError, match="257 classes"):
        WorldSpec(classes=257)   # masks are uint8 class ids


@pytest.mark.parametrize("world", [1, 3, 4, 15])
def test_world_below_the_painter_floor_is_rejected(world):
    # radii are drawn from [world // 16, world // 4): 4-15 px allow a zero
    # ellipse radius, 1-3 px an empty range
    with pytest.raises(ConfigError, match=f"world size {world} is below 16 pixels"):
        WorldSpec(world_size=world, view_size=1, min_view_separation=0)


def test_smallest_world_paints_without_a_numeric_warning():
    spec = WorldSpec(world_size=16, view_size=8, classes=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for seed in range(40):
            image, mask = scenes.generate_world(spec, np.random.default_rng(seed))
            assert np.isfinite(image).all() and 0 <= mask.min() and mask.max() < 3


def test_bad_noise_strength_and_sample_count_fail_before_generation(tmp_path):
    degraded = [scenes.make_sample(small_spec(), "homo-cis", f, 0, n_platforms=2).degraded[0] for f in range(4)]
    assert True in degraded and False in degraded
    for strength in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="noise strength"):
            NoiseConfig("gaussian", strength)
        # rejected on every frame, whether or not its victim view would be degraded
        for frame in range(4):
            with pytest.raises(ConfigError, match="noise strength"):
                scenes.make_sample(small_spec(), "homo-cis", frame, 0, n_platforms=2, noise_strength=strength)
    assert NoiseConfig("gaussian", 0).strength == 0
    for count in (-3, 0):
        with pytest.raises(InputError, match=f"sample count {count}"):
            scenes.make_dataset(small_spec(), "homo-cis", count, seed=0, n_platforms=2)
    with pytest.raises(InputError, match="at least one sample"):
        scenes.save_dataset([], tmp_path / "ds")
    assert not (tmp_path / "ds").exists()


def test_negative_seed_or_frame_fails_before_the_first_draw(monkeypatch):
    def reached(*args, **kwargs):
        raise AssertionError("a world was drawn")

    monkeypatch.setattr(scenes, "generate_world", reached)
    for frame, seed in ((0, -1), (-1, 0), (2**32, 0)):
        with pytest.raises(InputError, match=f"seed {seed} is negative or frame {frame} "):
            scenes.make_sample(small_spec(), "homo-cis", frame, seed, n_platforms=2)


def test_dataset_round_trip_and_manifest_checks(tmp_path):
    samples = scenes.make_dataset(small_spec(), "homo-cis", 4, seed=1, n_platforms=2)
    out = tmp_path / "ds"
    scenes.save_dataset(samples, out)
    loaded = scenes.load_dataset(out)
    assert len(loaded) == 4
    for a, b in zip(samples, loaded):
        for va, vb in zip(a.views, b.views):
            assert np.array_equal(va, vb)
    (out / "manifest.txt").write_text("no header\n")
    with pytest.raises(FormatError):
        scenes.load_dataset(out)
    with pytest.raises(FormatError):
        scenes.load_dataset(tmp_path / "missing")


def test_manifest_platform_counts_must_agree(tmp_path):
    spec = small_spec()
    mixed = [scenes.make_sample(spec, "homo-cis", 1, 0, n_platforms=2),
             scenes.make_sample(spec, "homo-cis", 2, 1, n_platforms=3)]
    scenes.save_dataset(mixed, tmp_path / "ds")
    with pytest.raises(FormatError, match="platforms"):
        scenes.load_dataset(tmp_path / "ds")


def test_manifest_view_sizes_must_agree(tmp_path):
    mixed = [scenes.make_sample(small_spec(), "homo-cis", 0, 1, n_platforms=2),
             scenes.make_sample(small_spec(view_size=32), "homo-cis", 1, 1, n_platforms=2)]
    scenes.save_dataset(mixed, tmp_path / "ds")
    with pytest.raises(FormatError, match="shapes"):
        scenes.load_dataset(tmp_path / "ds")


def test_a_dataset_holds_one_mode_and_a_twin_exactly_for_homo_cis(tmp_path):
    spec, out = small_spec(), tmp_path / "ds"
    cis = scenes.make_sample(spec, "homo-cis", 0, 1, n_platforms=2)
    pis = scenes.make_sample(spec, "homo-pis", 1, 1, n_platforms=2)
    for samples, match in (([cis, pis], "disagree on the mode"), ([replace(pis, clean_twin=1)], "do not fit"),
                           ([replace(cis, clean_twin=None)], "do not fit")):
        with pytest.raises(InputError, match=match):
            scenes.save_dataset(samples, out)
        assert not out.exists()
    scenes.save_dataset([cis, replace(cis, frame=1)], out)
    manifest = (out / "manifest.txt").read_text()
    (out / "manifest.txt").write_text(manifest.replace("sample 1 homo-cis 1 0 1", "sample 1 homo-pis 1 0 -1"))
    with pytest.raises(FormatError, match="frame 1 is homo-pis, the first sample is homo-cis"):
        scenes.load_dataset(out)


def _one_sample_set(tmp_path):
    samples = scenes.make_dataset(small_spec(), "homo-cis", 1, seed=1, n_platforms=2)
    out = tmp_path / "ds"
    scenes.save_dataset(samples, out)
    return out


@pytest.mark.parametrize("line", [
    pytest.param("sample 0 bogus 1 0 1 10", id="unknown-mode"),
    pytest.param("sample 0 homo-cis 1 9 1 10", id="victim-past-n"),
    pytest.param("sample 0 homo-cis 1 -1 1 10", id="negative-victim"),
    pytest.param("sample 0 homo-cis 1 0 5 10", id="twin-past-n"),
    pytest.param("sample 0 homo-cis 1 0 -2 10", id="twin-below-minus-one"),
    pytest.param("sample 0 homo-cis 1 0 0 10", id="twin-is-victim"),
    pytest.param("sample 0 homo-cis 1 0 1 12", id="flag-not-binary"),
    pytest.param("sample x homo-cis 1 0 1 10", id="non-integer-frame"),
    pytest.param("sample 0 homo-cis 1.5 0 1 10", id="non-integer-seed"),
    pytest.param("sample 0 homo-cis 1 v 1 10", id="non-integer-victim"),
    pytest.param("sample 0 homo-cis 1 0 t 10", id="non-integer-twin"),
    pytest.param("sample 0 homo-cis -1 0 1 10", id="negative-seed"),
    pytest.param("sample 0 homo-cis 1 0 -1 10", id="cis-without-twin"),
    pytest.param("sample 0 homo-pis 1 0 1 10", id="pis-with-twin"),
])
def test_manifest_field_checks(tmp_path, line):
    out = _one_sample_set(tmp_path)
    (out / "manifest.txt").write_text(f"count 1 classes 3\n{line}\n")
    with pytest.raises(FormatError) as exc:
        scenes.load_dataset(out)
    assert "header" not in str(exc.value)


def test_frame_ids_outside_u32_are_rejected(tmp_path):
    out = _one_sample_set(tmp_path)
    header, body = (out / "manifest.txt").read_text().splitlines()
    for frame, name in ((-1, "f-0001"), (2**32, f"f{2**32}")):
        for path in list(out.glob("f*.dcpt")):
            path.rename(out / (name + path.name[path.name.index("_"):]))
        line = body.replace("sample 0 ", f"sample {frame} ", 1)
        (out / "manifest.txt").write_text(f"{header}\n{line}\n")
        with pytest.raises(FormatError, match=f"frame {frame} outside"):
            scenes.load_dataset(out)


def test_manifest_count_header_is_checked(tmp_path):
    out = _one_sample_set(tmp_path)
    header, body = (out / "manifest.txt").read_text().splitlines()
    assert header == "count 1 classes 3"
    assert [s.classes for s in scenes.load_dataset(out)] == [3]
    for header in ("count classes 3", "count x classes 3", "count 1 2 classes 3", "total 1 classes 3",
                   "count 1", "count 1 classes", "count 1 classes x", "count 1 classes 2.5",
                   "count 1 kinds 3", "count 1 classes 3 4"):
        (out / "manifest.txt").write_text(f"{header}\n{body}\n")
        with pytest.raises(FormatError, match="header"):
            scenes.load_dataset(out)
    (out / "manifest.txt").write_text(f"count 1 classes 256\n{body}\n")
    assert [s.classes for s in scenes.load_dataset(out)] == [256]
    (out / "manifest.txt").write_text(f"count 1 classes 257\n{body}\n")
    with pytest.raises(FormatError, match="257 classes, above the 256 a uint8 mask holds"):
        scenes.load_dataset(out)


def test_non_finite_view_is_rejected(tmp_path):
    out = _one_sample_set(tmp_path)
    view = scenes.load_dataset(out)[0].views[1].copy()
    view[3, 4, 0] = np.nan
    (out / "f00000_view1.dcpt").write_bytes(tensor_to_bytes(view))
    with pytest.raises(FormatError, match="non-finite"):
        scenes.load_dataset(out)


def test_save_rejects_shared_frame_ids(tmp_path):
    spec = small_spec()
    clash = [scenes.make_sample(spec, "homo-cis", 1, 0, n_platforms=2),
             scenes.make_sample(spec, "homo-cis", 1, 1, n_platforms=2)]
    with pytest.raises(InputError, match=r"\[1\]"):
        scenes.save_dataset(clash, tmp_path / "ds")
    assert not (tmp_path / "ds").exists()


def test_manifest_rejects_a_repeated_frame_line(tmp_path):
    out = _one_sample_set(tmp_path)
    body = (out / "manifest.txt").read_text().splitlines()[1]
    (out / "manifest.txt").write_text(f"count 2 classes 3\n{body}\n{body}\n")
    with pytest.raises(FormatError, match="twice"):
        scenes.load_dataset(out)


@pytest.mark.parametrize("name", ["f00000_view1.dcpt", "f00000_mask0.dcpt"])
def test_missing_tensor_file_is_named(tmp_path, name):
    out = _one_sample_set(tmp_path)
    (out / name).unlink()
    with pytest.raises(FormatError, match=name):
        scenes.load_dataset(out)


@pytest.mark.parametrize("name", ["f00000_view2.dcpt", "f00000_mask5.dcpt"])
def test_tensor_file_beyond_the_flag_count_is_rejected(tmp_path, name):
    out = _one_sample_set(tmp_path)   # two platforms: flags "10"
    (out / name).write_bytes((out / "f00000_view1.dcpt").read_bytes())
    with pytest.raises(FormatError, match=name):
        scenes.load_dataset(out)


def test_save_rejects_samples_that_disagree_on_the_class_count(tmp_path):
    mixed = [scenes.make_sample(small_spec(), "homo-cis", 0, 1, n_platforms=2),
             scenes.make_sample(small_spec(classes=4), "homo-cis", 1, 1, n_platforms=2)]
    assert [s.classes for s in mixed] == [3, 4]
    with pytest.raises(InputError, match=r"\[3, 4\]"):
        scenes.save_dataset(mixed, tmp_path / "ds")
    assert not (tmp_path / "ds").exists()


# +-1e30 lie outside every integer type: narrowed before the range check, they warn
@pytest.mark.parametrize("value", [3.0, -1.0, 1.5, 300.0, 1e30, -1e30])
def test_mask_ids_outside_the_class_range_are_rejected(tmp_path, value):
    out = _one_sample_set(tmp_path)   # three classes
    mask = scenes.load_dataset(out)[0].masks[1].astype(np.float64)
    mask[2, 5] = value
    (out / "f00000_mask1.dcpt").write_bytes(tensor_to_bytes(mask))
    with pytest.raises(FormatError, match="f00000_mask1.dcpt"):
        scenes.load_dataset(out)
