"""World generation, cropping, degradation, dataset persistence."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcpnet import scenes
from dcpnet.config import NoiseConfig, WorldSpec
from dcpnet.errors import ConfigError, FormatError, InputError
from dcpnet.scenes import SHAPE_DENSITY, _PALETTE, _f32
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
    return _f32(np.clip(image, 0.0, 1.0)), mask


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


@pytest.mark.parametrize("value", [3.0, -1.0, 1.5])
def test_mask_ids_outside_the_class_range_are_rejected(tmp_path, value):
    out = _one_sample_set(tmp_path)   # three classes
    mask = scenes.load_dataset(out)[0].masks[1].astype(np.float64)
    mask[2, 5] = value
    (out / "f00000_mask1.dcpt").write_bytes(tensor_to_bytes(mask))
    with pytest.raises(FormatError, match="f00000_mask1.dcpt"):
        scenes.load_dataset(out)
