"""mIoU, CE, and the selection-accuracy bookkeeping."""

import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcpnet import harness, metrics as mt, protocol as pr, scenes, smim
from dcpnet.config import ModelConfig
from dcpnet.errors import InputError

from conftest import small_spec


def test_confusion_matrix_hand_example():
    pred = np.array([[0, 1], [1, 1]])
    tgt = np.array([[0, 1], [0, 1]])
    conf = mt.confusion_stack([pred], [tgt], 2)[0]
    assert conf.tolist() == [[1, 1], [0, 2]]


def test_miou_hand_example():
    pred = np.array([[0, 1], [1, 1]])
    tgt = np.array([[0, 1], [0, 1]])
    # class 0: 1 / (1 + 0 + 1); class 1: 2 / (2 + 1 + 0)
    assert mt.miou([pred], [tgt], 2) == pytest.approx((0.5 + 2 / 3) / 2)


def test_miou_excludes_absent_classes():
    pred = np.zeros((2, 2), dtype=int)
    tgt = np.zeros((2, 2), dtype=int)
    assert mt.miou([pred], [tgt], 5) == 1.0


def test_miou_input_validation():
    with pytest.raises(InputError):
        mt.miou([np.zeros((2, 2), dtype=int)], [np.zeros((3, 3), dtype=int)], 2)
    with pytest.raises(InputError):
        mt.miou([np.full((2, 2), 9)], [np.zeros((2, 2), dtype=int)], 2)


def test_miou_scores_a_set_in_one_image_of_memory():
    # the infer-collab benchmark's scoring: 32 victim masks of 64 x 64 pixels;
    # counting the set in one stack peaked at 3.2 MB, one image at a time at 0.1 MB
    rng = np.random.default_rng(0)
    preds = [rng.integers(0, 6, size=(64, 64)) for _ in range(32)]
    tgts = [rng.integers(0, 6, size=(64, 64)) for _ in range(32)]
    pooled = mt.mean_ious(mt.confusion_stack(preds, tgts, 6).sum(axis=0, keepdims=True))[0]
    tracemalloc.start()
    try:
        got = mt.miou(preds, tgts, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == pooled
    assert peak < 0.5e6


def test_ce_handles_zero_bytes():
    assert mt.collaboration_efficiency(0.6, 0.5, 0.0) is None
    assert mt.collaboration_efficiency(0.6, 0.5, 0.5) == pytest.approx(20.0)


def test_split_miou_partitions_by_victim_degradation():
    spec = small_spec()
    data = [scenes.make_sample(spec, "homo-cis", f, 0, n_platforms=2) for f in range(12)]
    preds = [[s.masks[i] for i in range(2)] for s in data]   # perfect predictions
    noisy, normal, avg = mt.split_miou(preds, data, spec.classes)
    assert avg == 1.0
    flags = [s.degraded[0] for s in data]
    assert (noisy == 1.0) == any(flags)
    assert (normal == 1.0) == (not all(flags))


def test_split_miou_scores_each_frame_on_its_own_victim(tmp_path):
    scenes.save_dataset(scenes.make_dataset(small_spec(), "homo-pis", 4, seed=0, n_platforms=3), tmp_path)
    manifest = tmp_path / "manifest.txt"
    lines = manifest.read_text().splitlines()
    fields = lines[2].split()   # frame 1
    fields[4], fields[6] = "2", "001"
    lines[2] = " ".join(fields)
    manifest.write_text("\n".join(lines) + "\n")
    data = scenes.load_dataset(tmp_path)
    assert [s.victim for s in data] == [0, 2, 0, 0] and data[1].degraded == [False, False, True]
    # only the victim of each frame predicts its mask; every other platform is wrong everywhere
    preds = [[s.masks[i] if i == s.victim else (s.masks[i] + 1) % 3 for i in range(3)] for s in data]
    noisy, normal, avg = mt.split_miou(preds, data, 3)
    assert noisy == 1.0 and avg == 1.0
    assert np.isnan(normal) or normal == 1.0


def test_selection_accuracy_scores_requests_and_twins():
    spec = small_spec()
    data = [scenes.make_sample(spec, "homo-cis", f, 1, n_platforms=3) for f in range(10)]
    states = []
    for s in data:
        st = smim.SmimState()
        st.requested = s.degraded[s.victim]
        st.supporters = frozenset({s.clean_twin}) if st.requested else frozenset()
        frame_states = [smim.SmimState() for _ in range(3)]
        frame_states[s.victim] = st
        states.append(frame_states)
    detect, select = mt.selection_accuracy(states, data)
    assert detect == 1.0
    assert select == 1.0


def test_selection_accuracy_needs_cis_data():
    spec = small_spec()
    data = [scenes.make_sample(spec, "homo-pis", 0, 0, n_platforms=2)]
    with pytest.raises(InputError):
        mt.selection_accuracy([[smim.SmimState(), smim.SmimState()]], data)
    with pytest.raises(InputError):
        mt.selection_accuracy([], [])


def test_parallel_lists_of_unequal_length_are_an_error_not_a_truncation():
    zeros, ones = np.zeros((2, 2), dtype=int), np.ones((2, 2), dtype=int)
    for scorer in (mt.miou, mt.confusion_stack):
        with pytest.raises(InputError, match="2 predictions vs 1 targets"):
            scorer([zeros, ones], [zeros], 2)
        with pytest.raises(InputError, match="1 predictions vs 2 targets"):
            scorer([zeros], [zeros, ones], 2)
    with pytest.raises(InputError, match="0 predictions vs 0 targets"):
        mt.confusion_stack([], [], 2)

    data = [scenes.make_sample(small_spec(), "homo-cis", f, 0, n_platforms=2) for f in range(8)]
    preds = [s.masks for s in data]
    for scorer in (mt.score_frames, mt.split_miou):
        with pytest.raises(InputError, match="7 prediction lists vs 8 frames"):
            scorer(preds[:7], data, 3)
        with pytest.raises(InputError, match="8 prediction lists vs 7 frames"):
            scorer(preds, data[:7], 3)
    states = [[smim.SmimState(), smim.SmimState()] for _ in data]
    with pytest.raises(InputError, match="7 state lists vs 8 frames"):
        mt.selection_accuracy(states[:7], data)
    with pytest.raises(InputError, match="8 state lists vs 7 frames"):
        mt.selection_accuracy(states, data[:7])


# -- scoring from one confusion tensor against the per-image composition ----
# The reference below is the per-image scoring that `evaluate` used before it
# summed everything from one frames x platforms x K x K confusion tensor.


def _ref_confusion_matrix(predictions, targets, n_classes):
    total = np.zeros((n_classes, n_classes), dtype=np.int64)
    for pred, tgt in zip(predictions, targets):
        pred = np.asarray(pred)
        tgt = np.asarray(tgt)
        if pred.shape != tgt.shape:
            raise InputError(f"prediction {pred.shape} vs target {tgt.shape}")
        if pred.min() < 0 or pred.max() >= n_classes or tgt.min() < 0 or tgt.max() >= n_classes:
            raise InputError(f"class ids outside [0, {n_classes})")
        idx = tgt.reshape(-1) * n_classes + pred.reshape(-1)
        total += np.bincount(idx, minlength=n_classes * n_classes).reshape(n_classes, n_classes)
    return total


def _ref_miou(predictions, targets, n_classes):
    conf = _ref_confusion_matrix(predictions, targets, n_classes)
    tp = np.diag(conf).astype(np.float64)
    fp = conf.sum(axis=0) - tp
    fn = conf.sum(axis=1) - tp
    present = (tp + fp + fn) > 0
    if not present.any():
        raise InputError("no class present in either predictions or targets")
    return float(np.mean(tp[present] / (tp + fp + fn)[present]))


def _ref_split_miou(predictions_per_frame, dataset, n_classes):
    noisy_p, noisy_t, normal_p, normal_t = [], [], [], []
    for preds, sample in zip(predictions_per_frame, dataset):
        pred = preds[sample.victim]
        tgt = sample.masks[sample.victim]
        if sample.degraded[sample.victim]:
            noisy_p.append(pred)
            noisy_t.append(tgt)
        else:
            normal_p.append(pred)
            normal_t.append(tgt)
    noisy = _ref_miou(noisy_p, noisy_t, n_classes) if noisy_p else float("nan")
    normal = _ref_miou(normal_p, normal_t, n_classes) if normal_p else float("nan")
    avg = _ref_miou(noisy_p + normal_p, noisy_t + normal_t, n_classes)
    return noisy, normal, avg


def _bits(values):
    return [struct.pack("<d", v) for v in values]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 12), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_mean_ious_keeps_the_bits_of_np_mean_per_matrix(k, n, seed):
    # large counts give IoUs whose sums round differently in another order
    rng = np.random.default_rng(seed)
    conf = rng.integers(0, 10 ** rng.integers(1, 9), size=(n, k, k))
    for m in range(n):
        absent = rng.random(k) < rng.random()
        absent[rng.integers(k)] = False
        conf[m, absent, :] = 0
        conf[m, :, absent] = 0
        kept = np.flatnonzero(~absent)
        conf[m, kept, kept] += 1  # every remaining class is present
    want = []
    for m in conf:
        tp = np.diag(m).astype(np.float64)
        union = tp + (m.sum(axis=0) - tp) + (m.sum(axis=1) - tp)
        want.append(float(np.mean(tp[union > 0] / union[union > 0])))
    assert _bits(mt.mean_ious(conf)) == _bits(want)
    with pytest.raises(InputError, match="no class present"):
        mt.mean_ious(np.concatenate([conf, np.zeros((1, k, k), dtype=np.int64)]))


@st.composite
def scored_frames(draw):
    """Predictions and frames over 1-5 frames, 2-4 platforms, K 2-8 and grids
    of at most 6 x 6, each image drawing from its own palette of classes, so
    that classes go missing from single images and from whole runs."""
    k = draw(st.integers(2, 8))
    n_platforms = draw(st.integers(2, 4))
    n_frames = draw(st.integers(1, 5))
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    split = draw(st.sampled_from(["mixed", "every victim degraded", "no victim degraded"]))
    mask_dtype = draw(st.sampled_from([np.int64, np.int32, np.uint8]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    palette = st.lists(st.integers(0, k - 1), min_size=1, max_size=k, unique=True)

    def image(dtype):
        return rng.choice(draw(palette), size=shape).astype(dtype)

    predictions, frames = [], []
    for f in range(n_frames):
        victim = int(rng.integers(n_platforms))
        degraded = [bool(d) for d in rng.integers(0, 2, n_platforms)]
        if split != "mixed":
            degraded[victim] = split == "every victim degraded"
        predictions.append([image(np.int64) for _ in range(n_platforms)])
        frames.append(scenes.SceneSample(
            views=[np.zeros(shape + (3,)) for _ in range(n_platforms)],
            masks=[image(mask_dtype) for _ in range(n_platforms)],
            degraded=degraded, victim=victim, clean_twin=None,
            mode="homo-pis", seed=0, frame=f, classes=k,
        ))
    return k, predictions, frames


def _evaluate_on(predictions, frames, k):
    """`harness.evaluate`'s record when every frame predicts `predictions[frame]`."""
    def run_frame(sample, params, cfg, method, seed):
        states = [smim.SmimState() for _ in sample.masks]
        return pr.FrameResult(predictions[sample.frame], states, pr.CommLedger())

    with mock.patch.object(harness.pr, "run_frame", run_frame):
        record, _ = harness.evaluate("no-interaction", frames, {}, ModelConfig(classes=k))
    return record


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(scored_frames(), st.data())
def test_scoring_from_one_confusion_tensor_keeps_the_bits_of_per_image_scoring(run, data):
    k, predictions, frames = run
    want_split = _ref_split_miou(predictions, frames, k)
    want_platforms = [
        _ref_miou([p[i] for p in predictions], [s.masks[i] for s in frames], k)
        for i in range(frames[0].n_platforms)
    ]

    record = _evaluate_on(predictions, frames, k)
    got = [record.miou_noisy, record.miou_normal, record.miou_avg] + record.per_platform_miou
    assert _bits(got) == _bits(list(want_split) + want_platforms)
    assert _bits(mt.split_miou(predictions, frames, k)) == _bits(want_split)
    for i, want in enumerate(want_platforms):
        got = mt.miou([p[i] for p in predictions], [s.masks[i] for s in frames], k)
        assert _bits([got]) == _bits([want])

    # one bad class id, in a prediction or in an int64 target, fails the whole run
    f = data.draw(st.integers(0, len(frames) - 1))
    i = data.draw(st.integers(0, frames[0].n_platforms - 1))
    bad = data.draw(st.sampled_from([-1, k, k + 7, -(2**40), 2**40]))
    in_target = frames[f].masks[i].dtype == np.int64 and data.draw(st.booleans())
    image = (frames[f].masks if in_target else predictions[f])[i]
    pixel = tuple(data.draw(st.integers(0, n - 1)) for n in image.shape)
    saved = image[pixel]
    image[pixel] = bad
    with pytest.raises(InputError, match="class ids outside"):
        _evaluate_on(predictions, frames, k)
    image[pixel] = saved

    # so does one prediction whose shape is not its target's
    predictions[f][i] = np.zeros((image.shape[0] + 1, image.shape[1]), dtype=np.int64)
    with pytest.raises(InputError, match="prediction .* vs target"):
        _evaluate_on(predictions, frames, k)
