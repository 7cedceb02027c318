"""mIoU, CE, and the selection-accuracy bookkeeping."""

import numpy as np
import pytest

from dcpnet import metrics as mt, scenes, smim
from dcpnet.errors import InputError

from conftest import small_spec


def test_confusion_matrix_hand_example():
    pred = np.array([[0, 1], [1, 1]])
    tgt = np.array([[0, 1], [0, 1]])
    conf = mt.confusion_matrix([pred], [tgt], 2)
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
