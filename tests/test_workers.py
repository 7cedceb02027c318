"""make_dataset on every core: the samples, errors and process lifetimes of
the serial loop, whatever the workers do."""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from dcpnet import scenes, workers
from dcpnet.config import WorldSpec
from dcpnet.errors import ConfigError, InputError

from conftest import small_spec
from test_scenes import _same_samples

SRC = Path(scenes.__file__).parents[1]
CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
several_cores = pytest.mark.skipif(CORES < 2 or not hasattr(os, "fork"), reason="workers need fork and 2 cores")


def _serial(spec, mode, count, seed, **kwargs):
    return [scenes.make_sample(spec, mode, frame, seed, **kwargs) for frame in range(count)]


@pytest.fixture
def fresh_workers():
    """No worker before the test, so the test's code is what one forks, and none after it."""
    workers._close_all()
    yield
    workers._close_all()


@pytest.mark.parametrize("count", [1, 2, 3, 2 * CORES * scenes._SHARE + 1])
def test_make_dataset_is_the_serial_loop(count):
    spec = small_spec(min_view_separation=8)
    assert _same_samples(scenes.make_dataset(spec, "hetero-pis", count, seed=4, n_platforms=3),
                         _serial(spec, "hetero-pis", count, 4, n_platforms=3))


@several_cores
def test_a_dataset_of_two_or_more_samples_keeps_a_worker_per_extra_core(fresh_workers):
    scenes.make_dataset(small_spec(), "homo-cis", 1, seed=0)
    assert workers._owned == []
    scenes.make_dataset(small_spec(), "homo-cis", 2, seed=0)
    first = list(workers._owned)
    assert len(first) == 1
    scenes.make_dataset(small_spec(), "homo-cis", 2 * CORES, seed=1)
    assert workers._owned[:1] == first and len(workers._owned) == CORES - 1
    assert workers._idle[scenes._make_share] == workers._owned


def test_a_thread_that_is_not_the_main_one_gets_the_serial_samples():
    got = []
    thread = threading.Thread(target=lambda: got.append(scenes.make_dataset(small_spec(), "homo-pis", 5, seed=9)))
    thread.start()
    thread.join(60)
    assert _same_samples(got[0], _serial(small_spec(), "homo-pis", 5, 9))


def test_a_dataset_that_cannot_be_made_raises_what_the_serial_loop_raises():
    spec = WorldSpec(classes=9)
    with pytest.raises(ConfigError) as serial:
        _serial(spec, "homo-cis", 4, 0)
    with pytest.raises(ConfigError) as made:
        scenes.make_dataset(spec, "homo-cis", 4, seed=0)
    assert str(made.value) == str(serial.value) == "at most 8 classes supported by the palette"


@pytest.mark.parametrize("failing", [{3, 4, 6}, {2, 3}, {5}, {0}])
def test_the_lowest_failing_frame_raises_wherever_it_was_made(fresh_workers, monkeypatch, failing):
    real = scenes.make_sample

    def make_sample(spec, mode, frame, seed, **kwargs):
        if frame in failing:
            raise InputError(f"frame {frame} fails")
        return real(spec, mode, frame, seed, **kwargs)

    monkeypatch.setattr(scenes, "make_sample", make_sample)  # before the fork, so the worker runs it too
    with pytest.raises(InputError) as serial:
        _serial(small_spec(), "homo-cis", 8, 0)
    with pytest.raises(InputError) as made:
        scenes.make_dataset(small_spec(), "homo-cis", 8, seed=0)
    assert str(made.value) == str(serial.value) == f"frame {min(failing)} fails"


@several_cores
def test_an_interrupt_while_replies_are_pending_drops_the_worker(fresh_workers, monkeypatch):
    scenes.make_dataset(small_spec(), "homo-cis", 2, seed=0)
    (worker,) = workers._owned
    real = scenes.make_sample

    def interrupted(spec, mode, frame, seed, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(scenes, "make_sample", interrupted)  # in this process only: the worker was forked before
    with pytest.raises(KeyboardInterrupt):
        scenes.make_dataset(small_spec(), "homo-cis", 4, seed=2)
    assert workers._owned == [] and scenes._make_share not in workers._idle
    with pytest.raises(ChildProcessError):
        os.waitpid(worker.pid, 0)  # reaped already
    monkeypatch.setattr(scenes, "make_sample", real)
    assert _same_samples(scenes.make_dataset(small_spec(), "homo-cis", 4, seed=2), _serial(small_spec(), "homo-cis", 4, 2))


@several_cores
def test_a_lost_worker_leaves_its_frames_to_the_caller(fresh_workers):
    scenes.make_dataset(small_spec(), "homo-cis", 2, seed=0)
    (worker,) = workers._owned
    os.kill(worker.pid, signal.SIGKILL)
    os.waitpid(worker.pid, 0)
    assert _same_samples(scenes.make_dataset(small_spec(), "homo-cis", 6, seed=3), _serial(small_spec(), "homo-cis", 6, 3))
    assert workers._owned == []
    scenes.make_dataset(small_spec(), "homo-cis", 2, seed=0)
    assert len(workers._owned) == 1  # forked anew


@several_cores
def test_messages_never_go_through_a_replaced_os_write(fresh_workers, monkeypatch):
    def write(fd, data):
        raise AssertionError("a message went through os.write")

    monkeypatch.setattr(os, "write", write)
    made = scenes.make_dataset(small_spec(), "homo-cis", 6, seed=5)
    assert len(workers._owned) == 1
    monkeypatch.undo()
    assert _same_samples(made, _serial(small_spec(), "homo-cis", 6, 5))


@several_cores
def test_a_process_forked_from_the_owner_makes_its_dataset_alone(fresh_workers):
    scenes.make_dataset(small_spec(), "homo-cis", 2, seed=0)
    want = _serial(small_spec(), "homo-cis", 4, 6)
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            made = scenes.make_dataset(small_spec(), "homo-cis", 4, seed=6)
            code = 0 if workers._owned == [] and workers._inherited and _same_samples(made, want) else 3
        finally:
            os._exit(code)
    assert os.waitpid(pid, 0)[1] == 0
    assert _same_samples(scenes.make_dataset(small_spec(), "homo-cis", 4, seed=6), want)  # the worker still serves


_MAKE_THEN_DIE = """
import os, signal, sys
sys.path.insert(0, sys.argv[1])
from dcpnet import scenes, workers
from dcpnet.config import WorldSpec
scenes.make_dataset(WorldSpec(world_size=32, view_size=16, classes=3, min_view_separation=0), "homo-cis", 4, seed=1)
print(*[w.pid for w in workers._owned], flush=True)
os._exit(0) if sys.argv[2] == "exit" else os.kill(os.getpid(), signal.SIGKILL)
"""


def _running(pid: int) -> bool:
    """Whether `pid` still runs: a zombie has ended, whoever reaps it."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] not in "ZX"
    except FileNotFoundError:
        return False


@several_cores
@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states from /proc")
@pytest.mark.parametrize("end", ["exit", "kill"])
def test_the_worker_ends_with_its_caller(end):
    proc = subprocess.Popen([sys.executable, "-c", _MAKE_THEN_DIE, str(SRC), end],
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    pids = [int(p) for p in proc.stdout.readline().split()]
    proc.wait(60)
    proc.stdout.close()
    assert len(pids) == 1
    deadline = time.monotonic() + 1.0
    while any(map(_running, pids)) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not any(map(_running, pids))
    # an orphan's zombie is reaped by the init process, which may poll for it
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            break
        time.sleep(0.05)
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
