"""workers.map and make_dataset on every core: the results, errors and
process lifetimes of the serial loop, whatever the workers do."""

import ast
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


LONG = 2 * CORES * workers._SHARE + 1  # two whole rounds and one more frame


@pytest.mark.parametrize("count, processes", [pytest.param(n, CORES, id=str(n)) for n in (1, 2, 3, LONG)]
                         + [pytest.param(LONG, 1, id=f"{LONG}-on-one-core")])
def test_make_dataset_is_the_serial_loop(fresh_workers, monkeypatch, processes, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(processes)), raising=False)
    spec = small_spec(min_view_separation=8)
    assert _same_samples(scenes.make_dataset(spec, "hetero-pis", count, seed=4, n_platforms=3),
                         _serial(spec, "hetero-pis", count, 4, n_platforms=3))
    assert len(workers._owned) <= processes - 1


@several_cores
def test_a_dataset_of_two_or_more_samples_keeps_a_worker_per_extra_core(fresh_workers):
    scenes.make_dataset(small_spec(), "homo-cis", 1, seed=0)
    assert workers._owned == []
    scenes.make_dataset(small_spec(), "homo-cis", 2, seed=0)
    first = list(workers._owned)
    assert len(first) == 1
    scenes.make_dataset(small_spec(), "homo-cis", 2 * CORES, seed=1)
    assert workers._owned[:1] == first and len(workers._owned) == CORES - 1
    assert workers._kept == (scenes.make_sample, workers._owned)


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

    monkeypatch.setattr(scenes, "make_sample", interrupted)  # a new function: the worker above makes way for one running it
    with pytest.raises(KeyboardInterrupt):
        scenes.make_dataset(small_spec(), "homo-cis", 4, seed=2)
    assert workers._owned == [] and workers._kept == (None, [])
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


@several_cores
def test_a_function_patched_after_the_fork_makes_every_frame(fresh_workers, monkeypatch):
    scenes.make_dataset(small_spec(), "homo-cis", 4, seed=0)
    assert workers._owned
    real = scenes.make_sample

    def marked(spec, mode, frame, seed, **kwargs):
        sample = real(spec, mode, frame, seed, **kwargs)
        sample.mode = "patched"
        return sample

    monkeypatch.setattr(scenes, "make_sample", marked)
    assert [s.mode for s in scenes.make_dataset(small_spec(), "homo-cis", 8, seed=1)] == ["patched"] * 8


def _item(k, fails=(), dies=(), owner=None):
    """Item k of a map: None or another falsy value, or k itself every fifth
    item; raises for k in `fails`; SIGKILLs its process for k in `dies`
    unless that process is `owner`."""
    if k in dies and os.getpid() != owner:
        os.kill(os.getpid(), signal.SIGKILL)
    if k in fails:
        raise InputError(f"item {k} fails")
    return (None, 0, "", (), k)[k % 5]


@several_cores
def test_map_returns_none_and_falsy_results_as_they_are(fresh_workers):
    assert workers.map(_item, [(k,) for k in range(12)]) == [_item(k) for k in range(12)]
    assert len(workers._owned) == CORES - 1


@pytest.mark.parametrize("fails", [{6, 21, 37}, {7, 33}, {34, 35}, {1}, {0, 1}])
def test_map_raises_for_the_lowest_failing_item(fresh_workers, fails):
    argsets = [(k,) for k in range(2 * 2 * workers._SHARE + 3)]
    with pytest.raises(InputError) as serial:
        [_item(*a, fails=fails) for a in argsets]
    with pytest.raises(InputError) as made:
        workers.map(_item, argsets, fails=fails)
    assert str(made.value) == str(serial.value) == f"item {min(fails)} fails"


@several_cores
def test_map_returns_the_serial_result_when_a_worker_is_killed_in_the_call(fresh_workers):
    argsets = [(k,) for k in range(3 * CORES * workers._SHARE)]
    assert workers.map(_item, argsets, dies={5, 6, 7}, owner=os.getpid()) == [_item(*a) for a in argsets]
    assert workers._owned == []


def test_map_returns_the_serial_result_when_an_argument_does_not_pickle(fresh_workers):
    unpicklable = threading.Lock()
    argsets = [(k,) for k in range(8)]
    assert workers.map(_item, argsets, owner=unpicklable) == [_item(*a) for a in argsets]
    assert workers._owned == []


# what forks, pipes, signals or pickles; only workers.py may name it
PROCESS_NAMES = {"os.fork", "os.pipe", "os.kill", "os.waitpid", "pickle", "signal", "multiprocessing"}


def _process_uses(tree: ast.Module):
    """(line, what) of every `os.x` attribute or import that names one of PROCESS_NAMES."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and f"{getattr(node.value, 'id', '')}.{node.attr}" in PROCESS_NAMES:
            yield node.lineno, f"{node.value.id}.{node.attr}"
        elif isinstance(node, ast.Import):
            yield from ((node.lineno, a.name) for a in node.names if a.name.split(".")[0] in PROCESS_NAMES)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] in PROCESS_NAMES:
            yield node.lineno, node.module
        elif isinstance(node, ast.ImportFrom):
            yield from ((node.lineno, f"{node.module}.{a.name}") for a in node.names if f"{node.module}.{a.name}" in PROCESS_NAMES)


@pytest.mark.parametrize("src, hits", [
    ("os.fork()", 1),
    ("os.forkpty()", 0),
    ("import pickle", 1),
    ("import pickle as pk\npk.dumps(1)", 1),
    ("from os import pipe, kill", 2),
    ("from os import path", 0),
    ("from signal import SIGKILL", 1),
    ("import multiprocessing.pool", 1),
    ("from multiprocessing import Pool", 1),
    ("os.waitpid(pid, 0)\nos.write(fd, b'')", 1),
])
def test_the_process_use_finder(src, hits):
    assert len(list(_process_uses(ast.parse(src)))) == hits


def test_only_workers_forks_pipes_signals_or_pickles():
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(Path(scenes.__file__).parent.glob("*.py"))}
    found = [f"{name}.py:{line} {what}" for name, tree in trees.items() if name != "workers"
             for line, what in _process_uses(tree)]
    assert found == []
    # workers names each of them but multiprocessing, so the guard is not vacuous
    assert {what for _, what in _process_uses(trees["workers"])} == PROCESS_NAMES - {"multiprocessing"}


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
