"""The one write path: `tensorio.write_file` rewrites files in place, every
writer goes through it, and the bytes on disk stay what they were."""

import ast
import hashlib
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from dcpnet import cli, harness, reports, scenes, tensorio
from dcpnet.errors import FormatError, InputError
from dcpnet.metrics import MetricsRecord
from dcpnet.training import LossCurve

from conftest import NOISE, small_cfg, small_spec

SRC = Path(tensorio.__file__).parent


def _write_dataset(d):
    scenes.save_dataset(scenes.make_dataset(small_spec(), "homo-cis", 2, seed=11, n_platforms=2, **NOISE), d)


def _write_checkpoint(d):
    harness.save_checkpoint(harness.init_dcp_params(small_cfg(), seed=3), d)


def _write_report(d):
    records = [MetricsRecord("dcp-net", 0.55, 0.68, 0.62, [0.6, 0.62], 0.005, 0.0054, 123.4, 0.99, 0.7),
               MetricsRecord("no-interaction", float("nan"), 0.5, 0.5, [0.5, 0.5], 0.0, 0.0)]
    ramp = np.linspace(0.0, 1.0, 12)
    dumps = {"pred": ramp.reshape(3, 4), "view": np.stack([ramp, 1 - ramp, ramp**2], -1).reshape(2, 6, 3)}
    reports.emit_report(records, d, dumps)


def _write_sweep_csv(d):
    rows = [harness.SweepRow(4, 0.5, 0.61, 0.004, 25.0), harness.SweepRow(32, 0.8, 0.63, 0.0, None)]
    d.mkdir(parents=True, exist_ok=True)
    harness.sweep_rows_to_csv(rows, d / "sweep.csv")


def _write_curve_csv(d):
    curve = LossCurve()
    curve.append(1, 1.25)
    curve.append(2, 0.875, 0.5)
    d.mkdir(parents=True, exist_ok=True)
    curve.to_csv(d / "curve.csv")


# SHA-256 over (name, SHA-256 of the bytes) of every file each writer leaves,
# recorded before the writers shared one write path
GOLDEN = {
    _write_dataset: "fa23cec732c10c424bf156979dbc0fee6fa822936cc4cc7c441edcc195c6fadd",
    _write_checkpoint: "76b77c2146b4defb8fffafd9be2db8e9494c5a47058b30f65f2132f37178c0fc",
    _write_report: "df0b208593189269d1e5a811630243fe4903adeb099cedd540becb785a6e9f8b",
    _write_sweep_csv: "de339c32d2839bbafe022a28fe4aaf54e68c4dcec0e0615d6841d0d0e5abfbb8",
    _write_curve_csv: "571fbb373803e8899197e0d09d25a054ea6e524e47a39a7fd73f61fcca2674f0",
}


def _tree_digest(d: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(d.iterdir()):
        h.update(p.name.encode() + b"\0" + hashlib.sha256(p.read_bytes()).digest())
    return h.hexdigest()


@pytest.mark.parametrize("writer", list(GOLDEN), ids=lambda w: w.__name__)
def test_writers_keep_their_bytes_fresh_and_over_existing_files(tmp_path, writer):
    d = tmp_path / "out"
    writer(d)
    assert _tree_digest(d) == GOLDEN[writer]
    for p in d.iterdir():  # longer junk in every file: a rewrite must leave only the new bytes
        p.write_bytes(b"\xff" * (p.stat().st_size + 5000))
    writer(d)
    assert _tree_digest(d) == GOLDEN[writer]


def test_a_shorter_rewrite_leaves_exactly_the_new_bytes(tmp_path):
    p = tmp_path / "f.bin"
    tensorio.write_file(p, bytes(range(256)) * 40)
    tensorio.write_file(p, b"short")
    assert p.read_bytes() == b"short"
    tensorio.write_file(p, b"")
    assert p.stat().st_size == 0


def test_a_missing_file_is_created_with_the_mode_open_wb_gives(tmp_path):
    with open(tmp_path / "ref.bin", "wb") as f:
        f.write(b"x")
    tensorio.write_file(tmp_path / "new.bin", b"x")
    modes = [stat.S_IMODE((tmp_path / name).stat().st_mode) for name in ("ref.bin", "new.bin")]
    assert modes[0] == modes[1]


def _fail_after(monkeypatch, n_writes):
    """Make the (n_writes + 1)-th os.write write half its bytes, then raise."""
    real = os.write
    calls = []

    def write(fd, data):
        calls.append(fd)
        if len(calls) <= n_writes:
            return real(fd, data)
        real(fd, bytes(data[: len(data) // 2]))
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "write", write)


def test_a_write_that_fails_part_way_leaves_a_file_the_loaders_reject(tmp_path, monkeypatch):
    p = tmp_path / "t.dcpt"
    tensorio.save_tensor(p, np.arange(4000.0))
    _fail_after(monkeypatch, 0)
    with pytest.raises(OSError, match="No space"):
        tensorio.save_tensor(p, np.ones(3000))
    monkeypatch.undo()
    assert p.stat().st_size == 0
    with pytest.raises(FormatError):
        tensorio.load_tensor(p)

    d = tmp_path / "data"
    _write_dataset(d)
    n_files = len(list(d.iterdir()))
    for n_writes in (2, n_files - 1):  # a tensor file, then the manifest (written last)
        _fail_after(monkeypatch, n_writes)
        with pytest.raises(OSError):
            _write_dataset(d)
        monkeypatch.undo()
        with pytest.raises(FormatError):
            scenes.load_dataset(d)
        _write_dataset(d)
    assert _tree_digest(d) == GOLDEN[_write_dataset]


@pytest.mark.parametrize("arr", [np.zeros((1,) * 9), np.zeros((2**32, 0)), np.array([1e39]), np.array([-1e39]),
                                 np.array([0.0, np.nan]), np.array([[np.inf]])],
                         ids=["rank9", "dim2**32", "overflow", "-overflow", "nan", "inf"])
def test_save_tensor_rejects_what_load_tensor_would_before_touching_the_file(tmp_path, arr):
    p = tmp_path / "t.dcpt"
    tensorio.save_tensor(p, np.arange(6.0))
    before = p.read_bytes()
    with pytest.raises(InputError):
        tensorio.save_tensor(p, arr)
    assert p.read_bytes() == before


# run in a child process: the (n + 1)-th os.write writes half its bytes, then
# the process ends as if killed, so no cleanup of the write path runs
_KILLED_MID_WRITE = """
import os, sys
sys.path[:0] = sys.argv[1:3]
import test_write_path
real, calls = os.write, []
def write(fd, data):
    calls.append(fd)
    if len(calls) > int(sys.argv[4]):
        real(fd, bytes(data[: len(data) // 2]))
        os._exit(9)
    return real(fd, data)
os.write = write
getattr(test_write_path, sys.argv[3])(test_write_path.Path(sys.argv[5]))
"""


def _killed_mid_write(writer, n_writes, d):
    args = [str(SRC.parent), str(Path(__file__).parent), writer.__name__, str(n_writes), str(d)]
    assert subprocess.run([sys.executable, "-c", _KILLED_MID_WRITE, *args]).returncode == 9


@pytest.mark.parametrize("cut", ["first tensor", "last tensor", "manifest"])
def test_a_dataset_rewrite_killed_part_way_does_not_load(tmp_path, cut):
    d = tmp_path / "data"
    scenes.save_dataset(scenes.make_dataset(small_spec(), "homo-cis", 2, seed=12, n_platforms=2, **NOISE), d)
    n_files = len(list(d.iterdir()))  # one os.write per file, the manifest last
    _killed_mid_write(_write_dataset, {"first tensor": 0, "last tensor": n_files - 2, "manifest": n_files - 1}[cut], d)
    with pytest.raises(FormatError):
        scenes.load_dataset(d)
    _write_dataset(d)
    assert _tree_digest(d) == GOLDEN[_write_dataset]


def test_a_checkpoint_rewrite_killed_part_way_does_not_load(tmp_path):
    d = tmp_path / "ckpt"
    harness.save_checkpoint(harness.init_dcp_params(small_cfg(), seed=4), d)
    _killed_mid_write(_write_checkpoint, 3, d)
    with pytest.raises(FormatError, match="empty"):
        tensorio.load_tensor_dict(d)


def test_a_pipe_or_dev_null_takes_the_bytes_and_no_truncate(tmp_path, monkeypatch):
    data = bytes(range(256)) * 300
    tensorio.write_file(os.devnull, data)
    if hasattr(os, "mkfifo"):
        fifo, got = tmp_path / "fifo", []
        os.mkfifo(fifo)
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()))
        reader.start()
        tensorio.write_file(fifo, data)
        reader.join()
        assert got == [data]
    _fail_after(monkeypatch, 0)  # the failed cleanup truncate must not hide the write's own error
    with pytest.raises(OSError, match="No space"):
        tensorio.write_file(os.devnull, data)


def test_cli_outputs_can_go_to_dev_null(tmp_path, capsys):
    ds, ckpt = tmp_path / "ds", tmp_path / "ckpt"
    scenes.save_dataset(scenes.make_dataset(small_spec(), "homo-cis", 2, seed=12, n_platforms=2, **NOISE), ds)
    assert cli.main(["train", "--dataset", str(ds), "--ckpt", str(ckpt), "--epochs", "1", "--curve", os.devnull]) == 0
    assert cli.main(["sweep", "--dataset", str(ds), "--ckpt", str(ckpt), "--grid", "0.5", "--out", os.devnull]) == 0
    assert "error" not in capsys.readouterr().err


def test_the_largest_float32_and_rank_8_still_round_trip(tmp_path):
    for arr in (np.array([np.finfo(np.float32).max, -np.finfo(np.float32).max]), np.ones((1,) * 8)):
        tensorio.save_tensor(tmp_path / "t.dcpt", arr)
        np.testing.assert_array_equal(tensorio.load_tensor(tmp_path / "t.dcpt"), arr)


def test_a_dataset_regenerated_with_fewer_platforms_loads(tmp_path):
    d = tmp_path / "d"
    scenes.save_dataset(scenes.make_dataset(small_spec(), "homo-cis", 3, seed=5, n_platforms=4, **NOISE), d)
    fewer = scenes.make_dataset(small_spec(), "homo-cis", 2, seed=6, n_platforms=2, **NOISE)
    scenes.save_dataset(fewer, d)
    back = scenes.load_dataset(d)
    for a, b in zip(back, fewer, strict=True):
        assert a.n_platforms == 2 and a.frame == b.frame
        for x, y in zip(a.views + a.masks, b.views + b.masks, strict=True):
            np.testing.assert_array_equal(x, y)
    # frame 2 is not in the new manifest: its files are left alone
    assert {"f00002_view3.dcpt", "f00002_mask3.dcpt"} <= set(os.listdir(d))
    assert not {"f00000_view2.dcpt", "f00001_mask3.dcpt"} & set(os.listdir(d))


# the calls that can write a file, and how each names its mode
_OS_WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_APPEND", "O_TRUNC"}


def _write_calls(tree: ast.AST):
    """(line, what) of every call in `tree` that writes a file outside `write_file`."""
    exempt = {id(n) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name == "write_file"
              for n in ast.walk(f)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in exempt:
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("write_text", "write_bytes"):
            yield node.lineno, name
        elif name == "open" and isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os":
            flags = {n.attr for arg in node.args[1:2] for n in ast.walk(arg) if isinstance(n, ast.Attribute)}
            if flags & _OS_WRITE_FLAGS:
                yield node.lineno, "os.open"
        elif name in ("open", "fdopen"):
            # open(file, mode) and io.open / os.fdopen(fd, mode), but path.open(mode)
            method = isinstance(func, ast.Attribute) and getattr(func.value, "id", None) not in ("io", "os")
            args = node.args[:1] if method else node.args[1:2]
            mode = next((k.value for k in node.keywords if k.arg == "mode"), args[0] if args else None)
            if mode is None:
                continue
            if not isinstance(mode, ast.Constant) or set(str(mode.value)) & set("wax+"):
                yield node.lineno, f"{name}({ast.unparse(mode)})"


@pytest.mark.parametrize("src, hits", [
    ("open(p, 'rb').read()", 0),
    ("Path(p).read_text()", 0),
    ("with open(p, 'wb') as f: pass", 1),
    ("with open(p, mode='a') as f: pass", 1),
    ("open(p, m)", 1),
    ("Path(p).open()", 0),
    ("io.open(p, 'rb')", 0),
    ("Path(p).open('w')", 1),
    ("os.fdopen(fd, 'r+b')", 1),
    ("Path(p).write_text(s)", 1),
    ("p.write_bytes(b)", 1),
    ("os.open(p, os.O_RDONLY)", 0),
    ("os.open(p, os.O_WRONLY | os.O_CREAT)", 1),
    ("def write_file(path, data):\n    os.open(path, os.O_WRONLY | os.O_CREAT)", 0),
])
def test_the_write_call_finder(src, hits):
    assert len(list(_write_calls(ast.parse(src)))) == hits


def test_every_file_is_written_through_write_file():
    found = [f"{path.name}:{line} {what}" for path in sorted(SRC.glob("*.py"))
             for line, what in _write_calls(ast.parse(path.read_text(), str(path)))]
    assert found == []
