"""Work that is a pure function of its items, shared with forked workers
kept between calls.

`map(fn, argsets, **kwargs)` returns or raises exactly what
`[fn(*a, **kwargs) for a in argsets]` does.  With P processes, the caller
and up to one worker per core beyond it (never more than the items less
one), item k is made by process k mod P, at most `_SHARE` items per
process per round; the caller puts the results in item order.  An item
that no process made (one that failed, those after it in its process's
share, or a lost worker's) is made in the caller at the end, in order, so
the lowest failing item raises the serial loop's exception.  One core,
no fork, a call off the main thread or a process forked from an owner
runs the serial loop.

A worker is forked for one function and then kept: it reads pickled
shares from one pipe and answers each with pickled results on another.
A call with another function object drops the kept workers and forks new
ones, so a function patched after a fork reaches every item.  Only that
top-level function is compared: a patch of something it calls (say
`np.random.default_rng` under `scenes.make_sample`) reaches only the
caller's share.  A worker exits when its share pipe reads end-of-file,
once no process holds the pipe's write end: every process forked here
closes its copies, so a worker ends with its owner however the owner ends
(`os._exit`, SIGKILL).  Messages go through the `os.write` and `os.readv`
bound when this module loaded, never through a replacement installed
later (a test counting file writes).
"""

from __future__ import annotations

import atexit
import contextlib
import gc
import os
import pickle
import signal
import struct
import threading

_write, _readv = os.write, getattr(os, "readv", None)
_LENGTH = struct.Struct("<Q")  # the byte count before each pickled message
_SHARE = 16  # items a process makes per round of a map: what a worker holds at most

_owned: list[Worker] = []  # the live workers this process forked
_kept: tuple = (None, [])  # (fn, its workers) while no call has them out
_inherited = False         # forked from a process that owned workers, or a worker itself


def _send(fd: int, obj) -> None:
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)  # whole before any byte leaves
    for part in (_LENGTH.pack(len(data)), data):
        view = memoryview(part)
        while view:
            view = view[_write(fd, view):]


def _read_exactly(fd: int, n: int) -> bytearray:
    buf = bytearray(n)
    view, got = memoryview(buf), 0
    while got < n:
        k = _readv(fd, [view[got:]])
        if not k:
            raise EOFError("the other end of the pipe closed")
        got += k
    return buf


def _receive(fd: int):
    (n,) = _LENGTH.unpack(_read_exactly(fd, _LENGTH.size))
    return pickle.loads(_read_exactly(fd, n))


class Worker:
    """One forked process that makes shares of items with `fn`."""

    def __init__(self, fn):
        task_r, self.task_w = os.pipe()
        self.reply_r, reply_w = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (task_r, self.task_w, self.reply_r, reply_w):
                os.close(fd)
            raise
        if self.pid == 0:
            _serve(fn, task_r, reply_w, (self.task_w, self.reply_r))
        os.close(task_r)
        os.close(reply_w)
        _owned.append(self)

    def close(self) -> None:
        """Stop the worker at once, whatever it is doing, reap it and close its pipes."""
        _owned.remove(self)
        with contextlib.suppress(ProcessLookupError, ChildProcessError):
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
        os.close(self.task_w)
        os.close(self.reply_r)


def _serve(fn, task_r: int, reply_w: int, parent_ends) -> None:
    """A worker's whole life; it never returns into the code that forked it."""
    global _inherited
    code = 1
    try:
        _inherited = True
        for fd in parent_ends:  # held here, the task pipe would never read end-of-file
            os.close(fd)
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is for the caller to handle
        gc.freeze()  # no collection walks the inherited heap, so none copies its pages
        while True:
            try:
                argsets, kwargs = _receive(task_r)
            except EOFError:
                code = 0
                break
            # the whole share before the first reply: a result may outgrow a pipe's
            # buffer, and the caller reads only once it has made its own share
            made = []
            for args in argsets:
                try:
                    made.append((fn(*args, **kwargs),))
                except Exception:
                    made.append(())  # no result, not even None, travels as an empty tuple
                    break
            for result in made:
                _send(reply_w, result)
    finally:
        os._exit(code)


def _drop(pool: list[Worker]) -> list[Worker]:
    for w in pool:
        w.close()
    return []


def _lend(fn, items: int) -> tuple[list[Worker], list[Worker]]:
    """(the workers kept for `fn`, those this call may use): at most one per
    core beyond the caller's and `items - 1`.  No workers on a thread other
    than the main one, without fork, or in a process forked from an owner; a
    worker is forked only while no other thread runs (a fork copies no
    thread, but every lock one holds)."""
    global _kept
    usable = hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and not _inherited
    if not usable or threading.current_thread() is not threading.main_thread():
        return [], []
    (kept_fn, pool), _kept = _kept, (None, [])
    if kept_fn is not fn:
        pool = _drop(pool)
    want = max(min(items, len(os.sched_getaffinity(0))) - 1, 0)
    with contextlib.suppress(OSError):  # no more processes to be had: go on with those there are
        while len(pool) < want and threading.active_count() == 1:
            pool.append(Worker(fn))
    return pool, pool[:want]


def map(fn, argsets, /, **kwargs) -> list:
    """What `[fn(*a, **kwargs) for a in argsets]` returns or raises, shared
    with the workers kept for `fn` (see the module docstring)."""
    global _kept
    argsets = list(argsets)
    made = [()] * len(argsets)  # (result,) for each item a process made
    pool, lent = _lend(fn, len(argsets))
    p = len(lent) + 1
    try:
        for start in range(0, len(argsets) if lent else 0, p * _SHARE):  # without workers, the end makes all
            items = range(start, min(start + p * _SHARE, len(argsets)))
            for j, w in enumerate(lent, 1):
                _send(w.task_w, ([argsets[k] for k in items[j::p]], kwargs))
            for k in items[::p]:
                try:
                    made[k] = (fn(*argsets[k], **kwargs),)
                except Exception:
                    break
            for j, w in enumerate(lent, 1):
                for k in items[j::p]:
                    made[k] = _receive(w.reply_r)
                    if not made[k]:
                        break
    except Exception:  # a lost worker, or a share or result that does not pickle
        pool = _drop(pool)  # the items they owed are made below
    except BaseException:
        _drop(pool)  # their pipes may still hold replies
        raise
    if pool:
        _kept = (fn, pool)
    return [r[0] if r else fn(*a, **kwargs) for r, a in zip(made, argsets)]


def _forget_after_fork() -> None:
    """In a child forked from this process: close its copies of the workers' pipe
    ends, so that a worker still reads end-of-file when its owner ends."""
    global _inherited, _kept
    if _owned:
        _inherited = True
        for w in _owned:
            os.close(w.task_w)
            os.close(w.reply_r)
        _owned.clear()
        _kept = (None, [])


def _close_all() -> None:
    global _kept
    _kept = (None, [])
    for w in list(_owned):
        w.close()


atexit.register(_close_all)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_after_fork)
