"""Forked worker processes, kept between calls, for work that is a pure
function of its task.

`borrowed(serve, tasks)` lends a caller up to one worker per core beyond
its own, never more than `tasks - 1`.  A worker is forked the first time
it is wanted and then kept: it reads pickled tasks from one pipe and
answers each with `serve(task, send)`, whose `send` pickles replies onto
another.  It runs the code as it was when it was forked.  It exits when
its task pipe reads end-of-file, once no process holds the pipe's write
end: every process forked here closes its copies, so a worker ends with
its owner however the owner ends (`os._exit`, SIGKILL).  Messages go
through the `os.write` and `os.readv` bound when this module loaded,
never through a replacement installed later (a test counting file writes).
"""

from __future__ import annotations

import atexit
import contextlib
import functools
import gc
import os
import pickle
import signal
import struct
import threading

_write, _readv = os.write, getattr(os, "readv", None)
_LENGTH = struct.Struct("<Q")  # the byte count before each pickled message

_owned: list[Worker] = []  # the live workers this process forked
_idle: dict = {}           # serve function -> its workers that no call has out
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
    """One forked process that answers tasks with `serve(task, send)`."""

    def __init__(self, serve):
        task_r, self.task_w = os.pipe()
        self.reply_r, reply_w = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (task_r, self.task_w, self.reply_r, reply_w):
                os.close(fd)
            raise
        if self.pid == 0:
            _serve(serve, task_r, reply_w, (self.task_w, self.reply_r))
        os.close(task_r)
        os.close(reply_w)
        _owned.append(self)

    def send(self, task) -> None:
        _send(self.task_w, task)

    def receive(self):
        """The next reply; EOFError when the worker has gone."""
        return _receive(self.reply_r)

    def close(self) -> None:
        """Stop the worker at once, whatever it is doing, reap it and close its pipes."""
        _owned.remove(self)
        with contextlib.suppress(ProcessLookupError, ChildProcessError):
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
        os.close(self.task_w)
        os.close(self.reply_r)


def _serve(serve, task_r: int, reply_w: int, parent_ends) -> None:
    """A worker's whole life; it never returns into the code that forked it."""
    global _inherited
    code = 1
    try:
        _inherited = True
        for fd in parent_ends:  # held here, the task pipe would never read end-of-file
            os.close(fd)
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is for the caller to handle
        gc.freeze()  # no collection walks the inherited heap, so none copies its pages
        send = functools.partial(_send, reply_w)
        while True:
            try:
                task = _receive(task_r)
            except EOFError:
                code = 0
                break
            serve(task, send)
    finally:
        os._exit(code)


@contextlib.contextmanager
def borrowed(serve, tasks: int):
    """Workers running `serve` for the body of a `with`, as a list: at most
    one per core beyond the caller's and `tasks - 1`.  None on a thread
    other than the main one, without fork, or in a process forked from an
    owner; a worker is forked only while no other thread runs (a fork
    copies no thread, but every lock one holds).  An exception in the body
    drops them, since their pipes may still hold replies; the next call
    forks new ones."""
    usable = hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and not _inherited
    if not usable or threading.current_thread() is not threading.main_thread():
        yield []
        return
    want = max(min(tasks, len(os.sched_getaffinity(0))) - 1, 0)
    pool = _idle.pop(serve, [])
    with contextlib.suppress(OSError):  # no more processes to be had: go on with those there are
        while len(pool) < want and threading.active_count() == 1:
            pool.append(Worker(serve))
    lent, kept = pool[:want], pool[want:]
    try:
        yield lent
        kept += lent
    except BaseException:
        for w in lent:
            w.close()
        raise
    finally:
        if kept:
            _idle[serve] = kept


def _forget_after_fork() -> None:
    """In a child forked from this process: close its copies of the workers' pipe
    ends, so that a worker still reads end-of-file when its owner ends."""
    global _inherited
    if _owned:
        _inherited = True
        for w in _owned:
            os.close(w.task_w)
            os.close(w.reply_r)
        _owned.clear()
        _idle.clear()


def _close_all() -> None:
    _idle.clear()
    for w in list(_owned):
        w.close()


atexit.register(_close_all)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_after_fork)
