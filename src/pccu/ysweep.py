"""One helper process per Python process that runs the y-sweep of 2-D
stages while the caller runs the x-sweep, and formats every other block
of a finished run's large CSV tables while the caller formats the rest.

The two sweeps of a stage read the same ghost-filled averages and write
separate differences, so the split gives the same numbers as running both
in the caller.  The helper is forked (``multiprocessing``'s ``fork``
context, daemon) by the first run that claims it and serves every later
run of the process.  A run sends its static inputs once, among them the
LineGeometry of its y-sweep as the caller built it.  The run's
ghost-filled field and the y-differences live in a memory file shared
for the run, so no stage copies the field or waits for the other process
to read the differences from a pipe; the pipe carries only each stage's
wake-up, which is its robust mask or None, and the replies.  The helper
exits when the caller's end of the pipe closes, so it does not outlive
the process that forked it.  driver.run loads this module only for a 2-D
run; output finds it loaded, and so takes an idle helper, only in a
process that ran one.
"""

import contextlib
import math
import mmap
import multiprocessing
import os
import pickle
import signal
import threading
from multiprocessing.reduction import recv_handle, send_handle

import numpy as np

from .driver import _field_sweep
from .grid import GHOST
from .output import _CoordinateText, _format_block

_helper = None                      # this process's SweepHelper, once forked
_helper_lock = threading.Lock()     # held by the run that uses _helper


class SweepHelper:
    """The helper process and the caller's end of its pipe.

    setup() sends a run's pickled static inputs (model, grid, y geometry,
    scheme, theta, eps0) and the run's memory file, whose field the run
    fills as its data.  Each stage, start() copies the field there when it
    is another array and wakes the helper with the stage's robust mask, or
    None; the helper runs the y-sweep.  finish() waits for the largest
    speed and the slope-drop count and returns the y-differences, in the
    shared memory, or re-raises the sweep's error.  Between runs,
    format_block() sends it a block of CSV rows and formatted() gives back
    their text.
    """

    def __init__(self):
        ctx = multiprocessing.get_context("fork")
        self._conn, child = ctx.Pipe()
        self.process = ctx.Process(
            target=_serve, args=(child, self._conn),
            name="pccu-y-sweep", daemon=True)
        self.process.start()
        child.close()
        self._owner = os.getpid()
        self._shared = None
        self._pending = False       # a reply is due and was not read

    def usable(self):
        """Whether this process forked the helper, which is alive, and
        every reply due (to a stage or a CSV block) was read."""
        return (self._owner == os.getpid() and not self._conn.closed
                and not self._pending and self.process.is_alive())

    def setup(self, static, grid, d):
        # the kernel tends to wake the helper on the caller's CPU, where
        # the two take turns: keep it off the CPU the caller runs on now
        self._talk(os.sched_setaffinity, self.process.pid,
                   os.sched_getaffinity(0) - {_current_cpu()})
        fd = os.memfd_create("pccu-y-sweep")
        try:
            self._shared = _Shared(fd, grid, d, create=True)
            self._talk(self._conn.send_bytes, static)
            self._talk(send_handle, self._conn, fd, self.process.pid)
        finally:
            os.close(fd)

    @property
    def data(self):
        """The ghost-filled field data in the run's shared memory."""
        return self._shared.data

    def start(self, data, robust):
        if data is not self._shared.data:
            np.copyto(self._shared.data, data)
        self._pending = True
        self._talk(self._conn.send, robust)

    def finish(self, stats):
        """(diff_y, sy) of the stage in flight, adding its slope drops to
        stats; diff_y, in grid order, is valid until the next start()."""
        reply = self.wait()
        if isinstance(reply, Exception):
            raise reply
        speed, drops = reply
        if stats is not None:
            stats["slope_drops"] += drops
        return self._shared.diff, speed

    def format_block(self, fresh, coord_bits, values):
        """Send a block of CSV rows to format (output._format_block), the
        first of a table when fresh; formatted() gives its text."""
        self._pending = True
        with contextlib.suppress(RuntimeError):    # formatted() gives None
            self._talk(self._conn.send, ("csv", fresh, coord_bits, values))

    def formatted(self):
        """The text of the block sent last, or None when the helper failed
        on it or has ended."""
        try:
            reply = self.wait()
        except RuntimeError:
            return None
        return None if isinstance(reply, Exception) else reply

    def wait(self):
        """The reply to the stage or CSV block in flight: its largest
        speed and slope-drop count, or the block's text, or its error."""
        reply = self._talk(self._conn.recv)
        self._pending = False
        return reply

    def _talk(self, method, *args):
        try:
            return method(*args)
        except (EOFError, OSError) as exc:
            self.close()
            raise RuntimeError(
                "the y-sweep helper process (pid %s) ended unexpectedly, "
                "exit code %s" % (self.process.pid, self.process.exitcode)) \
                from exc

    def close(self):
        """Stop the helper and wait for it; a forked copy of the process
        that forked it only closes its own end."""
        self._conn.close()
        if self._owner == os.getpid():
            self.process.terminate()
            self.process.join()


class _Shared:
    """A run's memory file, mapped: the ghost-filled field data
    (ny + 2g, nx + 2g, d) and the y-differences, in grid order (ny, nx, d)
    as a view of (d, nx, ny) memory, the sweep's own component-major
    layout, so the caller's sums see the same memory order as without the
    helper."""

    def __init__(self, fd, grid, d, create=False):
        shapes = ((grid.ny + 2 * GHOST, grid.nx + 2 * GHOST, d),
                  (d, grid.nx, grid.ny))
        sizes = [8 * math.prod(shape) for shape in shapes]
        if create:
            os.ftruncate(fd, sum(sizes))
        buf = mmap.mmap(fd, sum(sizes))
        self.data, diff = (
            np.frombuffer(buf, np.float64, math.prod(shape), offset)
            .reshape(shape)
            for shape, offset in zip(shapes, (0, sizes[0])))
        self.diff = diff.transpose(2, 1, 0)


def _serve(conn, caller_end):
    """The helper's loop, until the caller's end closes.  Three messages:
    ("run", static inputs) with the run's memory file, the inputs holding
    the y geometry the caller built; a stage's wake-up, its robust mask or
    None, answered with the largest speed and slope-drop count; ("csv",
    fresh, coordinate bits, values), a block of rows answered with its
    text.  An error is sent back in place of the answer."""
    caller_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)   # the caller handles ^C
    with conn:
        try:
            while True:
                message = conn.recv()
                stage = not isinstance(message, tuple)
                if not stage and message[0] == "run":
                    _, model, grid, *rest = message
                    fd = recv_handle(conn)
                    shared = _Shared(fd, grid, model.d)
                    os.close(fd)
                    static = (model, *rest)
                    continue
                try:
                    if stage:
                        stats = {"slope_drops": 0}
                        diff, speed = _field_sweep(shared.data, *static,
                                                   message, stats)
                        np.copyto(shared.diff, diff)
                        reply = (speed, stats["slope_drops"])
                    else:
                        _, fresh, *block = message
                        if fresh:           # a table's coordinate text
                            text = _CoordinateText()
                        reply = _format_block(text, *block)
                except Exception as exc:        # re-raised by the caller
                    reply = exc
                conn.send(reply)
        except (EOFError, OSError):     # the caller is gone
            return


def _current_cpu():
    """The CPU this process runs on (field 39 of /proc/self/stat)."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[36])


def _usable_cpus():
    """CPUs this process may run on; 1 where Linux's calls the helper
    needs are missing."""
    if not all(hasattr(os, name) for name in
               ("sched_getaffinity", "memfd_create")):
        return 1
    return len(os.sched_getaffinity(0))


@contextlib.contextmanager
def claim(config, geom_y):
    """This process's SweepHelper set up for config's 2-D run, whose
    y-sweep has the LineGeometry geom_y, or None when the run stays
    serial: fewer than two usable CPUs, static inputs that do not pickle,
    a daemonic multiprocessing process (which may not start children),
    the helper busy with another thread's run, or no helper yet in a
    process with more than one thread, which fork() would leave half
    copied.  A helper that died or was left with a stage
    unresolved is replaced."""
    global _helper
    try:
        static = pickle.dumps(("run", config.model, config.grid, geom_y,
                               config.scheme, config.theta, config.eps0))
    except (pickle.PicklingError, AttributeError, TypeError):
        static = None
    if (static is None or _usable_cpus() < 2
            or multiprocessing.current_process().daemon
            or not _helper_lock.acquire(blocking=False)):
        yield None
        return
    try:
        if _helper is not None and not _helper.usable():
            _helper.close()
            _helper = None
        if _helper is None and threading.active_count() == 1:
            _helper = SweepHelper()
        if _helper is not None:
            _helper.setup(static, config.grid, config.model.d)
        yield _helper
    finally:
        _helper_lock.release()


@contextlib.contextmanager
def idle():
    """This process's SweepHelper while no run holds it, or None: no
    helper, a run in another thread holds it, or it is not usable (the
    next claim replaces it).  Never forks one."""
    if not _helper_lock.acquire(blocking=False):
        yield None
        return
    try:
        yield _helper if _helper is not None and _helper.usable() else None
    finally:
        _helper_lock.release()
