"""Child-process hygiene: a run ends with no process of its own left.

The program starts helpers the benchmark never sees: ``repro serve``
forks trial workers and a ``multiprocessing`` resource tracker, and the
tracker outlives the server for a moment after the server exits.  An
orphan like that is re-parented to the nearest "child subreaper", so
the benchmark makes itself one (:func:`adopt_orphans`) and, on every
way out, waits for each child and adopted orphan to end
(:func:`stop_children`).  Linux only, like the rest of the benchmark
(it reads ``/proc``).
"""

from __future__ import annotations

import ctypes
import ctypes.util
import os
import signal
import time

_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the subreaper of its descendants, so an orphan
    becomes its child and can be waited for."""
    libc = ctypes.CDLL(ctypes.util.find_library("c") or "libc.so.6", use_errno=True)
    if libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def _children() -> list:
    """Pids whose parent is this process, zombies included."""
    me = os.getpid()
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                stat = handle.read()
        except OSError:
            continue  # gone already
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            kids.append(int(entry))
    return kids


def stop_children(grace: float = 20.0) -> None:
    """Stop this process's own resource tracker, then wait until no
    child is left, reaping each; children still running after ``grace``
    seconds get SIGTERM, and SIGKILL five seconds later."""
    try:
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()
    except (ImportError, AttributeError, OSError, ChildProcessError):
        pass
    deadline = time.monotonic() + grace
    signal_sent = None
    while True:
        kids = _children()
        if not kids:
            return
        for pid in kids:
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass
        now = time.monotonic()
        if now > deadline:
            sig = signal.SIGKILL if now > deadline + 5.0 else signal.SIGTERM
            if sig != signal_sent:
                for pid in kids:
                    try:
                        os.kill(pid, sig)
                    except ProcessLookupError:
                        pass
                signal_sent = sig
        time.sleep(0.005)
