"""Leave no process behind.

``run.py`` starts processes it does not hold a handle to: a
``ProcessTeam`` starts :mod:`multiprocessing`'s resource tracker, which
nobody waits for, so it outlived the command as a zombie handed to pid 1;
a killed ``npb serve`` orphans whatever it had forked.  The command
therefore adopts its orphans (``PR_SET_CHILD_SUBREAPER``, Linux) when it
starts and, on every way out, stops the tracker and waits until it has
no child left, killing what does not end by itself.
"""

from __future__ import annotations

import ctypes
import os
import signal
import sys
import time

_PR_SET_CHILD_SUBREAPER = 36

#: A child still alive this long after the command is done is sent
#: SIGTERM, and SIGKILL after as long again.
GRACE_SECONDS = 5.0


def adopt_orphans() -> bool:
    """Make this process the parent of every descendant whose own parent
    ends; False where the kernel cannot (the sweep then sees only direct
    children)."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def exit_on_sigterm() -> None:
    """SIGTERM unwinds through ``finally`` blocks instead of ending the
    interpreter where it stands."""
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))


def _stop_resource_tracker() -> None:
    """Close and wait for multiprocessing's tracker, if one was started
    (it ends once every holder of its pipe has closed it)."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        try:
            stop()
        except (OSError, ChildProcessError):
            pass


def children() -> list[int]:
    """Pids whose parent is this process, zombies included."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rpartition(") ")[2].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def reap_all(grace: float = GRACE_SECONDS) -> int:
    """Wait until this process has no child; the number that had to be
    signalled (0 when everything the command started ended by itself)."""
    _stop_resource_tracker()
    signalled: set[int] = set()
    for signum in (signal.SIGTERM, signal.SIGKILL, None):
        deadline = time.monotonic() + grace
        while time.monotonic() < deadline:
            try:
                pid, _ = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                return len(signalled)
            if pid == 0:
                time.sleep(0.01)
        for pid in children() if signum else ():
            signalled.add(pid)
            try:
                os.kill(pid, signum)
            except ProcessLookupError:
                pass
    return len(signalled)
