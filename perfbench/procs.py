"""Leave no process behind when a benchmark process exits.

Two kinds of process outlive the code that started them:

* ``multiprocessing``'s resource tracker, which the first shared-memory
  trace export starts and nothing stops: it ends only after its parent
  has exited, so it would be orphaned (and, under an init that does not
  reap, stay a zombie).
* anything a child leaves behind when it exits, such as the served-jobs
  server's own resource tracker.

:func:`become_subreaper` makes such orphans children of this process, and
:func:`reap_all` stops the tracker and waits for every remaining child.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time

_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Have orphaned descendants reparented to this process (Linux)."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):  # not Linux: nothing to adopt
        pass


def stop_resource_tracker() -> None:
    """Stop and wait for the resource tracker this process started, if any.

    Call it once every shared-memory segment is released: the tracker
    unlinks whatever is still registered when it stops.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        try:
            tracker._stop()
        except ChildProcessError:  # already reaped
            pass


def _live_children() -> "list[int]":
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:  # exited meanwhile
            continue
        # Fields after the parenthesised command: state, ppid, ...
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            found.append(int(entry))
    return found


def reap_all(grace_s: float = 10.0) -> None:
    """Stop the resource tracker, then wait until this process has no
    children left (orphans adopted by :func:`become_subreaper` included);
    children still running after ``grace_s`` are killed."""
    stop_resource_tracker()
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # no children at all
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in _live_children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = float("inf")
        time.sleep(0.01)
