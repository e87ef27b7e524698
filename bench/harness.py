"""Child-process timing with a hard deadline, and the statistics the
benchmark reports.

Every command of an op runs in a fresh interpreter, so import, corpus parse
and audio render are paid on every invocation, as a user pays them.  Wall
time is taken with time.perf_counter around spawn and reap; peak RSS comes
from os.wait4, so it is the child's own high-water mark.
"""

from __future__ import annotations

import os
import select
import signal
import statistics
import subprocess
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class ChildResult:
    exit_code: int        # negative: killed by that signal
    wall_s: float
    maxrss_mb: float
    timed_out: bool


def _exited_within(pidfd: int, timeout_s: float) -> bool:
    poller = select.poll()
    poller.register(pidfd, select.POLLIN)
    return bool(poller.poll(max(0.0, timeout_s) * 1000.0))


def run_child(argv, *, cwd, env, timeout_s: float, stdout_path, stderr_path,
              term_grace_s: float = 0.0) -> ChildResult:
    """Run argv to completion or until timeout_s has passed.

    At the deadline the child gets SIGTERM and term_grace_s seconds to write
    out what it has (the traced child dumps its open spans), then SIGKILL;
    with term_grace_s 0 it gets SIGKILL at once.  The child is always reaped
    before this returns.
    """
    start = time.perf_counter()
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
    pidfd = os.pidfd_open(proc.pid)
    try:
        timed_out = not _exited_within(pidfd, timeout_s)
        if timed_out:
            # not yet reaped, so the pid still names our child
            if term_grace_s > 0:
                os.kill(proc.pid, signal.SIGTERM)
                if not _exited_within(pidfd, term_grace_s):
                    os.kill(proc.pid, signal.SIGKILL)
            else:
                os.kill(proc.pid, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        # interrupted (SIGTERM, Ctrl-C): leave no child running
        os.kill(proc.pid, signal.SIGKILL)
        os.wait4(proc.pid, 0)
        raise
    finally:
        os.close(pidfd)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(exit_code=proc.returncode, wall_s=wall,
                       maxrss_mb=usage.ru_maxrss / 1024.0, timed_out=timed_out)


def charged(wall_s: float, failed: bool, deadline_s: float) -> float:
    """Latency an op is charged: a failed op counts as at least the deadline,
    so turning a failure into a success can only lower a median."""
    return max(wall_s, deadline_s) if failed else wall_s


def median_counting_failures(samples, deadline_s: float) -> float:
    """Median over all attempted ops; samples are (wall_s, failed) pairs."""
    return statistics.median(charged(w, f, deadline_s) for w, f in samples)

