"""Independent jobs spread across the CPUs the process may use.

fork_join(run, n) returns [run(0), ..., run(n - 1)].  Job r goes to worker
r mod W: worker 0 is the calling process and each other worker a child
forked here, which sends its results back pickled through a pipe.  A job
that draws only from its own seed gives the same result in any worker, so
the list equals that of a run on one CPU, and when jobs raise, the error of
the lowest failing index is raised, as in a serial run.
"""

from __future__ import annotations

import ctypes
import os
import pickle
import signal
import threading
from typing import Callable, List, Optional, Tuple, TypeVar

T = TypeVar("T")


def fork_join(run: Callable[[int], T], n: int) -> List[T]:
    """run(r) for r < n, in W = min(CPUs in the affinity set, n) workers.

    W is 1, and no process is forked, without os.fork or
    os.sched_getaffinity or while other Python threads run (which fork
    would not copy).  Worker w > 0 is a forked child, and this process runs
    share 0 and also every share for which no child could be forked (a
    shortage of processes costs speed, not the run).
    """
    workers = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and threading.active_count() == 1:
        workers = max(1, min(len(os.sched_getaffinity(0)), n))
    here = [0]
    children = []  # (share, pid, read end of its pipe)
    try:
        for w in range(1, workers):
            child = _fork_worker(run, range(w, n, workers))
            if child is None:
                here.extend(range(w, workers))
                break
            children.append((w, *child))
        outcomes = {w: _run_share(run, range(w, n, workers)) for w in here}
        for w, pid, rfd in children:
            with os.fdopen(rfd, "rb", closefd=False) as pipe:
                data = pipe.read()
            try:
                outcomes[w] = pickle.loads(data)
            except (EOFError, pickle.UnpicklingError):
                raise RuntimeError(f"worker {pid} exited without a result") from None
    except BaseException:
        for _, pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for _, pid, rfd in children:
            os.close(rfd)
            os.waitpid(pid, 0)
    results: List[Optional[T]] = [None] * n
    failures = []
    for w, (ok, value) in outcomes.items():
        if ok:
            results[w::workers] = value
        else:
            failures.append(value)
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return results


def _run_share(run: Callable[[int], T], share: range) -> tuple:
    """(True, results) of the jobs in share, or (False, (r, error)) for
    the first job r that raised."""
    results = []
    for r in share:
        try:
            results.append(run(r))
        except Exception as e:
            return False, (r, e)
    return True, results


_PR_SET_PDEATHSIG = 1  # linux/prctl.h


def _end_with(parent: int) -> None:
    """Have the kernel SIGKILL this forked worker once the process that
    forked it ends, however it ends (Linux prctl PR_SET_PDEATHSIG), and
    leave now if it has already ended.  Without prctl a worker whose
    parent is gone ends when it writes to its pipe."""
    try:
        ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, int(signal.SIGKILL))
    except (OSError, AttributeError):
        pass
    if os.getppid() != parent:
        os._exit(1)


def _fork_worker(run: Callable[[int], T], share: range) -> Optional[Tuple[int, int]]:
    """(pid, read end of its pipe) of a forked child that pickles the
    _run_share outcome of share to the pipe and leaves through os._exit,
    so it never returns into its caller's stack; None when no pipe or
    process can be made."""
    parent = os.getpid()
    try:
        rfd, wfd = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(rfd)
            _end_with(parent)
            data = pickle.dumps(_run_share(run, share), pickle.HIGHEST_PROTOCOL)
            with os.fdopen(wfd, "wb") as pipe:
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(wfd)
    return pid, rfd
