"""Serial-equal maps over forked workers, shared by cross-validation folds and subtree growth.

A map runs ``f(i)`` for i in ``range(k)`` in up to ``workers`` processes: this one and forked
children, which pickle their results back through a pipe. The results are those of the serial
loop, and so is any exception, which is raised from a call made here.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import threading
import warnings

FORK_MIN_ROWS = 256  # maps fork from this many input rows; a fork and its reaping cost ~2 folds on 200 rows
_mapping = False  # true while a map runs, and in its children, which inherit it: maps never nest forks


def _workers(rows: int) -> int:
    """Processes a map over an input of ``rows`` rows may use: the usable CPUs, or 1 unless
    affinity exists (Linux), this process runs one thread, ``rows >= FORK_MIN_ROWS`` and no map runs."""
    forkable = hasattr(os, "sched_getaffinity") and threading.active_count() == 1 and rows >= FORK_MIN_ROWS
    return len(os.sched_getaffinity(0)) if forkable and not _mapping else 1


def _map_folds(fold_result, k: int, workers: int) -> list:
    """``[fold_result(i) for i in range(k)]``, fold i tried first by worker i % workers: 0 is this process,
    others forked. Every fold left without a result (unforked or dead child, short pipe, an exception)
    runs again here in index order, so the lowest failing fold raises here, as the serial loop would."""
    global _mapping

    def run(folds) -> dict:  # results by fold up to the first that raises, which is dropped
        done = {}
        with contextlib.suppress(Exception):
            for i in folds:
                done[i] = fold_result(i)
        return done

    children = []  # (pid or None, reader of the pipe that brings its pickled results)
    nested, _mapping = _mapping, True
    try:
        for w in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                with warnings.catch_warnings():  # Python >= 3.12 warns of numpy's OpenBLAS threads, but
                    # solvtree makes no BLAS call and OpenBLAS rebuilds its pool in the child
                    warnings.filterwarnings("ignore", r"This process \(pid=\d+\) is multi-threaded", DeprecationWarning)
                    pid = os.fork()
            except OSError:
                pid = None  # its pipe reads empty
            if pid == 0:
                try:
                    os.close(read_fd)
                    os.write(write_fd, pickle.dumps(run(range(w, k, workers))))
                finally:
                    os._exit(0)  # never return into the caller's stack
            os.close(write_fd)
            children.append((pid, os.fdopen(read_fd, "rb")))
        done = run(range(0, k, workers))
        for _, reader in children:
            with contextlib.suppress(Exception):  # no child, or it died or wrote less than all
                done.update(pickle.loads(reader.read()))
        return [done[i] if i in done else fold_result(i) for i in range(k)]
    finally:
        _mapping = nested
        for pid, reader in children:
            reader.close()
            if pid is not None:  # a child whose pipe reached EOF has nothing left to do
                import signal  # here, not at module load, where numpy has not imported it: ~1.3 ms
                with contextlib.suppress(ProcessLookupError, ChildProcessError):  # reaped where SIGCHLD is ignored
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
