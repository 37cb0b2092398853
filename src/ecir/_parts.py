"""Contiguous parts of one job, run on every CPU through forked workers.

The text event writer (:func:`ecir.io.write_events`) and ``eval``'s frame
scores (:func:`ecir.cli.cmd_eval`) split their items this way. :func:`edges`
cuts n items into contiguous parts, one per CPU of the process's affinity
mask (``os.cpu_count()`` where there is no ``sched_getaffinity``) but none
shorter than a minimum the caller sets, and one part where ``os.fork`` is
missing. :func:`forked` forks one worker per part but the first and yields
every part's bytes in part order: the caller's part as the caller produces
it, then each worker's from its pipe, so the result does not depend on the
number of parts. This module is the only code that knows how a part ends.
A worker that exits nonzero before sending a byte has its part produced
again by the caller, so a real error is raised as a one-part run raises
it, and a part lost for any other reason (a killed worker) is still
produced; a worker that exits nonzero after sending bytes is an OSError
naming the output and the items. A worker produces its whole output
before its first write, because the caller reads the pipe only after its
own part and a pipe holds little; that buffer lives in the worker, outside
the caller's RSS. A worker always leaves through ``os._exit``: nothing of
the caller's runs or flushes twice, and a failure is only a nonzero exit
status, never output. On any exception the caller kills (SIGKILL) and
reaps every worker not yet reaped.

A worker must run no BLAS call. OpenBLAS's pre-fork handler stops its
thread pool, so a fork happens in a one-thread process and Python 3.12+ has
no fork-with-threads warning to give. Fork, not spawn: a spawned worker
would re-import numpy and ``ecir`` and pickle its inputs, which costs more
than a part saves.
"""

from __future__ import annotations

import os
from contextlib import contextmanager


def edges(n: int, minimum: int) -> list[int]:
    """Bounds of the contiguous parts ``n`` items split into.

    One part per CPU this process may run on, but none shorter than
    ``minimum`` items; one part where ``os.fork`` is missing.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    parts = max(1, min(cpus if hasattr(os, "fork") else 1, n // minimum))
    return [n * i // parts for i in range(parts + 1)]


@contextmanager
def forked(bounds: list[int], produce, output):
    """Fork a worker for each part of ``bounds`` but the first; yield every part's bytes.

    ``produce(lo, hi)`` returns the output of items ``[lo, hi)`` as an
    iterable of bytes. The yielded iterator streams the first part from
    ``produce`` in the caller, then each worker's part from its pipe, in
    part order, reaping each worker once its pipe ends. A part whose worker
    exited nonzero before sending a byte is produced again in the caller;
    one whose worker exited nonzero after sending bytes is an OSError naming
    ``output`` and the part's items. Leaving the block kills and reaps
    every worker not yet reaped.
    """
    live = {}  # the pipe read end of each worker not yet reaped, by pid

    def blocks():
        yield from produce(bounds[0], bounds[1])
        for (pid, read_end), lo, hi in zip(list(live.items()), bounds[1:-1], bounds[2:]):
            sent = False
            while block := os.read(read_end, 1 << 16):  # 64 KiB a read
                sent = True
                yield block
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            os.close(live.pop(pid))
            if status and sent:
                raise OSError(f"{output}: the process producing items {lo} to {hi} "
                              f"exited with status {status} after sending output")
            if status:
                yield from produce(lo, hi)

    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            live.update([_fork(produce, lo, hi)])
        yield blocks()
    finally:
        if live:
            import signal  # only a failed part gets here; kept out of the import of ecir
        for pid, read_end in live.items():
            os.close(read_end)
            os.kill(pid, signal.SIGKILL)  # a worker that has exited is a zombie until reaped
            os.waitpid(pid, 0)


def _fork(produce, lo: int, hi: int) -> tuple[int, int]:
    """Fork a worker that writes ``produce(lo, hi)`` to a pipe; (pid, read end)."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            with open(write_end, "wb") as pipe:
                # the whole part is produced before its first byte is written
                pipe.writelines(list(produce(lo, hi)))
            code = 0
        finally:
            os._exit(code)
    # closed before the next fork, so the pipe ends when this worker exits
    os.close(write_end)
    return pid, read_end
