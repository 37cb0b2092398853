"""Contiguous parts of one job, run on every CPU through forked children.

The text event writer (:func:`ecir.io.write_events`) and ``eval``'s frame
scores (:func:`ecir.cli.cmd_eval`) split their items this way. :func:`edges`
cuts n items into contiguous parts, one per CPU of the process's affinity
mask (``os.cpu_count()`` where there is no ``sched_getaffinity``) but none
shorter than a minimum the caller sets, and one part where ``os.fork`` is
missing. :func:`forked` forks one child per part but the first. The caller
runs the first part itself, then takes each child's bytes from its pipe in
part order and reaps it, so the result does not depend on the number of
parts. A child produces its whole output before its first write, because
the caller reads the pipe only after its own part and a pipe holds little;
that buffer lives in the child, outside the caller's RSS. A child always
leaves through ``os._exit``: nothing of the caller's runs or flushes twice,
and a failure is only a nonzero exit status, never output. On any
exception the caller kills (SIGKILL) and reaps every child not yet reaped.

A child must run no BLAS call. OpenBLAS's pre-fork handler stops its thread
pool, so a fork happens in a one-thread process and Python 3.12+ has no
fork-with-threads warning to give. Fork, not spawn: a spawned worker would
re-import numpy and ``ecir`` and pickle its inputs, which costs more than a
part saves.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

# bytes a read of a child's pipe asks for
_PIPE_READ = 1 << 16


def edges(n: int, minimum: int) -> list[int]:
    """Bounds of the contiguous parts ``n`` items split into.

    One part per CPU this process may run on, but none shorter than
    ``minimum`` items; one part where ``os.fork`` is missing.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    parts = max(1, min(cpus if hasattr(os, "fork") else 1, n // minimum))
    return [n * i // parts for i in range(parts + 1)]


@contextmanager
def forked(bounds: list[int], produce):
    """Fork a child for each part of ``bounds`` but the first; yield their drain.

    ``produce(lo, hi)`` runs in the child of items ``[lo, hi)`` and returns
    its output as an iterable of bytes. The yielded ``drain(sink)`` passes
    each child's bytes to ``sink`` in part order, and yields ``(lo, hi,
    exit status)`` once that child is reaped. Leaving the block kills and
    reaps every child not yet reaped.
    """
    children = []  # (pid, pipe read end, lo, hi) of each forked part
    reaped = 0  # children[:reaped] have exited and been collected

    def drain(sink):
        nonlocal reaped
        for pid, read_end, lo, hi in children:
            while block := os.read(read_end, _PIPE_READ):
                sink(block)
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            reaped += 1
            yield lo, hi, status

    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            children.append((*_fork(produce, lo, hi), lo, hi))
        yield drain
    finally:
        for pid, _, _, _ in children[reaped:]:
            _kill_and_reap(pid)
        for _, read_end, _, _ in children:
            os.close(read_end)


def _fork(produce, lo: int, hi: int) -> tuple[int, int]:
    """Fork a child that writes ``produce(lo, hi)`` to a pipe; (pid, read end)."""
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
            blocks = list(produce(lo, hi))
            with open(write_end, "wb") as pipe:
                pipe.writelines(blocks)
            code = 0
        finally:
            os._exit(code)
    # closed before the next fork, so the pipe ends when this child exits
    os.close(write_end)
    return pid, read_end


def _kill_and_reap(pid: int) -> None:
    """End a child the caller no longer waits for, and collect its status."""
    import signal  # only a failed part gets here; kept out of the import of ecir

    os.kill(pid, signal.SIGKILL)  # a child that has exited is a zombie until reaped
    os.waitpid(pid, 0)
