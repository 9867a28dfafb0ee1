"""One function over a list of items, on every CPU the process may use.

Worker k of n takes ``items[k::n]``, a static interleaved split.  Worker
0 is the calling process; each other worker is a forked child that sends
its results up a pipe as one ``marshal`` blob, so a result must be plain
values (numbers, strings, tuples, lists).  Forked, not spawned: a child
starts from the caller's state, patches included, and imports nothing;
whatever it changes (a counter, a cache, a tracer's spans) stays in the
child.  One process does all the work where ``os.fork`` or the CPU
affinity query is missing, for a single item, and in a process that runs
threads, whose forked child can deadlock.
"""

from __future__ import annotations

import marshal
import os
import sys
from typing import Callable, NoReturn


def worker_count(items: int) -> int:
    """How many processes share ``items`` items: one per usable CPU."""
    threading = sys.modules.get("threading")
    if (
        not hasattr(os, "fork")
        or not hasattr(os, "sched_getaffinity")
        or (threading is not None and threading.active_count() > 1)
    ):
        return 1
    return min(len(os.sched_getaffinity(0)), items)


def split(
    items: list[str], work: Callable[[str], object], lost: Callable[[str], object]
) -> list:
    """``work(item)`` of every item, grouped by worker, not in item order.

    A child whose results come back short or unreadable (it was killed,
    or ``work`` left through ``os._exit``) gives ``lost(item)``, computed
    by the caller, for each item of its share.  Every child is reaped
    before this returns or raises.
    """
    n = worker_count(len(items))
    pids: list[int] = []
    reads: list[int] = []
    try:
        for k in range(1, n):
            read, write = os.pipe()
            reads.append(read)
            try:
                pid = os.fork()
            except OSError:
                os.close(write)
                raise
            if pid == 0:
                _serve(read, write, items[k::n], work)
            os.close(write)
            pids.append(pid)
        results = [work(i) for i in items[::n]]
        for k, read in enumerate(reads, 1):
            with open(read, "rb", closefd=False) as pipe:
                blob = pipe.read()
            try:
                results += marshal.loads(blob)
            except (EOFError, ValueError, TypeError):
                results += [lost(i) for i in items[k::n]]
        return results
    finally:
        for read in reads:
            os.close(read)
        for pid in pids:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass  # reaped already: the caller ignores SIGCHLD


def _serve(
    read: int, write: int, items: list[str], work: Callable[[str], object]
) -> NoReturn:
    """A child's whole life: do its share, send the results, leave.

    The child leaves through ``os._exit`` whatever happens, so it never
    returns into its caller's code, runs its cleanup or flushes a buffer
    copied from the parent.
    """
    code = 1
    try:
        os.close(read)
        results = [work(i) for i in items]
        with open(write, "wb") as pipe:
            pipe.write(marshal.dumps(results))
        code = 0
    finally:
        os._exit(code)
