"""One function over a list of items, on every CPU the process may use.

With n workers, the calling process runs the fixed share ``items[::n + 1]``
while forked children pull the rest from one shared ticket pipe, an item
index at a time, until it is empty: n - 1 children start at once and one
more when the caller's share is done.  So what ``work`` changes in the
caller (a counter, a cache, a tracer's spans) does not depend on timing.
A child sends its ``(index, result)`` pairs up a pipe as one ``marshal``
blob, so a result must be plain values (numbers, strings, tuples, lists),
and not ``None``, which stands for an item whose child was lost.
Forked, not spawned: a child starts from the caller's state, patches
included, and imports nothing.  One process does all the work where
``os.fork`` or the CPU affinity query is missing, for a single item, and
in a process that runs threads, whose forked child can deadlock.
"""

from __future__ import annotations

import marshal
import os
import sys
from typing import Callable, NoReturn

_WIDTH = 4  # bytes per ticket: an item index, little-endian


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


def split(items: list[str], work: Callable[[str], object]) -> list:
    """``work(item)`` of every item, in item order, whichever worker ran it.

    A child whose results come back short or unreadable (it was killed, or
    ``work`` left through ``os._exit``) gives ``None`` for each item it had
    taken.  A failed ``os.fork`` stops the forking, and the caller then
    pulls items too.  Every child is reaped before this returns or raises.
    """
    n = worker_count(len(items))
    if n == 1:
        return [work(i) for i in items]
    tickets, feed = os.pipe()
    pids: list[int] = []
    reads: list[int] = []

    def start_child() -> bool:
        """Start a child that pulls items; False if ``os.fork`` failed."""
        read, write = os.pipe()
        reads.append(read)
        try:
            pid = os.fork()
        except OSError:
            os.close(write)
            return False
        if pid == 0:
            _serve(tickets, read, write, items, work)
        os.close(write)
        pids.append(pid)
        return True

    try:
        # never blocks below 16384 items: a Linux pipe holds 64 KiB
        with open(feed, "wb") as pipe:
            pipe.write(b"".join(
                k.to_bytes(_WIDTH, "little") for k in range(len(items)) if k % (n + 1)
            ))
        forked = all(start_child() for _ in range(1, n))
        done = {k: work(items[k]) for k in range(0, len(items), n + 1)}
        if not (forked and start_child()):
            done.update(_pull(tickets, items, work))
        for read in reads:
            with open(read, "rb", closefd=False) as pipe:
                blob = pipe.read()
            try:
                done.update(marshal.loads(blob))
            except (EOFError, ValueError, TypeError):
                pass  # the items this child took have no result
        return [done.get(k) for k in range(len(items))]
    finally:
        for read in (tickets, *reads):
            os.close(read)
        for pid in pids:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass  # reaped already: the caller ignores SIGCHLD


def _pull(tickets: int, items: list[str], work: Callable[[str], object]) -> list:
    """``(index, work(item))`` for each ticket read, until none is left."""
    done = []
    while ticket := os.read(tickets, _WIDTH):
        k = int.from_bytes(ticket, "little")
        done.append((k, work(items[k])))
    return done


def _serve(
    tickets: int, read: int, write: int, items: list[str], work: Callable[[str], object]
) -> NoReturn:
    """A child's whole life: pull items, send the results, leave.

    The child leaves through ``os._exit`` whatever happens, so it never
    returns into its caller's code, runs its cleanup or flushes a buffer
    copied from the parent.
    """
    code = 1
    try:
        os.close(read)
        results = _pull(tickets, items, work)
        with open(write, "wb") as pipe:
            pipe.write(marshal.dumps(results))
        code = 0
    finally:
        os._exit(code)
