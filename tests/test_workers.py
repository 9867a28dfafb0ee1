import os
import select
import signal

import pytest

from brocard import _workers


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _split_logged(tmp_path, items):
    """``split`` of ``items`` with a ``work`` that appends each item it runs,
    and the id of the process that runs it, to a file; returns the results
    and the items the test's own process ran and all items, as logged."""
    log = os.open(tmp_path / "ran", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    try:

        def work(item):
            os.write(log, f"{os.getpid()} {item}\n".encode())
            return item

        results = _workers.split(items, work)
    finally:
        os.close(log)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    ran = [line.split() for line in (tmp_path / "ran").read_text().splitlines()]
    return results, [i for pid, i in ran if pid == str(os.getpid())], [i for _, i in ran]


@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
@pytest.mark.parametrize("count", range(1, 8))
def test_each_item_runs_exactly_once(monkeypatch, tmp_path, cpus, count):
    _cpus(monkeypatch, cpus)
    items = [f"i{k}" for k in range(count)]
    results, mine, ran = _split_logged(tmp_path, items)
    assert results == items
    assert sorted(ran) == items
    # the caller runs its fixed share, in order, and nothing else
    n = min(cpus, count)
    assert mine == (items if n == 1 else items[:: n + 1])


def _hang(signum, frame):
    raise TimeoutError("split blocked")


def test_tickets_past_pipe_buf_never_block_the_caller(monkeypatch, tmp_path):
    _cpus(monkeypatch, 2)
    items = [str(k) for k in range(2 * select.PIPE_BUF // _workers._WIDTH)]
    assert (len(items) - len(items[::3])) * _workers._WIDTH > select.PIPE_BUF
    old = signal.signal(signal.SIGALRM, _hang)
    signal.alarm(20)
    try:
        results, mine, ran = _split_logged(tmp_path, items)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert results == items
    assert sorted(ran) == sorted(items)
    assert mine == items[::3]


@pytest.mark.parametrize("cpus", [2, 3, 4])
def test_a_lost_child_gives_none_for_the_item_it_took(monkeypatch, cpus):
    _cpus(monkeypatch, cpus)
    parent = os.getpid()

    def work(item):
        # i1 is never in the caller's share, and the child that takes it
        # takes nothing before it: the tickets go out in item order
        if item == "i1" and os.getpid() != parent:
            os._exit(3)
        return item.upper()

    assert _workers.split(["i0", "i1", "i2", "i3"], work) == ["I0", None, "I2", "I3"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
