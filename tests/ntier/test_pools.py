"""Tests for the resizable FIFO admission pools."""

import pytest

from repro.errors import PoolError
from repro.ntier.pools import FifoPool


def make_pool(limit=2):
    granted = []
    pool = FifoPool("p", limit)
    return pool, granted


def test_immediate_grant_when_free():
    pool, granted = make_pool(2)
    pool.acquire("a", granted.append)
    assert granted == ["a"]
    assert pool.in_use == 1
    assert pool.queued == 0


def test_queues_when_full():
    pool, granted = make_pool(1)
    pool.acquire("a", granted.append)
    pool.acquire("b", granted.append)
    assert granted == ["a"]
    assert pool.queued == 1


def test_release_wakes_fifo_order():
    pool, granted = make_pool(1)
    for token in ("a", "b", "c"):
        pool.acquire(token, granted.append)
    pool.release()
    assert granted == ["a", "b"]
    pool.release()
    assert granted == ["a", "b", "c"]


def test_release_without_acquire_raises():
    pool, _ = make_pool(1)
    with pytest.raises(PoolError):
        pool.release()


def test_limit_validation():
    with pytest.raises(PoolError):
        FifoPool("p", 0)
    pool, _ = make_pool(1)
    with pytest.raises(PoolError):
        pool.resize(0)


def test_resize_grow_wakes_waiters():
    pool, granted = make_pool(1)
    for token in ("a", "b", "c"):
        pool.acquire(token, granted.append)
    pool.resize(3)
    assert granted == ["a", "b", "c"]
    assert pool.in_use == 3


def test_resize_shrink_is_graceful():
    pool, granted = make_pool(3)
    for token in ("a", "b", "c"):
        pool.acquire(token, granted.append)
    pool.resize(1)
    # nobody evicted; over-subscribed until holders release
    assert pool.in_use == 3
    assert pool.limit == 1
    pool.acquire("d", granted.append)
    assert pool.queued == 1
    pool.release()
    pool.release()
    # still 1 in use >= limit 1, d keeps waiting
    assert granted == ["a", "b", "c"]
    pool.release()
    assert granted == ["a", "b", "c", "d"]


def test_cancel_removes_waiter():
    pool, granted = make_pool(1)
    pool.acquire("a", granted.append)
    pool.acquire("b", granted.append)
    pool.acquire("c", granted.append)
    assert pool.cancel("b") is True
    pool.release()
    assert granted == ["a", "c"]


def test_cancel_missing_returns_false():
    pool, _ = make_pool(1)
    assert pool.cancel("ghost") is False


def test_fifo_no_overtake_after_grow():
    """A token arriving after a queue formed must not overtake it."""
    pool, granted = make_pool(1)
    pool.acquire("a", granted.append)
    pool.acquire("b", granted.append)
    pool.acquire("c", granted.append)
    # "d" arrives while queue exists; even though a release happens,
    # "b" then "c" go first.
    pool.acquire("d", granted.append)
    pool.release()
    pool.release()
    pool.release()
    assert granted == ["a", "b", "c", "d"]


def test_reentrant_release_during_grant():
    """A grant callback that immediately releases must not corrupt
    state (happens when a zero-demand phase completes synchronously)."""
    pool = FifoPool("p", 1)
    order = []

    def quick(token):
        order.append(token)
        pool.release()

    pool.acquire("a", quick)
    pool.acquire("b", quick)
    assert order == ["a", "b"]
    assert pool.in_use == 0


def test_continuation_args_reach_every_grant():
    """``acquire(token, granted, *args)`` calls ``granted(token, *args)``
    whether the permit is free, freed by a release or freed by a grow;
    the queue still exposes only the tokens."""
    pool = FifoPool("p", 1)
    calls = []

    def granted(token, *args):
        calls.append((token, args))

    pool.acquire("a", granted, "on-a", 1)
    pool.acquire("b", granted, "on-b")
    pool.acquire("c", granted, "on-c", 3)
    pool.acquire("d", granted)
    assert calls == [("a", ("on-a", 1))]
    assert pool.waiting_tokens() == ["b", "c", "d"]
    assert pool.cancel("on-c") is False
    assert pool.cancel("d") is True
    assert pool.waiting_tokens() == ["b", "c"]
    pool.release()
    assert calls[-1] == ("b", ("on-b",))
    pool.resize(2)
    assert calls == [("a", ("on-a", 1)), ("b", ("on-b",)), ("c", ("on-c", 3))]
    assert pool.waiting_tokens() == []
