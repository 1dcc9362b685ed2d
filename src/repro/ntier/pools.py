"""Resizable FIFO admission pools — the paper's *soft resources*.

A :class:`FifoPool` models a worker-thread pool (Apache, Tomcat) or a DB
connection pool (inside Tomcat): a counted set of permits with a FIFO
wait queue. The three pool limits are exactly the
``#Wthreads-#Athreads-#DBconnections`` notation of the paper, and the
actuators resize them at runtime the way ConScale drives Tomcat via
JMX/RMI:

* growing a pool immediately grants permits to queued waiters;
* shrinking takes effect as in-use permits drain back (no request is
  aborted), matching how a real thread pool contracts.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from repro.errors import PoolError

__all__ = ["FifoPool"]


class FifoPool:
    """A counted permit pool with FIFO waiting and runtime resizing."""

    def __init__(self, name: str, limit: int) -> None:
        if limit < 1:
            raise PoolError(f"pool {name!r}: limit must be >= 1, got {limit!r}")
        self.name = name
        self._limit = int(limit)
        self._in_use = 0
        self._waiters: deque[tuple[Any, Callable[..., None], tuple]] = deque()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def limit(self) -> int:
        """Current permit limit (the soft-resource allocation)."""
        return self._limit

    @property
    def in_use(self) -> int:
        """Permits currently held."""
        return self._in_use

    @property
    def queued(self) -> int:
        """Requests waiting for a permit."""
        return len(self._waiters)

    # ------------------------------------------------------------------
    # acquire / release
    # ------------------------------------------------------------------
    def acquire(self, token: Any, granted: Callable[..., None], *args: Any) -> None:
        """Request a permit for ``token``.

        ``granted(token, *args)`` is invoked synchronously if a permit
        is free and nobody is queued ahead; otherwise the token joins the
        FIFO queue and the callback fires on a future release/resize.
        """
        if self._in_use < self._limit and not self._waiters:
            self._in_use += 1
            granted(token, *args)
        else:
            self._waiters.append((token, granted, args))

    def release(self) -> None:
        """Return one permit, waking the longest-waiting token if any."""
        if self._in_use <= 0:
            raise PoolError(f"pool {self.name!r}: release without acquire")
        self._in_use -= 1
        if self._waiters:
            self._grant_waiters()

    def waiting_tokens(self) -> list[Any]:
        """Tokens currently queued, in FIFO order (fault unwinding)."""
        return [tok for tok, _cb, _args in self._waiters]

    def cancel(self, token: Any) -> bool:
        """Remove a queued token (e.g. a timed-out request).

        Returns True if the token was found and removed.
        """
        for i, (tok, _cb, _args) in enumerate(self._waiters):
            if tok is token:
                del self._waiters[i]
                return True
        return False

    # ------------------------------------------------------------------
    # runtime resizing (the soft-resource actuation path)
    # ------------------------------------------------------------------
    def resize(self, new_limit: int) -> None:
        """Change the permit limit at runtime.

        Growth wakes waiters immediately; shrinkage lets in-flight
        holders finish (``in_use`` may exceed ``limit`` transiently).
        """
        if new_limit < 1:
            raise PoolError(
                f"pool {self.name!r}: limit must be >= 1, got {new_limit!r}"
            )
        self._limit = int(new_limit)
        self._grant_waiters()

    def _grant_waiters(self) -> None:
        while self._waiters and self._in_use < self._limit:
            token, callback, args = self._waiters.popleft()
            self._in_use += 1
            callback(token, *args)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FifoPool({self.name!r}, limit={self._limit}, in_use={self._in_use}, "
            f"queued={len(self._waiters)})"
        )
