"""Request coalescing: identical in-flight queries share one computation.

Family-pedigree traffic is heavily skewed — the same famous ancestors
are searched again and again — so under load a server sees *bursts* of
identical queries arriving faster than one search completes.  The
result cache only helps after the first answer lands; during the burst
every duplicate would still run the full search.  :class:`SingleFlight`
closes that gap: the first request for a key becomes the **leader** and
computes; concurrent duplicates become **followers** that block on the
leader's event and reuse its result, so N identical in-flight requests
cost one backend search.

This is deliberately a *thread* primitive (events + a lock), not an
asyncio one: the HTTP front parses on an event loop but dispatches app
calls into a thread pool, so the app sees concurrent requests on
threads.

Failure semantics: the leader publishes whatever it produced — including
an error response — and followers receive it as-is; a crashed leader
(exception escaping the compute function) wakes its followers with the
exception re-raised in each.  A follower whose wait exceeds ``timeout_s``
stops waiting and computes independently, so one wedged leader cannot
convoy the whole key forever.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Hashable

__all__ = ["SingleFlight"]


class _Flight:
    """One in-progress computation and its completion signal."""

    __slots__ = ("done", "value", "error", "followers")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.value: Any = None
        self.error: BaseException | None = None
        self.followers = 0


class SingleFlight:
    """Deduplicate concurrent calls with the same key.

    ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`, optional)
    receives ``<prefix>.leaders`` / ``<prefix>.followers`` /
    ``<prefix>.timeouts`` counters so coalescing effectiveness is
    visible on ``/metricz``.
    """

    def __init__(
        self,
        metrics: Any = None,
        prefix: str = "serve.coalesce",
        timeout_s: float | None = 10.0,
    ) -> None:
        self._flights: dict[Hashable, _Flight] = {}
        self._lock = threading.Lock()
        self._metrics = metrics
        self._prefix = prefix
        self.timeout_s = timeout_s
        self.leaders = 0
        self.followers = 0
        self.timeouts = 0

    def _count(self, what: str) -> None:
        setattr(self, what, getattr(self, what) + 1)
        if self._metrics is not None:
            self._metrics.inc(f"{self._prefix}.{what}")

    def do(self, key: Hashable, fn: Callable[[], Any]) -> Any:
        """Return ``fn()`` for ``key``, sharing one in-flight execution.

        Exactly one concurrent caller per key runs ``fn``; the rest wait
        and receive the same result object (callers must treat it as
        shared/read-only).  If the leader raised, followers re-raise the
        same exception.
        """
        with self._lock:
            flight = self._flights.get(key)
            if flight is None:
                flight = _Flight()
                self._flights[key] = flight
                leader = True
            else:
                flight.followers += 1
                leader = False
        if leader:
            self._count("leaders")
            try:
                flight.value = fn()
            except BaseException as exc:
                flight.error = exc
                raise
            finally:
                with self._lock:
                    self._flights.pop(key, None)
                flight.done.set()
            return flight.value
        self._count("followers")
        if not flight.done.wait(self.timeout_s):
            # Wedged leader: stop convoying behind it.  The flight table
            # entry is left for the leader to clear; this caller simply
            # computes on its own.
            self._count("timeouts")
            return fn()
        if flight.error is not None:
            raise flight.error
        return flight.value

    def stats(self) -> dict:
        return {
            "leaders": self.leaders,
            "followers": self.followers,
            "timeouts": self.timeouts,
        }
