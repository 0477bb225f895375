"""Admission control: a bounded concurrency gate with deadlines.

Without a gate a traffic burst turns into an unbounded pile of
concurrent searches all thrashing the same indexes.  The controller
enforces two limits:

* at most ``max_concurrency`` requests *executing* at once (a semaphore);
* at most ``max_pending`` further requests *waiting* for a slot — anyone
  beyond that is rejected immediately with HTTP 429, and a waiter that
  cannot get a slot within ``queue_timeout_s`` is rejected with 503.

Both rejections carry a ``Retry-After`` hint so well-behaved clients
back off instead of hammering.  :class:`Deadline` tracks the per-request
time budget: a request that spent its budget queueing is shed *before*
doing any search work (better to fail fast than to return an answer the
client already gave up on).
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager
from typing import Any, Iterator

__all__ = ["AdmissionController", "Deadline", "Rejected"]


class Rejected(Exception):
    """Raised when the gate sheds a request instead of admitting it."""

    def __init__(self, status: int, retry_after_s: float, reason: str) -> None:
        super().__init__(reason)
        self.status = status
        self.retry_after_s = retry_after_s
        self.reason = reason


class Deadline:
    """A monotonic point in time a request must finish by."""

    __slots__ = ("_expires_at", "_clock")

    def __init__(self, expires_at: float | None, clock=time.monotonic) -> None:
        self._expires_at = expires_at
        self._clock = clock

    @classmethod
    def after(cls, seconds: float | None, clock=time.monotonic) -> "Deadline":
        """A deadline ``seconds`` from now; ``None`` never expires."""
        if seconds is None:
            return cls(None, clock)
        return cls(clock() + seconds, clock)

    def remaining(self) -> float:
        """Seconds left (``math.inf`` for a deadline-less request)."""
        if self._expires_at is None:
            return math.inf
        return self._expires_at - self._clock()

    def expired(self) -> bool:
        return self.remaining() <= 0.0


class AdmissionController:
    """Semaphore + bounded pending queue in front of the query engine."""

    def __init__(
        self,
        max_concurrency: int = 8,
        max_pending: int = 32,
        queue_timeout_s: float = 1.0,
        metrics: Any = None,
    ) -> None:
        if max_concurrency < 1:
            raise ValueError(f"max_concurrency must be >= 1, got {max_concurrency}")
        if max_pending < 0:
            raise ValueError(f"max_pending must be >= 0, got {max_pending}")
        self.max_concurrency = max_concurrency
        self.max_pending = max_pending
        self.queue_timeout_s = queue_timeout_s
        self._metrics = metrics
        self._slots = threading.Semaphore(max_concurrency)
        self._pending = 0
        self._lock = threading.Lock()

    def _count(self, what: str) -> None:
        if self._metrics is not None:
            self._metrics.inc(f"serve.admission.{what}")

    @property
    def pending(self) -> int:
        """Requests currently waiting for (or about to take) a slot."""
        with self._lock:
            return self._pending

    def _retry_after(self, depth: int) -> float:
        # A queue-length-scaled hint: an empty queue drains within one
        # timeout; a full one takes proportionally longer.  ``depth`` is
        # passed in because callers may already hold ``_lock``.
        return max(1.0, self.queue_timeout_s * (1 + depth))

    @contextmanager
    def admit(self, deadline: Deadline | None = None) -> Iterator[None]:
        """Context manager holding one execution slot for its body.

        Raises :class:`Rejected` (never blocks unboundedly) when the
        pending queue is full, the queue wait times out, or ``deadline``
        expired while queueing.
        """
        acquired = self._slots.acquire(blocking=False)
        if not acquired:
            # All slots busy: join the bounded pending queue (or shed).
            with self._lock:
                if self._pending >= self.max_pending:
                    self._count("rejected_queue_full")
                    raise Rejected(
                        429, self._retry_after(self._pending), "pending queue full"
                    )
                self._pending += 1
            timeout = self.queue_timeout_s
            if deadline is not None:
                timeout = min(timeout, max(0.0, deadline.remaining()))
            acquired = self._slots.acquire(timeout=timeout)
            with self._lock:
                self._pending -= 1
                depth = self._pending
            if not acquired:
                self._count("rejected_timeout")
                raise Rejected(
                    503, self._retry_after(depth), "no execution slot in time"
                )
        if deadline is not None and deadline.expired():
            self._slots.release()
            self._count("rejected_deadline")
            raise Rejected(
                503, self._retry_after(self.pending), "deadline expired while queued"
            )
        self._count("admitted")
        try:
            yield
        finally:
            self._slots.release()
