"""Thread-safe LRU + TTL result cache for the serving layer.

The paper's online phase answers the same popular queries over and over
(family-history users search the same famous ancestors), so the server
memoises ranked results keyed on the *normalised* query tuple.  The
cache is a classic ``OrderedDict`` LRU with an optional per-entry TTL:
genealogy graphs change only when the offline resolver re-runs, so a TTL
of minutes is safe and bounds staleness after a graph swap.

Counters (hits / misses / evictions / expirations) are kept locally and,
when a :class:`~repro.obs.metrics.MetricsRegistry` is supplied, mirrored
into it under ``<prefix>.hits`` etc. so ``/metricz`` exposes them.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Hashable

from repro.query.engine import Query

__all__ = ["LRUTTLCache", "MISS", "query_cache_key"]

# Sentinel distinguishing "not cached" from a cached falsy value (an
# empty result list is a perfectly good cache entry).
MISS = object()

# Default for ``put(token=...)``: file under the currently bound token.
_BOUND = object()


def query_cache_key(query: Query, top_m: int) -> tuple:
    """The normalised, hashable identity of one search request.

    Two requests that differ only in whitespace or letter case of their
    string fields must hit the same cache entry, mirroring how
    :class:`~repro.index.keyword.KeywordIndex` lower-cases its keys.
    """

    def norm(value: str | None) -> str | None:
        return value.strip().lower() if value is not None else None

    return (
        norm(query.first_name),
        norm(query.surname),
        query.record_type,
        query.gender,
        query.year_from,
        query.year_to,
        norm(query.parish),
        int(top_m),
    )


class LRUTTLCache:
    """Bounded mapping with least-recently-used eviction and expiry.

    ``max_size=0`` disables the cache entirely (every ``get`` misses and
    ``put`` is a no-op) — the serving benchmark uses this for its
    cache-off baseline.  ``ttl_s=None`` (or ``0``) stores entries
    forever.  ``clock`` is injectable for deterministic TTL tests.

    With ``keep_stale`` the cache retains expired entries (still subject
    to LRU bounds): ``get`` treats them as misses, but
    :meth:`get_stale` can recover them for degraded-mode serving — a
    stale answer with a ``Warning`` header beats a 503 when the backend
    is broken.

    Entries are tagged with the **snapshot token** (the snapshot id)
    they were computed from.  :meth:`rebind` declares which snapshot the
    process is now serving, and ``get`` refuses entries stored under any
    other token exactly like expired ones — only the explicitly marked
    ``get_stale`` degraded path can still reach them.  The token travels
    with the entry, so this holds across ``fork`` too: a post-reload
    worker that inherited its parent's warm cache can never serve a
    pre-reload result without the ``Warning: 110`` stale marking.
    Writers that computed a value against a snapshot they captured
    earlier pass that snapshot's token to :meth:`put`, so a result that
    lands after a reload is filed under the snapshot it came from.
    """

    def __init__(
        self,
        max_size: int = 256,
        ttl_s: float | None = 300.0,
        clock: Callable[[], float] = time.monotonic,
        metrics: Any = None,
        prefix: str = "serve.cache",
        keep_stale: bool = False,
        token: str | None = None,
    ) -> None:
        if max_size < 0:
            raise ValueError(f"max_size must be >= 0, got {max_size}")
        if ttl_s is not None and ttl_s < 0:
            raise ValueError(f"ttl_s must be >= 0 or None, got {ttl_s}")
        self.max_size = max_size
        self.ttl_s = ttl_s if ttl_s else None
        self.keep_stale = keep_stale
        self._clock = clock
        self._metrics = metrics
        self._prefix = prefix
        # key -> [value, expires_at | None, stored_at, expiry_counted,
        # token]; insertion order == recency.
        self._entries: OrderedDict[Hashable, list] = OrderedDict()
        self._lock = threading.Lock()
        self._token = token
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0
        self.stale_hits = 0
        self.invalidations = 0

    def _count(self, what: str, n: int = 1) -> None:
        if self._metrics is not None:
            self._metrics.inc(f"{self._prefix}.{what}", n)

    # ------------------------------------------------------------------

    def get(self, key: Hashable) -> Any:
        """The cached value for ``key``, or the :data:`MISS` sentinel."""
        now = self._clock()
        expired = False
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                value, expires_at, _, counted, token = entry
                if (
                    expires_at is not None and now >= expires_at
                ) or token != self._token:
                    expired = not counted
                    if self.keep_stale:
                        entry[3] = True  # count the expiry only once
                    else:
                        del self._entries[key]
                    if expired:
                        self.expirations += 1
                    self.misses += 1
                else:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    self._count("hits")
                    return value
            else:
                self.misses += 1
        self._count("misses")
        if expired:
            self._count("expirations")
        return MISS

    def get_stale(self, key: Hashable) -> Any:
        """``(value, age_s)`` for ``key`` even if expired, or ``MISS``.

        Only meaningful with ``keep_stale``; degraded-mode serving uses
        the age for its staleness header.  Does not refresh recency.
        """
        now = self._clock()
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return MISS
            value, _, stored_at, _, _ = entry
            self.stale_hits += 1
        self._count("stale_hits")
        return value, max(0.0, now - stored_at)

    def put(self, key: Hashable, value: Any, token: Any = _BOUND) -> None:
        """Insert/refresh ``key``, evicting the LRU entry on overflow.

        ``token`` names the snapshot ``value`` was computed from
        (default: the currently bound one).  A value from a snapshot
        that has since been rebound away is stored but never served
        fresh.
        """
        if self.max_size == 0:
            return
        now = self._clock()
        expires_at = now + self.ttl_s if self.ttl_s is not None else None
        evicted = 0
        with self._lock:
            if token is _BOUND:
                token = self._token
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = [value, expires_at, now, False, token]
            while len(self._entries) > self.max_size:
                self._entries.popitem(last=False)
                self.evictions += 1
                evicted += 1
        if evicted:
            self._count("evictions", evicted)

    def rebind(self, token: str | None) -> None:
        """Declare which snapshot this process now serves.

        A no-op when ``token`` matches the currently bound one (an
        idempotent re-promotion must not blow the cache); otherwise the
        change invalidates every stored entry — both those stored under
        the old token *and* any inherited across a ``fork`` from a
        parent bound elsewhere.  Without ``keep_stale`` the old entries
        are dropped; with it they stay recoverable through
        :meth:`get_stale` (degraded mode) but ``get`` will never return
        them as a fresh hit.
        """
        with self._lock:
            if token == self._token:
                return
            self._token = token
            self.invalidations += 1
            if not self.keep_stale:
                self._entries.clear()

    @property
    def token(self) -> str | None:
        """The currently bound snapshot token (None = unbound)."""
        with self._lock:
            return self._token

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def stats(self) -> dict:
        """Point-in-time counter snapshot (for /metricz gauges and tests)."""
        with self._lock:
            return {
                "size": len(self._entries),
                "max_size": self.max_size,
                "ttl_s": self.ttl_s,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "expirations": self.expirations,
                "stale_hits": self.stale_hits,
                "invalidations": self.invalidations,
            }
