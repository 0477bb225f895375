"""Open-loop HTTP/1.1 load over persistent connections.

Each connection is owned by one thread and kept alive between requests,
the way ``requests.Session`` and browsers reuse connections: the client
sets ``TCP_NODELAY`` (as urllib3 does), sends each request in a single
write, never sends ``Connection: close``, and reconnects when the server
closes.  A request that fails on a reused connection before any response
arrived is retried once on a fresh one, as urllib3 does for stale pooled
connections.

The schedule is open loop: requests are due at seeded times whether or
not earlier ones finished, and each is timed from its due time, so a
stall also charges the requests queued behind it.  A request can produce
follow-ups (a pedigree click after a search); they are due when their
parent completes.  ``lateness`` is how far the generator itself sent
after the moment it could have: past the due time, with a connection
already free.
"""

from __future__ import annotations

import heapq
import http.client
import itertools
import math
import socket
import threading
import time
from dataclasses import dataclass
from typing import Callable

JSON_HEADERS = {"Content-Type": "application/json"}


@dataclass
class Request:
    kind: str  # "search" | "pedigree" | "reload"
    method: str
    path: str
    body: bytes | None = None
    tag: object = None


@dataclass
class Outcome:
    request: Request
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    body: bytes = b""
    error: str | None = None
    lateness: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None and 200 <= self.status < 300

    @property
    def latency(self) -> float:
        """Seconds from due time to completion; ``inf`` when it failed."""
        return self.done - self.due if self.ok else math.inf

    @property
    def rtt(self) -> float:
        return self.done - self.sent


class Connection:
    """One persistent HTTP/1.1 connection that reconnects on close."""

    def __init__(self, host: str, port: int, timeout_s: float) -> None:
        self.host, self.port, self.timeout_s = host, port, timeout_s
        self._http: http.client.HTTPConnection | None = None
        self.connects = 0

    def _open(self) -> http.client.HTTPConnection:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout_s)
        conn.connect()
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.connects += 1
        return conn

    def close(self) -> None:
        if self._http is not None:
            self._http.close()
            self._http = None

    def request(self, method: str, path: str, body: bytes | None) -> tuple[int, bytes]:
        headers = JSON_HEADERS if body is not None else {}
        for attempt in (0, 1):
            reused = self._http is not None
            if self._http is None:
                self._http = self._open()
            try:
                self._http.request(method, path, body=body, headers=headers)
                response = self._http.getresponse()
                data = response.read()
            except (http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError):
                self.close()
                if reused and attempt == 0:
                    continue
                raise
            except Exception:
                self.close()
                raise
            if response.will_close:
                self.close()
            return response.status, data
        raise AssertionError("unreachable")


FollowUps = Callable[[Outcome], list[Request]]


def run_open_loop(
    pool: list[Connection],
    arrivals: list[tuple[float, Request]],
    follow_ups: FollowUps | None = None,
    clock=time.perf_counter,
) -> list[Outcome]:
    """Send ``arrivals`` (offset seconds, request) over the persistent
    connections of ``pool``, one thread each; returns every outcome in
    completion order.  The connections stay open for the next call.
    """
    start = clock() + 0.02
    order = itertools.count()
    heap = [(start + offset, next(order), request) for offset, request in arrivals]
    heapq.heapify(heap)
    cond = threading.Condition()
    in_flight = 0
    outcomes: list[Outcome] = []

    def worker(conn: Connection) -> None:
        nonlocal in_flight
        free_at = start
        while True:
            with cond:
                while True:
                    if heap:
                        wait = heap[0][0] - clock()
                        if wait <= 0:
                            due, _, request = heapq.heappop(heap)
                            in_flight += 1
                            break
                        cond.wait(wait)
                    elif in_flight == 0:
                        cond.notify_all()
                        return
                    else:
                        cond.wait()
            outcome = Outcome(request, due)
            outcome.sent = clock()
            outcome.lateness = max(0.0, outcome.sent - max(due, free_at))
            try:
                outcome.status, outcome.body = conn.request(
                    request.method, request.path, request.body
                )
            except Exception as error:  # noqa: BLE001 - any failure is counted
                outcome.error = f"{type(error).__name__}: {error}"
            outcome.done = free_at = clock()
            extra = follow_ups(outcome) if follow_ups is not None else []
            with cond:
                outcomes.append(outcome)
                for follow in extra:
                    heapq.heappush(heap, (outcome.done, next(order), follow))
                in_flight -= 1
                cond.notify_all()

    threads = [threading.Thread(target=worker, args=(conn,), daemon=True) for conn in pool]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes


def poisson_arrivals(rng, rate: float, duration_s: float) -> list[float]:
    """Seeded Poisson arrival offsets in ``[0, duration_s)`` at ``rate``/s."""
    offsets, t = [], rng.expovariate(rate)
    while t < duration_s:
        offsets.append(t)
        t += rng.expovariate(rate)
    return offsets
