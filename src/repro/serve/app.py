"""The serving application: routes, the HTTP front, telemetry.

SNAPS's online phase (paper Section 7, Figure 5) is a web form backed by
the keyword index ``K`` and similarity index ``S``.  :class:`ServingApp`
is that deployment shape: it loads a resolved pedigree graph **once**,
builds the :class:`~repro.query.engine.QueryEngine` indexes **once**,
and then answers concurrent JSON requests forever — in contrast to the
``repro query`` CLI which pays the full index build on every invocation.

The app is deliberately split from the HTTP front: ``handle()`` maps a
``(method, path, params, body)`` tuple to a :class:`Response`, so route
logic is unit-testable without sockets.  :func:`serve`, an asyncio
HTTP/1.1 front running ``handle()`` on a thread pool sized past the
admission gate (so overload is shed with 429/503), is the one
wire adapter of every serving mode: ``make_server`` for one process,
and each pre-fork worker.  Endpoints:

* ``POST /v1/search`` — ranked matches for a JSON query body;
* ``GET /v1/pedigree/<id>?generations=N&format=json|ascii|dot|gedcom``;
* ``POST /v1/reload`` — re-load graph + indexes from the attached
  snapshot store (bounded retries, atomic engine swap);
* ``GET /healthz`` — ``ok | degraded | failing`` + breaker states;
* ``GET /metricz`` — the :class:`~repro.obs.metrics.MetricsRegistry`
  rendered as text (or JSON with ``?format=json``).

Every request runs under its own :class:`~repro.obs.trace.Trace` (the
span stack is not shareable across threads), emits a per-endpoint
latency histogram, and expensive endpoints pass through the
:class:`~repro.serve.admission.AdmissionController`.

**Degraded mode** (``repro.faults``): search, pedigree extraction, and
snapshot reload each run behind a :class:`~repro.faults.CircuitBreaker`.
When a backend fails — or its circuit is already open — the app serves
the last good answer from the result cache (kept past its TTL via
``keep_stale``) with a ``Warning: 110`` header and an
``X-Snaps-Stale-Age`` header, falling back to ``503`` + ``Retry-After``
only when nothing cached exists.  After ``breaker_reset_s`` the breaker
half-opens and lets one live probe through; a success closes it and
``/healthz`` returns to ``ok``.
"""

from __future__ import annotations

import asyncio
import json
import signal
import socket
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field
from http.client import responses as _REASONS
from urllib.parse import parse_qs, urlsplit

from repro.faults import (
    CLOSED,
    OPEN,
    CircuitBreaker,
    RetryPolicy,
    classify,
)
from repro.obs.logs import get_logger
from repro.obs.metrics import LATENCY_BUCKETS_S, MetricsRegistry
from repro.obs.prom import process_gauges, render_prometheus
from repro.obs.report import build_report, render_report
from repro.obs.trace import Trace
from repro.pedigree import extract_pedigree
from repro.pedigree.gedcom import render_gedcom
from repro.pedigree.graph import PedigreeGraph
from repro.pedigree.visualize import render_ascii_tree, render_dot
from repro.query import QueryEngine
from repro.serve.admission import AdmissionController, Deadline, Rejected
from repro.serve.cache import MISS, LRUTTLCache, query_cache_key
from repro.serve.coalesce import SingleFlight
from repro.serve.serialization import (
    pedigree_payload,
    query_from_mapping,
    search_payload,
)
from repro.serve.slo import SloMonitor, SloObjectives

__all__ = ["Response", "ServeConfig", "ServeHTTPServer", "ServingApp", "make_server"]

logger = get_logger("serve.app")

MAX_GENERATIONS = 10
_PEDIGREE_FORMATS = ("json", "ascii", "dot", "gedcom")


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one serving process (the ``repro serve`` flags)."""

    host: str = "127.0.0.1"
    port: int = 8080
    cache_size: int = 256
    cache_ttl_s: float | None = 300.0
    max_concurrency: int = 8
    max_pending: int = 32
    queue_timeout_s: float = 1.0
    request_timeout_s: float | None = 5.0
    similarity_threshold: float = 0.5
    use_geographic_distance: bool = False
    # Keep per-request span trees in ``ServingApp.recent_traces``.
    tracing: bool = True
    # Degraded mode: consecutive failures that open a circuit, seconds
    # before a half-open recovery probe, and the bounded-retry policy
    # around snapshot store reads.
    breaker_threshold: int = 3
    breaker_reset_s: float = 30.0
    retry_attempts: int = 3
    retry_base_delay_s: float = 0.05
    # SLO objectives tracked by the rolling-window monitor (see
    # repro.serve.slo): availability and latency-within-deadline targets
    # over a sliding window, surfaced on /healthz and /metricz.
    slo_availability: float = 0.999
    slo_latency_target: float = 0.99
    slo_deadline_s: float = 0.5
    slo_window_s: float = 300.0


@dataclass
class Response:
    """One materialised HTTP response, transport-independent."""

    status: int
    body: bytes
    content_type: str = "application/json"
    headers: dict[str, str] = field(default_factory=dict)

    def json(self) -> dict:
        """Decode the body back to JSON (test convenience)."""
        return json.loads(self.body.decode("utf-8"))


def _json_response(status: int, payload: dict, headers: dict | None = None) -> Response:
    body = (json.dumps(payload, sort_keys=False) + "\n").encode("utf-8")
    return Response(status, body, "application/json", dict(headers or {}))


def _error_response(status: int, message: str, headers: dict | None = None) -> Response:
    return _json_response(
        status, {"error": {"status": status, "message": message}}, headers
    )


def _text_response(status: int, text: str) -> Response:
    return Response(status, text.encode("utf-8"), "text/plain; charset=utf-8")


class ServingApp:
    """Route dispatch over one loaded pedigree graph."""

    def __init__(
        self,
        graph: PedigreeGraph,
        config: ServeConfig | None = None,
        metrics: MetricsRegistry | None = None,
        keyword_index=None,
        sim_index=None,
        store=None,
        manifest=None,
        clock=time.monotonic,
        sleep=time.sleep,
    ) -> None:
        """``keyword_index``/``sim_index`` (from a ``repro.store``
        snapshot) warm-start the engine so boot skips index construction
        entirely; both default to building from ``graph``.  ``store`` is
        an optional :class:`~repro.store.SnapshotStore` backing
        ``POST /v1/reload``; ``manifest`` identifies the loaded snapshot
        on ``/metricz`` (id + age gauges); ``clock``/``sleep`` are
        injectable so chaos tests drive breaker recovery and retry
        backoff without waiting.
        """
        self.config = config or ServeConfig()
        self.graph = graph
        self.store = store
        self.manifest = manifest
        self._clock = clock
        self._sleep = sleep
        # /metricz needs a real registry, so unlike the offline pipeline
        # telemetry here is always on (it is thread-safe and cheap).
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # The engine's indexes are read-only after this build (see the
        # thread-safety notes in repro.index); the engine gets no Trace
        # because one span stack cannot be shared across request threads.
        self.engine = QueryEngine(
            graph,
            similarity_threshold=self.config.similarity_threshold,
            use_geographic_distance=self.config.use_geographic_distance,
            metrics=self.metrics,
            keyword_index=keyword_index,
            sim_index=sim_index,
        )
        # keep_stale: expired entries stay recoverable for degraded mode.
        # The cache is bound to the serving snapshot's id so entries
        # inherited across fork from a process serving a *different*
        # snapshot can never come back as fresh hits (see LRUTTLCache).
        self.cache = LRUTTLCache(
            max_size=self.config.cache_size,
            ttl_s=self.config.cache_ttl_s,
            metrics=self.metrics,
            clock=clock,
            keep_stale=True,
            token=(
                str(manifest.snapshot_id) if manifest is not None else None
            ),
        )
        # Burst deduplication: identical in-flight searches share one
        # backend computation (the result cache only helps *after* the
        # first answer lands).
        self.flights = SingleFlight(metrics=self.metrics)
        self.gate = AdmissionController(
            max_concurrency=self.config.max_concurrency,
            max_pending=self.config.max_pending,
            queue_timeout_s=self.config.queue_timeout_s,
            metrics=self.metrics,
        )
        self.breakers = {
            name: CircuitBreaker(
                name,
                failure_threshold=self.config.breaker_threshold,
                reset_timeout_s=self.config.breaker_reset_s,
                clock=clock,
                metrics=self.metrics,
            )
            for name in ("search", "pedigree", "reload")
        }
        self.slo = SloMonitor(
            SloObjectives(
                availability=self.config.slo_availability,
                latency_target=self.config.slo_latency_target,
                latency_deadline_s=self.config.slo_deadline_s,
                window_s=self.config.slo_window_s,
            ),
            clock=clock,
            metrics=self.metrics,
        )
        self._reload_lock = threading.Lock()
        # Pre-fork deployment hooks (see repro.serve.prefork).  A worker
        # process cannot swap the whole fleet's snapshot by itself, so
        # when set, /v1/reload forwards to the master via this delegate;
        # /metricz renders the fleet-merged view from ``metrics_view``.
        self.reload_delegate = None
        self.metrics_view = None
        self.started_at = clock()
        # Last few request span trees, for debugging and tests.
        self.recent_traces: deque[Trace] = deque(maxlen=32)
        self._traces_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def handle(
        self,
        method: str,
        path: str,
        params: dict[str, str] | None = None,
        body: bytes | None = None,
    ) -> Response:
        """Answer one request; never raises (errors become responses)."""
        params = params or {}
        endpoint, error = self._route(method, path)
        if error is not None:
            self.metrics.inc("serve.requests")
            self._count_status(error.status)
            return error
        trace = Trace() if self.config.tracing else Trace.disabled()
        start = time.perf_counter()
        try:
            with trace.span(f"serve.{endpoint}"):
                if endpoint == "healthz":
                    response = self._handle_healthz()
                elif endpoint == "metricz":
                    response = self._handle_metricz(params)
                elif endpoint == "search":
                    response = self._handle_search(body, trace)
                elif endpoint == "reload":
                    response = self._handle_reload(body)
                else:
                    response = self._handle_pedigree(path, params, trace)
        except Exception:  # pragma: no cover - defensive: bugs become 500s
            logger.exception("unhandled error serving %s %s", method, path)
            response = _error_response(500, "internal server error")
        elapsed = time.perf_counter() - start
        self.metrics.inc("serve.requests")
        self._count_status(response.status)
        self.metrics.observe(
            f"serve.{endpoint}.latency_seconds", elapsed, LATENCY_BUCKETS_S
        )
        # The latency objective covers the read paths; probes and admin
        # endpoints count toward availability only.  Health transitions
        # (breaker opens/closes) become SLO events here, so degraded-mode
        # entry/exit is visible in /metricz without log archaeology.
        self.slo.record(
            endpoint,
            response.status,
            elapsed,
            latency_eligible=endpoint in ("search", "pedigree"),
        )
        self.slo.note_health(self._health_state()[0])
        if trace.enabled:
            with self._traces_lock:
                self.recent_traces.append(trace)
        return response

    def _route(self, method: str, path: str) -> tuple[str, Response | None]:
        """(endpoint name, error response or None) for a request line."""
        if path == "/healthz":
            endpoint = "healthz"
        elif path == "/metricz":
            endpoint = "metricz"
        elif path == "/v1/search":
            endpoint = "search"
        elif path == "/v1/reload":
            endpoint = "reload"
        elif path.startswith("/v1/pedigree/"):
            endpoint = "pedigree"
        else:
            return "", _error_response(404, f"unknown path: {path}")
        wanted = "POST" if endpoint in ("search", "reload") else "GET"
        if method != wanted:
            return endpoint, _error_response(
                405, f"{endpoint} requires {wanted}", {"Allow": wanted}
            )
        return endpoint, None

    def _count_status(self, status: int) -> None:
        self.metrics.inc(f"serve.responses.{status // 100}xx")

    @staticmethod
    def _rejected(rejected: Rejected) -> Response:
        return _error_response(
            rejected.status,
            rejected.reason,
            {"Retry-After": str(max(1, round(rejected.retry_after_s)))},
        )

    # ------------------------------------------------------------------
    # Degraded mode
    # ------------------------------------------------------------------

    @staticmethod
    def _stale_headers(age_s: float) -> dict[str, str]:
        # RFC 7234 warn-code 110 ("Response is stale").
        return {
            "Warning": '110 snaps-serve "Response is stale"',
            "X-Snaps-Stale-Age": str(round(age_s, 3)),
        }

    def _breaker_unavailable(
        self, breaker: CircuitBreaker, message: str
    ) -> Response:
        return _error_response(
            503,
            message,
            {"Retry-After": str(max(1, round(breaker.retry_after_s())))},
        )

    def _stale_search(self, key) -> Response | None:
        """The last good answer for ``key`` with staleness headers."""
        stale = self.cache.get_stale(key)
        if stale is MISS:
            return None
        value, age_s = stale
        self.metrics.inc("serve.degraded.stale_served")
        return _json_response(
            200,
            {**value, "cached": True, "stale": True},
            self._stale_headers(age_s),
        )

    def _stale_pedigree(self, key) -> Response | None:
        stale = self.cache.get_stale(key)
        if stale is MISS:
            return None
        (kind, payload), age_s = stale
        self.metrics.inc("serve.degraded.stale_served")
        headers = self._stale_headers(age_s)
        if kind == "json":
            return _json_response(200, {**payload, "stale": True}, headers)
        response = _text_response(200, payload)
        response.headers.update(headers)
        return response

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------

    def _health_state(self) -> tuple[str, dict]:
        """(ok | degraded | failing, per-breaker detail) right now."""
        breakers = {
            name: {
                "state": breaker.state,
                "retry_after_s": round(breaker.retry_after_s(), 3),
            }
            for name, breaker in self.breakers.items()
        }
        states = {name: info["state"] for name, info in breakers.items()}
        if all(state == CLOSED for state in states.values()):
            status = "ok"
        elif states["search"] == OPEN and states["pedigree"] == OPEN:
            # Both read paths refusing work: this replica is useless.
            status = "failing"
        else:
            status = "degraded"
        return status, breakers

    def _handle_healthz(self) -> Response:
        status, breakers = self._health_state()
        return _json_response(
            200 if status != "failing" else 503,
            {
                "status": status,
                "entities": len(self.graph),
                "edges": self.graph.n_edges(),
                "uptime_s": round(self._clock() - self.started_at, 3),
                "breakers": breakers,
                "slo": self.slo.snapshot(),
            },
        )

    def _snapshot_age_s(self) -> float | None:
        if self.manifest is None:
            return None
        try:
            from datetime import datetime, timezone

            created = datetime.fromisoformat(self.manifest.created_at)
            return (datetime.now(timezone.utc) - created).total_seconds()
        except (TypeError, ValueError, AttributeError):
            return None

    def _handle_metricz(self, params: dict[str, str]) -> Response:
        stats = self.cache.stats()
        self.metrics.set_gauge("serve.cache.size", stats["size"])
        self.metrics.set_gauge(
            "serve.uptime_seconds", self._clock() - self.started_at
        )
        for name, value in process_gauges().items():
            self.metrics.set_gauge(name, value)
        self.slo.publish(self.metrics)
        age_s = self._snapshot_age_s()
        if age_s is not None:
            self.metrics.set_gauge("serve.snapshot.age_seconds", age_s)
        # In a pre-fork fleet the machine-readable formats render the
        # fleet-merged view (every worker's counters summed, histograms
        # merged); single-process serving renders its own registry.
        view = (
            self.metrics_view() if self.metrics_view is not None
            else self.metrics.as_dict()
        )
        if params.get("format") == "prom":
            info = {"service": "snaps-serve"}
            if self.manifest is not None:
                info["snapshot_id"] = str(self.manifest.snapshot_id)
            return _text_response(200, render_prometheus(view, info=info))
        if params.get("format") == "json":
            return _json_response(200, view)
        report = build_report(metrics=self.metrics, meta={"kind": "serve"})
        return _text_response(200, render_report(report))

    def _handle_search(self, body: bytes | None, trace: Trace) -> Response:
        try:
            payload = json.loads(body.decode("utf-8")) if body else None
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            return _error_response(400, f"request body is not valid JSON: {error}")
        try:
            query, top_m = query_from_mapping(payload)
        except ValueError as error:
            return _error_response(400, str(error))
        key = query_cache_key(query, top_m)
        # The engine and the snapshot token it answers for, read together
        # against a concurrent reload: a miss computed on this engine is
        # cached under this token, even if a reload lands meanwhile.
        with self._reload_lock:
            engine, token = self.engine, self.cache.token
        with trace.span("cache_lookup"):
            cached = self.cache.get(key)
        if cached is not MISS:
            return _json_response(200, {**cached, "cached": True})
        # Coalesce the miss path: concurrent identical queries on the
        # same snapshot share the leader's computation (and its
        # Response — built fresh per flight, treated as read-only by
        # the transport).
        return self.flights.do(
            (token, key),
            lambda: self._search_miss(key, query, top_m, trace, engine, token),
        )

    def _search_miss(
        self, key, query, top_m: int, trace: Trace, engine: QueryEngine, token
    ) -> Response:
        breaker = self.breakers["search"]
        if not breaker.allow():
            # Open circuit: don't touch the backend at all.
            return self._stale_search(key) or self._breaker_unavailable(
                breaker, "search backend unavailable (circuit open)"
            )
        deadline = Deadline.after(self.config.request_timeout_s)
        with ExitStack() as held:
            try:
                # The admission span covers only the queue wait; the
                # slot itself is held until the search finishes.
                with trace.span("admission"):
                    held.enter_context(self.gate.admit(deadline))
            except Rejected as rejected:
                # Load shedding is not a backend fault: the breaker
                # must not open under a traffic spike.
                return self._rejected(rejected)
            with trace.span("search"):
                try:
                    hits = engine.search(query, top_m=top_m)
                except Exception as error:
                    breaker.record_failure(error)
                    logger.warning(
                        "search backend failure (%s): %s",
                        classify(error), error,
                    )
                    return self._stale_search(key) or self._breaker_unavailable(
                        breaker, f"search backend failing: {error}"
                    )
        breaker.record_success()
        with trace.span("serialize"):
            result = search_payload(hits)
        self.cache.put(key, result, token=token)
        return _json_response(200, {**result, "cached": False})

    def _handle_pedigree(
        self, path: str, params: dict[str, str], trace: Trace
    ) -> Response:
        raw_id = path[len("/v1/pedigree/"):]
        try:
            entity_id = int(raw_id)
        except ValueError:
            return _error_response(400, f"entity id must be an integer, got {raw_id!r}")
        try:
            generations = int(params.get("generations", "2"))
        except ValueError:
            return _error_response(400, "generations must be an integer")
        if not 0 <= generations <= MAX_GENERATIONS:
            return _error_response(
                400, f"generations must be in [0, {MAX_GENERATIONS}]"
            )
        fmt = params.get("format", "json")
        if fmt not in _PEDIGREE_FORMATS:
            return _error_response(
                400, f"format must be one of {', '.join(_PEDIGREE_FORMATS)}"
            )
        breaker = self.breakers["pedigree"]
        key = ("pedigree", entity_id, generations, fmt)
        # As for search: extract from, and cache under, one snapshot.
        with self._reload_lock:
            graph, token = self.graph, self.cache.token
        if not breaker.allow():
            return self._stale_pedigree(key) or self._breaker_unavailable(
                breaker, "pedigree backend unavailable (circuit open)"
            )
        deadline = Deadline.after(self.config.request_timeout_s)
        with ExitStack() as held:
            try:
                with trace.span("admission"):
                    held.enter_context(self.gate.admit(deadline))
            except Rejected as rejected:
                return self._rejected(rejected)
            with trace.span("extract"):
                try:
                    pedigree = extract_pedigree(graph, entity_id, generations)
                except KeyError:
                    # The backend worked; the entity just doesn't exist.
                    breaker.record_success()
                    return _error_response(404, f"unknown entity id: {entity_id}")
                except Exception as error:
                    breaker.record_failure(error)
                    logger.warning(
                        "pedigree backend failure (%s): %s",
                        classify(error), error,
                    )
                    return self._stale_pedigree(key) or self._breaker_unavailable(
                        breaker, f"pedigree backend failing: {error}"
                    )
            breaker.record_success()
            with trace.span("serialize"):
                if fmt == "json":
                    payload = pedigree_payload(pedigree)
                    self.cache.put(key, ("json", payload), token=token)
                    return _json_response(200, payload)
                if fmt == "dot":
                    text = render_dot(pedigree)
                elif fmt == "gedcom":
                    text = render_gedcom(pedigree)
                else:
                    text = render_ascii_tree(pedigree)
                self.cache.put(key, ("text", text), token=token)
                return _text_response(200, text)

    def _handle_reload(self, body: bytes | None = None) -> Response:
        """Swap in a snapshot's graph + indexes, atomically.

        The optional JSON body ``{"snapshot": "<id>"}`` names the exact
        snapshot to load (promotion and rollback target a specific id);
        without it the store's HEAD is loaded.  Re-requesting the
        snapshot already being served is an idempotent no-op — a crashed
        promoter can re-send its promotion safely.  Store reads get
        bounded retries with exponential backoff (only transient faults
        retry — a corrupt snapshot fails immediately); repeated failures
        open the ``reload`` breaker so callers back off while the old
        graph keeps serving.  A successful swap rebinds the result cache
        to the new snapshot's id, so answers computed from the
        predecessor snapshot can only resurface through the explicit
        ``Warning: 110`` stale path.
        """
        if self.store is None and self.reload_delegate is None:
            return _error_response(
                409, "no snapshot store attached; start with --snapshot"
            )
        requested: str | None = None
        if body:
            try:
                payload = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                return _error_response(
                    400, f"reload body is not valid JSON: {error}"
                )
            if payload is not None:
                if not isinstance(payload, dict) or (
                    payload.get("snapshot") is not None
                    and not isinstance(payload["snapshot"], str)
                ):
                    return _error_response(
                        400, 'reload body must be {"snapshot": "<id>"}'
                    )
                requested = payload.get("snapshot")
        if self.reload_delegate is not None:
            # Pre-fork worker: one process cannot swap the fleet.  The
            # delegate forwards the request to the master, which maps
            # the new snapshot and rotates every worker through it.
            return self.reload_delegate(requested)
        previous = (
            self.manifest.snapshot_id if self.manifest is not None else None
        )
        if requested is not None and requested == previous:
            self.metrics.inc("serve.reloads_noop")
            return _json_response(
                200,
                {
                    "status": "unchanged",
                    "snapshot": previous,
                    "previous": previous,
                    "entities": len(self.graph),
                    "edges": self.graph.n_edges(),
                },
            )
        breaker = self.breakers["reload"]
        if not breaker.allow():
            return self._breaker_unavailable(
                breaker, "snapshot reload circuit is open"
            )
        policy = RetryPolicy(
            max_attempts=self.config.retry_attempts,
            base_delay_s=self.config.retry_base_delay_s,
            sleep=self._sleep,
        )
        try:
            loaded = policy.call(
                lambda: self.store.load(requested, artifacts=("graph", "indexes"))
            )
        except Exception as error:
            breaker.record_failure(error)
            logger.warning(
                "snapshot reload failed (%s): %s", classify(error), error
            )
            return self._breaker_unavailable(
                breaker, f"snapshot reload failed: {error}"
            )
        breaker.record_success()
        engine = QueryEngine(
            loaded.graph,
            similarity_threshold=self.config.similarity_threshold,
            use_geographic_distance=self.config.use_geographic_distance,
            metrics=self.metrics,
            keyword_index=loaded.keyword_index,
            sim_index=loaded.sim_index,
        )
        with self._reload_lock:
            self.graph = loaded.graph
            self.engine = engine
            self.manifest = loaded.manifest
            # Results computed from the predecessor must not come back
            # as fresh hits; degraded mode can still reach them via
            # get_stale (Warning: 110).  Entries carry the snapshot id
            # they came from, so any process that later fork-inherits
            # them refuses them too.
            self.cache.rebind(str(loaded.manifest.snapshot_id))
        self.metrics.inc("serve.reloads")
        logger.info(
            "reloaded snapshot %s (%d entities)",
            loaded.manifest.snapshot_id, len(loaded.graph),
        )
        return _json_response(
            200,
            {
                "status": "reloaded",
                "snapshot": loaded.manifest.snapshot_id,
                "previous": previous,
                "entities": len(loaded.graph),
                "edges": loaded.graph.n_edges(),
            },
        )


# ----------------------------------------------------------------------
# HTTP front: one asyncio HTTP/1.1 front for every serving mode
# ----------------------------------------------------------------------

# Front threads beyond the gate's slots + pending places: with those all
# taken, overflow still reaches the gate (429/503) and /healthz answers.
_SPARE_THREADS = 2
# asyncio.StreamReader's default line limit: a longer request line is
# answered 414, a longer header line 431.
MAX_LINE_BYTES = 64 * 1024
MAX_HEADERS = 100
# Search and reload bodies are small JSON documents.
MAX_BODY_BYTES = 1024 * 1024
# How long a rejected request's unread input is read and dropped before
# the close: closing on unread bytes sends a reset, which can destroy the
# 4xx before the client reads it.
_LINGER_S = 1.0


class _Malformed(Exception):
    """``(status, message)`` for a request whose framing cannot be parsed."""


def _encode_response(response: Response, keep_alive: bool) -> bytes:
    """Status line, headers and body as one buffer for one ``write``.

    A head sent apart from its body makes every follow-up request on a
    keep-alive connection wait for the client's delayed ACK (~40 ms).
    """
    reason = _REASONS.get(response.status, "Unknown")
    head = [
        f"HTTP/1.1 {response.status} {reason}",
        f"Content-Type: {response.content_type}",
        f"Content-Length: {len(response.body)}",
        *(f"{name}: {value}" for name, value in response.headers.items()),
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + response.body


async def _read_request(reader: asyncio.StreamReader):
    """``(method, target, version, headers, body)`` of the next request,
    or None at the end of the stream; raises :class:`_Malformed`."""
    try:
        line = await reader.readline()
    except ValueError:  # over the reader's line limit
        raise _Malformed(414, "request line too long") from None
    if not line or line in (b"\r\n", b"\n"):
        return None
    parts = line.decode("latin-1").split()
    if len(parts) != 3:
        raise _Malformed(400, "malformed request line")
    method, target, version = parts
    headers: dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        try:
            raw = await reader.readline()
        except ValueError:
            raise _Malformed(431, "header line too long") from None
        if not raw or raw in (b"\r\n", b"\n"):
            break
        name, _, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    else:
        raise _Malformed(431, f"more than {MAX_HEADERS} header fields")
    raw_length = headers.get("content-length", "0")
    if not (raw_length.isascii() and raw_length.isdigit()):
        raise _Malformed(400, f"invalid Content-Length: {raw_length!r}")
    length = int(raw_length)
    if length > MAX_BODY_BYTES:
        raise _Malformed(413, f"request body over {MAX_BODY_BYTES} bytes")
    body = await reader.readexactly(length) if length else b""
    return method, target, version, headers, body


async def _reject(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter, error: _Malformed
) -> None:
    """Answer a request with broken framing, then drain its input."""
    writer.write(_encode_response(_error_response(*error.args), keep_alive=False))

    async def discard() -> None:
        while await reader.read(65536):
            pass

    try:
        await writer.drain()
        writer.write_eof()
        await asyncio.wait_for(discard(), _LINGER_S)
    except (ConnectionError, asyncio.TimeoutError):
        pass


async def _serve_connection(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    app: ServingApp,
    pool: ThreadPoolExecutor,
    stop: asyncio.Event,
    idle: set[asyncio.StreamWriter],
) -> None:
    """Answer the requests of one connection (HTTP/1.1 keep-alive;
    ``HTTP/1.0`` and ``Connection: close`` get one answer each)."""
    loop = asyncio.get_running_loop()
    try:
        while not stop.is_set():
            # Waiting for a request, the connection is idle: a stopping
            # server closes it at once instead of at the drain timeout.
            idle.add(writer)
            try:
                request = await _read_request(reader)
            finally:
                idle.discard(writer)
            if request is None:
                return
            method, target, version, headers, body = request
            split = urlsplit(target)
            params = {k: v[0] for k, v in parse_qs(split.query).items()}
            # Search/pedigree work runs in the pool; the loop parses other
            # connections meanwhile.
            response = await loop.run_in_executor(
                pool, app.handle, method, split.path, params, body
            )
            keep_alive = (
                version != "HTTP/1.0"
                and headers.get("connection", "").lower() != "close"
                # A stopping server answers the request it holds, then
                # closes: keep-alive would pin connections it must shed.
                and not stop.is_set()
            )
            writer.write(_encode_response(response, keep_alive))
            await writer.drain()
            if not keep_alive:
                return
    except _Malformed as error:
        app.metrics.inc("serve.http.malformed")
        await _reject(reader, writer, error)
    except (ConnectionError, asyncio.IncompleteReadError):
        return  # client went away mid-request
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def serve(
    app: ServingApp,
    sock: socket.socket,
    stop: asyncio.Event | None = None,
    drain_timeout_s: float = 10.0,
) -> None:
    """Answer HTTP on the listening ``sock`` until ``stop`` is set.

    On the main thread SIGTERM and SIGINT set ``stop`` as well.  Then the
    socket stops accepting, idle keep-alive connections close, and the
    requests already read get up to ``drain_timeout_s`` to be answered.
    """
    loop = asyncio.get_running_loop()
    stop = stop if stop is not None else asyncio.Event()
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, stop.set)
    # Sized past the gate so it, not this queue, sheds overload; threads
    # start on demand.
    gate = app.config.max_concurrency + app.config.max_pending
    pool = ThreadPoolExecutor(gate + _SPARE_THREADS, thread_name_prefix="snaps-serve")
    # Python 3.11's Server.wait_closed does not wait for in-flight
    # connection handlers, so track them: a stopping server must answer
    # the requests it already read (a mid-rotation reload, a search in
    # the pool), or clients see dropped connections.
    conns: set[asyncio.Task] = set()
    idle: set[asyncio.StreamWriter] = set()

    async def handle(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        conns.add(task)
        try:
            await _serve_connection(reader, writer, app, pool, stop, idle)
        finally:
            conns.discard(task)

    server = await asyncio.start_server(handle, sock=sock, limit=MAX_LINE_BYTES)
    await stop.wait()
    server.close()  # stop accepting; pre-fork siblings drain the shared queue
    for writer in list(idle):
        writer.close()  # the pending read sees end of stream
    if conns:
        await asyncio.wait(list(conns), timeout=drain_timeout_s)
    for task in list(conns):
        task.cancel()
    await asyncio.gather(*conns, return_exceptions=True)
    pool.shutdown(wait=False, cancel_futures=True)


class ServeHTTPServer:
    """One :class:`ServingApp` answered by :func:`serve` on a bound socket.

    ``serve_forever`` runs the front on the server's own event loop
    (typically on a thread); ``shutdown`` stops it from any other thread
    and waits for it to return; ``server_close`` releases the socket.
    """

    def __init__(self, address: tuple[str, int], app: ServingApp) -> None:
        self.app = app
        self.socket = socket.create_server(address, backlog=128)
        self.server_address = self.socket.getsockname()
        self._loop = asyncio.new_event_loop()
        self._stop = asyncio.Event()
        self._done = threading.Event()

    def serve_forever(self) -> None:
        """Answer requests until :meth:`shutdown` (or, on the main
        thread, SIGTERM/SIGINT)."""
        try:
            self._loop.run_until_complete(serve(self.app, self.socket, self._stop))
        finally:
            self._done.set()

    def shutdown(self) -> None:
        """Stop :meth:`serve_forever` and wait until it has returned.

        A stop requested before the loop runs takes effect when it
        starts, so shutting down right after starting the thread is safe.
        """
        if not self._done.is_set():
            self._loop.call_soon_threadsafe(self._stop.set)
            self._done.wait()

    def server_close(self) -> None:
        self.socket.close()
        self._loop.close()


def make_server(app: ServingApp, host: str = "127.0.0.1", port: int = 0) -> ServeHTTPServer:
    """Bind (but don't start) a server; ``port=0`` picks an ephemeral port.

    Call ``serve_forever()`` (typically on a thread) to start answering,
    and ``shutdown()`` + ``server_close()`` to stop.
    """
    return ServeHTTPServer((host, port), app)
