"""Online query serving: the SNAPS web deployment shape (paper §7).

``repro.serve`` turns the reproduction from a one-shot CLI into a
long-lived service: a :class:`~repro.serve.app.ServingApp` loads a
resolved pedigree graph once, builds the query indexes once, and answers
concurrent JSON requests from one asyncio HTTP/1.1 front
(:func:`~repro.serve.app.serve`) — with an LRU+TTL result cache
(:mod:`repro.serve.cache`), a bounded concurrency gate
(:mod:`repro.serve.admission`), per-endpoint latency histograms and
request span trees via :mod:`repro.obs`, and a stdlib client
(:mod:`repro.serve.client`).  For multi-core machines,
:mod:`repro.serve.prefork` runs the same app and the same front in N
forked worker processes sharing one memory-mapped snapshot and one
listening socket, with request coalescing (:mod:`repro.serve.coalesce`)
deduplicating identical in-flight queries.  Start it with ``repro serve``
or embed it:

>>> from repro.serve import ServeConfig, ServingApp, make_server  # doctest: +SKIP
>>> app = ServingApp(graph, ServeConfig(cache_size=512))          # doctest: +SKIP
>>> make_server(app, "0.0.0.0", 8080).serve_forever()             # doctest: +SKIP
"""

from repro.serve.admission import AdmissionController, Deadline, Rejected
from repro.serve.app import (
    Response,
    ServeConfig,
    ServeHTTPServer,
    ServingApp,
    make_server,
)
from repro.serve.cache import LRUTTLCache, MISS, query_cache_key
from repro.serve.client import ServeClient, ServeError
from repro.serve.coalesce import SingleFlight
from repro.serve.prefork import (
    PreforkConfig,
    PreforkMaster,
    merge_metric_snapshots,
    proc_private_bytes,
)
from repro.serve.serialization import (
    entity_to_dict,
    match_to_dict,
    pedigree_payload,
    query_from_mapping,
    search_payload,
)

__all__ = [
    "AdmissionController",
    "Deadline",
    "Rejected",
    "Response",
    "ServeConfig",
    "ServeHTTPServer",
    "ServingApp",
    "make_server",
    "LRUTTLCache",
    "MISS",
    "query_cache_key",
    "ServeClient",
    "ServeError",
    "SingleFlight",
    "PreforkConfig",
    "PreforkMaster",
    "merge_metric_snapshots",
    "proc_private_bytes",
    "entity_to_dict",
    "match_to_dict",
    "pedigree_payload",
    "query_from_mapping",
    "search_payload",
]
