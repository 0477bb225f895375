"""Pre-fork serving tier: coalescing, fleet metrics, fork-safe caching.

Unit coverage for the pieces :mod:`repro.serve.prefork` composes —
:class:`~repro.serve.coalesce.SingleFlight` leader/follower semantics,
``merge_metric_snapshots`` fleet aggregation, the snapshot-token cache
binding that survives ``fork`` — plus one live single-worker fleet boot
over a real socket.  The heavier failure drills (kill a worker under
traffic, zero-downtime reload rotation) run in
``python -m repro.serve.prefork_smoke`` via ``make prefork-smoke``.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
import urllib.request

import pytest

from repro.core import SnapsConfig
from repro.obs import MetricsRegistry
from repro.serve import (
    LRUTTLCache,
    MISS,
    PreforkConfig,
    PreforkMaster,
    ServeConfig,
    SingleFlight,
    merge_metric_snapshots,
    proc_private_bytes,
)
from repro.serve.prefork import HEARTBEAT_DIRNAME
from repro.store import SnapshotStore


# ----------------------------------------------------------------------
# SingleFlight
# ----------------------------------------------------------------------


class TestSingleFlight:
    def test_lone_caller_is_leader(self):
        flights = SingleFlight()
        assert flights.do("k", lambda: 42) == 42
        assert flights.stats() == {"leaders": 1, "followers": 0, "timeouts": 0}

    def test_sequential_calls_do_not_coalesce(self):
        flights = SingleFlight()
        assert flights.do("k", lambda: 1) == 1
        assert flights.do("k", lambda: 2) == 2
        assert flights.leaders == 2 and flights.followers == 0

    def _run_concurrent(self, flights, n_followers, leader_fn, follower_fn):
        """Start a leader, let followers pile on, release, collect."""
        release = threading.Event()
        entered = threading.Event()
        outcomes: dict[int, object] = {}

        def gated_leader():
            entered.set()
            release.wait(5.0)
            return leader_fn()

        def run(i, fn):
            try:
                outcomes[i] = flights.do("k", fn)
            except BaseException as exc:  # noqa: BLE001 - test captures
                outcomes[i] = exc

        threads = [threading.Thread(target=run, args=(0, gated_leader))]
        threads[0].start()
        assert entered.wait(5.0)
        for i in range(1, n_followers + 1):
            threads.append(threading.Thread(target=run, args=(i, follower_fn)))
            threads[-1].start()
        # Followers must be parked on the flight before release.
        deadline = time.monotonic() + 5.0
        while flights.followers < n_followers and time.monotonic() < deadline:
            time.sleep(0.005)
        release.set()
        for thread in threads:
            thread.join(timeout=10.0)
        return outcomes

    def test_concurrent_duplicates_share_the_leader_result(self):
        flights = SingleFlight()
        computed = []

        def compute():
            computed.append(1)
            return {"result": "expensive"}

        outcomes = self._run_concurrent(
            flights, 3, compute, lambda: pytest.fail("follower computed")
        )
        assert computed == [1], "exactly one computation for 4 callers"
        first = outcomes[0]
        assert all(outcomes[i] is first for i in range(4))
        assert flights.leaders == 1 and flights.followers == 3

    def test_leader_error_propagates_to_followers(self):
        flights = SingleFlight()
        boom = ValueError("backend down")

        def explode():
            raise boom

        outcomes = self._run_concurrent(
            flights, 2, explode, lambda: pytest.fail("follower computed")
        )
        assert all(outcomes[i] is boom for i in range(3))

    def test_follower_timeout_computes_independently(self):
        flights = SingleFlight(timeout_s=0.05)
        release = threading.Event()
        entered = threading.Event()

        def wedged():
            entered.set()
            release.wait(5.0)
            return "leader"

        leader = threading.Thread(target=flights.do, args=("k", wedged))
        leader.start()
        assert entered.wait(5.0)
        try:
            assert flights.do("k", lambda: "fallback") == "fallback"
            assert flights.timeouts == 1
        finally:
            release.set()
            leader.join(timeout=5.0)

    def test_counters_mirrored_into_metrics(self):
        metrics = MetricsRegistry()
        flights = SingleFlight(metrics=metrics)
        flights.do("k", lambda: 1)
        assert metrics.counter_value("serve.coalesce.leaders") == 1


# ----------------------------------------------------------------------
# Fleet metrics aggregation
# ----------------------------------------------------------------------

BUCKETS = [0.01, 0.1, 1.0]


def _registry(latencies, requests):
    registry = MetricsRegistry()
    registry.inc("serve.requests", requests)
    registry.set_gauge("serve.cache_size", 10)
    for value in latencies:
        registry.observe("latency", value, BUCKETS)
    return registry.as_dict()


class TestMergeMetricSnapshots:
    def test_counters_and_gauges_sum(self):
        merged = merge_metric_snapshots(
            [_registry([0.05], 3), _registry([0.5], 4)]
        )
        assert merged["counters"]["serve.requests"] == 7
        assert merged["gauges"]["serve.cache_size"] == 20

    def test_histograms_merge_bucketwise(self):
        merged = merge_metric_snapshots(
            [_registry([0.005, 0.05], 2), _registry([0.5, 2.0], 2)]
        )
        blob = merged["histograms"]["latency"]
        assert blob["count"] == 4
        assert blob["sum"] == pytest.approx(2.555)
        assert blob["min"] == 0.005 and blob["max"] == 2.0
        # Quantiles re-derived over the merged buckets, not averaged.
        assert blob["p50"] <= blob["p95"] <= blob["p99"] <= 2.0

    def test_single_snapshot_is_identity_for_counts(self):
        snap = _registry([0.05, 0.5], 5)
        merged = merge_metric_snapshots([snap])
        assert merged["counters"] == snap["counters"]
        assert merged["histograms"]["latency"]["count"] == 2

    def test_bucket_mismatch_raises(self):
        other = MetricsRegistry()
        other.observe("latency", 0.1, [0.5, 5.0])
        with pytest.raises(ValueError, match="bucket mismatch"):
            merge_metric_snapshots([_registry([0.05], 1), other.as_dict()])

    def test_empty_input(self):
        merged = merge_metric_snapshots([])
        assert merged == {"counters": {}, "gauges": {}, "histograms": {}}


def test_proc_private_bytes_self():
    private = proc_private_bytes(os.getpid())
    assert private is not None and private > 0


# ----------------------------------------------------------------------
# Snapshot-token cache binding (the fork-inherited-cache regression)
# ----------------------------------------------------------------------


class TestCacheSnapshotToken:
    def test_rebind_invalidates_entries(self):
        cache = LRUTTLCache(token="snap-a")
        cache.put("k", "old")
        cache.rebind("snap-b")
        assert cache.get("k") is MISS
        assert cache.invalidations == 1

    def test_rebind_same_token_is_noop(self):
        cache = LRUTTLCache(token="snap-a")
        cache.put("k", "v")
        cache.rebind("snap-a")
        assert cache.get("k") == "v"
        assert cache.invalidations == 0

    def test_rebind_keeps_stale_entries_recoverable(self):
        cache = LRUTTLCache(token="snap-a", keep_stale=True)
        cache.put("k", "old")
        cache.rebind("snap-b")
        assert cache.get("k") is MISS
        value, age = cache.get_stale("k")
        assert value == "old" and age >= 0.0

    def test_fork_inherited_cache_never_serves_other_snapshot_fresh(self):
        """A forked child rebinding to a new snapshot must treat every
        inherited entry as stale — the regression the token exists for."""
        cache = LRUTTLCache(token="snap-a", keep_stale=True)
        cache.put("k", "pre-reload")
        pid = os.fork()
        if pid == 0:  # child: the rotated post-reload worker
            status = 1
            try:
                cache.rebind("snap-b")
                fresh = cache.get("k")
                stale = cache.get_stale("k")
                ok = (
                    fresh is MISS  # never a fresh hit
                    and stale is not MISS  # degraded path still works
                    and stale[0] == "pre-reload"
                )
                status = 0 if ok else 1
            finally:
                os._exit(status)
        _, wait_status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(wait_status) == 0, (
            "fork-inherited cache served a pre-reload entry as fresh"
        )
        # The parent (old-snapshot worker) is untouched by the child.
        assert cache.get("k") == "pre-reload"


# ----------------------------------------------------------------------
# Live fleet: one worker over a real socket
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def prefork_store(tmp_path_factory, resolved_tiny, tiny_pedigree_graph):
    store_dir = tmp_path_factory.mktemp("prefork-store")
    manifest = SnapshotStore(store_dir).save(
        resolved_tiny, graph=tiny_pedigree_graph, config=SnapsConfig()
    )
    return store_dir, manifest


def test_prefork_config_rejects_zero_workers(tmp_path):
    with pytest.raises(ValueError, match="workers"):
        PreforkMaster(tmp_path, config=PreforkConfig(workers=0))


def test_single_worker_fleet_serves(prefork_store, tiny_pedigree_graph, tmp_path):
    store_dir, manifest = prefork_store
    run_dir = tmp_path / "run"
    master = PreforkMaster(
        store_dir,
        config=PreforkConfig(workers=1, run_dir=run_dir),
        serve_config=ServeConfig(host="127.0.0.1", port=0),
    )
    pid = os.fork()
    if pid == 0:
        try:
            master.start()
        finally:
            os._exit(0)
    try:
        address_file = run_dir / "address.json"
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if address_file.exists() and list(
                (run_dir / HEARTBEAT_DIRNAME).glob("*.hb")
            ):
                break
            time.sleep(0.1)
        else:
            pytest.fail("prefork fleet did not come up")
        address = json.loads(address_file.read_text())
        base = f"http://{address['host']}:{address['port']}"
        with urllib.request.urlopen(base + "/healthz", timeout=30.0) as response:
            health = json.loads(response.read())
        assert health["status"] == "ok"
        assert health["entities"] == len(tiny_pedigree_graph)
        probe = next(
            e
            for e in tiny_pedigree_graph
            if e.first("first_name") and e.first("surname")
        )
        body = json.dumps(
            {
                "first_name": probe.first("first_name"),
                "surname": probe.first("surname"),
                "top": 3,
            }
        ).encode("utf-8")
        request = urllib.request.Request(
            base + "/v1/search",
            data=body,
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30.0) as response:
            payload = json.loads(response.read())
        assert payload["matches"], "probe search must match"
        with urllib.request.urlopen(
            base + "/metricz?format=json", timeout=30.0
        ) as response:
            metrics = json.loads(response.read())
        assert metrics["counters"].get("serve.requests", 0) >= 2
        assert metrics["gauges"].get("serve.prefork.workers") == 1
    finally:
        os.kill(pid, signal.SIGTERM)
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline:
            done, _ = os.waitpid(pid, os.WNOHANG)
            if done == pid:
                break
            time.sleep(0.1)
        else:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
