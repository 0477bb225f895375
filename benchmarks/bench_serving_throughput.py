"""Serving throughput — single-process baseline vs the pre-fork tier.

Beyond the paper's Table 7 (single-threaded query latency), this bench
drives the full serving stack over real sockets with **multiple client
processes** (true parallel load — client threads in one process would
serialise on the GIL exactly when the server stops being the
bottleneck) and compares two deployment shapes on one identical
snapshot:

- the single-process baseline (``make_server``: the same HTTP front the
  workers run, without a master), and
- ``repro.serve.prefork`` fleets of 1, 2, and 4 workers sharing the
  memory-mapped snapshot and one listening socket.

Each configuration contributes a scaling row — QPS, p50/p95/p99, and
per-worker private RSS (``/proc/<pid>/smaps_rollup``, the pages *not*
shared with the master map) — to the text table and to
``benchmarks/results/serving_throughput.metrics.json`` for
``repro bench-history --check``.  One probe query is asserted
byte-identical between the baseline and the fleet: the pre-fork tier
must change throughput, never results.

Speedup assertions are gated on ``os.cpu_count()``: on a single-core CI
box a 4-worker fleet cannot beat one process, and pretending otherwise
would make the bench flaky exactly where it runs most.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import signal
import tempfile
import time
import urllib.request
from pathlib import Path

from common import emit, emit_report, format_table, ios_dataset
from repro.core import SnapsConfig, SnapsResolver
from repro.pedigree import build_pedigree_graph
from repro.serve import ServeConfig, ServingApp, make_server
from repro.serve.prefork import (
    HEARTBEAT_DIRNAME,
    PreforkConfig,
    PreforkMaster,
    proc_private_bytes,
)
from repro.store import SnapshotStore
from repro.utils.rng import make_rng

N_CLIENT_PROCS = 4
REQUESTS_PER_PROC = 40
N_DISTINCT_QUERIES = 24
PREFORK_WORKER_COUNTS = (1, 2, 4)
BOOT_TIMEOUT_S = 120.0


def _build_store(tmp: Path):
    """One resolved snapshot on disk; returns (store_dir, graph)."""
    dataset = ios_dataset()
    config = SnapsConfig()
    result = SnapsResolver(config).resolve(dataset)
    graph = build_pedigree_graph(dataset, result.entities)
    store_dir = tmp / "store"
    SnapshotStore(store_dir).save(result, graph=graph, config=config)
    return store_dir, graph


def _workload(graph, seed=29):
    """Distinct query bodies, ~1/3 with a misspelled surname."""
    rng = make_rng(seed)
    named = [e for e in graph if e.first("first_name") and e.first("surname")]
    queries = []
    for _ in range(N_DISTINCT_QUERIES):
        entity = rng.choice(named)
        surname = entity.first("surname")
        if rng.random() < 0.35 and len(surname) > 4:
            pos = rng.randrange(1, len(surname))
            surname = surname[:pos] + surname[pos + 1 :]
        queries.append((entity.first("first_name"), surname))
    return queries


def _post_search(base_url: str, first: str, surname: str) -> bytes:
    body = json.dumps(
        {"first_name": first, "surname": surname, "top": 10}
    ).encode("utf-8")
    request = urllib.request.Request(
        base_url + "/v1/search",
        data=body,
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60.0) as response:
        assert 200 <= response.status < 300
        return response.read()


def _client_proc(base_url, queries, seed, queue):
    """One load-generator process: skewed replay, wall latencies out."""
    rng = make_rng(seed)
    latencies = []
    for _ in range(REQUESTS_PER_PROC):
        # Squaring the uniform draw favours low indices, so popular
        # queries repeat often (cache food), as on the real deployment.
        first, surname = queries[int(len(queries) * rng.random() ** 2)]
        start = time.perf_counter()
        _post_search(base_url, first, surname)
        latencies.append(time.perf_counter() - start)
    queue.put(latencies)


def _drive_processes(base_url, queries, seed):
    """Hammer a live server from N processes; sorted latencies + QPS."""
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    procs = [
        ctx.Process(
            target=_client_proc, args=(base_url, queries, seed + i, queue)
        )
        for i in range(N_CLIENT_PROCS)
    ]
    wall_start = time.perf_counter()
    for proc in procs:
        proc.start()
    collected = [queue.get(timeout=300.0) for _ in procs]
    wall = time.perf_counter() - wall_start
    for proc in procs:
        proc.join(timeout=30.0)
    latencies = sorted(t for batch in collected for t in batch)
    return latencies, len(latencies) / wall


def _wait_for(predicate, timeout_s, what):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.1)
    raise TimeoutError(f"timed out waiting for {what}")


class _PreforkFleet:
    """Context manager: a live pre-fork fleet on an ephemeral port."""

    def __init__(self, store_dir: Path, run_dir: Path, workers: int) -> None:
        self.run_dir = run_dir
        self.workers = workers
        self.master = PreforkMaster(
            store_dir,
            config=PreforkConfig(workers=workers, run_dir=run_dir),
            serve_config=ServeConfig(host="127.0.0.1", port=0),
        )
        self.pid = 0
        self.base_url = ""

    def __enter__(self) -> "_PreforkFleet":
        self.pid = os.fork()
        if self.pid == 0:
            try:
                self.master.start()
            finally:
                os._exit(0)
        address_file = self.run_dir / "address.json"
        _wait_for(address_file.exists, BOOT_TIMEOUT_S, "prefork address")
        _wait_for(
            lambda: len(self.worker_pids()) >= self.workers,
            BOOT_TIMEOUT_S,
            f"{self.workers} worker heartbeats",
        )
        address = json.loads(address_file.read_text())
        self.base_url = f"http://{address['host']}:{address['port']}"
        return self

    def worker_pids(self) -> set[int]:
        return {
            int(path.stem)
            for path in (self.run_dir / HEARTBEAT_DIRNAME).glob("*.hb")
        }

    def private_rss_bytes(self) -> list[int]:
        """Per-worker private (unshared) resident bytes, live."""
        sizes = []
        for pid in sorted(self.worker_pids()):
            private = proc_private_bytes(pid)
            if private is not None:
                sizes.append(private)
        return sizes

    def __exit__(self, *exc) -> None:
        os.kill(self.pid, signal.SIGTERM)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            done, _ = os.waitpid(self.pid, os.WNOHANG)
            if done == self.pid:
                return
            time.sleep(0.1)
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)


def _percentile(sorted_values, fraction):
    index = min(len(sorted_values) - 1, round(fraction * (len(sorted_values) - 1)))
    return sorted_values[index]


def test_serving_throughput(benchmark):
    tmp = Path(tempfile.mkdtemp(prefix="bench-serving-"))
    try:
        store_dir, graph = _build_store(tmp)
        queries = _workload(graph)
        probe = queries[0]

        def run_all():
            results = {}
            # Single-process baseline: same snapshot, eager arrays, the
            # workers' HTTP front without a master.
            loaded = SnapshotStore(store_dir).load(
                artifacts=("graph", "indexes")
            )
            app = ServingApp(
                loaded.graph,
                ServeConfig(cache_size=256, max_concurrency=8),
                keyword_index=loaded.keyword_index,
                sim_index=loaded.sim_index,
                manifest=loaded.manifest,
            )
            server = make_server(app, "127.0.0.1", 0)
            host, port = server.server_address[:2]
            import threading

            threading.Thread(target=server.serve_forever, daemon=True).start()
            try:
                base_url = f"http://{host}:{port}"
                probe_body = _post_search(base_url, *probe)
                results["single-process"] = (
                    *_drive_processes(base_url, queries, seed=37),
                    [],
                )
            finally:
                server.shutdown()
                server.server_close()
            # Pre-fork fleets over the memory-mapped snapshot.
            for workers in PREFORK_WORKER_COUNTS:
                with _PreforkFleet(
                    store_dir, tmp / f"run-w{workers}", workers
                ) as fleet:
                    fleet_probe = _post_search(fleet.base_url, *probe)
                    assert fleet_probe == probe_body, (
                        "pre-fork tier changed /v1/search bytes"
                    )
                    latencies, qps = _drive_processes(
                        fleet.base_url, queries, seed=37
                    )
                    results[f"prefork_w{workers}"] = (
                        latencies, qps, fleet.private_rss_bytes(),
                    )
            return results

        results = benchmark.pedantic(run_all, rounds=1, iterations=1)

        rows = []
        headline = {}
        for label, (latencies, qps, rss) in results.items():
            row = {
                "p50_ms": 1000 * _percentile(latencies, 0.50),
                "p95_ms": 1000 * _percentile(latencies, 0.95),
                "p99_ms": 1000 * _percentile(latencies, 0.99),
                "qps": qps,
            }
            if rss:
                row["private_rss_mb_per_worker"] = (
                    sum(rss) / len(rss) / 1e6
                )
            headline[label] = {k: round(v, 3) for k, v in row.items()}
            rows.append([
                label,
                len(latencies),
                f"{row['p50_ms']:.2f}",
                f"{row['p95_ms']:.2f}",
                f"{row['p99_ms']:.2f}",
                f"{row['qps']:.1f}",
                f"{row['private_rss_mb_per_worker']:.1f}" if rss else "-",
            ])
        emit(
            "serving_throughput",
            format_table(
                f"Serving throughput — {N_CLIENT_PROCS} client processes, "
                f"{N_CLIENT_PROCS * REQUESTS_PER_PROC} requests over "
                f"{N_DISTINCT_QUERIES} distinct queries, {len(graph)} "
                f"entities, {os.cpu_count()} CPUs",
                ["configuration", "requests", "p50 ms", "p95 ms", "p99 ms",
                 "QPS", "worker RSS MB"],
                rows,
            ),
        )
        emit_report(
            "serving_throughput",
            meta={
                "entities": len(graph),
                "cpus": os.cpu_count(),
                "client_procs": N_CLIENT_PROCS,
                **headline,
            },
        )
        # Shape assertions that hold on any box: every configuration
        # answered every request, interactive latency bound respected.
        expected = N_CLIENT_PROCS * REQUESTS_PER_PROC
        for label, (latencies, _qps, _rss) in results.items():
            assert len(latencies) == expected, label
            assert _percentile(latencies, 0.99) < 5.0, label
        # Scaling assertions only where the hardware can express them:
        # on a single-core box a fleet cannot out-run one process.
        cpus = os.cpu_count() or 1
        if cpus >= 4:
            assert (
                results["prefork_w4"][1] > 1.5 * results["single-process"][1]
            ), "4 workers on >=4 cores should clearly beat one process"
        if cpus >= 2:
            assert (
                results["prefork_w2"][1] > results["prefork_w1"][1] * 0.9
            ), "2 workers should not be slower than 1"
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
