"""Serving phases against ``repro serve --snapshot`` with default flags.

``search-miss`` climbs a ladder of open-loop rates with distinct queries
(a working set far larger than the result cache).  ``browse-reload``
runs genealogist sessions at one fixed rate over a small Zipf-skewed
working set while ``POST /v1/reload`` alternates between the base and
the ingested snapshot.  Every served search and pedigree body is checked
against an in-process ``ServingApp`` over the same snapshot.
"""

from __future__ import annotations

import json
import signal
import socket
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

from loadgen import Connection, Outcome, Request, run_open_loop
from stats import RungVerdict, judge_rung
from workload import Session

SLO_S = 0.5  # repro serve's own --slo-deadline default
# Doubling rates keep every verdict far from the capacity in between.  At
# the lowest rung about a third of requests follow another on the same
# connection, so its tail percentile sits inside that group, not on the
# boundary between it and the rest.
LADDER_RATES = [15.0, 30.0, 60.0, 120.0, 240.0, 480.0]


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@dataclass
class Server:
    proc: subprocess.Popen
    port: int
    boot_s: float


def launch_server(argv: list[str], env: dict, workdir: Path, timeout_s: float = 60.0) -> Server:
    """Start ``argv + --port P`` and wait for the first 200 from /healthz."""
    port = free_port()
    log = open(workdir / f"serve-{port}.log", "w")
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv + ["--port", str(port)], stdout=log, stderr=log, env=env, cwd=workdir
    )
    log.close()
    try:
        while time.perf_counter() - start < timeout_s and proc.poll() is None:
            try:
                conn = Connection("127.0.0.1", port, 2.0)
                status, _ = conn.request("GET", "/healthz", None)
                conn.close()
                if status == 200:
                    return Server(proc, port, time.perf_counter() - start)
            except OSError:
                time.sleep(0.005)
        raise RuntimeError(f"server did not become healthy: {' '.join(argv)}")
    except BaseException:
        stop_server(proc)
        raise


def stop_server(proc: subprocess.Popen) -> None:
    """Interrupt (the CLI's clean shutdown), then kill; always reaped."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
    proc.wait()


def metricz(conn: Connection) -> dict:
    status, body = conn.request("GET", "/metricz?format=json", None)
    if status != 200:
        raise RuntimeError(f"/metricz answered {status}")
    return json.loads(body)


def counter_delta(before: dict, after: dict, name: str) -> float:
    return after["counters"].get(name, 0) - before["counters"].get(name, 0)


def without_cached(body: bytes) -> dict:
    payload = json.loads(body)
    payload.pop("cached", None)
    return payload


class Reference:
    """In-process ``ServingApp`` per snapshot (cache off): the expected
    answer to every request."""

    def __init__(self, store_dir: Path, snapshot_ids: list[str]) -> None:
        from repro.serve import ServeConfig, ServingApp
        from repro.store import SnapshotStore

        store = SnapshotStore(store_dir)
        self.apps = {}
        for snapshot_id in snapshot_ids:
            loaded = store.load(snapshot_id, artifacts=("graph", "indexes"))
            self.apps[snapshot_id] = ServingApp(
                loaded.graph,
                ServeConfig(cache_size=0, tracing=False),
                keyword_index=loaded.keyword_index,
                sim_index=loaded.sim_index,
                manifest=loaded.manifest,
            )
        self._answers: dict[tuple[str, str, bytes | None], bytes] = {}

    def answer(self, snapshot_id: str, request: Request) -> bytes:
        key = (snapshot_id, request.path, request.body)
        if key not in self._answers:
            path, _, query = request.path.partition("?")
            params = dict(p.split("=", 1) for p in query.split("&") if p)
            response = self.apps[snapshot_id].handle(
                request.method, path, params, request.body
            )
            self._answers[key] = response.body
        return self._answers[key]

    def matches(self, snapshot_ids: set[str], outcome: Outcome) -> bool:
        request = outcome.request
        for snapshot_id in snapshot_ids:
            expected = self.answer(snapshot_id, request)
            if request.kind == "search":
                if without_cached(outcome.body) == without_cached(expected):
                    return True
            elif outcome.body == expected:
                return True
        return False

    def entity_ids(self, snapshot_id: str) -> set[int]:
        return set(self.apps[snapshot_id].graph.entities)


@dataclass
class Rung:
    rate: float
    outcomes: list[Outcome]
    verdict: RungVerdict


def search_ladder(
    pool: list[Connection], queries: list, arrivals: list[list[float]]
) -> list[Rung]:
    """Climb the ladder, stopping after the first rung that fails."""
    rungs: list[Rung] = []
    cursor = 0
    for rate, offsets in zip(LADDER_RATES, arrivals):
        batch = []
        for offset in offsets:
            batch.append((offset, queries[cursor].request(tag=cursor)))
            cursor += 1
        outcomes = run_open_loop(pool, batch)
        verdict = judge_rung(
            rate,
            [o.due for o in outcomes],
            [o.sent for o in outcomes],
            [o.latency for o in outcomes],
            sum(not o.ok for o in outcomes),
            SLO_S,
        )
        rungs.append(Rung(rate, outcomes, verdict))
        if not verdict.passed:
            break
    return rungs


@dataclass
class BrowseRun:
    outcomes: list[Outcome]
    reloads: list[Outcome]


def browse(
    pool: list[Connection],
    schedule: list[tuple[float, object]],
    reload_targets: list[str],
    clickable: set[int],
) -> BrowseRun:
    """Sessions plus alternating reloads, one fixed open-loop rate."""
    arrivals = []
    reload_index = 0
    for offset, item in schedule:
        if item == "reload":
            target = reload_targets[reload_index % len(reload_targets)]
            body = json.dumps({"snapshot": target}).encode()
            arrivals.append((offset, Request("reload", "POST", "/v1/reload", body, target)))
            reload_index += 1
        else:
            arrivals.append((offset, item.search.request(tag=item)))

    def follow_ups(outcome: Outcome) -> list[Request]:
        session = outcome.request.tag
        if outcome.request.kind != "search" or not outcome.ok:
            return []
        assert isinstance(session, Session)
        hits = [
            match["entity"]["entity_id"]
            for match in json.loads(outcome.body)["matches"]
            if match["entity"]["entity_id"] in clickable
        ]
        return [
            Request(
                "pedigree",
                "GET",
                f"/v1/pedigree/{entity_id}?generations={gens}&format={fmt}",
            )
            for entity_id, gens, fmt in zip(hits, session.generations, session.formats)
        ]

    outcomes = run_open_loop(pool, arrivals, follow_ups)
    reloads = sorted((o for o in outcomes if o.request.kind == "reload"), key=lambda o: o.sent)
    reads = [o for o in outcomes if o.request.kind != "reload"]
    return BrowseRun(reads, reloads)


def live_snapshots(boot_id: str, reloads: list[Outcome], start: float, end: float) -> set[str]:
    """Snapshots that may have answered a request in flight over
    ``[start, end]``: each reload swaps somewhere inside its own window."""
    live = {boot_id}
    for reload in reloads:
        if reload.sent > end:
            break
        target = reload.request.tag
        live = {target} if reload.done < start else live | {target}
    return live
