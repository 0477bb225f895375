#!/usr/bin/env python3
"""SNAPS benchmark: offline resolve + ingest, miss-heavy search, browse under reload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ios --seed 1 --seconds 30 --trace 0

``--workload`` picks a fixed corpus and ``--seed`` every query and
arrival time.  Every run drives the default CLI through three phases and
checks the outputs:

* ``offline``: ``repro resolve --snapshot-out`` on the base CSVs, then
  ``repro snapshot ingest`` of the delta CSVs, three times over (medians
  are reported; all three must reach the same snapshot ids); both
  snapshots must pass ``repro snapshot verify``; F* is computed against
  generator truth.
* ``search-miss``: ``repro serve --snapshot`` (booted several times for
  ``setup_s``), an open-loop ladder of rates over two keep-alive
  connections with distinct queries.
* ``browse-reload``: search + pedigree sessions at one fixed rate over a
  small working set while reloads alternate between the two snapshots.

Only data paths and ports are passed, so the program's defaults are what
is measured.  ``--trace 1`` additionally replays the offline pipeline
and the served requests in-process with spans around each layer's
public functions and prints the per-layer metrics instead.  The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from loadgen import Connection, run_open_loop  # noqa: E402
from offline import linkage_quality, run_cli, traced_offline  # noqa: E402
from online import (  # noqa: E402
    LADDER_RATES,
    Reference,
    browse,
    counter_delta,
    launch_server,
    live_snapshots,
    metricz,
    search_ladder,
    stop_server,
)
from procs import tree_cpu_s, tree_pss_kb  # noqa: E402
from stats import percentile, rate_at_slo, tail_percentile  # noqa: E402
from tracing import Spans  # noqa: E402
from workload import (  # noqa: E402
    CORPORA,
    browse_schedule,
    distinct_searches,
    ladder_schedule,
    make_corpus,
    split_base_delta,
)

BOOTS = 9
OFFLINE_REPS = 3
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
BROWSE_SESSIONS_PER_S = 5.0
BROWSE_SHARE = 0.3
BROWSE_WORKING_SET = 16
RELOAD_EVERY = 6
STORE_LOADS = 5

E2E_UNITS = {
    "offline_peak_rss_mb": "MB",
    "f_star_bp_bp": "%",
    "f_star_bp_dp": "%",
    "setup_s": "s",
    "search_rps_at_slo": "1/s",
    "search_p99_ms": "ms",
    "search_hit_at_10": "%",
    "serve_pss_mb": "MB",
}
# Measured on every run but reported with the per-layer metrics: their
# run-to-run spread exceeds a tenth of their median (see README.md).
DEMOTED_UNITS = {
    "offline_cpu_s": "s",
    "serve_cpu_ms_per_req": "ms",
    "resolve_s": "s",
    "ingest_s": "s",
    "reload_s": "s",
    "search_p50_ms": "ms",
    "browse_p50_ms": "ms",
    "browse_p99_ms": "ms",
}
WARMUP_REQUESTS = 20


class CheckFailed(Exception):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def log(message: str) -> None:
    print(message, flush=True)


def ladder_durations(seconds: float) -> list[float]:
    """The lowest rung gets the most time: its p50/p99 are reported."""
    return [0.3 * seconds] + [0.1 * seconds] * (len(LADDER_RATES) - 1)


def hit_at_10(corpus, spec, body: bytes) -> bool:
    matches = json.loads(body)["matches"][:10]
    return any(
        corpus.records[rid].person_id == spec.person_id
        for match in matches
        for rid in match["entity"]["record_ids"]
    )


def ms(seconds: float) -> float:
    return 1000.0 * seconds


class Run:
    def __init__(self, args, root: Path, workdir: Path) -> None:
        self.args = args
        self.root = root
        self.workdir = workdir
        self.python = sys.executable
        self.env = dict(
            os.environ,
            PYTHONPATH=str(root / "src"),
            TMPDIR=str(workdir / "tmp"),
        )
        self.e2e: dict[str, float] = {}
        self.layer: dict[str, tuple[float, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.server = None

    def repro(self, *argv: str) -> list[str]:
        return [self.python, "-m", "repro", *argv]

    def account(self, phase: str, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed
        log(f"[{phase}] attempted={attempted} succeeded={attempted - failed} failed={failed}")

    # -- offline ---------------------------------------------------------

    def offline(self) -> None:
        args, wd = self.args, self.workdir
        from repro.data.loader import save_dataset_csv
        from repro.store import SnapshotStore

        self.corpus = make_corpus(args.workload)
        base, delta = split_base_delta(self.corpus)
        save_dataset_csv(base, wd / "base")
        save_dataset_csv(delta, wd / "delta")
        log(f"[offline] corpus {args.workload}: "
            f"{len(base)} base + {len(delta)} delta records")
        # Each repetition resolves into a fresh store; the first one is kept
        # for serving, the others must reach the same snapshot ids.
        reps = []
        for rep in range(OFFLINE_REPS):
            name = "store" if rep == 0 else f"store-{rep}"
            resolve = run_cli(
                self.repro("resolve", "--data", "base", "--snapshot-out", name), self.env, wd
            )
            ingest = run_cli(
                self.repro("snapshot", "ingest", "--store", name, "--data", "delta"),
                self.env, wd,
            )
            failed = (resolve.returncode != 0) + (ingest.returncode != 0)
            self.account(f"offline {rep + 1}/{OFFLINE_REPS}", 2, failed)
            for run in (resolve, ingest):
                check(run.returncode == 0, f"{' '.join(run.argv[2:])} exited "
                      f"{run.returncode}: {run.stderr[-2000:]}")
            child_id, base_id = SnapshotStore(wd / name).lineage_ids()
            if rep == 0:
                self.child_id, self.base_id = child_id, base_id
            else:
                check((child_id, base_id) == (self.child_id, self.base_id),
                      f"repetition {rep + 1} reached snapshots {base_id}/{child_id}, "
                      f"the first {self.base_id}/{self.child_id}")
                shutil.rmtree(wd / name)
            reps.append((resolve, ingest))
            log(f"[offline] {rep + 1}/{OFFLINE_REPS}: resolve {resolve.wall_s:.2f}s "
                f"({resolve.cpu_s:.2f}s cpu), ingest {ingest.wall_s:.2f}s "
                f"({ingest.cpu_s:.2f}s cpu)")
        store = wd / "store"
        for snapshot_id in (self.base_id, self.child_id):
            verify = run_cli(
                self.repro("snapshot", "verify", "--store", "store", "--id", snapshot_id),
                self.env, wd,
            )
            check(verify.returncode == 0, f"snapshot verify {snapshot_id}: {verify.stdout}")
        quality = linkage_quality(self.corpus, store, self.child_id)
        self.e2e.update(
            resolve_s=statistics.median(r.wall_s for r, _ in reps),
            ingest_s=statistics.median(i.wall_s for _, i in reps),
            offline_cpu_s=statistics.median(r.cpu_s + i.cpu_s for r, i in reps),
            offline_peak_rss_mb=statistics.median(
                max(r.maxrss_mb, i.maxrss_mb) for r, i in reps
            ),
            f_star_bp_bp=quality["Bp-Bp"],
            f_star_bp_dp=quality["Bp-Dp"],
        )
        log(f"[offline] snapshots base={self.base_id} ingested={self.child_id}, "
            f"the same in all {OFFLINE_REPS} repetitions")

    # -- serving ---------------------------------------------------------

    def boot(self) -> None:
        argv = self.repro("serve", "--snapshot", "store")
        boots = []
        for i in range(BOOTS):
            server = launch_server(argv, self.env, self.workdir)
            boots.append(server.boot_s)
            if i < BOOTS - 1:
                stop_server(server.proc)
            else:
                self.server = server
        self.e2e["setup_s"] = statistics.median(boots)
        log("[serve] boots to first /healthz 200: "
            + ", ".join(f"{b:.3f}s" for b in boots))

    def search_miss(self) -> None:
        seconds = self.args.seconds
        arrivals = ladder_schedule(self.args.seed, LADDER_RATES, ladder_durations(seconds))
        # One pool of distinct queries: the first few warm the server up
        # (lazy set-up finishes before anything is timed), the rest feed the
        # ladder, so no ladder query can hit the result cache.
        queries = distinct_searches(
            self.corpus, f"search-miss:{self.args.seed}",
            WARMUP_REQUESTS + sum(map(len, arrivals)),
        )
        self.warmup_outcomes = run_open_loop(
            self.pool, [(0.0, spec.request()) for spec in queries[:WARMUP_REQUESTS]]
        )
        self.queries = queries[WARMUP_REQUESTS:]
        pid = self.server.proc.pid
        before = metricz(self.pool[0])
        cpu_before = tree_cpu_s(pid)
        self.rungs = search_ladder(self.pool, self.queries, arrivals)
        cpu = tree_cpu_s(pid) - cpu_before
        self.metricz_search = metricz(self.pool[0])
        self.metricz_search_before = before
        outcomes = [o for rung in self.rungs for o in rung.outcomes]
        checked = outcomes + self.warmup_outcomes
        self.account("search-miss", len(checked), sum(not o.ok for o in checked))
        for rung in self.rungs:
            v = rung.verdict
            log(f"[search-miss] rung {v.rate:g}/s: n={v.attempted} failed={v.failed} "
                f"{v.tail.label()}={ms(v.tail.value):.1f}ms backlog={'growing' if v.backlog else 'flat'} "
                f"-> {'pass' if v.passed else 'FAIL'}")
        lowest = [o.latency for o in self.rungs[0].outcomes]
        tail = tail_percentile(lowest)
        completed = sum(o.ok for o in outcomes)
        self.e2e.update(
            search_rps_at_slo=rate_at_slo([r.verdict for r in self.rungs]),
            search_p50_ms=ms(percentile(lowest, 50)),
            search_p99_ms=ms(tail.value),
            serve_cpu_ms_per_req=ms(cpu / max(1, completed)),
        )
        log(f"[search-miss] lowest rung: p25/p50/p75 = "
            + "/".join(f"{ms(percentile(lowest, p)):.1f}" for p in (25, 50, 75))
            + f" ms, {tail.label()} (p99 needs n>=1000)")
        self.search_outcomes = outcomes

    def browse_reload(self) -> None:
        working_set = distinct_searches(
            self.corpus, f"browse:{self.args.seed}", BROWSE_WORKING_SET
        )
        schedule = browse_schedule(
            self.args.seed, working_set, BROWSE_SESSIONS_PER_S,
            round(BROWSE_SESSIONS_PER_S * BROWSE_SHARE * self.args.seconds), RELOAD_EVERY,
        )
        clickable = self.reference.entity_ids(self.child_id) & self.reference.entity_ids(
            self.base_id
        )
        before = self.metricz_search
        self.browse_run = browse(self.pool, schedule, [self.base_id, self.child_id], clickable)
        self.metricz_browse = metricz(self.pool[0])
        self.metricz_browse_before = before
        reads, reloads = self.browse_run.outcomes, self.browse_run.reloads
        failed = sum(not o.ok for o in reads + reloads)
        self.account("browse-reload", len(reads) + len(reloads), failed)
        latencies = [o.latency for o in reads]
        tail = tail_percentile(latencies)
        self.e2e.update(
            browse_p50_ms=ms(percentile(latencies, 50)),
            browse_p99_ms=ms(tail.value),
            reload_s=statistics.median(o.done - o.sent for o in reloads),
        )
        hits = counter_delta(before, self.metricz_browse, "serve.cache.hits")
        misses = counter_delta(before, self.metricz_browse, "serve.cache.misses")
        log(f"[browse-reload] {len(reads)} reads ({tail.label()}), {len(reloads)} reloads, "
            f"search cache hit ratio {hits / max(1, hits + misses):.2f}")

    def serving(self) -> None:
        self.boot()
        self.pool = [Connection("127.0.0.1", self.server.port, 5.0) for _ in range(CONNECTIONS)]
        self.reference = Reference(self.workdir / "store", [self.child_id, self.base_id])
        self.search_miss()
        # Taken with the result cache full and before any reload, so it is
        # the memory of one loaded snapshot serving misses.
        pss = tree_pss_kb(self.server.proc.pid)
        self.e2e["serve_pss_mb"] = sum(pss.values()) / 1024.0
        self.browse_reload()
        pss = tree_pss_kb(self.server.proc.pid)
        self.pss_after_reload_mb = sum(pss.values()) / 1024.0
        for conn in self.pool:
            conn.close()
        stop_server(self.server.proc)
        self.server = None

    def check_serving(self) -> None:
        """Served bodies against the in-process app; reloads really swapped."""
        ref = self.reference
        for outcome in self.search_outcomes + self.warmup_outcomes:
            check(outcome.ok, f"search failed: {outcome.status} {outcome.error}")
            check(ref.matches({self.child_id}, outcome),
                  f"served search differs from ServingApp.handle: {outcome.request.body!r}")
        hits = sum(
            hit_at_10(self.corpus, self.queries[o.request.tag], o.body)
            for o in self.search_outcomes
        )
        self.e2e["search_hit_at_10"] = 100.0 * hits / len(self.search_outcomes)
        for reload in self.browse_run.reloads:
            check(reload.ok, f"reload failed: {reload.status} {reload.error}")
            answer = json.loads(reload.body)
            check(answer.get("status") == "reloaded" and answer.get("snapshot") == reload.request.tag,
                  f"reload answered {answer}")
        for outcome in self.browse_run.outcomes:
            check(outcome.ok, f"{outcome.request.path} failed: {outcome.status} {outcome.error}")
            live = live_snapshots(self.child_id, self.browse_run.reloads, outcome.sent, outcome.done)
            check(ref.matches(live, outcome),
                  f"served {outcome.request.path} differs from ServingApp.handle")
        log("[checks] snapshot verify x2, served bodies == ServingApp.handle, "
            "reloads swapped: ok")

    # -- traced run ------------------------------------------------------

    def set_layer(self, name: str, value: float, unit: str) -> None:
        self.layer[name] = (value, unit)

    def traced(self) -> None:
        spans = Spans()
        self.traced_offline(spans)
        self.traced_online(spans)
        self.served_layers()
        out = self.root / ".perfbench_out" / f"spans-{self.args.workload}-{self.args.seed}.jsonl"
        spans.write_jsonl(out)
        log(f"[trace] {len(spans.spans)} spans written to {out.relative_to(self.root)}")
        log(f"[trace] {'span':<28}{'total s':>10}{'self s':>10}")
        for name, self_s in spans.self_times().items():
            log(f"[trace] {name:<28}{spans.total(name):>10.4f}{self_s:>10.4f}")
        log("[trace] unmeasured (reachable only inside src/): "
            "serve.admission.queued, cache lookup, HTTP parse/write, "
            "IncrementalResolver.ingest internals")

    def traced_offline(self, spans: Spans) -> None:
        wd = self.workdir
        # The same composition without spans or counters, for the overhead.
        bare = Spans()
        plain = traced_offline(
            self.corpus, wd / "base", wd / "delta", wd / "bare-store", bare, count=False
        )
        layers = traced_offline(self.corpus, wd / "base", wd / "delta", wd / "traced-store", spans)
        for result in (plain, layers):
            check(result.pop("base_id") == self.base_id, "traced resolve reached another snapshot id")
            check(result.pop("child_id") == self.child_id, "traced ingest reached another snapshot id")
        units = {
            "blocking.candidate_pairs": "count",
            "blocking.pair_completeness": "ratio",
            "core.dependency_graph.relational_nodes": "count",
            "core.bootstrap.merges": "count",
            "core.merging.merges": "count",
            "core.merging.rejected_ratio": "ratio",
            "index.simindex_pairs": "count",
            "store.snapshot_bytes": "bytes",
            "store.incremental.dirty_fraction": "ratio",
        }
        for name, value in layers.items():
            self.set_layer(name, value, units[name])
        for span_name, metric in (
            ("data.load", "data.load_s"),
            ("blocking", "blocking.s"),
            ("core.dependency_graph", "core.dependency_graph.s"),
            ("core.bootstrap", "core.bootstrap.s"),
            ("core.merging", "core.merging.s"),
            ("core.refinement", "core.refinement.s"),
            ("pedigree.build", "pedigree.build_s"),
            ("index.build", "index.build_s"),
            ("store.save", "store.save_s"),
            ("store.incremental", "store.incremental.s"),
        ):
            self.set_layer(metric, spans.total(span_name), "s")
        self.set_layer(
            "trace.offline_overhead_s", spans.total("offline") - bare.total("offline"), "s"
        )
        log("[trace] offline composition reached both CLI snapshot ids")

    def traced_online(self, spans: Spans) -> None:
        import repro.serve.app as app_module
        from repro.serve import ServeConfig, ServingApp
        from repro.store import SnapshotStore

        store = SnapshotStore(self.workdir / "store")
        for _ in range(STORE_LOADS):
            for verify, name in ((False, "store.load_noverify"), (True, "store.load")):
                with spans.span(name):
                    loaded = store.load(self.child_id, artifacts=("graph", "indexes"), verify=verify)
        load_s = statistics.median(spans.durations("store.load"))
        self.set_layer("store.load_s", load_s, "s")
        self.set_layer(
            "store.verify_s",
            load_s - statistics.median(spans.durations("store.load_noverify")),
            "s",
        )

        def fresh_app(cache_size: int) -> ServingApp:
            # Loaded anew so no query-time index cache is shared between
            # replays; otherwise configured as `repro serve` is by default.
            loaded = store.load(self.child_id, artifacts=("graph", "indexes"))
            return ServingApp(
                loaded.graph,
                ServeConfig(cache_size=cache_size),
                keyword_index=loaded.keyword_index,
                sim_index=loaded.sim_index,
                store=store,
                manifest=loaded.manifest,
            )

        # Replay of search-miss with the cache off: bare, then traced.
        requests = [o.request for o in self.search_outcomes]
        app = fresh_app(0)
        start = time.perf_counter()
        for request in requests:
            app.handle("POST", "/v1/search", {}, request.body)
        untraced = time.perf_counter() - start
        app = fresh_app(0)
        patched = {
            name: getattr(app_module, name)
            for name in ("search_payload", "extract_pedigree", "pedigree_payload", "render_ascii_tree")
        }
        app_module.search_payload = spans.wrap("serve.serialize", patched["search_payload"])
        app_module.extract_pedigree = spans.wrap("pedigree.extract", patched["extract_pedigree"])
        app_module.pedigree_payload = spans.wrap("pedigree.render", patched["pedigree_payload"])
        app_module.render_ascii_tree = spans.wrap("pedigree.render", patched["render_ascii_tree"])
        handle = spans.wrap("serve.handle", app.handle)
        try:
            app.engine.search = spans.wrap("query.search", app.engine.search)
            start = time.perf_counter()
            for request in requests:
                handle("POST", "/v1/search", {}, request.body)
            traced = time.perf_counter() - start
            n_search = len(spans.durations("serve.handle"))
            # Browse replay: same sequence as served, default cache size.
            app = fresh_app(ServeConfig.cache_size)
            handle_browse = spans.wrap("serve.handle.browse", app.handle)
            ordered = sorted(
                self.browse_run.outcomes + self.browse_run.reloads, key=lambda o: o.sent
            )
            for outcome in ordered:
                request = outcome.request
                path, _, query = request.path.partition("?")
                params = dict(p.split("=", 1) for p in query.split("&") if p)
                handle_browse(request.method, path, params, request.body)
        finally:
            for name, fn in patched.items():
                setattr(app_module, name, fn)
        handle_ms = [ms(d) for d in spans.durations("serve.handle")]
        search_ms = [ms(d) for d in spans.durations("query.search")]
        self.set_layer("serve.handle_ms.p50", percentile(handle_ms, 50), "ms")
        self.set_layer("serve.handle_ms.p99", tail_percentile(handle_ms).value, "ms")
        self.set_layer("query.search_ms.p50", percentile(search_ms, 50), "ms")
        self.set_layer("query.search_ms.p99", tail_percentile(search_ms).value, "ms")
        serialize = [ms(d) for d in spans.durations("serve.serialize")]
        self.set_layer("serve.serialize_ms", percentile(serialize, 50), "ms")
        self.set_layer(
            "serve.handle_self_ms",
            ms(spans.self_times()["serve.handle"]) / max(1, n_search),
            "ms",
        )
        self.set_layer("pedigree.extract_ms", ms(statistics.median(spans.durations("pedigree.extract"))), "ms")
        self.set_layer("pedigree.render_ms", ms(statistics.median(spans.durations("pedigree.render"))), "ms")
        self.set_layer("trace.online_overhead_ms", ms(traced - untraced) / max(1, n_search), "ms")

    def served_layers(self) -> None:
        """Per-layer figures read from the live server and the client."""
        s0, s1 = self.metricz_search_before, self.metricz_search
        b0, b1 = self.metricz_browse_before, self.metricz_browse
        rtt = [o.rtt for o in self.search_outcomes]
        server_p50 = s1["histograms"]["serve.search.latency_seconds"]["p50"]
        self.set_layer("serve.http_overhead_ms", ms(percentile(rtt, 50) - server_p50), "ms")
        searches = counter_delta(s0, s1, "query.searches")
        candidates = counter_delta(s0, s1, "query.candidates")
        self.set_layer("query.candidates_per_search", candidates / max(1, searches), "count")
        self.set_layer(
            "query.hits_per_candidate", counter_delta(s0, s1, "query.hits") / max(1, candidates), "ratio"
        )
        rejected = sum(
            counter_delta(s0, b1, f"serve.admission.{kind}")
            for kind in ("rejected_queue_full", "rejected_timeout", "rejected_deadline")
        )
        self.set_layer("serve.admission.rejected", rejected, "count")
        for label, (m0, m1) in (("search", (s0, s1)), ("browse", (b0, b1))):
            hits = counter_delta(m0, m1, "serve.cache.hits")
            misses = counter_delta(m0, m1, "serve.cache.misses")
            self.set_layer(f"serve.cache.hit_ratio.{label}", hits / max(1, hits + misses), "ratio")
        self.set_layer("serve.coalesce.shared", counter_delta(s0, b1, "serve.coalesce.followers"), "count")
        self.set_layer("serve.pss_after_reload_mb", self.pss_after_reload_mb, "MB")
        windows = [
            o.latency
            for o in self.browse_run.outcomes
            if any(r.sent <= o.due <= r.done for r in self.browse_run.reloads)
        ]
        self.set_layer(
            "serve.reload_window_p99_ms", ms(tail_percentile(windows).value) if windows else 0.0, "ms"
        )
        everything = self.search_outcomes + self.browse_run.outcomes + self.browse_run.reloads
        lateness = tail_percentile([o.lateness for o in everything])
        self.set_layer("loadgen.lateness_ms", ms(lateness.value), "ms")
        if lateness.value > 0.005:
            log(f"[loadgen] WARNING: generator ran late ({lateness.label()} = "
                f"{ms(lateness.value):.1f} ms); serving figures of this run are suspect")

    # -- whole run -------------------------------------------------------

    def execute(self) -> dict:
        self.offline()
        self.serving()
        self.check_serving()
        log("[end-to-end]")
        for name, unit in {**E2E_UNITS, **DEMOTED_UNITS}.items():
            note = "  (reported with the per-layer metrics)" if name in DEMOTED_UNITS else ""
            log(f"  {name:<40} {self.e2e[name]:>14.4f} {unit}{note}")
        if self.args.trace:
            self.traced()
            for name, unit in DEMOTED_UNITS.items():
                self.set_layer(name, self.e2e[name], unit)
            metrics = {name: {"value": v, "unit": u} for name, (v, u) in self.layer.items()}
            log("[per-layer]")
            for name, metric in metrics.items():
                log(f"  {name:<40} {metric['value']:>14.4f} {metric['unit']}")
        else:
            metrics = {name: {"value": self.e2e[name], "unit": unit} for name, unit in E2E_UNITS.items()}
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        log(f"[bench] benchmark process peak RSS {peak_kb / 1024:.0f} MB")
        return {
            "correct": True,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }

    def close(self) -> None:
        if self.server is not None:
            stop_server(self.server.proc)
            self.server = None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(CORPORA))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # A terminated run still stops its servers and commands (finally blocks).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from a checkout root (no src/repro here)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    workdir = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    (workdir / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(workdir / "tmp")
    run = Run(args, root, workdir)
    try:
        result = run.execute()
    except CheckFailed as failure:
        print(f"check failed: {failure}", file=sys.stderr)
        result = {"correct": False, "attempted": max(1, run.attempted),
                  "failed": max(1, run.failed), "metrics": {}}
        print(json.dumps(result))
        return 1
    finally:
        run.close()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
