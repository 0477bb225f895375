"""Offline phase: ``repro resolve --snapshot-out`` then ``repro snapshot ingest``.

The untraced half runs the CLI as a user would and measures wall time,
CPU time (children included) and peak RSS of each command.  The traced
half repeats, in this process, the calls ``SnapsResolver.resolve`` makes
on the default ``--workers`` auto path, through each layer's public
function, with a span around every call; it must reach the same
snapshot ids as the CLI.
"""

from __future__ import annotations

import os
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

from tracing import Spans

ROLE_PAIRS = ("Bp-Bp", "Bp-Dp")


@dataclass
class CliRun:
    argv: list[str]
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    returncode: int
    stdout: str
    stderr: str


def run_cli(argv: list[str], env: dict, workdir: Path, timeout_s: float = 150.0) -> CliRun:
    """Run one command to completion; CPU and peak RSS include its children."""
    out_path, err_path = workdir / "cli.out", workdir / "cli.err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=workdir)
    pid = 0
    try:
        while not pid:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if not pid:
                if time.perf_counter() - start > timeout_s:
                    proc.kill()
                time.sleep(0.01)
        wall = time.perf_counter() - start
    finally:
        if not pid:  # interrupted: never leave the command running
            proc.kill()
            os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CliRun(
        argv=argv,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        returncode=proc.returncode,
        stdout=out_path.read_text(),
        stderr=err_path.read_text(),
    )


def predicted_pairs(corpus, clusters: list[dict], role_pair: str) -> set[tuple[int, int]]:
    """Within-cluster record pairs with one role on each side of ``role_pair``."""
    from repro.data.roles import PARENT_ROLE_GROUPS

    left_name, right_name = role_pair.split("-")
    left, right = PARENT_ROLE_GROUPS[left_name], PARENT_ROLE_GROUPS[right_name]
    pairs = set()
    for cluster in clusters:
        records = sorted(cluster["records"])
        for i, a in enumerate(records):
            role_a = corpus.records[a].role
            for b in records[i + 1:]:
                role_b = corpus.records[b].role
                if (role_a in left and role_b in right) or (
                    role_a in right and role_b in left
                ):
                    pairs.add((a, b))
    return pairs


def f_star_percent(predicted: set, truth: set) -> float:
    """Paper Table 4's F* = TP / (TP + FP + FN), as a percentage."""
    tp = len(predicted & truth)
    denominator = len(predicted | truth)
    return 100.0 * tp / denominator if denominator else 100.0


def linkage_quality(corpus, store_dir: Path, snapshot_id: str) -> dict[str, float]:
    """F* per role pair of a snapshot's clusters against ground truth."""
    from repro.store import SnapshotStore

    loaded = SnapshotStore(store_dir).load(snapshot_id, artifacts=("clusters",))
    return {
        role_pair: f_star_percent(
            predicted_pairs(corpus, loaded.clusters, role_pair),
            corpus.true_match_pairs(role_pair),
        )
        for role_pair in ROLE_PAIRS
    }


def pair_completeness(corpus, pairs) -> float:
    """Share of true matches (the F* role pairs) that blocking kept."""
    truth = set().union(*(corpus.true_match_pairs(rp) for rp in ROLE_PAIRS))
    kept = {(min(p.rid_a, p.rid_b), max(p.rid_a, p.rid_b)) for p in pairs}
    return len(truth & kept) / len(truth)


def traced_offline(
    corpus,
    base_stem: Path,
    delta_stem: Path,
    store_dir: Path,
    spans: Spans,
    count: bool = True,
) -> dict:
    """The CLI's resolve + snapshot save + ingest, one public call per span.

    With ``count`` the layers also get a metrics registry for their work
    counters.  Returns the per-layer figures plus the two snapshot ids.
    """
    from repro.core import SnapsConfig, SnapsResolver
    from repro.core.bootstrap import bootstrap_merge
    from repro.core.constraints import ConstraintChecker
    from repro.core.dependency_graph import build_dependency_graph
    from repro.core.entities import EntityStore
    from repro.core.merging import iterative_merge
    from repro.core.refinement import RefinementStats, refine_clusters
    from repro.core.resolver import LinkageResult
    from repro.core.scoring import NameFrequencyIndex, PairScorer
    from repro.data.loader import load_dataset_csv
    from repro.index.keyword import KeywordIndex
    from repro.index.simindex import SimilarityAwareIndex
    from repro.obs.metrics import MetricsRegistry
    from repro.parallel import ParallelConfig, parallel_graph_and_seeds
    from repro.pedigree import build_pedigree_graph
    from repro.store import IncrementalResolver, SnapshotStore
    from repro.store.snapshot import SIM_ATTRIBUTES

    metrics = MetricsRegistry() if count else None
    config = SnapsConfig()
    parallel = ParallelConfig(workers=None)
    resolver = SnapsResolver(config)
    with spans.span("offline"):
        with spans.span("data.load"):
            dataset = load_dataset_csv(base_stem)
        with spans.span("blocking"):
            pairs = resolver.block(dataset, metrics=metrics, parallel=parallel)
        workers = parallel.effective_workers(len(dataset))
        with spans.span("core.dependency_graph"):
            if workers >= 1:
                graph, seeds = parallel_graph_and_seeds(
                    dataset, pairs, config, workers, parallel, metrics=metrics
                )
            else:
                graph = build_dependency_graph(dataset, pairs, config, resolver.registry)
                seeds = None
        store = EntityStore(dataset)
        scorer = PairScorer(dataset, config, resolver.registry, NameFrequencyIndex(dataset))
        checker = ConstraintChecker(
            temporal_slack_years=config.temporal_slack_years,
            propagate=config.use_propagation,
            metrics=metrics,
        )
        if seeds is not None:
            scorer.seed_caches(seeds.sim_table, seeds.node_scores)
            checker.seed_pair_validity(seeds.pair_validity)
        refinement = RefinementStats()

        def refine() -> None:
            if config.use_refinement:
                with spans.span("core.refinement"):
                    stats = refine_clusters(store, config)
                refinement.records_removed += stats.records_removed
                refinement.bridges_cut += stats.bridges_cut
                refinement.clusters_examined += stats.clusters_examined

        with spans.span("core.bootstrap"):
            bootstrap_merges = bootstrap_merge(graph, store, scorer, checker, config, metrics)
        refine()
        with spans.span("core.merging"):
            iterative_merges = iterative_merge(graph, store, scorer, checker, config, metrics)
        refine()
        result = LinkageResult(
            dataset=dataset,
            entities=store,
            graph=graph,
            bootstrap_merges=bootstrap_merges,
            iterative_merges=iterative_merges,
            refinement=refinement,
        )
        with spans.span("pedigree.build"):
            pedigree_graph = build_pedigree_graph(dataset, store)
        with spans.span("index.build"):
            keyword_index = KeywordIndex(pedigree_graph)
            sim_index = {
                attribute: SimilarityAwareIndex(keyword_index.values(attribute), threshold=0.5)
                for attribute in SIM_ATTRIBUTES
            }
        snapshots = SnapshotStore(store_dir)
        with spans.span("store.save"):
            base_manifest = snapshots.save(
                result,
                graph=pedigree_graph,
                keyword_index=keyword_index,
                sim_index=sim_index,
                config=config,
            )
        delta = load_dataset_csv(delta_stem)
        with spans.span("store.incremental"):
            ingest = IncrementalResolver(snapshots).ingest(delta)
    counters = metrics.as_dict()["counters"] if count else {}
    merged = counters.get("merging.groups_merged", 0)
    rejected = counters.get("merging.groups_rejected", 0)
    snapshot_dir = snapshots.path_of(base_manifest.snapshot_id)
    return {
        "base_id": base_manifest.snapshot_id,
        "child_id": ingest.manifest.snapshot_id,
        "blocking.candidate_pairs": len(pairs),
        "blocking.pair_completeness": pair_completeness(corpus, pairs),
        "core.dependency_graph.relational_nodes": graph.n_relational,
        "core.bootstrap.merges": bootstrap_merges,
        "core.merging.merges": iterative_merges,
        "core.merging.rejected_ratio": rejected / max(1, merged + rejected),
        "index.simindex_pairs": sum(i.n_precomputed_pairs() for i in sim_index.values()),
        "store.snapshot_bytes": sum(
            p.stat().st_size for p in snapshot_dir.rglob("*") if p.is_file()
        ),
        "store.incremental.dirty_fraction": ingest.stats["dirty_pairs"]
        / max(1, ingest.stats["candidate_pairs"]),
    }
