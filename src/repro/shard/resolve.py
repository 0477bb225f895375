"""Sharded resolution orchestrator: block → partition → fan out → merge.

``resolve_sharded`` produces output byte-identical to
``SnapsResolver.resolve`` run serially, for any shard count:

* **Blocking runs once, globally** — shard workers never block, so the
  candidate pair list (and its order) is exactly the serial one.  When a
  PR-4 checkpointer is supplied, a completed blocking phase is restored
  from it; shard count is an execution detail outside the config
  fingerprint, so checkpoints resume across shard counts.
* **Components stay whole** — the partitioner assigns closure components
  atomically, and each shard's pair list is an order-preserving
  subsequence of the global list.  Bootstrap group order and the
  iterative-merge priority sort both restrict cleanly to a shard, and
  scoring/constraints consult only endpoint entities plus the shipped
  global frequency index — so each shard reproduces precisely the
  merges serial resolution performs inside its components.
* **The merge is a replay** — per-shard cluster links are replayed into
  a fresh store over the full dataset in shard order; link sets are
  canonical, so the final clustering (and everything serialized from it)
  is a pure function of the per-shard outputs.
* **Boundary pairs run last, in-parent** — components a reused plan
  splits across shards are pulled out whole and resolved against the
  merged store, where their records are still singletons.  Every pair is
  resolved exactly once: in its shard xor in the boundary pass.

|N_A| accounting is the union of per-shard atomic-key sets (atomic nodes
deduplicate globally by (attribute, value, value) key) plus the boundary
pass's registry; |N_R| is the global pair count.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import SnapsConfig
from repro.core.entities import EntityStore
from repro.core.refinement import RefinementStats
from repro.core.resolver import LinkageResult, SnapsResolver
from repro.core.scoring import NameFrequencyIndex
from repro.data.records import Dataset
from repro.obs.logs import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Trace
from repro.shard.boundary import split_pairs
from repro.shard.partition import ShardPlan, build_shard_plan
from repro.shard.worker import make_shard_task, resolve_shard_task
from repro.store.manifest import config_fingerprint, config_to_dict
from repro.supervise import run_tasks
from repro.utils.timer import Stopwatch

__all__ = ["ShardedResolution", "resolve_sharded"]

logger = get_logger("shard.resolve")


@dataclass
class _GraphStats:
    """Stand-in for the dependency graph in a sharded LinkageResult.

    The global graph is never materialised (that is the point); only its
    cardinalities survive the fan-out, and they are all downstream
    consumers (summaries, snapshot payloads) ever read.
    """

    n_atomic: int
    n_relational: int


@dataclass
class ShardedResolution:
    """Outcome of one sharded resolve."""

    result: LinkageResult
    plan: ShardPlan
    pairs: list
    shard_stats: list[dict]
    n_boundary_pairs: int


def resolve_sharded(
    dataset: Dataset,
    config: SnapsConfig | None = None,
    *,
    n_shards: int,
    workers: int | None = None,
    trace: Trace | None = None,
    metrics: MetricsRegistry | None = None,
    checkpoint=None,
    parallel=None,
    plan: ShardPlan | None = None,
) -> ShardedResolution:
    """Resolve ``dataset`` across ``n_shards`` isolated shard processes.

    ``workers`` caps the shard pool (default: one process per shard);
    :func:`~repro.supervise.run_tasks` further caps it at the CPU count
    and runs the shards in-process when fewer than two would remain.  ``parallel`` only accelerates the global blocking
    phase; shard resolution itself is serial within each worker.
    ``plan`` substitutes a precomputed partition (incremental ingest
    reuses a parent snapshot's); components the plan no longer keeps
    whole are routed to the boundary pass automatically.
    """
    config = config if config is not None else SnapsConfig()
    trace = trace if trace is not None else Trace.disabled()
    resolver = SnapsResolver(config)
    timings = Stopwatch()
    with trace.span("resolve_sharded"):
        completed = checkpoint.completed_prefix() if checkpoint is not None else ()
        if "blocking" in completed:
            pairs = checkpoint.load_pairs()
            logger.info("blocking restored from checkpoint (%d pairs)", len(pairs))
        else:
            with trace.span("blocking"), timings.phase("blocking"):
                pairs = resolver.block(
                    dataset, metrics=metrics, parallel=parallel, trace=trace
                )
            if checkpoint is not None:
                checkpoint.save_pairs(pairs)
                checkpoint.check_stop("blocking")
        with trace.span("partition"), timings.phase("partition"):
            if plan is None:
                plan = build_shard_plan(dataset, pairs, n_shards)
            shard_pairs, boundary = split_pairs(dataset, pairs, plan)
        logger.info(
            "partitioned %d pairs into %d shards (%d boundary), plan %s",
            len(pairs),
            plan.n_shards,
            len(boundary),
            plan.fingerprint,
        )
        frequency_index = NameFrequencyIndex(dataset)
        frequencies = frequency_index.counts()
        config_blob = config_to_dict(config)
        fingerprint = config_fingerprint(config)
        tasks = []
        for shard, pair_list in enumerate(shard_pairs):
            if not pair_list:
                continue
            # Ownership comes from the routed pairs, not the plan: a
            # reused plan may route never-seen records into a shard
            # alongside their component.
            owned = {pair.rid_a for pair in pair_list}
            owned.update(pair.rid_b for pair in pair_list)
            tasks.append(
                make_shard_task(
                    shard,
                    dataset,
                    owned,
                    pair_list,
                    config_blob,
                    fingerprint,
                    frequencies,
                )
            )
        with timings.phase("shard_resolve"):
            results = run_tasks(
                resolve_shard_task,
                tasks,
                label="shard",
                workers=workers if workers is not None else plan.n_shards,
                trace=trace,
                metrics=metrics,
                supervise=parallel.supervise if parallel is not None else None,
            )
        with trace.span("merge"), timings.phase("merge"):
            store = EntityStore(dataset)
            atomic_keys: set = set()
            bootstrap_merges = 0
            iterative_merges = 0
            refinement = RefinementStats()
            shard_stats: list[dict] = []
            for result in results:
                for cluster in result["clusters"]:
                    for rid_a, rid_b in cluster["links"]:
                        store.merge(rid_a, rid_b)
                atomic_keys.update(tuple(key) for key in result["atomic_keys"])
                bootstrap_merges += result["bootstrap_merges"]
                iterative_merges += result["iterative_merges"]
                refinement.records_removed += result["refinement"]["records_removed"]
                refinement.bridges_cut += result["refinement"]["bridges_cut"]
                refinement.clusters_examined += result["refinement"][
                    "clusters_examined"
                ]
                shard_stats.append(
                    {
                        "shard": result["shard"],
                        **result["stats"],
                        "elapsed": round(result["elapsed"], 4),
                    }
                )
        if boundary:
            with trace.span("boundary"), timings.phase("boundary"):
                boundary_result = resolver.resolve(
                    dataset,
                    trace=trace,
                    metrics=metrics,
                    pairs=boundary,
                    store=store,
                    frequency_index=frequency_index,
                )
            store = boundary_result.entities
            atomic_keys |= boundary_result.graph._atomic_registry
            bootstrap_merges += boundary_result.bootstrap_merges
            iterative_merges += boundary_result.iterative_merges
    if metrics is not None:
        metrics.inc("shard.resolves")
        metrics.inc("shard.boundary_pairs", len(boundary))
        metrics.set_gauge("shard.n_shards", plan.n_shards)
    linkage = LinkageResult(
        dataset=dataset,
        entities=store,
        graph=_GraphStats(len(atomic_keys), len(pairs)),  # type: ignore[arg-type]
        timings=timings,
        bootstrap_merges=bootstrap_merges,
        iterative_merges=iterative_merges,
        refinement=refinement,
        metrics=metrics,
        trace=trace if trace.enabled else None,
    )
    return ShardedResolution(
        result=linkage,
        plan=plan,
        pairs=pairs,
        shard_stats=shard_stats,
        n_boundary_pairs=len(boundary),
    )
