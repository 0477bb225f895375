"""Parallel graph construction and shared-similarity precompute.

The parallel path does not change *what* the resolver computes — it
changes *when* and *where*.  Candidate pairs are filtered and scored in
deterministic chunks (optionally across a process pool), then merged in
canonical pair order into exactly the dependency graph
``build_dependency_graph`` would produce, plus three seed tables:

* the deduped comparator outputs for every ``(attribute, value_a,
  value_b)`` the pairs imply — seeded into ``PairScorer._sim_cache`` so
  bootstrap and iterative merging never recompute a comparator;
* each node's initial ``s_a``/``s_d`` — seeded into the scorer's
  node-score cache (``s_a`` invalidated if PROP-A later re-points the
  node's atomic evidence);
* each pair's singleton-state constraint verdict — seeded into
  :class:`~repro.core.constraints.ConstraintChecker` so merge-time
  validation of still-singleton endpoints is a dict lookup.

Because the bootstrap/merge loops themselves run unchanged, in the same
order, on identical numbers, entity ids and checkpoint states stay
byte-identical to a serial run regardless of worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.blocking.base import block_key_pairs
from repro.blocking.candidates import CandidatePair
from repro.core.config import SnapsConfig
from repro.core.dependency_graph import (
    AtomicNode,
    DependencyGraph,
    RelationalNode,
    _group_edges,
)
from repro.data.records import Dataset
from repro.data.roles import Role
from repro.obs.metrics import MetricsRegistry, merge_counts
from repro.obs.trace import Trace
from repro.parallel.config import ParallelConfig
from repro.parallel.pool import make_tasks
from repro.parallel.worker import filter_pairs_chunk, score_pairs_chunk
from repro.supervise import run_tasks

__all__ = [
    "ParallelSeeds",
    "build_payload",
    "parallel_candidate_pairs",
    "parallel_graph_and_seeds",
]


@dataclass
class ParallelSeeds:
    """Precomputed tables the resolver seeds its scorer/checker with."""

    sim_table: dict[tuple[str, str, str], float] = field(default_factory=dict)
    node_scores: dict[tuple[int, int], list] = field(default_factory=dict)
    pair_validity: dict[tuple[int, int], int] = field(default_factory=dict)


def build_payload(dataset: Dataset, config: SnapsConfig) -> dict:
    """The per-run worker payload plus its defensive fingerprint."""
    # Imported lazily: repro.store pulls in the resolver at import time.
    from repro.store.manifest import config_fingerprint

    fingerprint = f"{config_fingerprint(config)}:{dataset.name}:{len(dataset)}"
    return {"dataset": dataset, "config": config, "fingerprint": fingerprint}


def parallel_candidate_pairs(
    dataset: Dataset,
    blocker,
    config: SnapsConfig,
    workers: int,
    parallel: ParallelConfig,
    roles: list[Role] | None = None,
    trace: Trace | None = None,
    metrics: MetricsRegistry | None = None,
) -> list[CandidatePair]:
    """Blocking with vectorised signatures and chunked pair filtering.

    Emits the same pairs, in the same order, with the same metric
    totals, as :func:`repro.blocking.candidates.generate_candidate_pairs`
    over the same blocker stack.
    """
    if roles is None:
        records = list(dataset)
    else:
        records = dataset.records_with_role(roles)
    prepare = getattr(blocker, "prepare", None)
    if prepare is not None:
        prepare(records)
    raw_pairs = list(block_key_pairs(records, blocker, metrics=metrics))
    payload = build_payload(dataset, config)
    tasks = make_tasks(raw_pairs, workers, payload["fingerprint"], parallel)
    results = run_tasks(
        filter_pairs_chunk,
        tasks,
        label="filter",
        workers=workers,
        trace=trace,
        metrics=metrics,
        supervise=parallel.supervise,
        payload=payload,
    )
    pairs: list[CandidatePair] = []
    rejected: dict[str, int] = {}
    for result in results:
        pairs.extend(CandidatePair(a, b) for a, b in result["kept"])
        for name, count in result["rejected"].items():
            rejected[name] = rejected.get(name, 0) + count
    merge_counts(metrics, rejected, prefix="blocking.rejected_")
    if metrics is not None:
        metrics.inc("blocking.candidate_pairs", len(pairs))
        total = len(records) * (len(records) - 1) // 2
        if total:
            metrics.set_gauge(
                "blocking.reduction_ratio", 1.0 - len(pairs) / total
            )
    return pairs


def parallel_graph_and_seeds(
    dataset: Dataset,
    candidate_pairs: list[CandidatePair],
    config: SnapsConfig,
    workers: int,
    parallel: ParallelConfig,
    trace: Trace | None = None,
    metrics: MetricsRegistry | None = None,
) -> tuple[DependencyGraph, ParallelSeeds]:
    """Chunk-scored G_D construction plus scorer/checker seed tables.

    The returned graph is structurally identical to
    :func:`build_dependency_graph` on the same inputs: chunk results are
    merged in chunk order (chunks partition the pair list contiguously),
    so nodes, groups, and edges appear in the serial insertion order.
    """
    payload = build_payload(dataset, config)
    pair_keys = [(pair.rid_a, pair.rid_b) for pair in candidate_pairs]
    tasks = make_tasks(pair_keys, workers, payload["fingerprint"], parallel)
    results = run_tasks(
        score_pairs_chunk,
        tasks,
        label="score",
        workers=workers,
        trace=trace,
        metrics=metrics,
        supervise=parallel.supervise,
        payload=payload,
    )
    attributes = config.schema.names()
    graph = DependencyGraph(dataset)
    seeds = ParallelSeeds()
    # Intern atomic nodes: the same (attribute, value, value) triple is
    # shared by many record pairs, and AtomicNode is frozen — sharing
    # one instance is observationally identical to fresh allocations.
    atomic_pool: dict[tuple[int, str, str], AtomicNode] = {}
    for result in results:
        for spec, s_a, s_d, level in zip(
            result["specs"], result["s_a"], result["s_d"], result["valid"]
        ):
            rid_a, rid_b, group_lo, group_hi, atoms = spec
            node = RelationalNode(
                rid_a=rid_a, rid_b=rid_b, group=(group_lo, group_hi)
            )
            for j, value_a, value_b, similarity in atoms:
                pool_key = (j, value_a, value_b)
                atomic = atomic_pool.get(pool_key)
                if atomic is None:
                    atomic = AtomicNode(
                        attributes[j], value_a, value_b, similarity
                    )
                    atomic_pool[pool_key] = atomic
                node.atomic[attributes[j]] = atomic
            graph.add_node(node)
            key = (rid_a, rid_b)
            seeds.node_scores[key] = [s_a, s_d]
            seeds.pair_validity[key] = level
        for (j, lo, hi), similarity in result["sims"].items():
            seeds.sim_table[(attributes[j], lo, hi)] = similarity
    for group in graph.groups.values():
        _group_edges(graph, group)
    return graph, seeds
