"""Sharded offline resolution: partition → isolated resolve → merge.

The candidate graph is the resolver's only cross-record coupling: merges
happen exclusively along candidate pairs, and pair scoring consults only
the two endpoint entities plus a global name-frequency index.  Records
therefore split into independent *closure components* (connected
components of the candidate graph, closed over certificate-pair groups),
and each component can be resolved in a separate process with zero
shared state.  This package turns that observation into a subsystem:

* :mod:`repro.shard.partition` — deterministic closure components and a
  size-balancing packer producing a :class:`~repro.shard.partition.ShardPlan`;
* :mod:`repro.shard.boundary` — splits the global pair list into
  per-shard lists plus the cross-shard *boundary* set (components a plan
  does not keep whole), such that every pair is resolved exactly once;
* :mod:`repro.shard.worker` — the per-shard process entry point: builds
  a shard-local dataset, resolves it serially, ships clusters home;
* :mod:`repro.shard.resolve` — the orchestrator: global blocking, plan,
  fan-out through :func:`repro.supervise.run_tasks` (submission-ordered,
  one span tree across shards), deterministic merge, boundary pass.  Output is byte-identical
  to the serial resolver for any shard count.
"""

from repro.shard.boundary import split_pairs
from repro.shard.partition import ShardPlan, build_shard_plan, closure_components
from repro.shard.resolve import ShardedResolution, resolve_sharded

__all__ = [
    "ShardPlan",
    "ShardedResolution",
    "build_shard_plan",
    "closure_components",
    "resolve_sharded",
    "split_pairs",
]
