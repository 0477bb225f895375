"""Parallel, vectorised execution substrate for offline resolution.

Three independently useful accelerations, composed by the resolver when
a :class:`ParallelConfig` asks for workers:

1. **Vectorised MinHash** — all blocking signatures in one numpy pass
   (:meth:`repro.blocking.minhash.MinHasher.signature_matrix`), rows
   bit-identical to the scalar path;
2. **Shared similarity precompute** — distinct ``(attribute, value_a,
   value_b)`` comparator calls deduped across all candidate pairs and
   seeded into every scorer cache;
3. **Process-pool pair scoring** — candidate pairs filtered and scored
   in deterministic chunks through :func:`repro.supervise.run_tasks`
   (in-process or across a fork pool), merged in canonical order.

The substrate's contract is byte-identity: for any worker count the
resolver's entity clusters, pedigree graph, and checkpoint states equal
the serial run's exactly.  Speed comes from removing redundant Python
work, never from reordering decisions.
"""

from repro.parallel.config import ParallelConfig, available_cpus
from repro.parallel.pool import make_tasks
from repro.parallel.precompute import (
    ParallelSeeds,
    build_payload,
    parallel_candidate_pairs,
    parallel_graph_and_seeds,
)

__all__ = [
    "ParallelConfig",
    "ParallelSeeds",
    "available_cpus",
    "build_payload",
    "make_tasks",
    "parallel_candidate_pairs",
    "parallel_graph_and_seeds",
]
