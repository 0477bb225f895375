"""Deterministic chunking of pair lists into worker tasks.

Chunks are executed by :func:`repro.supervise.run_tasks`, which returns
results **in submission order** — the merge step's determinism comes
from there, not from any property of the pool.  Whether the chunks run
in-process or in a fork pool (``min(workers, available_cpus(), chunks)
>= 2``), every chunk goes through the same supervised attempt loop:
retries, quarantine, and chaos sites behave identically.  The shared
payload (dataset + config) is installed before the pool forks, so
children inherit it without pickling the dataset; recovery never
changes output because chunks are pure functions of their inputs.
"""

from __future__ import annotations

from repro.parallel.config import ParallelConfig

__all__ = ["make_tasks"]


def make_tasks(
    items: list,
    workers: int,
    fingerprint: str,
    parallel: ParallelConfig,
) -> list[dict]:
    """Split ``items`` into contiguous, deterministic chunk tasks.

    Chunk boundaries depend only on the item count and the runner shape;
    results are merged back in chunk order, so chunking never influences
    output — only load balance.
    """
    if not items:
        return []
    target = max(1, workers * parallel.chunks_per_worker)
    size = max(parallel.min_chunk_size, -(-len(items) // target))
    return [
        {
            "chunk": index,
            "fingerprint": fingerprint,
            "pairs": items[offset : offset + size],
        }
        for index, offset in enumerate(range(0, len(items), size))
    ]
