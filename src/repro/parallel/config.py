"""Parallel execution configuration.

``ParallelConfig`` is deliberately *not* part of
:class:`~repro.core.config.SnapsConfig`: worker count is an execution
detail with no influence on output (the parallel path is byte-identical
to serial), so it must not enter config fingerprints — a run
checkpointed under ``--workers 4`` resumes cleanly under ``--workers 1``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.supervise.config import SuperviseConfig, available_cpus

__all__ = ["ParallelConfig", "available_cpus"]


@dataclass(frozen=True)
class ParallelConfig:
    """How the offline phases fan out.

    ``workers``:

    * ``None`` (default, ``auto``) — pick a worker count from the
      machine, but stay serial for datasets below ``min_records``
      (process fan-out costs more than it saves on tiny inputs);
    * ``0`` — force the serial reference path;
    * ``1`` — run the parallel pipeline in-process (vectorised MinHash,
      batch scoring, seeded caches) without spawning workers;
    * ``N >= 2`` — additionally score chunks in up to ``N`` pool
      processes.  The pool never exceeds :func:`available_cpus` (or the
      chunk count) — more CPU-bound processes than cores only add
      scheduling and IPC overhead — so on a small machine a large ``N``
      degrades gracefully to the in-process pipeline.  ``SNAPS_CPUS=<n>``
      makes the box look like ``n`` CPUs (tests use it to exercise the
      real pool, or the in-process path, everywhere).  Either way every
      chunk runs through the same supervised attempt loop
      (:func:`repro.supervise.run_tasks`).

    Chunk boundaries depend on the *requested* worker count, never on
    the machine, and chunk results merge in submission order — output is
    identical whatever runs where.

    ``supervise`` carries the worker-supervision knobs (deadlines, retry
    budget, quarantine) down to every pool; like the rest of this config
    it is an execution detail that never enters fingerprints.  ``None``
    means "read ``SNAPS_TASK_*`` from the environment at pool time".
    """

    workers: int | None = None
    min_records: int = 1000
    max_auto_workers: int = 8
    chunks_per_worker: int = 4
    min_chunk_size: int = 512
    supervise: SuperviseConfig | None = None

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 0:
            raise ValueError(f"workers cannot be negative, got {self.workers}")

    def effective_workers(self, n_records: int) -> int:
        """Worker count for a dataset of ``n_records`` (0 = serial)."""
        if self.workers is not None:
            return self.workers
        if n_records < self.min_records:
            return 0
        return max(1, min(available_cpus(), self.max_auto_workers))
