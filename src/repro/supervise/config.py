"""Supervision knobs shared by every multiprocess execution path.

The config is frozen so it can ride inside :class:`repro.parallel.config.
ParallelConfig` (itself frozen and hashable).  Like ``ParallelConfig``,
supervision settings are an *execution* detail: they never enter config
fingerprints, so the same dataset resolved with different timeouts or
retry budgets still lands on the same content-addressed snapshot.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

__all__ = ["SuperviseConfig", "available_cpus"]

ENV_TIMEOUT = "SNAPS_TASK_TIMEOUT"
ENV_RETRIES = "SNAPS_TASK_RETRIES"
ENV_QUARANTINE = "SNAPS_QUARANTINE_DIR"
ENV_CPUS = "SNAPS_CPUS"


def available_cpus() -> int:
    """CPUs this process may schedule on (affinity-aware).

    ``SNAPS_CPUS=<n>`` overrides the probe ("pretend the box has ``n``
    CPUs"): tests and smokes set it to run the same suite in-process
    (``1``) and on a real pool (``>= 2``) on any machine.
    """
    override = os.environ.get(ENV_CPUS, "").strip()
    if override:
        return max(1, int(override))
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@dataclass(frozen=True)
class SuperviseConfig:
    """How the supervisor watches, retries, and quarantines worker tasks.

    ``task_timeout_s``
        Hard per-task deadline measured from the worker-side start of
        the attempt (heartbeat ``started`` stamp).  ``None`` disables
        hang detection; crash recovery and retries still apply.

    ``max_task_retries``
        Re-execution budget *per task* beyond the first attempt.  A task
        still failing after ``1 + max_task_retries`` charged attempts is
        quarantined.

    ``quarantine_dir``
        Where poison-task artifacts (``tasks.jsonl``) land.  ``None``
        defaults to ``<tmp>/snaps-quarantine`` at write time.

    ``on_quarantine``
        ``"abort"`` (default) raises ``TaskQuarantinedError`` naming the
        shard/chunk and the artifact; ``"skip"`` records the artifact
        and yields ``None`` for that task so callers that can degrade
        (a future serving tier) keep going.  The resolve paths force
        ``"abort"`` — a silently missing chunk would break the
        byte-identical-output guarantee.

    ``heartbeat_interval_s`` / ``poll_interval_s``
        Worker heartbeat touch cadence and supervisor wait granularity.
    """

    task_timeout_s: float | None = None
    max_task_retries: int = 2
    quarantine_dir: str | None = None
    on_quarantine: str = "abort"
    heartbeat_interval_s: float = 0.2
    poll_interval_s: float = 0.05

    def __post_init__(self) -> None:
        if self.on_quarantine not in ("abort", "skip"):
            raise ValueError(
                f"on_quarantine must be 'abort' or 'skip', "
                f"got {self.on_quarantine!r}"
            )
        if self.max_task_retries < 0:
            raise ValueError("max_task_retries must be >= 0")

    @property
    def attempt_budget(self) -> int:
        """Total attempts a task may consume before quarantine."""
        return 1 + self.max_task_retries

    @classmethod
    def from_env(cls, environ: dict | None = None) -> "SuperviseConfig":
        """Defaults overlaid with ``SNAPS_TASK_*``/``SNAPS_QUARANTINE_DIR``."""
        env = os.environ if environ is None else environ
        config = cls()
        timeout = env.get(ENV_TIMEOUT, "").strip()
        if timeout:
            config = replace(config, task_timeout_s=float(timeout) or None)
        retries = env.get(ENV_RETRIES, "").strip()
        if retries:
            config = replace(config, max_task_retries=int(retries))
        quarantine = env.get(ENV_QUARANTINE, "").strip()
        if quarantine:
            config = replace(config, quarantine_dir=quarantine)
        return config
