"""Supervised task execution shared by every fan-out path.

Chunk scoring (``repro.parallel``) and shard resolution
(``repro.shard``) run pure tasks through one entry point,
:func:`run_tasks`.  It gives them one attempt loop with the same retry
and quarantine semantics in-process and pooled, plus, on a pool,
liveness (heartbeats + per-task deadlines) and crash recovery (pool
rebuild + resubmit of incomplete tasks, byte-identical output).
Poison tasks are quarantined with durable JSONL evidence.
``SNAPS_CPUS=<n>`` (read by :func:`available_cpus`) pretends the box
has ``n`` CPUs, which decides whether a pool is used at all.
"""

from repro.supervise.config import SuperviseConfig, available_cpus
from repro.supervise.executor import (
    SupervisedExecutor,
    run_supervised,
    run_tasks,
    task_payload,
)
from repro.supervise.heartbeat import (
    HeartbeatWriter,
    clear_heartbeats,
    read_heartbeats,
)
from repro.supervise.quarantine import (
    TaskQuarantinedError,
    default_quarantine_dir,
    inputs_digest,
    write_quarantine_record,
)

__all__ = [
    "HeartbeatWriter",
    "SuperviseConfig",
    "SupervisedExecutor",
    "TaskQuarantinedError",
    "available_cpus",
    "clear_heartbeats",
    "default_quarantine_dir",
    "inputs_digest",
    "read_heartbeats",
    "run_supervised",
    "run_tasks",
    "task_payload",
    "write_quarantine_record",
]
