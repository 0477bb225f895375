"""Supervised task execution: one attempt loop, in-process or pooled.

:func:`run_tasks` is the single entry point every fan-out path uses —
chunk scoring (``repro.parallel``) and shard resolution
(``repro.shard``).  It runs each task through :class:`SupervisedExecutor`,
whose attempt loop is the same whether the task runs in this process or
in a fork pool: the same ``supervise.task.<label>.t<i>.a<k>`` injection
sites, the same TRANSIENT-retry / PERMANENT-quarantine charging, the
same :class:`TaskQuarantinedError` abort.  A fault therefore has the
same outcome on one CPU as on many; only the pool-only failure modes
below (a dead or hung worker process) need a pool to arise.

**Liveness (pool only).**  Every pooled attempt announces itself
through a heartbeat file (:mod:`repro.supervise.heartbeat`) before
running.  A supervisor loop polls the futures *and* the heartbeats; an
attempt older than ``task_timeout_s`` is killed with SIGKILL, which
breaks the pool and routes recovery through the same path as a crash.
In-process attempts have no deadline: nothing can kill them.

**Bounded deterministic re-execution.**  Tasks are pure functions of
their chunk/shard inputs, so re-running one is always safe.  When the
pool breaks (``BrokenProcessPool``/``EOFError``) the executor charges an
attempt to the *suspects* — the tasks whose heartbeats were still
``running`` — rebuilds the pool, and resubmits only the incomplete
tasks.  Completed results are never discarded and are returned strictly
in submission order, so output is byte-identical to serial no matter
where a worker died.  An ordinary exception raised *inside* a live
worker charges only that task and resubmits it in place (transient) or
quarantines it immediately (permanent/data) — no pool rebuild.

**Quarantine.**  A task still failing after ``1 + max_task_retries``
charged attempts is quarantined with a JSONL artifact
(:mod:`repro.supervise.quarantine`); the run aborts with an actionable
error naming the chunk/shard, or degrades per the ``skip`` policy.

**Deterministic chaos.**  Each attempt fires the injection site
``supervise.task.<label>.t<index>.a<attempt>``.  The attempt number in
the site name is what makes crash-once-then-recover reproducible:
rebuilt workers fork with fresh injector counters, but the retried
attempt runs under ``.a1``, which an ``.a0`` spec no longer matches.

Attribution is deliberately conservative: if the crashed worker died
before writing its heartbeat, every incomplete task is charged one
attempt for that break.  Over-charging an innocent task costs at most
its retry budget; under-charging a poison task would loop forever.
"""

from __future__ import annotations

import os
import signal
import tempfile
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, Future, wait
from dataclasses import replace
from typing import Callable

from repro.faults import fire
from repro.faults.taxonomy import TRANSIENT, classify
from repro.obs.metrics import LATENCY_BUCKETS_S, MetricsRegistry
from repro.obs.trace import Trace
from repro.supervise.config import SuperviseConfig, available_cpus
from repro.supervise.heartbeat import (
    RUNNING,
    HeartbeatWriter,
    clear_heartbeats,
    read_heartbeats,
)
from repro.supervise.quarantine import (
    TaskQuarantinedError,
    write_quarantine_record,
)

__all__ = [
    "SupervisedExecutor",
    "run_supervised",
    "run_tasks",
    "set_payload",
    "task_payload",
]

#: Exceptions that mean "the pool is dead", as opposed to "the task
#: raised": recovery rebuilds the pool and resubmits incomplete work.
_POOL_DEATH = (BrokenExecutor, EOFError)

#: The run's shared, read-only task payload (e.g. the dataset chunk
#: tasks score against).  Installed before a fork pool is built, so
#: workers inherit it instead of unpickling it per task.
_PAYLOAD: object = None


def set_payload(payload: object) -> None:
    """Install the shared task payload in this process."""
    global _PAYLOAD
    _PAYLOAD = payload


def task_payload() -> object:
    """The shared task payload installed for this run (None if none)."""
    return _PAYLOAD


def run_supervised(fn: Callable, task: object, meta: dict) -> object:
    """Worker-side shim: heartbeat + chaos site around the real task.

    Module-level so it pickles by reference for both fork and spawn
    pools.  ``meta`` carries the attempt identity assigned by the
    supervisor; the heartbeat is best-effort and adds one file write
    plus a touch thread per attempt.
    """
    hb_dir = meta.get("hb_dir")
    if hb_dir is None:
        fire(meta["site"])
        return fn(task)
    with HeartbeatWriter(
        hb_dir,
        index=meta["index"],
        label=meta["label"],
        attempt=meta["attempt"],
        interval_s=meta.get("hb_interval", 0.2),
    ):
        fire(meta["site"])
        return fn(task)


def _describe(exc: BaseException) -> str:
    """The full traceback text a quarantine record keeps per attempt."""
    return "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__)
    ).strip()


class _InProcessPool:
    """A pool of no processes: ``submit`` runs the call in this process
    and returns its already-settled future, so in-process tasks go
    through the supervisor's one attempt loop unchanged."""

    def submit(self, fn: Callable, *args: object) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        pass


class _PoolBroken(Exception):
    """Internal: the pool died; ``suspects`` are charged an attempt."""

    def __init__(self, reason: str, suspects: list[int], hung: bool = False):
        super().__init__(reason)
        self.reason = reason
        self.suspects = suspects
        self.hung = hung


class SupervisedExecutor:
    """Run pure tasks under supervision, in-process or on a fork pool.

    ``workers == 0`` runs every attempt in this process (through an
    :class:`_InProcessPool`); ``workers >= 1`` runs attempts on a
    rebuildable fork pool of that many processes.  Both go through the
    same attempt loop, so retry, quarantine, and chaos-site semantics
    are identical; only heartbeats and deadlines need real processes.  ``payload`` is installed (:func:`set_payload`) before
    any pool exists, so forked workers inherit it.
    """

    def __init__(
        self,
        config: SuperviseConfig | None = None,
        *,
        workers: int = 0,
        payload: object = None,
        metrics=None,
        label: str = "task",
        task_name: Callable[[object, int], str] | None = None,
    ) -> None:
        self.config = config if config is not None else SuperviseConfig.from_env()
        self.workers = workers
        self.payload = payload
        if payload is not None:
            set_payload(payload)
        self.metrics = metrics
        self.label = label
        self.task_name = task_name or (lambda task, index: f"task {index}")
        self.restarts = 0
        #: Per-task seconds from first submission to result, last map().
        self.waits: list[float] = []
        self._submitted: dict[int, float] = {}
        self._pool = None
        self._hb_dir: str | None = None

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        self._shutdown_pool()
        if self._hb_dir is not None:
            clear_heartbeats(self._hb_dir)
            try:
                os.rmdir(self._hb_dir)
            except OSError:
                pass
            self._hb_dir = None

    def __enter__(self) -> "SupervisedExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _ensure_pool(self):
        if self._pool is None:
            if not self.workers:
                self._pool = _InProcessPool()
                return self._pool
            # Imported here: serving processes import this module for its
            # heartbeat substrate and never build a pool.
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            if "fork" in multiprocessing.get_all_start_methods():
                # Children inherit the payload installed in __init__.
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=multiprocessing.get_context("fork"),
                )
            else:  # pragma: no cover - non-fork platforms
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=multiprocessing.get_context(),
                    initializer=set_payload,
                    initargs=(self.payload,),
                )
        return self._pool

    def _shutdown_pool(self) -> None:
        pool, self._pool = self._pool, None
        if pool is None:
            return
        processes = dict(getattr(pool, "_processes", None) or {})
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        # Discarded generations get no grace: a worker forked while
        # another thread held a lock (fork + threads) can deadlock
        # before ever serving a task, and concurrent.futures' atexit
        # hook would then join it forever, hanging interpreter exit.
        # Every result this pool owed has already been returned or
        # charged, so killing is always safe here.
        for pid in processes:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass

    def _rebuild_pool(self) -> None:
        self._shutdown_pool()
        if self._hb_dir is not None:
            clear_heartbeats(self._hb_dir)  # dead generation's evidence
        self.restarts += 1
        self._inc("supervise.restarts")

    def _inc(self, name: str, value: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.inc(name, value)

    # -- the supervised map --------------------------------------------

    def map(self, fn: Callable, tasks: list, label: str | None = None) -> list:
        """Run ``fn`` over ``tasks``; results in submission order.

        Quarantined tasks under the ``skip`` policy yield ``None`` at
        their position; under ``abort`` (the default) the first
        quarantine raises :class:`TaskQuarantinedError`.
        """
        label = label or self.label
        self.waits = [0.0] * len(tasks)
        self._submitted = {}
        results: dict[int, object] = {}
        charged = [0] * len(tasks)
        errors: list[list[str]] = [[] for _ in tasks]
        skipped: set[int] = set()
        if self._hb_dir is None and self.workers and tasks:
            self._hb_dir = tempfile.mkdtemp(prefix="snaps-heartbeats-")
        while len(results) < len(tasks):
            try:
                self._round(fn, tasks, label, results, charged, errors, skipped)
            except _PoolBroken as broken:
                for index in broken.suspects:
                    self._charge(
                        index,
                        tasks,
                        label,
                        charged,
                        errors,
                        f"pool broken while attempt {charged[index]} was "
                        f"running: {broken.reason}",
                        results=results,
                        skipped=skipped,
                        hung=broken.hung,
                    )
                self._rebuild_pool()
        return [results[index] for index in range(len(tasks))]

    def _meta(self, label: str, index: int, attempt: int) -> dict:
        return {
            "site": f"supervise.task.{label}.t{index}.a{attempt}",
            "index": index,
            "label": label,
            "attempt": attempt,
            "hb_dir": self._hb_dir,
            "hb_interval": self.config.heartbeat_interval_s,
        }

    def _round(
        self,
        fn: Callable,
        tasks: list,
        label: str,
        results: dict[int, object],
        charged: list[int],
        errors: list[list[str]],
        skipped: set[int],
    ) -> None:
        """One pool generation: submit incomplete tasks, drain or break."""
        pool = self._ensure_pool()
        futures: dict[Future, int] = {}

        def submit(index: int) -> None:
            meta = self._meta(label, index, charged[index])
            first = self._submitted.setdefault(index, time.perf_counter())
            future = pool.submit(run_supervised, fn, tasks[index], meta)

            # Timed when the result lands (the pool's result thread, or
            # at once in-process), not when this loop gets round to it.
            def timed(done: Future, i: int = index, first: float = first) -> None:
                if not done.cancelled() and done.exception() is None:
                    self.waits[i] = time.perf_counter() - first

            future.add_done_callback(timed)
            futures[future] = index

        incomplete = [i for i in range(len(tasks)) if i not in results]
        try:
            for index in incomplete:
                submit(index)
        except _POOL_DEATH as exc:
            raise _PoolBroken(
                f"{type(exc).__name__}: {exc}", self._suspects(set(incomplete))
            ) from None
        while futures:
            done, _ = wait(
                set(futures),
                timeout=self.config.poll_interval_s,
                return_when=FIRST_COMPLETED,
            )
            for future in done:
                index = futures.pop(future)
                exc = future.exception()
                if exc is None:
                    results[index] = future.result()
                    self._inc("supervise.tasks")
                    continue
                if isinstance(exc, _POOL_DEATH):
                    pending = set(futures.values()) | {index}
                    raise _PoolBroken(
                        f"{type(exc).__name__}: {exc}", self._suspects(pending)
                    ) from None
                # The task raised inside a live worker: charge it alone.
                self._charge(
                    index,
                    tasks,
                    label,
                    charged,
                    errors,
                    _describe(exc),
                    results=results,
                    skipped=skipped,
                    category=classify(exc),
                )
                if index not in results:
                    self._inc("supervise.retries")
                    try:
                        submit(index)
                    except _POOL_DEATH as pool_exc:
                        pending = set(futures.values()) | {index}
                        raise _PoolBroken(
                            f"{type(pool_exc).__name__}: {pool_exc}",
                            self._suspects(pending),
                        ) from None
            self._watch_heartbeats(set(futures.values()))

    # -- failure accounting --------------------------------------------

    def _charge(
        self,
        index: int,
        tasks: list,
        label: str,
        charged: list[int],
        errors: list[list[str]],
        message: str,
        *,
        results: dict[int, object],
        skipped: set[int],
        category: str = TRANSIENT,
        hung: bool = False,
    ) -> None:
        """Record a failed attempt; quarantine when the budget is spent."""
        charged[index] += 1
        errors[index].append(message)
        if hung:
            self._inc("supervise.hung_tasks")
        retryable = category == TRANSIENT
        if retryable and charged[index] < self.config.attempt_budget:
            return
        name = self.task_name(tasks[index], index)
        artifact = write_quarantine_record(
            self.config.quarantine_dir,
            label=label,
            task_name=name,
            index=index,
            task=tasks[index],
            errors=errors[index],
        )
        self._inc("supervise.quarantined_tasks")
        if self.config.on_quarantine == "abort":
            raise TaskQuarantinedError(
                label=label,
                task_name=name,
                attempts=charged[index],
                artifact=artifact,
                last_error=message.splitlines()[-1] if message else "unknown",
            )
        results[index] = None  # degrade: the caller sees a poisoned slot
        skipped.add(index)

    def _suspects(self, incomplete: set[int]) -> list[int]:
        """Which incomplete tasks were running when the pool broke.

        Falls back to *all* incomplete tasks when the heartbeats name
        nobody (worker died before its first write) — conservative, but
        bounded by each task's retry budget.
        """
        beats = read_heartbeats(self._hb_dir) if self._hb_dir else []
        running = sorted(
            {
                int(beat["index"])
                for beat in beats
                if beat.get("state") == RUNNING
                and int(beat.get("index", -1)) in incomplete
            }
        )
        return running if running else sorted(incomplete)

    # -- liveness ------------------------------------------------------

    def _watch_heartbeats(self, incomplete: set[int]) -> None:
        """Gauge heartbeat age; SIGKILL attempts past their deadline."""
        if self._hb_dir is None:
            return
        beats = read_heartbeats(self._hb_dir)
        now = time.time()
        running = [
            beat
            for beat in beats
            if beat.get("state") == RUNNING
            and int(beat.get("index", -1)) in incomplete
        ]
        if self.metrics is not None and running:
            age = max(now - float(beat["mtime"]) for beat in running)
            self.metrics.set_gauge("supervise.heartbeat_age_seconds", age)
        deadline = self.config.task_timeout_s
        if not deadline:
            return
        hung = [
            beat for beat in running if now - float(beat["started"]) > deadline
        ]
        if not hung:
            return
        pool_pids = set(getattr(self._pool, "_processes", None) or ())
        for beat in hung:
            pid = int(beat["pid"])
            if pool_pids and pid not in pool_pids:
                continue  # stale evidence: never kill a non-worker pid
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        raise _PoolBroken(
            f"task deadline exceeded ({deadline:g}s)",
            sorted({int(beat["index"]) for beat in hung}),
            hung=True,
        )


# -- the one fan-out entry point ---------------------------------------


def _task_names(label: str, task: dict) -> tuple[str, str]:
    """(per-task span, quarantine name) for a shard or a chunk task."""
    if label == "shard":
        return f"shard.s{task['shard']}", f"shard {task['shard']}"
    return f"parallel.{label}.chunk{task['chunk']}", f"chunk {task['chunk']}"


def run_tasks(
    fn: Callable[[dict], dict],
    tasks: list[dict],
    *,
    label: str,
    workers: int,
    trace: Trace | None = None,
    metrics: MetricsRegistry | None = None,
    supervise: SuperviseConfig | None = None,
    payload: object = None,
) -> list[dict]:
    """Run ``fn`` over ``tasks`` under supervision; results in task order.

    Two task families come through here: chunk tasks (``label`` is the
    chunk phase, e.g. ``"score"``) and shard tasks (``label="shard"``).
    The pool has ``min(workers, available_cpus(), len(tasks))``
    processes and is used only when that is at least 2; otherwise every
    task runs in-process through the same attempt loop.  Results merge
    in submission order, so the choice never changes output.

    Quarantine always aborts: a silently skipped task would drop its
    output from a merge that must stay byte-identical to serial.

    When tracing/metrics are live, each task carries the parent's
    serialised :class:`~repro.obs.trace.TraceContext` plus a ``collect``
    flag; workers answer with a detached span and a metrics-delta
    registry.  Each task gets a span timed with its real wait (first
    submission to result), the worker span is grafted beneath it, and
    the deltas fold into ``metrics`` — one span tree and one registry
    whatever ran where.
    """
    trace = trace if trace is not None else Trace.disabled()
    config = supervise if supervise is not None else SuperviseConfig.from_env()
    if config.on_quarantine != "abort":
        config = replace(config, on_quarantine="abort")
    ctx = trace.context(label=label)
    ctx_dict = ctx.to_dict() if ctx is not None else None
    collect = metrics is not None
    if ctx_dict is not None or collect:
        tasks = [{**task, "ctx": ctx_dict, "collect": collect} for task in tasks]
    pool_size = min(workers, available_cpus(), len(tasks))
    with SupervisedExecutor(
        config,
        workers=pool_size if pool_size >= 2 else 0,
        payload=payload,
        metrics=metrics,
        label=label,
        task_name=lambda task, index: _task_names(label, task)[1],
    ) as executor:
        results = executor.map(fn, tasks, label)
        waits = executor.waits
    done, seconds = (
        ("shard.resolved", "shard.resolve_seconds")
        if label == "shard"
        else ("parallel.chunks", "parallel.chunk_seconds")
    )
    for task, result, waited in zip(tasks, results, waits):
        with trace.span(_task_names(label, task)[0]) as span:
            if span is not None:
                span.elapsed = waited
        node = result.pop("span", None)
        if node is not None:
            trace.attach(node, parent=span)
        wmetrics = result.pop("wmetrics", None)
        if metrics is not None:
            if wmetrics is not None:
                metrics.merge(wmetrics)
            metrics.inc(done)
            metrics.observe(seconds, result["elapsed"], LATENCY_BUCKETS_S)
    return results
