"""Worker-side chunk functions for parallel blocking and pair scoring.

A worker process reads the run's shared payload (dataset + config +
fingerprint, installed by :func:`repro.supervise.run_tasks`) and lazily
builds its scoring context from it once — comparator registry,
name-frequency index, a column-oriented record table for vectorised
predicates.  Under a ``fork`` start method the payload is inherited
from the parent for free; under ``spawn`` it is shipped once via the
pool initializer.  Either way the per-chunk task messages carry only
pair-id lists plus the config fingerprint, which every chunk verifies
against its context (a stale worker must fail loudly, never score
against the wrong configuration).

The pair filters and constraint verdicts here are numpy boolean masks
over integer record columns (certificate ids, role codes, gender codes,
birth-year bounds) — integer comparisons are exact, so the masks equal
the serial per-pair predicates decision for decision.  String-valued
work (comparator calls) stays in Python against the exact serial
comparator registry, memoised per distinct value pair.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.blocking.candidates import roles_linkable
from repro.core.scoring import NameFrequencyIndex
from repro.data.roles import CENSUS_ROLES, SINGLETON_ROLES, Role
from repro.obs.metrics import LATENCY_BUCKETS_S, MetricsRegistry
from repro.obs.trace import context_span
from repro.parallel.batchscore import batch_atomic_similarity
from repro.similarity.registry import registry_for_config
from repro.supervise import task_payload

__all__ = ["filter_pairs_chunk", "score_pairs_chunk"]

# Rejection counters in the order generate_candidate_pairs applies them.
REJECT_KEYS = ("same_cert", "role", "same_census", "gender", "temporal")

_CONTEXT: "_Context | None" = None


class _RecordTable:
    """Record attributes as integer columns, for vectorised predicates.

    Gender values and roles are dictionary-encoded; equality between
    codes is equality between the original values, so every mask below
    decides exactly what the serial per-record predicate decides.
    Building the table touches each record's ``birth_range()`` once,
    which (like the serial filters) requires ``event_year`` — a record
    without one fails here with the same ``ValueError`` the serial
    filter would raise on its first pair.
    """

    def __init__(self, dataset, config) -> None:
        roles = list(Role)
        role_of = {role: code for code, role in enumerate(roles)}
        n_roles = len(roles)
        self.linkable = np.zeros((n_roles, n_roles), dtype=bool)
        for i, role_a in enumerate(roles):
            for j, role_b in enumerate(roles):
                self.linkable[i, j] = roles_linkable(role_a, role_b)
        self.singleton_role = np.array(
            [role in SINGLETON_ROLES for role in roles], dtype=bool
        )
        self.census_role = np.array(
            [role in CENSUS_ROLES for role in roles], dtype=bool
        )
        records = list(dataset)
        n = len(records)
        attributes = config.schema.names()
        self.index: dict[int, int] = {}
        self.cert = np.empty(n, dtype=np.int64)
        self.role = np.empty(n, dtype=np.int64)
        self.gender = np.empty(n, dtype=np.int64)
        self.year = np.empty(n, dtype=np.int64)
        self.lo = np.empty(n, dtype=np.int64)
        self.hi = np.empty(n, dtype=np.int64)
        # Raw attribute values per schema attribute, aligned to rows.
        self.values: list[list[str | None]] = [[None] * n for _ in attributes]
        gender_codes: dict[str, int] = {}
        for i, record in enumerate(records):
            self.index[record.record_id] = i
            self.cert[i] = record.cert_id
            self.role[i] = role_of[record.role]
            gender = record.gender
            if gender is None:
                self.gender[i] = -1
            else:
                code = gender_codes.get(gender)
                if code is None:
                    code = gender_codes[gender] = len(gender_codes)
                self.gender[i] = code
            self.year[i] = record.event_year
            self.lo[i], self.hi[i] = record.birth_range()
            for j, attribute in enumerate(attributes):
                self.values[j][i] = record.get(attribute)
        self.freq: np.ndarray | None = None
        # Row lookup: an O(1) array when record ids are reasonably dense,
        # else the dict.
        max_rid = max(self.index) if self.index else 0
        self._lut: np.ndarray | None = None
        if 0 <= min(self.index, default=0) and max_rid < 8 * n + 1024:
            lut = np.full(max_rid + 1, -1, dtype=np.int64)
            for rid, row in self.index.items():
                lut[rid] = row
            self._lut = lut

    def rows(self, pairs: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
        """Row indices (array_a, array_b) for a list of record-id pairs."""
        pair_arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        if self._lut is not None:
            return self._lut[pair_arr[:, 0]], self._lut[pair_arr[:, 1]]
        index = self.index
        ia = np.fromiter(
            (index[rid] for rid, _ in pairs), dtype=np.int64, count=len(pairs)
        )
        ib = np.fromiter(
            (index[rid] for _, rid in pairs), dtype=np.int64, count=len(pairs)
        )
        return ia, ib


class _Context:
    """Per-process scoring context, built once from the payload."""

    def __init__(self, payload: dict) -> None:
        self.payload = payload
        self.fingerprint: str = payload["fingerprint"]
        self.dataset = payload["dataset"]
        self.config = payload["config"]
        self.registry = registry_for_config(self.config)
        self.attributes: list[str] = self.config.schema.names()
        # Persist across chunks: distinct value pairs and name-frequency
        # sums repeat heavily between chunks of the same run.
        self.sim_cache: dict[tuple[int, str, str], float] = {}
        self.sd_table: dict[int, float] = {}
        self._frequencies: NameFrequencyIndex | None = None
        self._table: _RecordTable | None = None

    @property
    def frequencies(self) -> NameFrequencyIndex:
        if self._frequencies is None:
            self._frequencies = NameFrequencyIndex(self.dataset)
        return self._frequencies

    @property
    def table(self) -> _RecordTable:
        if self._table is None:
            self._table = _RecordTable(self.dataset, self.config)
        return self._table


def _context(fingerprint: str) -> _Context:
    global _CONTEXT
    payload = task_payload()
    if payload is None:
        raise RuntimeError("worker has no payload installed")
    if _CONTEXT is None or _CONTEXT.payload is not payload:
        _CONTEXT = _Context(payload)
    if _CONTEXT.fingerprint != fingerprint:
        raise RuntimeError(
            f"task fingerprint {fingerprint!r} does not match worker "
            f"payload {_CONTEXT.fingerprint!r}"
        )
    return _CONTEXT


def _finish(task: dict, result: dict, label: str, counters: dict[str, int]) -> dict:
    """Attach the telemetry the parent asked for to a chunk result.

    When the task carries a trace context, a detached ``worker.<label>``
    span (pid/chunk/pairs annotated, elapsed = chunk wall time) rides
    home as a dict; when ``collect`` is set, a fresh
    :class:`MetricsRegistry` of this chunk's deltas does too.  The
    parent grafts/merges both — see :func:`repro.supervise.run_tasks`.
    """
    elapsed = result["elapsed"]
    ctx = task.get("ctx")
    if ctx is not None:
        span = context_span(
            ctx,
            f"worker.{label}.chunk{task['chunk']}",
            chunk=task["chunk"],
            pairs=len(task["pairs"]),
        )
        span.elapsed = elapsed
        result["span"] = span.as_dict()
    if task.get("collect"):
        deltas = MetricsRegistry()
        for name, n in counters.items():
            if n:
                deltas.inc(name, n)
        deltas.observe("parallel.worker.chunk_seconds", elapsed, LATENCY_BUCKETS_S)
        result["wmetrics"] = deltas
    return result


def _pair_masks(table: _RecordTable, ia: np.ndarray, ib: np.ndarray, slack: int):
    """The five filter rejection masks, in serial application order."""
    role_a, role_b = table.role[ia], table.role[ib]
    gender_a, gender_b = table.gender[ia], table.gender[ib]
    return (
        table.cert[ia] == table.cert[ib],
        ~table.linkable[role_a, role_b],
        table.census_role[role_a]
        & table.census_role[role_b]
        & (table.year[ia] == table.year[ib]),
        (gender_a >= 0) & (gender_b >= 0) & (gender_a != gender_b),
        (table.lo[ia] - slack > table.hi[ib])
        | (table.lo[ib] - slack > table.hi[ia]),
    )


def filter_pairs_chunk(task: dict) -> dict:
    """Apply the candidate-pair filters to one chunk of raw block pairs.

    Mirrors :func:`repro.blocking.candidates.generate_candidate_pairs`
    filter for filter, in order, returning the surviving pairs and the
    per-filter rejection counts the serial path would have emitted.
    """
    ctx = _context(task["fingerprint"])
    started = time.perf_counter()
    pairs = task["pairs"]
    rejected = dict.fromkeys(REJECT_KEYS, 0)
    kept: list[tuple[int, int]] = []
    if pairs:
        table = ctx.table
        ia, ib = table.rows(pairs)
        masks = _pair_masks(table, ia, ib, ctx.config.temporal_slack_years)
        alive = np.ones(len(pairs), dtype=bool)
        for name, mask in zip(REJECT_KEYS, masks):
            hits = mask & alive
            rejected[name] = int(hits.sum())
            alive &= ~mask
        kept = [pairs[i] for i in np.nonzero(alive)[0]]
    result = {
        "chunk": task["chunk"],
        "elapsed": time.perf_counter() - started,
        "kept": kept,
        "rejected": rejected,
    }
    return _finish(
        task,
        result,
        "filter",
        {
            "parallel.worker.pairs_in": len(pairs),
            "parallel.worker.pairs_kept": len(kept),
        },
    )


def score_pairs_chunk(task: dict) -> dict:
    """Build node specs and scores for one chunk of candidate pairs.

    For each pair, in order: the relational-node spec (group key + the
    admitted atomic value pairs, exactly as ``build_dependency_graph``
    would create them), the initial ``s_a``/``s_d`` scores, and the
    singleton-state constraint verdict.  Newly computed comparator
    outputs are returned for the main process to seed
    ``PairScorer._sim_cache``.

    The verdict is 1 (record-level reject) or 0 (mergeable); the
    entity-level verdict 2 cannot arise at build time, because for
    single-record entities every check ``entities_compatible`` performs
    (certificate disjointness, singleton-role counts, gender consensus,
    birth-interval overlap, census years, role linkability) degenerates
    to the corresponding record-level check — the two verdicts coincide
    until a merge grows an entity.
    """
    ctx = _context(task["fingerprint"])
    started = time.perf_counter()
    config = ctx.config
    registry = ctx.registry
    attributes = ctx.attributes
    t_a = config.atomic_threshold
    half_life = config.temporal_decay_half_life
    slack = config.temporal_slack_years
    sim_cache = ctx.sim_cache
    frequencies = ctx.frequencies
    table = ctx.table
    pairs = task["pairs"]
    n_pairs = len(pairs)
    new_sims: dict[tuple[int, str, str], float] = {}
    n_attrs = len(attributes)
    sims: list[list[float]] = [[] for _ in range(n_attrs)]
    states: list[list[int]] = [[] for _ in range(n_attrs)]
    specs: list[tuple] = []
    if n_pairs:
        ia, ib = table.rows(pairs)
        # Constraint verdicts (ConstraintChecker.records_compatible as
        # masks): the five filter predicates plus the singleton-role
        # check.  ``propagate`` adds nothing here — see the docstring.
        reject = np.zeros(n_pairs, dtype=bool)
        for mask in _pair_masks(table, ia, ib, slack):
            reject |= mask
        role_a = table.role[ia]
        reject |= table.singleton_role[role_a] & (role_a == table.role[ib])
        levels = reject.astype(np.int64).tolist()
        if table.freq is None:
            dataset = ctx.dataset
            freq = np.empty(len(table.index), dtype=np.int64)
            for rid, row in table.index.items():
                freq[row] = frequencies.frequency(dataset.record(rid))
            table.freq = freq
        freq_sums = (table.freq[ia] + table.freq[ib]).tolist()
        if half_life is not None:
            gaps = np.abs(table.year[ia] - table.year[ib]).tolist()
        else:
            gaps = [0] * n_pairs
        rows_a = ia.tolist()
        rows_b = ib.tolist()
        certs_a = table.cert[ia].tolist()
        certs_b = table.cert[ib].tolist()
        values = table.values
        for k in range(n_pairs):
            rid_a, rid_b = pairs[k]
            row_a, row_b = rows_a[k], rows_b[k]
            cert_a, cert_b = certs_a[k], certs_b[k]
            group = (cert_a, cert_b) if cert_a <= cert_b else (cert_b, cert_a)
            atoms: list[tuple[int, str, str, float]] = []
            for j in range(n_attrs):
                value_a = values[j][row_a]
                value_b = values[j][row_b]
                if value_a is None or value_b is None:
                    sims[j].append(0.0)
                    states[j].append(0)
                    continue
                if value_a <= value_b:
                    key = (j, value_a, value_b)
                else:
                    key = (j, value_b, value_a)
                similarity = sim_cache.get(key)
                if similarity is None:
                    similarity = (
                        registry.compare(attributes[j], value_a, value_b) or 0.0
                    )
                    sim_cache[key] = similarity
                    new_sims[key] = similarity
                if similarity >= t_a:
                    atoms.append((j, value_a, value_b, similarity))
                    sims[j].append(similarity)
                    states[j].append(1)
                else:
                    sims[j].append(0.0)
                    states[j].append(2)
            specs.append((rid_a, rid_b, group[0], group[1], atoms))
    else:
        levels = []
        freq_sums = []
        gaps = []
    s_a = batch_atomic_similarity(config.schema, half_life, gaps, sims, states)
    # s_d is a lookup: one exact Python-math evaluation per distinct
    # frequency sum (mirroring disambiguation_similarity's expression).
    n_total = max(2, frequencies.total_records)
    sd_table = ctx.sd_table
    s_d: list[float] = []
    for freq in freq_sums:
        value = sd_table.get(freq)
        if value is None:
            value = min(1.0, max(0.0, math.log2(n_total / freq) / math.log2(n_total)))
            sd_table[freq] = value
        s_d.append(value)
    result = {
        "chunk": task["chunk"],
        "elapsed": time.perf_counter() - started,
        "specs": specs,
        "s_a": s_a.tolist(),
        "s_d": s_d,
        "valid": levels,
        "sims": new_sims,
    }
    return _finish(
        task,
        result,
        "score",
        {
            "parallel.worker.pairs_scored": n_pairs,
            "parallel.worker.sim_cache_misses": len(new_sims),
        },
    )
