"""Accumulator-based query processing and ranking.

The paper's Section 7 pipeline:

1. retrieve from the keyword index ``K`` and similarity index ``S`` all
   entities matching the query's first name and/or surname, exactly or
   approximately, and seed the accumulator ``M`` with the summed name
   match scores (entities without any name match never enter ``M``);
2. for each optional query value (gender, year range, parish) retrieve
   the matching entity ids from ``K`` and *increase* the scores of
   entities already in ``M`` — no new entities are added;
3. rank by the weighted match score
   ``s_r = Σ_a w_a · sim(q_a, o_a)`` and return the top ``m`` entities,
   scores normalised to a percentage of the achievable maximum.

Thread safety (audited for the ``repro.serve`` subsystem): after
``__init__`` builds the indexes, :meth:`QueryEngine.search` touches only
per-call local state (the accumulator, the top-k heap), the read-only
:class:`~repro.index.keyword.KeywordIndex`, the internally locked
:class:`~repro.index.simindex.SimilarityAwareIndex` query cache, and the
thread-safe :class:`~repro.obs.metrics.MetricsRegistry` — so concurrent
``search()`` calls on one engine are safe **provided the engine's
``trace`` is the default disabled one**.  An *enabled*
:class:`~repro.obs.trace.Trace` keeps a span stack that must not be
shared across threads; give each thread (or request) its own trace, as
the serving layer does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.data.roles import Role
from repro.faults import fire
from repro.index.keyword import KeywordIndex
from repro.index.simindex import SimilarityAwareIndex
from repro.obs.logs import get_logger
from repro.obs.metrics import LATENCY_BUCKETS_S, MetricsRegistry
from repro.obs.trace import Trace
from repro.pedigree.graph import PedigreeEntity, PedigreeGraph
from repro.utils.heaps import TopK

__all__ = ["Query", "QueryEngine", "RankedMatch"]

logger = get_logger("query.engine")

# Match-score weights per query attribute (names dominate, as discussed
# in Section 7; locations are weakest because users often guess them).
DEFAULT_WEIGHTS: dict[str, float] = {
    "first_name": 0.3,
    "surname": 0.3,
    "gender": 0.1,
    "year": 0.2,
    "parish": 0.1,
}


@dataclass(frozen=True)
class Query:
    """One search request as entered on the web form (Figure 5)."""

    first_name: str
    surname: str
    record_type: str | None = None       # "birth" | "death" | None
    gender: str | None = None            # "m" | "f" | None
    year_from: int | None = None
    year_to: int | None = None
    parish: str | None = None

    def __post_init__(self) -> None:
        if not self.first_name or not self.surname:
            raise ValueError("first name and surname are mandatory query fields")
        if self.record_type not in (None, "birth", "death"):
            raise ValueError(f"record_type must be birth/death, got {self.record_type}")
        if self.gender not in (None, "m", "f"):
            raise ValueError(f"gender must be m/f, got {self.gender}")
        if (
            self.year_from is not None
            and self.year_to is not None
            and self.year_to < self.year_from
        ):
            raise ValueError("empty year range")


@dataclass
class RankedMatch:
    """One ranked query result with per-attribute match breakdown."""

    entity: PedigreeEntity
    score_percent: float
    attribute_scores: dict[str, float] = field(default_factory=dict)
    # Which name values matched and whether exactly ("exact") or
    # approximately ("approx") — the colour coding of Figure 6.
    match_kinds: dict[str, str] = field(default_factory=dict)


class QueryEngine:
    """Search front-end over a pedigree graph."""

    def __init__(
        self,
        graph: PedigreeGraph,
        similarity_threshold: float = 0.5,
        weights: dict[str, float] | None = None,
        use_geographic_distance: bool = False,
        geo_half_distance_km: float = 10.0,
        trace: Trace | None = None,
        metrics: MetricsRegistry | None = None,
        keyword_index: KeywordIndex | None = None,
        sim_index: dict[str, SimilarityAwareIndex] | None = None,
    ) -> None:
        """``use_geographic_distance`` switches parish scoring from string
        similarity to geodesic distance against the gazetteer (the paper's
        future-work geographic query refinement): a query for "portree"
        then also surfaces people registered in nearby Snizort at a
        distance-discounted score, while far-away parishes score near 0
        even if their names are string-similar.

        ``trace``/``metrics`` instrument every :meth:`search`: one span
        per stage (accumulate, refine — with a nested ``parish_match``
        span — and rank), a per-query latency histogram, and search/hit
        counters.  Both default to off with no per-query cost.

        ``keyword_index``/``sim_index`` warm-start the engine from
        prebuilt indexes (a ``repro.store`` snapshot) instead of paying
        the K/S construction cost here; when given they must have been
        built from ``graph`` (``similarity_threshold`` is then ignored —
        a prebuilt S index carries its own threshold)."""
        self.graph = graph
        self.weights = dict(weights or DEFAULT_WEIGHTS)
        self.use_geographic_distance = use_geographic_distance
        self.geo_half_distance_km = geo_half_distance_km
        self.trace = trace if trace is not None else Trace.disabled()
        self.metrics = metrics
        self.keyword_index = (
            keyword_index if keyword_index is not None else KeywordIndex(graph)
        )
        if sim_index is not None:
            self.sim_index = dict(sim_index)
        else:
            self.sim_index = {
                attribute: SimilarityAwareIndex(
                    self.keyword_index.values(attribute),
                    threshold=similarity_threshold,
                )
                for attribute in ("first_name", "surname", "parish")
            }

    def _parish_matches(self, query_parish: str) -> list[tuple[str, float]]:
        """(indexed parish, score) pairs for the query's parish value.

        String mode uses the similarity-aware index; geographic mode
        scores every indexed parish by its gazetteer distance to the
        query parish (falling back to string similarity when either
        parish is not in the gazetteer).
        """
        if not self.use_geographic_distance:
            return self.sim_index["parish"].matches(query_parish)
        from repro.data.names import PARISH_COORDINATES
        from repro.similarity.geo import geo_similarity

        origin = PARISH_COORDINATES.get(query_parish.lower())
        if origin is None:
            return self.sim_index["parish"].matches(query_parish)
        scored = []
        for parish in self.keyword_index.values("parish"):
            point = PARISH_COORDINATES.get(parish)
            if point is None:
                continue
            score = geo_similarity(
                origin, point, half_distance_km=self.geo_half_distance_km
            )
            if score > 0.05:
                scored.append((parish, score))
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        return scored

    # ------------------------------------------------------------------

    def _name_accumulator(self, query: Query) -> dict[int, dict[str, float]]:
        """Step 1: accumulator M seeded by exact/approximate name matches.

        Returns entity id → {attribute: best similarity}.
        """
        accumulator: dict[int, dict[str, float]] = {}
        for attribute, value in (
            ("first_name", query.first_name),
            ("surname", query.surname),
        ):
            for matched_value, similarity in self.sim_index[attribute].matches(value):
                for entity_id in self.keyword_index.lookup(attribute, matched_value):
                    scores = accumulator.setdefault(entity_id, {})
                    if similarity > scores.get(attribute, 0.0):
                        scores[attribute] = similarity
        return accumulator

    def _refine(self, query: Query, accumulator: dict[int, dict[str, float]]) -> None:
        """Step 2: raise scores of entities matching the optional values."""
        if query.gender is not None:
            matching = self.keyword_index.lookup_gender(query.gender)
            for entity_id, scores in accumulator.items():
                if entity_id in matching:
                    scores["gender"] = 1.0
        if query.year_from is not None or query.year_to is not None:
            lo = query.year_from if query.year_from is not None else 0
            hi = query.year_to if query.year_to is not None else 9999
            matching = self.keyword_index.lookup_year_range(lo, hi)
            for entity_id, scores in accumulator.items():
                if entity_id in matching:
                    scores["year"] = 1.0
        if query.parish is not None:
            with self.trace.span("parish_match"):
                parish_matches = self._parish_matches(query.parish)
            for matched_value, similarity in parish_matches:
                for entity_id in self.keyword_index.lookup("parish", matched_value):
                    scores = accumulator.get(entity_id)
                    if scores is not None and similarity > scores.get("parish", 0.0):
                        scores["parish"] = similarity

    def _record_type_filter(self, query: Query, entity: PedigreeEntity) -> bool:
        """Keep entities that have a record of the searched certificate
        type (searching birth records requires a Bb record, etc.)."""
        if query.record_type is None:
            return True
        wanted = Role.BB if query.record_type == "birth" else Role.DD
        return wanted in entity.roles

    # ------------------------------------------------------------------

    def search(self, query: Query, top_m: int = 10) -> list[RankedMatch]:
        """Rank entities against ``query``; return the best ``top_m``.

        Scores are normalised so 100% means an exact match on every QID
        value the user provided.
        """
        start = time.perf_counter()
        fire("query.search")
        with self.trace.span("query"):
            with self.trace.span("accumulate"):
                accumulator = self._name_accumulator(query)
            with self.trace.span("refine"):
                self._refine(query, accumulator)
            with self.trace.span("rank"):
                provided = ["first_name", "surname"]
                if query.gender is not None:
                    provided.append("gender")
                if query.year_from is not None or query.year_to is not None:
                    provided.append("year")
                if query.parish is not None:
                    provided.append("parish")
                max_score = sum(self.weights[a] for a in provided)
                top: TopK[tuple[int, dict[str, float]]] = TopK(top_m)
                # TopK keeps the earliest of equal scores, so feeding it
                # in entity-id order ranks by (score desc, entity_id asc):
                # a total order, whatever order the index postings (and
                # so the accumulator) came in.
                for entity_id in sorted(accumulator):
                    scores = accumulator[entity_id]
                    entity = self.graph.entity(entity_id)
                    if not self._record_type_filter(query, entity):
                        continue
                    score = sum(
                        self.weights[attribute] * scores.get(attribute, 0.0)
                        for attribute in provided
                    )
                    top.push(score, (entity_id, scores))
                results: list[RankedMatch] = []
                for score, (entity_id, scores) in top.items():
                    entity = self.graph.entity(entity_id)
                    kinds = {}
                    for attribute in ("first_name", "surname", "parish"):
                        if attribute in scores:
                            kinds[attribute] = (
                                "exact" if scores[attribute] >= 0.9999 else "approx"
                            )
                    results.append(
                        RankedMatch(
                            entity=entity,
                            score_percent=round(100.0 * score / max_score, 2),
                            attribute_scores=dict(scores),
                            match_kinds=kinds,
                        )
                    )
        if self.metrics is not None:
            self.metrics.inc("query.searches")
            self.metrics.inc("query.candidates", len(accumulator))
            self.metrics.inc("query.hits", len(results))
            self.metrics.observe(
                "query.latency_seconds",
                time.perf_counter() - start,
                LATENCY_BUCKETS_S,
            )
        logger.debug(
            "query %s/%s: %d accumulator entries, %d hits",
            query.first_name,
            query.surname,
            len(accumulator),
            len(results),
        )
        return results
