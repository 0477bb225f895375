"""Deeper query-engine behaviour: custom weights, ranking invariants,
and extraction interaction."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pedigree import extract_pedigree
from repro.query import Query, QueryEngine


@pytest.fixture(scope="module")
def named_entity(tiny_pedigree_graph):
    return next(
        e for e in tiny_pedigree_graph
        if e.first("first_name") and e.first("surname") and e.first("parish")
    )


class TestCustomWeights:
    def test_zero_name_weights_rejected_by_normalisation(self, tiny_pedigree_graph,
                                                         named_entity):
        # Heavily weighting the parish makes parish agreement dominate.
        engine = QueryEngine(
            tiny_pedigree_graph,
            weights={"first_name": 0.05, "surname": 0.05, "gender": 0.1,
                     "year": 0.1, "parish": 0.7},
        )
        query = Query(
            first_name=named_entity.first("first_name"),
            surname=named_entity.first("surname"),
            parish=named_entity.first("parish"),
        )
        hits = engine.search(query, top_m=10)
        assert hits
        top = hits[0]
        # The top hit must at least match the parish strongly.
        assert top.attribute_scores.get("parish", 0.0) > 0.5

    def test_scores_normalised_to_provided_attributes(self, tiny_pedigree_graph,
                                                      named_entity):
        engine = QueryEngine(tiny_pedigree_graph)
        bare = Query(
            first_name=named_entity.first("first_name"),
            surname=named_entity.first("surname"),
        )
        rich = Query(
            first_name=named_entity.first("first_name"),
            surname=named_entity.first("surname"),
            gender=named_entity.gender,
            parish=named_entity.first("parish"),
        )
        bare_top = engine.search(bare, top_m=1)[0]
        rich_top = engine.search(rich, top_m=1)[0]
        # Both normalise to 100% when everything provided matches.
        assert bare_top.score_percent <= 100.0
        assert rich_top.score_percent <= 100.0


class TestRankingInvariants:
    def test_more_constraints_never_increase_match_count_above_top_m(
        self, tiny_query_engine, named_entity
    ):
        query = Query(
            first_name=named_entity.first("first_name"),
            surname=named_entity.first("surname"),
        )
        for top_m in (1, 3, 5, 20):
            hits = tiny_query_engine.search(query, top_m=top_m)
            assert len(hits) <= top_m

    def test_top_1_is_prefix_of_top_5(self, tiny_query_engine, named_entity):
        query = Query(
            first_name=named_entity.first("first_name"),
            surname=named_entity.first("surname"),
        )
        one = tiny_query_engine.search(query, top_m=1)
        five = tiny_query_engine.search(query, top_m=5)
        assert one[0].entity.entity_id == five[0].entity.entity_id

    def test_deterministic_ranking(self, tiny_query_engine, named_entity):
        query = Query(
            first_name=named_entity.first("first_name"),
            surname=named_entity.first("surname"),
        )
        a = [h.entity.entity_id for h in tiny_query_engine.search(query, top_m=10)]
        b = [h.entity.entity_id for h in tiny_query_engine.search(query, top_m=10)]
        assert a == b


class _ShuffledPostings:
    """Wraps an index so every lookup hands back its ids (and every
    similarity lookup its matches) in a seeded random order."""

    def __init__(self, inner, rng: random.Random) -> None:
        self._inner = inner
        self._rng = rng

    def _shuffled(self, items) -> list:
        items = sorted(items)
        self._rng.shuffle(items)
        return items

    def lookup(self, attribute, value):
        return self._shuffled(self._inner.lookup(attribute, value))

    def matches(self, value):
        return self._shuffled(self._inner.matches(value))

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _ranking(engine, queries):
    return [
        [(hit.entity.entity_id, hit.score_percent) for hit in engine.search(q, top_m=5)]
        for q in queries
    ]


@pytest.fixture(scope="module")
def tie_queries(tiny_pedigree_graph):
    """Name queries, exact and misspelled, plus refinements that create
    many equal scores."""
    named = [
        e for e in tiny_pedigree_graph
        if e.first("first_name") and e.first("surname")
    ][:6]
    queries = []
    for entity in named:
        first, surname = entity.first("first_name"), entity.first("surname")
        queries.append(Query(first_name=first, surname=surname))
        queries.append(Query(first_name=first[:-1] or first, surname=surname, gender="f"))
        queries.append(Query(first_name=first, surname=surname, year_from=1850, year_to=1900))
    return queries


class TestTotalOrder:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_postings_order_never_changes_results(
        self, tiny_query_engine, tie_queries, seed
    ):
        rng = random.Random(seed)
        shuffled = QueryEngine(
            tiny_query_engine.graph,
            keyword_index=_ShuffledPostings(tiny_query_engine.keyword_index, rng),
            sim_index={
                attribute: _ShuffledPostings(index, rng)
                for attribute, index in tiny_query_engine.sim_index.items()
            },
        )
        assert _ranking(shuffled, tie_queries) == _ranking(
            tiny_query_engine, tie_queries
        )

    def test_equal_scores_rank_by_entity_id(self, tiny_query_engine, tie_queries):
        for query in tie_queries:
            hits = tiny_query_engine.search(query, top_m=50)
            for a, b in zip(hits, hits[1:]):
                if a.attribute_scores == b.attribute_scores:
                    assert a.entity.entity_id < b.entity.entity_id


class TestSearchThenExtract:
    def test_every_hit_is_extractable(self, tiny_pedigree_graph, tiny_query_engine,
                                      named_entity):
        query = Query(
            first_name=named_entity.first("first_name"),
            surname=named_entity.first("surname"),
        )
        for hit in tiny_query_engine.search(query, top_m=10):
            pedigree = extract_pedigree(
                tiny_pedigree_graph, hit.entity.entity_id, generations=2
            )
            assert pedigree.root_id == hit.entity.entity_id
            assert len(pedigree) >= 1
