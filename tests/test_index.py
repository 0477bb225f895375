"""Tests for the keyword index K and similarity-aware index S."""

import pytest

from repro.index import KeywordIndex, SimilarityAwareIndex


class TestKeywordIndex:
    def test_exact_name_lookup(self, tiny_pedigree_graph):
        index = KeywordIndex(tiny_pedigree_graph)
        entity = next(iter(tiny_pedigree_graph))
        first = entity.first("first_name")
        if first is None:
            pytest.skip("entity without first name")
        assert entity.entity_id in index.lookup("first_name", first)

    def test_lookup_is_case_insensitive(self, tiny_pedigree_graph):
        index = KeywordIndex(tiny_pedigree_graph)
        entity = next(iter(tiny_pedigree_graph))
        first = entity.first("first_name")
        if first is None:
            pytest.skip("entity without first name")
        assert index.lookup("first_name", first.upper()) == index.lookup(
            "first_name", first
        )

    def test_unknown_value_empty(self, tiny_pedigree_graph):
        index = KeywordIndex(tiny_pedigree_graph)
        assert index.lookup("first_name", "zzzznotaname") == set()

    def test_every_value_of_entity_indexed(self, tiny_pedigree_graph):
        """A woman with maiden + married surnames is findable under both."""
        index = KeywordIndex(tiny_pedigree_graph)
        for entity in tiny_pedigree_graph:
            for surname in entity.values.get("surname", ()):
                assert entity.entity_id in index.lookup("surname", surname)

    def test_year_range_lookup(self, tiny_pedigree_graph):
        index = KeywordIndex(tiny_pedigree_graph)
        everyone = index.lookup_year_range(1800, 1999)
        assert len(everyone) == len(tiny_pedigree_graph)
        assert index.lookup_year_range(1700, 1750) == set()

    def test_year_range_validation(self, tiny_pedigree_graph):
        index = KeywordIndex(tiny_pedigree_graph)
        with pytest.raises(ValueError):
            index.lookup_year_range(1900, 1890)

    def test_gender_lookup_partitions(self, tiny_pedigree_graph):
        index = KeywordIndex(tiny_pedigree_graph)
        males = index.lookup_gender("m")
        females = index.lookup_gender("f")
        assert males and females
        assert not males & females

    def test_values_enumerates_sorted(self, tiny_pedigree_graph):
        index = KeywordIndex(tiny_pedigree_graph)
        values = index.values("surname")
        assert values == sorted(values)
        assert len(values) > 0

    def test_n_keys_positive(self, tiny_pedigree_graph):
        assert KeywordIndex(tiny_pedigree_graph).n_keys() > 0


class TestSimilarityAwareIndex:
    @pytest.fixture()
    def index(self):
        return SimilarityAwareIndex(
            ["macdonald", "mcdonald", "macleod", "stewart", "macdonell"],
            threshold=0.5,
        )

    def test_self_match_is_one(self, index):
        matches = dict(index.matches("macdonald"))
        assert matches["macdonald"] == 1.0

    def test_similar_values_found(self, index):
        matches = dict(index.matches("macdonald"))
        assert "mcdonald" in matches
        assert matches["mcdonald"] >= 0.5

    def test_results_sorted_descending(self, index):
        scores = [s for _, s in index.matches("macdonald")]
        assert scores == sorted(scores, reverse=True)

    def test_unseen_value_resolved_and_cached(self, index):
        assert "macdonlad" not in index
        matches = index.matches("macdonlad")  # typo
        assert any(value == "macdonald" for value, _ in matches)

    def test_no_shared_bigram_no_match(self, index):
        assert index.matches("zzqq") == []

    def test_threshold_respected(self):
        index = SimilarityAwareIndex(["macdonald", "stewart"], threshold=0.9)
        matches = dict(index.matches("macdonald"))
        assert "stewart" not in matches

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            SimilarityAwareIndex(["a"], threshold=0.0)

    def test_precompute_counts(self, index):
        assert index.n_values() == 5
        assert index.n_precomputed_pairs() >= 5  # at least the self-pairs

    def test_lazy_mode(self):
        index = SimilarityAwareIndex(["macdonald", "mcdonald"], precompute=False)
        assert index.n_precomputed_pairs() == 0
        index.matches("macdonald")
        assert index.n_precomputed_pairs() > 0
