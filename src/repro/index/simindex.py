"""Similarity-aware index S (Christen, Gayler & Hawking, CIKM 2009).

For every string value in the keyword index, pre-compute all other values
of the same attribute that share at least one bigram and have
Jaro-Winkler similarity ≥ ``s_t``; store those neighbour lists with their
similarities.  At query time an unseen value is compared only against
values sharing a bigram.  Unlike the paper's Section 7, that result is
*not* cached back into S: S is read-only once built, so distinct
misspellings cannot grow it without limit, and repeated queries are
answered by the serving layer's bounded result cache instead.

Thread safety: concurrent searches (``repro.serve`` runs many per
process) share one index without a lock.  The only write after
construction is lazy mode (``precompute=False``) filling a universe
value's list on first lookup; racing threads compute the same list and
a single dict store is atomic.
"""

from __future__ import annotations

import threading
from bisect import bisect_left

import numpy as np

from repro.faults import fire
from repro.similarity.jaro import jaro_winkler_similarity
from repro.similarity.qgram import bigrams

__all__ = ["MemmapSimilarityIndex", "SimilarityAwareIndex"]


class SimilarityAwareIndex:
    """Pre-computed approximate-match neighbourhoods for one attribute's
    value universe."""

    def __init__(
        self,
        values: list[str],
        threshold: float = 0.5,
        precompute: bool = True,
    ) -> None:
        if not 0.0 < threshold < 1.0:
            raise ValueError(f"threshold must be in (0, 1), got {threshold}")
        if precompute:
            fire("index.simindex.build")
        self.threshold = threshold
        self._values = sorted(set(v.lower() for v in values))
        # Bigram inverted index over the value universe.
        self._gram_index: dict[str, list[str]] = {}
        for value in self._values:
            for gram in bigrams(value):
                self._gram_index.setdefault(gram, []).append(value)
        # value -> [(neighbour, similarity)] with similarity >= threshold,
        # sorted by descending similarity.  The value itself is included
        # with similarity 1.0 so lookups need no special case.  Keys are
        # universe values only; the stored lists are never mutated.
        self._neighbours: dict[str, list[tuple[str, float]]] = {}
        if precompute:
            for value in self._values:
                self._neighbours[value] = self._compute_neighbours(value)

    # ------------------------------------------------------------------
    # Persistence state (repro.store)
    # ------------------------------------------------------------------

    def neighbour_state(self) -> dict[str, list[tuple[str, float]]]:
        """Copy of every stored neighbour list, for serialisation into a
        snapshot."""
        return {key: list(pairs) for key, pairs in self._neighbours.copy().items()}

    @classmethod
    def from_precomputed(
        cls,
        values: list[str],
        neighbours: dict[str, list[tuple[str, float]]],
        threshold: float,
    ) -> "SimilarityAwareIndex":
        """Rebuild an index from saved state, skipping the expensive
        all-pairs neighbour computation (snapshot warm start).

        The cheap bigram inverted index is rebuilt from ``values``; the
        precomputed neighbour lists are adopted as-is.
        """
        index = cls(values, threshold=threshold, precompute=False)
        index._neighbours = {
            key: list(pairs) for key, pairs in neighbours.items()
        }
        return index

    # ------------------------------------------------------------------

    def _is_value(self, value: str) -> bool:
        """Whether ``value`` is in the (sorted) value universe."""
        row = bisect_left(self._values, value)
        return row < len(self._values) and str(self._values[row]) == value

    def _candidates(self, value: str) -> set[str]:
        out: set[str] = set()
        for gram in bigrams(value):
            out.update(self._gram_index.get(gram, ()))
        return out

    def _compute_neighbours(self, value: str) -> list[tuple[str, float]]:
        scored: list[tuple[str, float]] = []
        for candidate in self._candidates(value):
            similarity = (
                1.0 if candidate == value
                else jaro_winkler_similarity(value, candidate)
            )
            if similarity >= self.threshold:
                scored.append((candidate, similarity))
        if all(v != value for v, _ in scored) and self._is_value(value):
            scored.append((value, 1.0))
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        return scored

    # ------------------------------------------------------------------

    def matches(self, value: str) -> list[tuple[str, float]]:
        """Indexed values similar to ``value`` with their similarities.

        Known values answer from the pre-computed lists; unseen values are
        resolved against bigram-sharing candidates on every call and
        leave the index unchanged.
        """
        value = value.lower()
        stored = self._neighbours.get(value)
        if stored is not None:
            return list(stored)
        computed = self._compute_neighbours(value)
        if self._is_value(value):
            # Lazy mode: a universe value's list, bounded by the universe.
            self._neighbours[value] = computed
        return list(computed)

    def __contains__(self, value: str) -> bool:
        return value.lower() in self._neighbours

    def n_values(self) -> int:
        """Number of distinct values in the indexed universe."""
        return len(self._values)

    def n_precomputed_pairs(self) -> int:
        """Total stored (value, neighbour) similarity entries."""
        return sum(len(v) for v in self._neighbours.copy().values())


class MemmapSimilarityIndex(SimilarityAwareIndex):
    """A :class:`SimilarityAwareIndex` whose neighbour lists stay on disk.

    Built by :func:`repro.store.codecs.load_sim_indexes_memmap` from the
    raw ``.npy`` snapshot artefacts.  The precomputed neighbour lists —
    the expensive all-pairs payload — remain read-only ``numpy.memmap``
    views looked up by binary search over the sorted key array; only
    *unseen* query values (misspellings outside the universe) fall back
    to the eager path, which lazily builds the bigram inverted index on
    first need.  Like the parent, an unseen value's list is computed per
    call and never stored.

    A pre-fork serving master maps the arrays once and forks, so workers
    share the pages; per-worker private memory holds only the lazily
    built bigram index.
    """

    def __init__(
        self,
        values,
        nb_keys,
        nb_offsets,
        nb_targets,
        nb_sims,
        threshold: float,
    ) -> None:
        if not 0.0 < threshold < 1.0:
            raise ValueError(f"threshold must be in (0, 1), got {threshold}")
        self.threshold = threshold
        # The value universe stays a (memory-mapped) unicode array; the
        # eager parent's membership / iteration uses still work on it.
        self._values = values
        self._nb_keys = nb_keys          # sorted unicode array
        self._nb_offsets = nb_offsets    # int64, len(nb_keys) + 1
        self._nb_targets = nb_targets    # unicode, flattened lists
        self._nb_sims = nb_sims          # float64, parallel to targets
        # Bigram index is only needed for unseen values: build lazily so
        # a fork-shared worker that never sees a misspelling pays nothing.
        self._gram_index = None
        self._gram_lock = threading.Lock()

    def _mapped_row(self, value: str) -> int | None:
        n = len(self._nb_keys)
        if n == 0:
            return None
        row = int(np.searchsorted(self._nb_keys, value))
        if row < n and str(self._nb_keys[row]) == value:
            return row
        return None

    def _mapped_list(self, row: int) -> list[tuple[str, float]]:
        start = int(self._nb_offsets[row])
        end = int(self._nb_offsets[row + 1])
        targets = self._nb_targets[start:end]
        sims = self._nb_sims[start:end]
        return [(str(t), float(s)) for t, s in zip(targets, sims)]

    def _candidates(self, value: str) -> set[str]:
        if self._gram_index is None:
            with self._gram_lock:
                if self._gram_index is None:
                    gram_index: dict[str, list[str]] = {}
                    for stored in self._values:
                        stored = str(stored)
                        for gram in bigrams(stored):
                            gram_index.setdefault(gram, []).append(stored)
                    self._gram_index = gram_index
        return super()._candidates(value)

    def matches(self, value: str) -> list[tuple[str, float]]:
        value = value.lower()
        row = self._mapped_row(value)
        if row is not None:
            return self._mapped_list(row)
        return self._compute_neighbours(value)

    def __contains__(self, value: str) -> bool:
        return self._mapped_row(value.lower()) is not None

    def neighbour_state(self) -> dict[str, list[tuple[str, float]]]:
        """Materialise every stored (mapped) list."""
        return {
            str(key): self._mapped_list(row)
            for row, key in enumerate(self._nb_keys)
        }

    def n_precomputed_pairs(self) -> int:
        return int(self._nb_offsets[-1])
