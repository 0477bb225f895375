"""Parallel resolution parity: every worker count is byte-identical to serial.

The parallel substrate (``repro.parallel``) promises that worker count is
an execution detail with no influence on output.  These tests pin that
promise at every layer: vectorised MinHash rows vs scalar signatures,
batch pair scores vs the scorer's uncached paths, entity clusters at the
API level, pedigree bytes at the CLI level, and checkpoint resume across
worker counts.
"""

from __future__ import annotations

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking.lsh import LshBlocker
from repro.blocking.minhash import _MAX_HASH, MinHasher
from repro.cli import main
from repro.core.config import SnapsConfig
from repro.core.dependency_graph import build_dependency_graph
from repro.core.resolver import SnapsResolver
from repro.core.scoring import NameFrequencyIndex, PairScorer
from repro.data.loader import save_dataset_csv
from repro.data.records import Record
from repro.data.roles import Role
from repro.data.synthetic import make_tiny_dataset
from repro.faults import InjectedFault, injected
from repro.obs.metrics import MetricsRegistry
from repro.parallel import (
    ParallelConfig,
    parallel_graph_and_seeds,
)

np = pytest.importorskip("numpy")

# Unicode-heavy strategy: historical name data carries accents, ligatures
# and the occasional surrogate-free oddity; the vectorised path must agree
# on all of them, including strings too short to produce a single q-gram.
texts = st.text(min_size=0, max_size=24)
short_texts = st.text(
    alphabet=string.ascii_lowercase + "áéîøü 'æ-", min_size=0, max_size=3
)


def clusters_of(result):
    """Canonical cluster representation for equality checks."""
    return sorted(
        tuple(sorted(e.record_ids)) for e in result.entities.entities()
    )


# ----------------------------------------------------------------------
# Vectorised MinHash == scalar MinHash
# ----------------------------------------------------------------------


class TestSignatureMatrixParity:
    @given(values=st.lists(texts, min_size=1, max_size=12))
    @settings(max_examples=60)
    def test_matrix_rows_equal_scalar_signatures(self, values):
        hasher = MinHasher(n_hashes=32, seed=7)
        matrix = hasher.signature_matrix(values)
        assert matrix.shape == (len(values), 32)
        for value, row in zip(values, matrix.tolist()):
            assert tuple(row) == hasher.signature(value)

    @given(values=st.lists(short_texts, min_size=1, max_size=8))
    @settings(max_examples=40)
    def test_gramless_strings_agree_with_scalar(self, values):
        """Empty / sub-q-gram strings hit the sentinel path on both sides."""
        hasher = MinHasher(n_hashes=16, q=2, seed=3)
        matrix = hasher.signature_matrix(values)
        for value, row in zip(values, matrix.tolist()):
            assert tuple(row) == hasher.signature(value)

    def test_matrix_matches_across_instances(self):
        values = ["john smith", "jon smith", "euphemia macdonald", ""]
        a = MinHasher(n_hashes=64, seed=42).signature_matrix(values)
        b = MinHasher(n_hashes=64, seed=42).signature_matrix(values)
        assert (a == b).all()


class TestEmptySignatureSentinel:
    """Regression: the empty-signature sentinel must never co-block with
    a real name.  The sentinel rows are all ``_MAX_HASH + 1`` — strictly
    above any attainable hash — so no LSH band of a real signature can
    equal the corresponding sentinel band."""

    def test_empty_signature_is_cached_sentinel(self):
        hasher = MinHasher(n_hashes=16, q=2, seed=1)
        empty = hasher.signature("")
        assert empty is hasher.signature("")  # one shared sentinel object
        assert all(v > _MAX_HASH for v in empty)
        # Real signatures (qgrams pads, so even 1-char strings gram) stay
        # within the attainable hash range — strictly below the sentinel.
        assert all(v <= _MAX_HASH for v in hasher.signature("x"))

    @given(first=st.text(string.ascii_lowercase, min_size=2, max_size=12))
    @settings(max_examples=40)
    def test_sentinel_never_shares_a_band_with_real_names(self, first):
        blocker = LshBlocker(n_bands=8, rows_per_band=4, seed=9)
        real = blocker.block_keys(
            Record(1, 1, Role.BM, {"first_name": first, "surname": first,
                                   "event_year": "1880"}, 1)
        )
        hasher = blocker._hasher
        sentinel = hasher.signature("")
        r = blocker.rows_per_band
        sentinel_keys = [
            f"{band}:{hash(sentinel[band * r:(band + 1) * r]) & 0xFFFFFFFF:x}"
            for band in range(blocker.n_bands)
        ]
        assert not set(real) & set(sentinel_keys)

    def test_matrix_sentinel_rows_match_scalar_sentinel(self):
        hasher = MinHasher(n_hashes=16, q=2, seed=5)
        matrix = hasher.signature_matrix(["", "a", "real name"])
        assert tuple(matrix[0].tolist()) == hasher.signature("")
        assert tuple(matrix[1].tolist()) == hasher.signature("a")
        assert tuple(matrix[2].tolist()) == hasher.signature("real name")


# ----------------------------------------------------------------------
# Batch pair scoring == PairScorer's uncached paths
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny():
    return make_tiny_dataset(seed=3)


class TestBatchScoreParity:
    def test_seeded_scores_equal_uncached_scorer(self, tiny):
        config = SnapsConfig()
        resolver = SnapsResolver(config)
        pairs = resolver.block(tiny)
        serial_graph = build_dependency_graph(tiny, pairs, config, resolver.registry)
        parallel_graph, seeds = parallel_graph_and_seeds(
            tiny, pairs, config, 1, ParallelConfig(workers=1)
        )
        assert set(parallel_graph.nodes) == set(serial_graph.nodes)
        assert seeds.node_scores  # precompute actually produced scores
        scorer = PairScorer(
            tiny, config, resolver.registry, NameFrequencyIndex(tiny)
        )
        for key, node in serial_graph.nodes.items():
            s_a, s_d = seeds.node_scores[key]
            assert s_a == scorer._atomic_similarity_uncached(node)
            assert s_d == scorer._disambiguation_similarity_uncached(node)

    def test_parallel_graph_structure_matches_serial(self, tiny):
        config = SnapsConfig()
        resolver = SnapsResolver(config)
        pairs = resolver.block(tiny)
        serial = build_dependency_graph(tiny, pairs, config, resolver.registry)
        parallel, _ = parallel_graph_and_seeds(
            tiny, pairs, config, 1, ParallelConfig(workers=1)
        )
        assert list(parallel.nodes) == list(serial.nodes)  # insertion order
        assert parallel.n_atomic == serial.n_atomic
        for key, node in serial.nodes.items():
            other = parallel.nodes[key]
            assert other.group == node.group
            assert set(other.atomic) == set(node.atomic)
            for name, atomic in node.atomic.items():
                assert other.atomic[name].key() == atomic.key()
                assert other.atomic[name].similarity == atomic.similarity


# ----------------------------------------------------------------------
# API-level cluster parity (including a genuine process pool)
# ----------------------------------------------------------------------


class TestResolveParity:
    @pytest.fixture(scope="class")
    def serial(self, tiny):
        return SnapsResolver(SnapsConfig()).resolve(
            tiny, parallel=ParallelConfig(workers=0)
        )

    def test_in_process_parallel_matches_serial(self, tiny, serial):
        result = SnapsResolver(SnapsConfig()).resolve(
            tiny, parallel=ParallelConfig(workers=1)
        )
        assert clusters_of(result) == clusters_of(serial)

    def test_real_pool_matches_serial(self, tiny, serial, pool_cpus):
        # pool_cpus forces an actual ProcessPoolExecutor even on a
        # single-core machine, exercising fork payload shipping + IPC.
        result = SnapsResolver(SnapsConfig()).resolve(
            tiny, parallel=ParallelConfig(workers=2)
        )
        assert clusters_of(result) == clusters_of(serial)

    def test_output_metrics_match_serial(self, tiny):
        def run(workers):
            metrics = MetricsRegistry()
            SnapsResolver(SnapsConfig()).resolve(
                tiny, metrics=metrics, parallel=ParallelConfig(workers=workers)
            )
            counters = metrics.as_dict()["counters"]
            return {
                name: count
                for name, count in counters.items()
                if name.startswith(("blocking.", "constraints.", "merge.",
                                    "bootstrap.", "resolver."))
            }

        assert run(1) == run(0)

    def test_parallel_run_reports_cache_metrics(self, tiny):
        metrics = MetricsRegistry()
        SnapsResolver(SnapsConfig()).resolve(
            tiny, metrics=metrics, parallel=ParallelConfig(workers=1)
        )
        snapshot = metrics.as_dict()
        assert snapshot["gauges"]["parallel.workers"] == 1
        assert snapshot["counters"]["parallel.chunks"] >= 1
        assert "scoring.sim_cache.hits" in snapshot["counters"]
        assert "scoring.node_cache.hits" in snapshot["counters"]
        assert "scoring.propagate_memo.hits" in snapshot["counters"]
        assert snapshot["gauges"]["scoring.sim_cache.size"] > 0


# ----------------------------------------------------------------------
# CLI end-to-end byte identity + checkpoint compatibility
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def stem(tmp_path_factory):
    root = tmp_path_factory.mktemp("parallel-data")
    stem = root / "tiny"
    save_dataset_csv(make_tiny_dataset(seed=3), stem)
    return stem


@pytest.fixture(scope="module")
def serial_graph_bytes(stem, tmp_path_factory):
    out = tmp_path_factory.mktemp("parallel-serial") / "graph.json"
    assert main([
        "resolve", "--data", str(stem), "--workers", "0", "--out", str(out)
    ]) == 0
    return out.read_bytes()


class TestCliParity:
    # The tiny dataset sits below ParallelConfig.min_records, so auto mode
    # would stay serial — every case passes --workers explicitly.
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_workers_byte_identical_to_serial(
        self, workers, stem, serial_graph_bytes, tmp_path
    ):
        out = tmp_path / "graph.json"
        assert main([
            "resolve", "--data", str(stem),
            "--workers", str(workers), "--out", str(out),
        ]) == 0
        assert out.read_bytes() == serial_graph_bytes

    @pytest.mark.parametrize("resume_workers", ["0", "1"])
    def test_checkpoint_crosses_worker_counts(
        self, resume_workers, stem, serial_graph_bytes, tmp_path
    ):
        """Crash under --workers 4, resume under another count: identical."""
        ckdir, out = tmp_path / "ck", tmp_path / "graph.json"
        with injected("checkpoint.saved.bootstrap:error:times=1"):
            with pytest.raises(InjectedFault):
                main([
                    "resolve", "--data", str(stem), "--workers", "4",
                    "--checkpoint", str(ckdir), "--out", str(out),
                ])
        assert not out.exists()
        assert main([
            "resolve", "--resume", str(ckdir),
            "--workers", resume_workers, "--out", str(out),
        ]) == 0
        assert out.read_bytes() == serial_graph_bytes
