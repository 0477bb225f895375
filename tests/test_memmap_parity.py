"""Memmap snapshot tier: raw artefacts, byte parity, fallback loads.

The pre-fork serving tier maps index arrays straight off the snapshot's
raw ``.npy`` tier instead of inflating ``.npz`` copies per process.
That is an optimisation, not a semantics change — so these tests pin
the contract: a memmap-loaded snapshot answers ``/v1/search`` and
``/v1/pedigree`` with responses *byte-identical* to an eager load, and
snapshots written before the raw tier existed (schema v1) still load
with ``memmap=True`` by falling back to the eager codec.
"""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

from repro.core import SnapsConfig, SnapsResolver
from repro.data.synthetic import make_ios_dataset
from repro.index import (
    KeywordIndex,
    MemmapKeywordIndex,
    MemmapSimilarityIndex,
)
from repro.parallel import ParallelConfig
from repro.pedigree import build_pedigree_graph
from repro.serve import ServeConfig, ServingApp
from repro.store import SnapshotStore
from repro.store import codecs


SEARCH_BODIES = [
    {"first_name": "john", "surname": "macdonald", "top": 10},
    {"first_name": "mary", "surname": "mackenzie", "top": 5},
    {"first_name": "jon", "surname": "macdonld", "top": 10},  # misspelled
]


@pytest.fixture(scope="module")
def graph_store(tmp_path_factory, resolved_tiny, tiny_pedigree_graph):
    """One snapshot carrying graph + indexes + the raw memmap tier."""
    store = SnapshotStore(tmp_path_factory.mktemp("memmap-store"))
    manifest = store.save(
        resolved_tiny, graph=tiny_pedigree_graph, config=SnapsConfig()
    )
    return store, manifest


def _app(loaded) -> ServingApp:
    return ServingApp(
        loaded.graph,
        ServeConfig(cache_size=0),
        keyword_index=loaded.keyword_index,
        sim_index=loaded.sim_index,
        manifest=loaded.manifest,
    )


class TestRawTier:
    def test_manifest_records_raw_artifacts(self, graph_store):
        _, manifest = graph_store
        assert manifest.schema_version == 2
        assert manifest.raw_artifacts
        assert any(
            name.endswith(".npy") for name in manifest.raw_artifacts
        )

    def test_raw_files_exist_and_checksum(self, graph_store):
        store, manifest = graph_store
        assert store.verify(manifest.snapshot_id) == []
        directory = store.root / "snapshots" / manifest.snapshot_id
        for name in manifest.raw_artifacts:
            assert (directory / name).exists(), name

    def test_memmap_load_maps_arrays(self, graph_store):
        store, manifest = graph_store
        loaded = store.load(
            manifest.snapshot_id, artifacts=("graph", "indexes"), memmap=True
        )
        assert loaded.memmapped
        assert isinstance(loaded.keyword_index, MemmapKeywordIndex)
        for sub in loaded.sim_index.values():
            assert isinstance(sub, MemmapSimilarityIndex)
        # The posting arrays must actually be memory-mapped, not copies.
        assert any(
            isinstance(getattr(loaded.keyword_index, attr, None), np.memmap)
            for attr in vars(loaded.keyword_index)
        )

    def test_raw_tier_does_not_change_snapshot_id(
        self, graph_store, resolved_tiny, tiny_pedigree_graph, tmp_path
    ):
        """Content address covers the logical artefacts only."""
        _, manifest = graph_store
        again = SnapshotStore(tmp_path / "again").save(
            resolved_tiny, graph=tiny_pedigree_graph, config=SnapsConfig()
        )
        assert again.snapshot_id == manifest.snapshot_id


class TestReadOnlySimIndex:
    """Neither S nor its memmap twin grows when queried with unseen
    values; the unseen value's neighbours are still found."""

    @pytest.mark.parametrize("memmap", [False, True], ids=["eager", "memmap"])
    def test_unseen_value_found_but_not_stored(self, graph_store, memmap):
        store, manifest = graph_store
        loaded = store.load(
            manifest.snapshot_id, artifacts=("graph", "indexes"), memmap=memmap
        )
        index = loaded.sim_index["surname"]
        state = index.neighbour_state()
        pairs = index.n_precomputed_pairs()
        # A stored surname with one letter dropped is a misspelling that
        # is not itself in the universe.
        known = next(
            v for v in sorted(state) if len(v) > 5 and v[:2] + v[3:] not in state
        )
        unseen = known[:2] + known[3:]
        assert known in index and unseen not in index
        for _ in range(2):
            found = dict(index.matches(unseen))
            assert found[known] >= index.threshold
        assert unseen not in index
        assert index.neighbour_state() == state
        assert index.n_precomputed_pairs() == pairs


class TestByteParity:
    @pytest.fixture(scope="class")
    def apps(self, graph_store):
        store, manifest = graph_store
        eager = store.load(manifest.snapshot_id, artifacts=("graph", "indexes"))
        mapped = store.load(
            manifest.snapshot_id, artifacts=("graph", "indexes"), memmap=True
        )
        assert not eager.memmapped and mapped.memmapped
        return _app(eager), _app(mapped)

    @pytest.mark.parametrize("body", SEARCH_BODIES, ids=["hit", "narrow", "fuzzy"])
    def test_search_bytes_identical(self, apps, body):
        eager_app, mapped_app = apps
        raw = json.dumps(body).encode("utf-8")
        eager = eager_app.handle("POST", "/v1/search", {}, raw)
        mapped = mapped_app.handle("POST", "/v1/search", {}, raw)
        assert eager.status == mapped.status == 200
        assert eager.body == mapped.body

    def test_pedigree_bytes_identical(self, apps):
        eager_app, mapped_app = apps
        raw = json.dumps(SEARCH_BODIES[0]).encode("utf-8")
        hits = json.loads(
            eager_app.handle("POST", "/v1/search", {}, raw).body
        )["matches"]
        assert hits, "probe search must match for the pedigree leg"
        root = hits[0]["entity"]["entity_id"]
        path = f"/v1/pedigree/{root}"
        params = {"generations": "3"}
        eager = eager_app.handle("GET", path, params, b"")
        mapped = mapped_app.handle("GET", path, params, b"")
        assert eager.status == mapped.status == 200
        assert eager.body == mapped.body


def _bench_bodies(dataset, count: int, seed: int = 7) -> list[dict]:
    """``count`` distinct searches drawn like the serving benchmark's:
    real record names, some misspelled, some with year/parish filters."""
    rng = random.Random(seed)
    records = [
        r for r in dataset if r.get("first_name") and r.get("surname")
    ]
    seen: set[str] = set()
    bodies: list[dict] = []
    while len(bodies) < count:
        record = rng.choice(records)
        surname = record.get("surname")
        if len(surname) >= 4 and rng.random() < 0.3:
            cut = rng.randrange(1, len(surname) - 1)
            surname = surname[:cut] + surname[cut + 1:]
        body = {"first_name": record.get("first_name"), "surname": surname}
        year = record.get("event_year")
        if year and rng.random() < 0.3:
            body["year_from"] = int(year) - rng.randint(5, 15)
            body["year_to"] = int(year) + rng.randint(5, 15)
        if record.get("parish") and rng.random() < 0.3:
            body["parish"] = record.get("parish")
        key = json.dumps(body, sort_keys=True)
        if key not in seen:
            seen.add(key)
            bodies.append(body)
    return bodies


class TestBenchScaleParity:
    """Parity at the serving benchmark's corpus scale (IOS 0.1), where
    tied scores are common: eager and memmap indexes hand postings to
    the ranker in different orders, so only a total ranking order keeps
    the response bytes equal."""

    @pytest.fixture(scope="class")
    def bench_apps(self, tmp_path_factory):
        dataset = make_ios_dataset(scale=0.1)
        result = SnapsResolver(SnapsConfig()).resolve(
            dataset, parallel=ParallelConfig(workers=1)
        )
        graph = build_pedigree_graph(dataset, result.entities)
        store = SnapshotStore(tmp_path_factory.mktemp("memmap-bench"))
        manifest = store.save(result, graph=graph, config=SnapsConfig())
        eager = store.load(manifest.snapshot_id, artifacts=("graph", "indexes"))
        mapped = store.load(
            manifest.snapshot_id, artifacts=("graph", "indexes"), memmap=True
        )
        assert mapped.memmapped
        return dataset, _app(eager), _app(mapped)

    def test_search_bytes_identical_at_bench_scale(self, bench_apps):
        dataset, eager_app, mapped_app = bench_apps
        differing = []
        for body in _bench_bodies(dataset, 300):
            raw = json.dumps({**body, "top": 10}).encode("utf-8")
            eager = eager_app.handle("POST", "/v1/search", {}, raw)
            mapped = mapped_app.handle("POST", "/v1/search", {}, raw)
            assert eager.status == mapped.status == 200
            if eager.body != mapped.body:
                differing.append(body)
        assert differing == []


class TestFallback:
    def test_old_snapshot_without_raw_tier_still_loads(
        self, resolved_tiny, tiny_pedigree_graph, tmp_path
    ):
        """A schema-v1 snapshot (pre raw tier) under ``memmap=True``."""
        store = SnapshotStore(tmp_path / "old-store")
        manifest = store.save(
            resolved_tiny, graph=tiny_pedigree_graph, config=SnapsConfig()
        )
        directory = store.root / "snapshots" / manifest.snapshot_id
        # Rewind the snapshot to the pre-raw-tier layout in place.
        raw_dir = directory / codecs.RAW_DIRNAME
        for path in sorted(raw_dir.glob("*")):
            path.unlink()
        raw_dir.rmdir()
        manifest_path = directory / "manifest.json"
        blob = json.loads(manifest_path.read_text())
        blob.pop("raw_artifacts", None)
        blob["schema_version"] = 1
        manifest_path.write_text(json.dumps(blob))

        loaded = store.load(
            manifest.snapshot_id, artifacts=("graph", "indexes"), memmap=True
        )
        assert not loaded.memmapped
        assert isinstance(loaded.keyword_index, KeywordIndex)
        raw = json.dumps(SEARCH_BODIES[0]).encode("utf-8")
        response = _app(loaded).handle("POST", "/v1/search", {}, raw)
        assert response.status == 200
