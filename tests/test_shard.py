"""Sharded resolution: partition soundness, byte parity, sidecar integrity.

``repro.shard`` promises that shard count is an execution detail: any
``--shards N`` run is byte-identical to the serial path, every candidate
pair is resolved exactly once (in its shard xor in the boundary pass),
checkpoints cross shard counts, and the snapshot sidecar it leaves
behind lets incremental ingest re-resolve only dirty shards.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.checkpoint import ResolveCheckpointer
from repro.core.config import SnapsConfig
from repro.core.resolver import SnapsResolver
from repro.data.loader import save_dataset_csv
from repro.data.records import Dataset
from repro.data.synthetic import make_tiny_dataset, split_stream
from repro.faults import InjectedFault, injected
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Trace
from repro.parallel import ParallelConfig
from repro.shard import (
    ShardPlan,
    build_shard_plan,
    closure_components,
    resolve_sharded,
    split_pairs,
)
from repro.shard.boundary import BOUNDARY
from repro.store import SnapshotStore
from repro.store.incremental import IncrementalResolver
from repro.store.manifest import SnapshotIntegrityError, config_fingerprint
from repro.store.shards import (
    has_shard_sidecar,
    load_merge_manifest,
    load_shard_payload,
    load_shard_plan,
    verify_shard_sidecar,
    write_shard_sidecar,
)
from repro.supervise import SuperviseConfig, TaskQuarantinedError


@pytest.fixture(scope="module")
def tiny():
    return make_tiny_dataset(seed=3)


@pytest.fixture(scope="module")
def pairs(tiny):
    return SnapsResolver(SnapsConfig()).block(tiny)


@pytest.fixture(scope="module")
def serial(tiny):
    return SnapsResolver(SnapsConfig()).resolve(
        tiny, parallel=ParallelConfig(workers=0)
    )


def clusters_of(result):
    return sorted(
        tuple(sorted(e.record_ids)) for e in result.entities.entities()
    )


# ----------------------------------------------------------------------
# Partitioner: closure components and the plan
# ----------------------------------------------------------------------


class TestClosureComponents:
    def test_components_partition_covered_records(self, tiny, pairs):
        components = closure_components(tiny, pairs)
        covered = {pair.rid_a for pair in pairs} | {pair.rid_b for pair in pairs}
        seen: set[int] = set()
        for component in components:
            assert not seen & set(component)
            seen.update(component)
        assert seen == covered

    def test_components_ordered_by_smallest_member(self, tiny, pairs):
        components = closure_components(tiny, pairs)
        heads = [component[0] for component in components]
        assert heads == sorted(heads)
        for component in components:
            assert component == sorted(component)

    def test_pair_endpoints_share_a_component(self, tiny, pairs):
        components = closure_components(tiny, pairs)
        home = {
            rid: index
            for index, component in enumerate(components)
            for rid in component
        }
        for pair in pairs:
            assert home[pair.rid_a] == home[pair.rid_b]

    def test_certificate_pair_groups_stay_whole(self, tiny, pairs):
        """Pairs sharing a certificate-pair group key must co-locate —
        the dependency graph gates merges on group evidence."""
        components = closure_components(tiny, pairs)
        home = {
            rid: index
            for index, component in enumerate(components)
            for rid in component
        }
        groups: dict[tuple[int, int], set[int]] = {}
        for pair in pairs:
            cert_a = tiny.records[pair.rid_a].cert_id
            cert_b = tiny.records[pair.rid_b].cert_id
            key = (min(cert_a, cert_b), max(cert_a, cert_b))
            groups.setdefault(key, set()).add(home[pair.rid_a])
        for key, homes in groups.items():
            assert len(homes) == 1, f"group {key} spans components {homes}"


class TestShardPlan:
    def test_build_keeps_components_whole(self, tiny, pairs):
        plan = build_shard_plan(tiny, pairs, 4)
        for component in closure_components(tiny, pairs):
            shards = {plan.shard_of[rid] for rid in component}
            assert len(shards) == 1

    def test_round_trip_and_fingerprint(self, tiny, pairs):
        plan = build_shard_plan(tiny, pairs, 3)
        clone = ShardPlan.from_dict(plan.to_dict())
        assert clone.n_shards == plan.n_shards
        assert clone.shard_records == plan.shard_records
        assert clone.fingerprint == plan.fingerprint
        again = build_shard_plan(tiny, pairs, 3)
        assert again.fingerprint == plan.fingerprint

    def test_duplicate_assignment_rejected(self):
        with pytest.raises(ValueError):
            ShardPlan(2, [[1, 2], [2, 3]])

    def test_loads_are_balanced(self, tiny, pairs):
        """Greedy packing: no shard is empty while another holds more
        than the largest single component above the mean."""
        plan = build_shard_plan(tiny, pairs, 2)
        sizes = [len(records) for records in plan.shard_records]
        assert all(size > 0 for size in sizes)
        largest_component = max(
            len(c) for c in closure_components(tiny, pairs)
        )
        assert max(sizes) - min(sizes) <= largest_component


# ----------------------------------------------------------------------
# Routing: every pair exactly once, in-shard xor boundary
# ----------------------------------------------------------------------


class TestSplitPairs:
    def test_native_plan_has_no_boundary(self, tiny, pairs):
        plan = build_shard_plan(tiny, pairs, 4)
        shard_pairs, boundary = split_pairs(tiny, pairs, plan)
        assert boundary == []
        assert sum(len(p) for p in shard_pairs) == len(pairs)

    def test_shard_lists_preserve_global_order(self, tiny, pairs):
        plan = build_shard_plan(tiny, pairs, 4)
        shard_pairs, _ = split_pairs(tiny, pairs, plan)
        position = {id(pair): index for index, pair in enumerate(pairs)}
        for pair_list in shard_pairs:
            indexes = [position[id(pair)] for pair in pair_list]
            assert indexes == sorted(indexes)

    @given(seed=st.integers(0, 2**32 - 1), n_shards=st.integers(2, 5))
    @settings(max_examples=25, deadline=None)
    def test_every_pair_routed_exactly_once(self, seed, n_shards):
        """Property: under ANY partition — including ones that tear
        components apart — each pair lands in exactly one shard list or
        the boundary, never both, never twice."""
        tiny = make_tiny_dataset(seed=3)
        pairs = SnapsResolver(SnapsConfig()).block(tiny)
        rng = random.Random(seed)
        buckets: list[list[int]] = [[] for _ in range(n_shards)]
        for rid in tiny.records:
            buckets[rng.randrange(n_shards)].append(rid)
        plan = ShardPlan(n_shards, [sorted(b) for b in buckets])
        shard_pairs, boundary = split_pairs(tiny, pairs, plan)
        routed = [pair for pair_list in shard_pairs for pair in pair_list]
        routed.extend(boundary)
        assert len(routed) == len(pairs)
        assert {id(pair) for pair in routed} == {id(pair) for pair in pairs}
        # Pairs routed into a shard really live there: their whole
        # component maps to that one shard.
        components = closure_components(tiny, pairs)
        home = {
            rid: index
            for index, component in enumerate(components)
            for rid in component
        }
        target: dict[int, int] = {}
        for shard, pair_list in enumerate(shard_pairs):
            for pair in pair_list:
                assert target.setdefault(home[pair.rid_a], shard) == shard
        for pair in boundary:
            assert home[pair.rid_a] not in target or len(
                {plan.shard_of.get(rid) for rid in components[home[pair.rid_a]]}
            ) != 1


# ----------------------------------------------------------------------
# Parity: sharded output == serial output
# ----------------------------------------------------------------------


class TestResolveShardedParity:
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_clusters_match_serial(self, tiny, serial, n_shards):
        sharded = resolve_sharded(tiny, SnapsConfig(), n_shards=n_shards)
        assert clusters_of(sharded.result) == clusters_of(serial)
        assert sharded.result.n_atomic == serial.n_atomic
        assert sharded.result.n_relational == serial.n_relational
        assert sharded.n_boundary_pairs == 0

    def test_adversarial_plan_boundary_is_exact(self, tiny, serial, pairs):
        """A plan that tears every component apart forces all pairs
        through the boundary pass — output must still match serial."""
        rids = sorted(tiny.records)
        plan = ShardPlan(3, [sorted(rids[i::3]) for i in range(3)])
        sharded = resolve_sharded(tiny, SnapsConfig(), n_shards=3, plan=plan)
        assert sharded.n_boundary_pairs > 0
        assert clusters_of(sharded.result) == clusters_of(serial)

    def test_real_pool_matches_serial(self, tiny, serial, pool_cpus):
        # pool_cpus forces an actual ProcessPoolExecutor even on a
        # single-core machine: fork shipping, IPC, result ordering.
        sharded = resolve_sharded(tiny, SnapsConfig(), n_shards=2, workers=2)
        assert clusters_of(sharded.result) == clusters_of(serial)

    def test_telemetry_propagates_across_shards(self, tiny, pool_cpus):
        trace, metrics = Trace(), MetricsRegistry()
        sharded = resolve_sharded(
            tiny, SnapsConfig(), n_shards=2, trace=trace, metrics=metrics,
            workers=2,
        )
        counters = metrics.as_dict()["counters"]
        assert counters["shard.resolved"] == len(sharded.shard_stats)
        # Worker-side resolver metrics merged home across the pool.
        assert any(name.startswith("merging.") for name in counters)
        assert counters["resolver.runs"] == len(sharded.shard_stats)
        spans = json.dumps([root.as_dict() for root in trace.roots])
        assert "shard.resolve.s0" in spans and "shard.resolve.s1" in spans
        # Per-shard spans carry the measured wait, worker span beneath.
        for shard in (0, 1):
            wait = trace.find(f"shard.s{shard}")
            assert wait.elapsed > 0
            assert [c.name for c in wait.children] == [f"shard.resolve.s{shard}"]

    def test_shard_count_outside_config_fingerprint(self):
        # Shard count must never enter the fingerprint: checkpoints and
        # snapshot ids have to match across shard counts.
        assert "shard" not in json.dumps(
            SnapsConfig().__dict__, default=str
        ).lower()
        assert config_fingerprint(SnapsConfig()) == config_fingerprint(
            SnapsConfig()
        )


# ----------------------------------------------------------------------
# CLI byte identity + checkpoint compatibility across shard counts
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def stem(tmp_path_factory):
    root = tmp_path_factory.mktemp("shard-data")
    stem = root / "tiny"
    save_dataset_csv(make_tiny_dataset(seed=3), stem)
    return stem


@pytest.fixture(scope="module")
def serial_outputs(stem, tmp_path_factory):
    root = tmp_path_factory.mktemp("shard-serial")
    out, store = root / "graph.json", root / "store"
    assert main([
        "resolve", "--data", str(stem), "--workers", "0",
        "--out", str(out), "--snapshot-out", str(store),
    ]) == 0
    return out.read_bytes(), SnapshotStore(store).latest()


class TestCliByteIdentity:
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_shards_byte_identical_to_serial(
        self, n_shards, stem, serial_outputs, tmp_path
    ):
        serial_bytes, serial_id = serial_outputs
        out, store = tmp_path / "graph.json", tmp_path / "store"
        assert main([
            "resolve", "--data", str(stem), "--shards", str(n_shards),
            "--out", str(out), "--snapshot-out", str(store),
        ]) == 0
        assert out.read_bytes() == serial_bytes
        # Content-addressed: identical artefacts, identical snapshot id.
        assert SnapshotStore(store).latest() == serial_id

    def test_checkpoint_taken_serial_resumes_sharded(
        self, stem, serial_outputs, tmp_path
    ):
        ckdir, out = tmp_path / "ck", tmp_path / "graph.json"
        with injected("checkpoint.saved.blocking:error:times=1"):
            with pytest.raises(InjectedFault):
                main([
                    "resolve", "--data", str(stem), "--workers", "0",
                    "--checkpoint", str(ckdir), "--out", str(out),
                ])
        assert not out.exists()
        assert main([
            "resolve", "--resume", str(ckdir), "--shards", "2",
            "--out", str(out),
        ]) == 0
        assert out.read_bytes() == serial_outputs[0]

    def test_checkpoint_taken_sharded_resumes_serial(
        self, stem, serial_outputs, tmp_path, capsys
    ):
        ckdir, out = tmp_path / "ck", tmp_path / "graph.json"
        # A fault that outlives the retry budget quarantines the shard
        # and aborts the run (the CLI reports TaskQuarantinedError and
        # exits 2) — the same on one CPU and on many.
        with injected("shard.resolve.worker:error:times=none"):
            assert main([
                "resolve", "--data", str(stem), "--shards", "2",
                "--checkpoint", str(ckdir), "--out", str(out),
                "--quarantine-dir", str(tmp_path / "quarantine"),
            ]) == 2
        assert "supervised execution error" in capsys.readouterr().err
        assert not out.exists()
        assert main([
            "resolve", "--resume", str(ckdir), "--workers", "0",
            "--out", str(out),
        ]) == 0
        assert out.read_bytes() == serial_outputs[0]


# ----------------------------------------------------------------------
# Chaos: a shard worker dies mid-resolve
# ----------------------------------------------------------------------


class TestChaosShardWorker:
    def test_worker_death_then_rerun_is_byte_identical(self, tiny, tmp_path):
        config = SnapsConfig()
        ckdir = tmp_path / "ck"
        checkpoint = ResolveCheckpointer.begin(ckdir, tiny, config)
        supervise = SuperviseConfig(quarantine_dir=str(tmp_path / "q"))
        # The worker keeps dying past its retry budget: quarantine aborts.
        with injected("shard.resolve.worker:error:times=none"):
            with pytest.raises(TaskQuarantinedError):
                resolve_sharded(
                    tiny, config, n_shards=2, checkpoint=checkpoint,
                    parallel=ParallelConfig(supervise=supervise),
                )
        # Blocking survived the crash; the rerun restores it and must
        # reproduce the serial clusters exactly.
        checkpoint, restored, config = ResolveCheckpointer.resume(ckdir)
        assert "blocking" in checkpoint.completed_prefix()
        sharded = resolve_sharded(
            restored, config, n_shards=2, checkpoint=checkpoint
        )
        reference = SnapsResolver(config).resolve(
            tiny, parallel=ParallelConfig(workers=0)
        )
        assert clusters_of(sharded.result) == clusters_of(reference)

    def test_worker_error_in_real_pool_is_retried_to_parity(
        self, tiny, pool_cpus
    ):
        # Supervised execution: a transient in-worker error does not
        # kill the run — the shard is re-executed and the output still
        # matches serial exactly.
        with injected("shard.resolve.worker:error:times=1"):
            # fork inherits the installed injector into pool workers
            sharded = resolve_sharded(
                tiny, SnapsConfig(), n_shards=2, workers=2,
            )
        reference = SnapsResolver(SnapsConfig()).resolve(
            tiny, parallel=ParallelConfig(workers=0)
        )
        assert clusters_of(sharded.result) == clusters_of(reference)

    @pytest.mark.parametrize("cpus", ["1", "4"])
    def test_transient_error_retried_to_parity_at_any_cpu_count(
        self, tiny, cpus, monkeypatch
    ):
        """One CPU (in-process) and four (fork pool) share one attempt
        loop, so a one-off worker error is retried to parity on both."""
        monkeypatch.setenv("SNAPS_CPUS", cpus)
        metrics = MetricsRegistry()
        with injected("shard.resolve.worker:error:times=1"):
            sharded = resolve_sharded(
                tiny, SnapsConfig(), n_shards=2, metrics=metrics,
            )
        reference = SnapsResolver(SnapsConfig()).resolve(
            tiny, parallel=ParallelConfig(workers=0)
        )
        assert clusters_of(sharded.result) == clusters_of(reference)
        assert metrics.counter_value("supervise.retries") >= 1

    def test_worker_error_past_budget_fails_loudly(self, tiny, tmp_path):
        supervise = SuperviseConfig(
            max_task_retries=0, quarantine_dir=str(tmp_path)
        )
        with injected("shard.resolve.worker:error:times=none"):
            with pytest.raises(TaskQuarantinedError):
                resolve_sharded(
                    tiny, SnapsConfig(), n_shards=2, workers=2,
                    parallel=ParallelConfig(supervise=supervise),
                )


# ----------------------------------------------------------------------
# Snapshot sidecar: write / load / verify / content addressing
# ----------------------------------------------------------------------


@pytest.fixture()
def sharded_snapshot(tiny, tmp_path):
    config = SnapsConfig()
    sharded = resolve_sharded(tiny, config, n_shards=2)
    store = SnapshotStore(tmp_path / "store")
    manifest = store.save(
        sharded.result,
        config=config,
        sidecar_writer=lambda directory: write_shard_sidecar(
            directory, sharded.plan, sharded.result.entities
        ),
    )
    return store, manifest, sharded


class TestShardSidecar:
    def test_round_trip(self, sharded_snapshot):
        store, manifest, sharded = sharded_snapshot
        directory = store.path_of(manifest.snapshot_id)
        assert has_shard_sidecar(directory)
        merge = load_merge_manifest(directory)
        assert merge["n_shards"] == 2
        assert merge["partition_fingerprint"] == sharded.plan.fingerprint
        plan = load_shard_plan(directory)
        assert plan.shard_records == sharded.plan.shard_records
        payload = load_shard_payload(directory, 0)
        assert payload["shard"] == 0
        assert payload["records"] == sharded.plan.shard_records[0]
        assert verify_shard_sidecar(directory) == []
        assert store.verify(manifest.snapshot_id) == []

    def test_corruption_detected(self, sharded_snapshot):
        store, manifest, _ = sharded_snapshot
        directory = store.path_of(manifest.snapshot_id)
        victim = directory / "shards" / "shard-0001.json"
        victim.write_text(victim.read_text().replace("records", "recorsd", 1))
        problems = verify_shard_sidecar(directory)
        assert problems and "shard-0001.json" in problems[0]
        assert any("shards:" in p for p in store.verify(manifest.snapshot_id))
        with pytest.raises(SnapshotIntegrityError):
            load_shard_payload(directory, 1)

    def test_snapshot_id_invariant_and_reuse_adopts_sidecar(
        self, tiny, serial, tmp_path
    ):
        config = SnapsConfig()
        store = SnapshotStore(tmp_path / "store")
        plain = store.save(serial, config=config)
        assert not has_shard_sidecar(store.path_of(plain.snapshot_id))
        sharded = resolve_sharded(tiny, config, n_shards=4)
        again = store.save(
            sharded.result,
            config=config,
            sidecar_writer=lambda directory: write_shard_sidecar(
                directory, sharded.plan, sharded.result.entities
            ),
        )
        # The sidecar is outside the content address: same id, and the
        # reuse branch moved the fresh sidecar into the stored snapshot.
        assert again.snapshot_id == plain.snapshot_id
        assert has_shard_sidecar(store.path_of(plain.snapshot_id))


# ----------------------------------------------------------------------
# Incremental ingest re-resolves only dirty shards
# ----------------------------------------------------------------------


class TestShardedIngest:
    @pytest.fixture()
    def lineage(self, tmp_path):
        base, deltas = split_stream(make_tiny_dataset(seed=3), n_batches=3)
        config = SnapsConfig()
        store = SnapshotStore(tmp_path / "store")
        sharded = resolve_sharded(base, config, n_shards=4)
        store.save(
            sharded.result,
            config=config,
            sidecar_writer=lambda directory: write_shard_sidecar(
                directory, sharded.plan, sharded.result.entities
            ),
        )
        return store, base, deltas

    @staticmethod
    def single_certificate_delta(delta: Dataset) -> Dataset:
        cert = next(iter(delta.certificates.values()))
        records = [delta.records[rid] for rid in cert.member_record_ids()]
        return Dataset("delta-small", records, [cert])

    def test_only_dirty_shards_reresolved(self, lineage):
        store, _, deltas = lineage
        small = self.single_certificate_delta(deltas[0])
        metrics = MetricsRegistry()
        result = IncrementalResolver(store).ingest(small, metrics=metrics)
        assert result.stats["shards_total"] == 4
        # One certificate dirties one component — one shard; the other
        # three are replayed without re-resolution.
        assert result.stats["shards_reresolved"] == 1
        counters = metrics.as_dict()["counters"]
        assert counters["store.ingest.shards_reresolved"] == 1
        assert counters["store.ingest.shards_skipped"] == 3

    def test_child_inherits_parent_partitioning(self, lineage):
        store, _, deltas = lineage
        result = IncrementalResolver(store).ingest(
            self.single_certificate_delta(deltas[0])
        )
        child = store.path_of(result.manifest.snapshot_id)
        assert has_shard_sidecar(child)
        assert load_merge_manifest(child)["n_shards"] == 4
        assert store.verify(result.manifest.snapshot_id) == []

    def test_shards_override_on_ingest(self, lineage):
        store, _, deltas = lineage
        result = IncrementalResolver(store).ingest(
            self.single_certificate_delta(deltas[0]), shards=2
        )
        child = store.path_of(result.manifest.snapshot_id)
        assert load_merge_manifest(child)["n_shards"] == 2
        assert result.stats["shards_total"] == 4  # counted vs the parent

    def test_chain_matches_full_resolve(self, lineage):
        store, base, deltas = lineage
        from repro.data.records import concat_datasets

        result = IncrementalResolver(store).ingest(deltas[0])
        combined = concat_datasets(base, deltas[0])
        full = SnapsResolver(SnapsConfig()).resolve(
            combined, parallel=ParallelConfig(workers=0)
        )
        assert clusters_of(result.linkage) == clusters_of(full)

    def test_unsharded_parent_stays_unsharded(self, tmp_path):
        base, deltas = split_stream(make_tiny_dataset(seed=3), n_batches=2)
        config = SnapsConfig()
        store = SnapshotStore(tmp_path / "store")
        store.save(SnapsResolver(config).resolve(base), config=config)
        result = IncrementalResolver(store).ingest(
            self.single_certificate_delta(deltas[0])
        )
        assert "shards_total" not in result.stats
        assert not has_shard_sidecar(store.path_of(result.manifest.snapshot_id))
