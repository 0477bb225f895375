# Developer entry points for the SNAPS reproduction.

.PHONY: install test verify serve-smoke prefork-smoke stream-smoke obs-smoke shard-smoke supervise-smoke cpus-matrix perfbench-smoke chaos bench bench-full examples clean

install:
	pip install -e . --no-build-isolation

test:
	pytest tests/

# Fail-fast gate for CI and pre-commit: tier-1 tests, a bytecode compile
# of the whole library, and a telemetry smoke run (simulate → resolve
# with tracing → report) so observability regressions surface
# immediately.
VERIFY_TMP = /tmp/snaps-verify

# The smoke-run block executes in ONE shell with an EXIT trap so
# $(VERIFY_TMP) is removed whether the run passes or fails.
verify:
	PYTHONPATH=src python -m pytest -x -q tests/
	python -m compileall -q src
	rm -rf $(VERIFY_TMP) && mkdir -p $(VERIFY_TMP); \
	trap 'rm -rf $(VERIFY_TMP)' EXIT; \
	set -e; \
	PYTHONPATH=src python -m repro simulate --dataset tiny --out $(VERIFY_TMP)/data; \
	PYTHONPATH=src python -m repro -v resolve --data $(VERIFY_TMP)/data \
		--out $(VERIFY_TMP)/graph.json --snapshot-out $(VERIFY_TMP)/store \
		--trace --metrics-out $(VERIFY_TMP)/run.json; \
	PYTHONPATH=src python -m repro report $(VERIFY_TMP)/run.json; \
	PYTHONPATH=src python -m repro snapshot verify --store $(VERIFY_TMP)/store; \
	PYTHONPATH=src python -m repro query --snapshot $(VERIFY_TMP)/store \
		--first-name john --surname macdonald --top 3
	$(MAKE) serve-smoke
	$(MAKE) prefork-smoke
	$(MAKE) stream-smoke
	$(MAKE) shard-smoke
	$(MAKE) supervise-smoke

# Fault-tolerance gate: the fault substrate's unit tests plus the chaos
# suites — crash-resume at every checkpoint boundary must be
# byte-identical, and degraded serving must hold 200s while backends
# fail.  Runs as its own CI job so chaos regressions are named as such.
chaos:
	PYTHONPATH=src python -m pytest -q tests/test_faults.py \
		tests/test_checkpoint.py tests/test_data_validate.py \
		tests/test_chaos_pipeline.py tests/test_chaos_serve.py \
		tests/test_stream.py tests/test_supervise.py

# Machine-shape gate: task execution must behave the same whether every
# task runs in-process (SNAPS_CPUS=1) or on a fork pool (SNAPS_CPUS=4),
# so the parity, shard and supervision suites run at both.
CPUS_SUITES = tests/test_parallel_parity.py tests/test_shard.py tests/test_supervise.py

cpus-matrix:
	SNAPS_CPUS=1 PYTHONPATH=src python -m pytest -q $(CPUS_SUITES)
	SNAPS_CPUS=4 PYTHONPATH=src python -m pytest -q $(CPUS_SUITES)

# Boot the HTTP serving subsystem on an in-process tiny graph, hit
# /healthz, /v1/search (checked against the offline engine), a pedigree,
# and /metricz, then shut down.  See src/repro/serve/smoke.py.
serve-smoke:
	PYTHONPATH=src python -m repro.serve.smoke

# Pre-fork fleet gate: boot 4 workers over one memory-mapped snapshot,
# SIGKILL a worker mid-traffic (supervised restart, zero non-2xx), then
# one zero-downtime reload onto a second snapshot (rolling rotation,
# zero non-2xx).  See src/repro/serve/prefork_smoke.py.
prefork-smoke:
	PYTHONPATH=src python -m repro.serve.prefork_smoke

# Spool three micro-batches through a live replica: every batch must
# ingest, promote with zero downtime, and show up in the stream.*
# gauges/prom exposition.  Artefacts land in /tmp/snaps-stream-smoke
# for CI upload.  See src/repro/stream/smoke.py.
stream-smoke:
	PYTHONPATH=src python -m repro.stream.smoke

# Observability gate: a multi-worker resolve with durable tracing and
# the sampling profiler on must stay byte-identical to serial, leave a
# walkable single-tree trace file and a checkable report/prom rendering
# (scripts/check_obs.py), and the bench regression tracker must build a
# baseline and pass --check across two quick bench runs.  Artefacts stay
# in $(OBS_TMP) for CI upload; the directory is recreated per run.
OBS_TMP = /tmp/snaps-obs-smoke

obs-smoke:
	rm -rf $(OBS_TMP) && mkdir -p $(OBS_TMP); \
	set -e; \
	PYTHONPATH=src python -m repro simulate --dataset tiny --out $(OBS_TMP)/data; \
	SNAPS_OBS=durable PYTHONPATH=src python -m repro resolve \
		--data $(OBS_TMP)/data --workers 2 --out $(OBS_TMP)/graph.json \
		--trace-out $(OBS_TMP)/trace.jsonl --metrics-out $(OBS_TMP)/run.json \
		--profile --profile-out $(OBS_TMP)/profile.txt; \
	PYTHONPATH=src python -m repro resolve --data $(OBS_TMP)/data \
		--workers 0 --out $(OBS_TMP)/serial.json; \
	cmp $(OBS_TMP)/graph.json $(OBS_TMP)/serial.json; \
	PYTHONPATH=src python scripts/check_obs.py $(OBS_TMP)/trace.jsonl \
		$(OBS_TMP)/run.json $(OBS_TMP)/profile.txt; \
	PYTHONPATH=src python -m repro report $(OBS_TMP)/run.json --format prom > /dev/null; \
	REPRO_BENCH_SCALE=0.05 PYTHONPATH=src python benchmarks/bench_parallel_scaling.py --quick; \
	PYTHONPATH=src python -m repro bench-history --history $(OBS_TMP)/history.jsonl; \
	REPRO_BENCH_SCALE=0.05 PYTHONPATH=src python benchmarks/bench_parallel_scaling.py --quick; \
	PYTHONPATH=src python -m repro bench-history --history $(OBS_TMP)/history.jsonl --check

# Sharded-resolution gate: a 2-shard resolve must land on the same
# content-addressed snapshot as serial with every payload byte-identical
# (cmp), carry an intact shards/ sidecar, and a single-certificate delta
# ingest against a 4-shard snapshot must re-resolve exactly one dirty
# shard.  Artefacts (both stores incl. merge manifests) stay in
# $(SHARD_TMP) for CI upload; the directory is recreated per run.
SHARD_TMP = /tmp/snaps-shard-smoke

shard-smoke:
	rm -rf $(SHARD_TMP) && mkdir -p $(SHARD_TMP); \
	set -e; \
	PYTHONPATH=src python -m repro simulate --dataset tiny --out $(SHARD_TMP)/data; \
	PYTHONPATH=src python -m repro resolve --data $(SHARD_TMP)/data \
		--workers 0 --out $(SHARD_TMP)/serial.json --snapshot-out $(SHARD_TMP)/store-serial; \
	PYTHONPATH=src python -m repro resolve --data $(SHARD_TMP)/data \
		--shards 2 --out $(SHARD_TMP)/sharded.json --snapshot-out $(SHARD_TMP)/store-sharded; \
	cmp $(SHARD_TMP)/serial.json $(SHARD_TMP)/sharded.json; \
	ID=$$(cat $(SHARD_TMP)/store-serial/HEAD); \
	test "$$ID" = "$$(cat $(SHARD_TMP)/store-sharded/HEAD)"; \
	for f in clusters.json graph.json keyword_index.npz simindex.npz \
			dataset.records.csv dataset.certs.csv; do \
		cmp $(SHARD_TMP)/store-serial/snapshots/$$ID/$$f \
			$(SHARD_TMP)/store-sharded/snapshots/$$ID/$$f; \
	done; \
	test -f $(SHARD_TMP)/store-sharded/snapshots/$$ID/shards/merge-manifest.json; \
	PYTHONPATH=src python -m repro snapshot verify --store $(SHARD_TMP)/store-sharded; \
	PYTHONPATH=src python -m repro snapshot inspect --store $(SHARD_TMP)/store-sharded | grep -q "shards:"; \
	PYTHONPATH=src python -c "from repro.data.loader import save_dataset_csv; \
		from repro.data.records import Dataset; \
		from repro.data.synthetic import make_tiny_dataset, split_stream; \
		base, deltas = split_stream(make_tiny_dataset(seed=3), n_batches=3); \
		save_dataset_csv(base, '$(SHARD_TMP)/base'); \
		cert = next(iter(deltas[0].certificates.values())); \
		small = Dataset('delta', [deltas[0].records[r] for r in cert.member_record_ids()], [cert]); \
		save_dataset_csv(small, '$(SHARD_TMP)/delta')"; \
	PYTHONPATH=src python -m repro resolve --data $(SHARD_TMP)/base \
		--shards 4 --out $(SHARD_TMP)/base.json --snapshot-out $(SHARD_TMP)/store-ingest; \
	PYTHONPATH=src python -m repro snapshot ingest --store $(SHARD_TMP)/store-ingest \
		--data $(SHARD_TMP)/delta | tee $(SHARD_TMP)/ingest.out; \
	grep -q "re-resolved 1/4 dirty shard" $(SHARD_TMP)/ingest.out; \
	PYTHONPATH=src python -m repro snapshot verify --store $(SHARD_TMP)/store-ingest

# Supervised-execution gate: a worker killed (or hung) mid-resolve must
# recover to byte-identical output with the restart counted in the run
# report; a poison task must leave a quarantine artifact and an
# actionable error; injected ENOSPC during snapshot commit must abort
# with a hint and leave no partial snapshot.  SNAPS_CPUS=2 makes the box
# look like two CPUs so the real multi-worker pool runs even on 1-CPU CI
# boxes.  Artefacts stay in $(SUPERVISE_TMP) for CI upload.
SUPERVISE_TMP = /tmp/snaps-supervise-smoke

supervise-smoke:
	rm -rf $(SUPERVISE_TMP) && mkdir -p $(SUPERVISE_TMP); \
	set -e; \
	PYTHONPATH=src python -m repro simulate --dataset tiny --out $(SUPERVISE_TMP)/data; \
	PYTHONPATH=src python -m repro resolve --data $(SUPERVISE_TMP)/data \
		--workers 0 --out $(SUPERVISE_TMP)/serial.json; \
	SNAPS_CPUS=2 SNAPS_FAULTS='supervise.task.score.t0.a0:worker_crash' \
		PYTHONPATH=src python -m repro resolve --data $(SUPERVISE_TMP)/data \
		--workers 2 --out $(SUPERVISE_TMP)/crash.json \
		--metrics-out $(SUPERVISE_TMP)/crash-run.json; \
	cmp $(SUPERVISE_TMP)/serial.json $(SUPERVISE_TMP)/crash.json; \
	grep -q '"supervise.restarts": 1' $(SUPERVISE_TMP)/crash-run.json; \
	SNAPS_CPUS=2 SNAPS_FAULTS='supervise.task.score.t0.a0:hang:latency_s=30' \
		PYTHONPATH=src python -m repro resolve --data $(SUPERVISE_TMP)/data \
		--workers 2 --task-timeout 1 --out $(SUPERVISE_TMP)/hang.json \
		--metrics-out $(SUPERVISE_TMP)/hang-run.json; \
	cmp $(SUPERVISE_TMP)/serial.json $(SUPERVISE_TMP)/hang.json; \
	grep -q '"supervise.hung_tasks": 1' $(SUPERVISE_TMP)/hang-run.json; \
	SNAPS_CPUS=2 SNAPS_FAULTS='supervise.task.score.t0.a*:error:times=none' \
		PYTHONPATH=src python -m repro resolve --data $(SUPERVISE_TMP)/data \
		--workers 2 --task-retries 0 --quarantine-dir $(SUPERVISE_TMP)/quarantine \
		--out $(SUPERVISE_TMP)/poison.json 2>$(SUPERVISE_TMP)/poison.err \
		&& exit 1 || test $$? -eq 2; \
	grep -q "quarantined" $(SUPERVISE_TMP)/poison.err; \
	test -s $(SUPERVISE_TMP)/quarantine/tasks.jsonl; \
	SNAPS_FAULTS='store.save.payloads:enospc' \
		PYTHONPATH=src python -m repro resolve --data $(SUPERVISE_TMP)/data \
		--snapshot-out $(SUPERVISE_TMP)/store 2>$(SUPERVISE_TMP)/enospc.err \
		&& exit 1 || test $$? -eq 2; \
	grep -q "free disk space" $(SUPERVISE_TMP)/enospc.err; \
	test ! -d $(SUPERVISE_TMP)/store/snapshots || test -z "$$(ls -A $(SUPERVISE_TMP)/store/snapshots)"

# Benchmark gate: the benchmark's own helper tests, then one short traced
# run of the end-to-end benchmark on the ios workload.  The traced run
# imports resolver and serving internals by name, so a src/ change can
# break it; it must end in "correct": true (every served body matched
# the in-process reference).  About a minute on a 2-vCPU box.
PERFBENCH_OUT = /tmp/snaps-perfbench-smoke.json

perfbench-smoke:
	python -m pytest -q perfbench/tests
	python perfbench/run.py --workload ios --seed 1 --seconds 6 --trace 1 \
		> $(PERFBENCH_OUT); status=$$?; cat $(PERFBENCH_OUT); test $$status -eq 0
	tail -n 1 $(PERFBENCH_OUT) | python -c "import json, sys; \
		sys.exit(0 if json.load(sys.stdin)['correct'] is True \
		else 'perfbench-smoke: the run did not end in \"correct\": true')"

# The full evaluation harness: one bench per paper table/figure plus the
# design-choice ablations.  REPRO_BENCH_SCALE=1.0 approximates paper-sized
# datasets (slow); the default 0.25 finishes in minutes.
bench:
	pytest benchmarks/ --benchmark-only

bench-full:
	REPRO_BENCH_SCALE=1.0 pytest benchmarks/ --benchmark-only

examples:
	python examples/quickstart.py
	python examples/anonymisation_demo.py
	python examples/census_linkage.py
	python examples/pedigree_search.py
	python examples/scalability_sweep.py
	python examples/baseline_comparison.py

clean:
	rm -rf benchmarks/results .pytest_cache .benchmarks .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
