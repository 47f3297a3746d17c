# Convenience targets; plain pytest works too.

.PHONY: install test test-schedsan test-obs test-faultlab test-compiled test-cluster engine lint perfbench-check microbench experiments quick-experiments examples obs-demo obs-record cluster-demo cluster-gate clean

install:
	pip install -e .

test:
	pytest tests/ -q

test-schedsan:
	REPRO_SCHEDSAN=1 pytest tests/ -q

test-obs:
	REPRO_OBS=1 pytest tests/ -q

# Fault-injection smoke campaign (see docs/ROBUSTNESS.md).  Writes
# shrunk reproducers to faultlab-repros/ on failure.
test-faultlab:
	python -m repro.faultlab run --quick --workers 2 --repro-dir faultlab-repros

# The same suite on the compiled engine (builds repro/core/_sfqc.c on
# first use; hard-fails rather than falling back to pure).
test-compiled:
	REPRO_ENGINE=compiled pytest tests/ -q

# Build (or reuse) the compiled-engine artifact under build/engine/.
engine:
	python -c "from repro.core.engine import build_extension; \
		print(build_extension(quiet=False))"

lint:
	PYTHONPATH=src python -m repro.devtools.schedlint src/
	PYTHONPATH=src python -m repro.devtools.schedflow \
		--baseline devtools/schedflow-baseline.json src/repro
	@if command -v mypy >/dev/null 2>&1; then \
		mypy --config-file setup.cfg; \
	else \
		echo "mypy not installed; skipping typed-core check"; \
	fi

# The repo benchmark's own checks (see perfbench/README.md): its test
# suite, then one traced seed-1 run of each BENCHMARK.json workload, whose
# last output line must report "correct": true (digests, conservation
# checks and the layer-profile guard all passed), then an untraced
# seed-166 paper_exact run, whose horizon lands inside interrupt service.
perfbench-check:
	python3 -m pytest perfbench/test_perfbench.py -q
	@for w in paper_exact deep_float churn_traced; do \
		echo "== perfbench $$w =="; \
		out=$$(python3 perfbench/run.py --workload $$w --seed 1 \
			--seconds 1 --trace 1) || exit 1; \
		echo "$$out"; \
		echo "$$out" | tail -n 1 | grep -q '"correct": true' || exit 1; \
	done
	@echo "== perfbench paper_exact seed 166 =="; \
	out=$$(python3 perfbench/run.py --workload paper_exact --seed 166 \
		--seconds 1) || exit 1; \
	echo "$$out"; \
	echo "$$out" | tail -n 1 | grep -q '"correct": true' || exit 1

# pytest-benchmark microbenchmarks of the paper figures
microbench:
	pytest benchmarks/ --benchmark-only

experiments:
	python -m repro.experiments

quick-experiments:
	python -m repro.experiments --quick

examples:
	@for f in examples/*.py; do \
		echo "== $$f =="; \
		python $$f || exit 1; \
	done

obs-demo:
	python -m repro.obs demo --out obs-trace.json
	python -m repro.obs report obs-trace.json

# Binary-trace pipeline on the demo workload: record, validate, replay.
obs-record:
	python -m repro.obs record obs-demo.binlog
	python -m repro.obs info obs-demo.binlog
	python -m repro.obs convert obs-demo.binlog --schedstat --depth-gantt

# Cluster tier (see docs/CLUSTER.md): unit + property suite, a small
# sharded demo run with per-host binlogs, and the shard determinism gate
# CI enforces on cluster_storm.
test-cluster:
	pytest tests/test_cluster.py tests/test_cluster_determinism.py -q

cluster-demo:
	python -m repro.cluster run --scenario cluster_mini --quick \
		--shards 2 --trace
	python -m repro.cluster report clusterlab/cluster_mini

cluster-gate:
	python -m repro.cluster gate --scenario cluster_storm --quick --shards 4

clean:
	rm -rf build dist src/repro.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
