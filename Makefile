# Test and benchmark entry points.  `make test` is the CI gate: byte
# compilation, tier-1 tests, plus smoke runs of the packed-merge,
# batched-query, cluster-scaling, ingestion, batched-group-solve,
# Figure 14 sliding-window, and tiered-storage benchmarks, which fail on
# any packed-vs-loop divergence, broken scan sharing, cluster answers
# that are not bit-exact across topologies and failovers,
# non-idempotent batch replay, a columnar ingest speedup below 5x, a
# batched group solve below 3x at 1024 cells (or with decisions that
# diverge from the scalar cascade), a turnstile window scan that is
# not 2x faster than re-merging every window, a tiered store whose
# compaction is not bit-exact / whose cold tier misses the 4x disk
# reduction or the cold-latency ceiling, a telemetry overhead gate
# (disabled-mode guard cost <= 3%, enabled-mode tracing + metrics <= 10%
# of query latency), a multi-query-optimizer gate (>=3x on a
# Zipf-skewed repeated workload with interleaved flushes, payloads
# bit-identical to cold execution), and a workload-harness smoke (cube
# + cluster, sqlite exact oracle, optimizer enabled) that fails on any
# Eq. 1 rank-error contract violation.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test lint bench-merge bench-batch bench-cluster bench-ingest \
	bench-solve bench-tiered bench-telemetry bench-optimizer \
	bench-harness bench

# Static analysis gate: the repo-invariant analyzers (lock discipline,
# determinism, telemetry guards, API hygiene) against the committed
# baseline, plus mypy when available (the CI lint job installs it; the
# guard keeps `make lint` usable in minimal environments).
lint:
	$(PYTHON) -m repro.cli analysis lint src examples \
		--baseline .analysis-baseline.json
	@if $(PYTHON) -c "import mypy" >/dev/null 2>&1; then \
		$(PYTHON) -m mypy --config-file mypy.ini; \
	else \
		echo "mypy not installed; skipping type check"; \
	fi

test:
	$(PYTHON) -m compileall -q src
	$(PYTHON) -m pytest -x -q
	$(PYTHON) benchmarks/bench_batch_merge.py --quick
	$(PYTHON) benchmarks/bench_execute_batch.py --quick
	$(PYTHON) benchmarks/bench_cluster_scaling.py --quick
	$(PYTHON) benchmarks/bench_ingest.py --quick
	$(PYTHON) benchmarks/bench_group_solve.py --quick
	$(PYTHON) -m pytest -q benchmarks/bench_fig14_sliding_window.py
	$(PYTHON) benchmarks/bench_tiered.py --quick
	$(PYTHON) benchmarks/bench_telemetry.py --quick
	$(PYTHON) benchmarks/bench_optimizer.py --quick
	$(PYTHON) -m repro.cli harness run --spec examples/harness_smoke.json \
		--out BENCH_harness.json --check

bench-merge:
	$(PYTHON) benchmarks/bench_batch_merge.py --require-speedup 10

bench-batch:
	$(PYTHON) benchmarks/bench_execute_batch.py

bench-cluster:
	$(PYTHON) benchmarks/bench_cluster_scaling.py --require-scaling

bench-ingest:
	$(PYTHON) benchmarks/bench_ingest.py --require-speedup 5

bench-solve:
	$(PYTHON) benchmarks/bench_group_solve.py --require-speedup 3

bench-tiered:
	$(PYTHON) benchmarks/bench_tiered.py

bench-telemetry:
	$(PYTHON) benchmarks/bench_telemetry.py

bench-optimizer:
	$(PYTHON) benchmarks/bench_optimizer.py --advice-out advisor.json

# Full workload-harness experiment (longer than the smoke in `test`):
# the paced 10-second mixed cube-vs-cluster run from the examples.
bench-harness:
	$(PYTHON) examples/harness_experiment.py

# pytest collects only test_*.py on its own, so the figure/table
# benches are named explicitly.
bench:
	$(PYTHON) -m pytest -q benchmarks/bench_fig*.py benchmarks/bench_table*.py
