# Developer entry points.  `make check` is what CI runs: the tier-1 test
# suite plus a benchmarks smoke pass, so collection regressions (duplicate
# basenames, broken bench imports) cannot land silently.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

# Line-coverage floor enforced by `make coverage` over the execution engine.
COVERAGE_FLOOR ?= 85

.PHONY: test lint bench-smoke bench bench-pytest check coverage example \
	sensitivity-smoke session-smoke population-smoke cache-smoke \
	chaos-smoke

test:
	$(PYTHON) -m pytest -x -q

# Static determinism/concurrency analysis (repro.analysis): first prove the
# rules themselves fire (fixture corpus self-test), then lint src/repro
# against the committed baseline.  Exit codes: 0 clean, 1 findings, 2 usage.
lint:
	$(PYTHON) -m repro.cli lint --self-test
	$(PYTHON) -m repro.cli lint

# The figure-regeneration benchmark at smoke scale (bench/run.py, about
# 11 s): every workload's result digests, the infeasible set and the warm
# cache hits are checked, and any mismatch fails the build.  Then the
# collection guard (micro benches through pytest, with or without the
# pytest-benchmark plugin) plus a fast pass of the dependency-free bench
# suite compared against the committed BENCH_<n>.json trajectory.  The
# compare skips gracefully when no snapshot exists yet and fails the build
# when a bench's best round is more than 20% slower than the snapshot's
# median (calibration-scaled; snapshots from a different python/platform
# only warn).
bench-smoke:
	$(PYTHON) bench/run.py --smoke --seconds 0
	$(PYTHON) -m pytest benchmarks -q -k micro
	$(PYTHON) -m repro.cli bench --rounds 5 --compare --threshold 0.2 --no-save

# Record the next BENCH_<n>.json snapshot (median/stdev per bench, repro
# version + git sha).  Commit the snapshot to extend the perf trajectory.
bench:
	$(PYTHON) -m repro.cli bench --rounds 9 --compare

# The figure-regeneration benches under pytest; uses pytest-benchmark when
# installed and a plain-timing fallback fixture otherwise.
bench-pytest:
	$(PYTHON) -m pytest benchmarks -q

# Fast end-to-end smoke for the sensitivity pipeline: a 2-point bandwidth
# sweep through the process pool and the sharded result cache.
SMOKE_CACHE := .sensitivity-smoke-cache
sensitivity-smoke:
	@rm -rf $(SMOKE_CACHE)
	$(PYTHON) -m repro.cli sensitivity \
		--axis testbed.link_bandwidth_bps=1e9,100e9 \
		--axis testbed.producer_nodes=4 --axis testbed.consumer_nodes=4 \
		--architectures DTS --consumers 2 --messages 4 \
		--jobs 2 --cache $(SMOKE_CACHE)
	@rm -rf $(SMOKE_CACHE)

# Fast end-to-end smoke for the Session API: the CLI builds its execution
# session purely from REPRO_* environment variables (Session.from_env via
# Session.from_args — no --jobs/--cache flags), runs a 2-point sweep on two
# workers, then re-runs it from the populated cache.
SESSION_SMOKE_CACHE := .session-smoke-cache
session-smoke:
	@rm -rf $(SESSION_SMOKE_CACHE)
	REPRO_JOBS=2 REPRO_CACHE=$(SESSION_SMOKE_CACHE) $(PYTHON) -m repro.cli \
		sweep --workload Dstream --architectures DTS \
		--consumers 1 2 --messages 4
	REPRO_JOBS=2 REPRO_CACHE=$(SESSION_SMOKE_CACHE) $(PYTHON) -m repro.cli \
		sweep --workload Dstream --architectures DTS \
		--consumers 1 2 --messages 4
	@rm -rf $(SESSION_SMOKE_CACHE)

# Fast end-to-end smoke for the aggregate-client model: the K=1
# bit-identity contract (population golden digest), then one K=10^3
# aggregated point through the Session API with a result cache.
POPULATION_SMOKE_CACHE := .population-smoke-cache
population-smoke:
	@rm -rf $(POPULATION_SMOKE_CACHE)
	$(PYTHON) -m pytest -x -q \
		tests/harness/test_population.py::test_population_axis_at_one_reproduces_axis_free_results \
		tests/harness/test_population.py::test_population_grid_matches_golden
	REPRO_CACHE=$(POPULATION_SMOKE_CACHE) $(PYTHON) -m repro.cli \
		experiment --architecture DTS --workload Dstream \
		--consumers 2 --producers 2 --messages 4 --population 1000
	@rm -rf $(POPULATION_SMOKE_CACHE)

# Fast end-to-end smoke for the fault-injection subsystem: a 2-point
# broker-kill chaos sweep (rate 0 = the fault-free degradation baseline)
# through the Session API with a result cache.
CHAOS_SMOKE_CACHE := .chaos-smoke-cache
chaos-smoke:
	@rm -rf $(CHAOS_SMOKE_CACHE)
	$(PYTHON) -m repro.cli chaos --fault broker_kill_rate --rates 0 1 \
		--architectures DTS --consumers 2 --messages 4 \
		--cache $(CHAOS_SMOKE_CACHE)
	@rm -rf $(CHAOS_SMOKE_CACHE)

# Fast end-to-end smoke for the cache lifecycle subsystem: populate a
# sharded cache with a 2-point sweep, walk it through every `cache`
# subcommand (stats -> gc -> compact -> snapshot -> rollback), prove the
# rollback restored the shards byte-for-byte against the snapshot, then
# re-run the sweep to prove every point is still served from the cache.
CACHE_SMOKE_CACHE := .cache-smoke-cache
cache-smoke:
	@rm -rf $(CACHE_SMOKE_CACHE)
	$(PYTHON) -m repro.cli sweep --workload Dstream --architectures DTS \
		--consumers 1 2 --messages 4 --cache $(CACHE_SMOKE_CACHE)
	$(PYTHON) -m repro.cli cache stats $(CACHE_SMOKE_CACHE)
	$(PYTHON) -m repro.cli cache gc $(CACHE_SMOKE_CACHE) --purge-quarantine
	$(PYTHON) -m repro.cli cache compact $(CACHE_SMOKE_CACHE)
	$(PYTHON) -m repro.cli cache snapshot smoke $(CACHE_SMOKE_CACHE)
	$(PYTHON) -m repro.cli cache rollback smoke $(CACHE_SMOKE_CACHE)
	$(PYTHON) -c "import glob, os, sys; \
		live = sorted(glob.glob('$(CACHE_SMOKE_CACHE)/??.json')); \
		saved = sorted(glob.glob( \
			'$(CACHE_SMOKE_CACHE)/.profiles/smoke/??.json')); \
		read = lambda paths: {os.path.basename(p): open(p, 'rb').read() \
			for p in paths}; \
		sys.exit(0 if live and read(live) == read(saved) \
			else 'cache-smoke: rollback is not byte-identical')"
	$(PYTHON) -m repro.cli sweep --workload Dstream --architectures DTS \
		--consumers 1 2 --messages 4 --cache $(CACHE_SMOKE_CACHE)
	@rm -rf $(CACHE_SMOKE_CACHE)

check: lint test bench-smoke sensitivity-smoke session-smoke \
	population-smoke cache-smoke chaos-smoke

# Coverage gate over the harness (runner/cache/sweep/policy are the layers
# fault-tolerance lives in).  Skips gracefully where pytest-cov is absent —
# the container image pins its python toolchain.
coverage:
	@if $(PYTHON) -c "import pytest_cov" >/dev/null 2>&1; then \
		$(PYTHON) -m pytest tests -q --cov=repro.harness \
			--cov-report=term-missing --cov-fail-under=$(COVERAGE_FLOOR); \
	else \
		echo "[coverage] pytest-cov not installed; skipping" \
		     "(pip install pytest-cov, then re-run make coverage)"; \
	fi

example:
	$(PYTHON) examples/parallel_sweep.py
