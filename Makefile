# Developer entry points.  `make check` is what CI runs: lint, the tier-1
# test suite, the paper-claim benches, the figure-regeneration benchmark
# at smoke scale, the examples and the CLI smokes, so collection
# regressions (duplicate basenames, broken bench imports) cannot land
# silently.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

# Line-coverage floor enforced by `make coverage` over the execution engine.
COVERAGE_FLOOR ?= 85

.PHONY: test lint claims bench-smoke bench check coverage \
	example sensitivity-smoke session-smoke population-smoke cache-smoke \
	chaos-smoke

test:
	$(PYTHON) -m pytest -x -q

# Static determinism/concurrency analysis (repro.analysis): first prove the
# rules themselves fire (fixture corpus self-test), then lint src/repro
# against the committed baseline.  Exit codes: 0 clean, 1 findings, 2 usage.
lint:
	$(PYTHON) -m repro.cli lint --self-test
	$(PYTHON) -m repro.cli lint

# The paper's qualitative claims (about 30 s): the figure, ablation,
# overhead, deployment and Table 1 benches in benchmarks/ regenerate their
# outputs at 25 messages per producer, seed 1, through one shared Session,
# which simulates each point once, and assert the claims of §5.2-§6.
# They time nothing, so the pytest-benchmark plugin stays off: a bench
# that asks for its `benchmark` fixture fails to set up.  Kept out of
# `make test`, which it would more than double.
claims:
	$(PYTHON) -m pytest benchmarks -q -p no:benchmark

# The figure-regeneration benchmark at smoke scale (bench/run.py, about
# 11 s): every workload's result digests, the infeasible set and the warm
# cache hits are checked, and any mismatch fails the build.  It gates
# correctness only; the exact work counts of tests/harness/
# test_work_counts.py run with the tier-1 tests.
bench-smoke:
	$(PYTHON) bench/run.py --smoke --seconds 0

# Record the next BENCH_<n>.json snapshot: the full figure-regeneration
# benchmark (bench/run.py, about 2.5 min).  When it exits 0, its last
# line (the JSON summary: correct, attempted, failed and the end-to-end
# metrics of every workload) becomes the snapshot; a failing run writes
# nothing and fails the build.  Commit the snapshot to extend the perf
# trajectory.  BENCH_0-5.json are the retired micro suite's snapshots.
bench:
	@n=0; while [ -e BENCH_$$n.json ]; do n=$$((n + 1)); done; \
	out=$$(mktemp); \
	$(PYTHON) bench/run.py > $$out; status=$$?; \
	cat $$out; \
	if [ $$status -eq 0 ]; then \
		tail -n 1 $$out > BENCH_$$n.json; \
		echo "[bench] wrote BENCH_$$n.json"; \
	fi; \
	rm -f $$out; exit $$status

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
# A simulated point is stored, and a save replaces its shard through a
# temp file, so the re-run must leave every shard's (inode, mtime) as it
# recorded them and add none.  No shard may hold a sample column as a JSON
# float list: the cache stores them packed as hex float64.
CACHE_SMOKE_CACHE := .cache-smoke-cache
CACHE_SMOKE_STAT := $(CACHE_SMOKE_CACHE).stat
cache-smoke:
	@rm -rf $(CACHE_SMOKE_CACHE) $(CACHE_SMOKE_STAT)
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
	$(PYTHON) -c "import glob, json, os; \
		json.dump({p: [os.stat(p).st_ino, os.stat(p).st_mtime_ns] \
			for p in glob.glob('$(CACHE_SMOKE_CACHE)/??.json')}, \
			open('$(CACHE_SMOKE_STAT)', 'w'))"
	$(PYTHON) -m repro.cli sweep --workload Dstream --architectures DTS \
		--consumers 1 2 --messages 4 --cache $(CACHE_SMOKE_CACHE)
	$(PYTHON) -c "import glob, json, os, sys; \
		from repro.harness.cache import SAMPLE_COLUMNS; \
		shards = sorted(glob.glob('$(CACHE_SMOKE_CACHE)/??.json')); \
		after = {p: [os.stat(p).st_ino, os.stat(p).st_mtime_ns] \
			for p in shards}; \
		runs = [run for p in shards \
			for entry in json.load(open(p))['entries'].values() \
			for run in entry['result']['runs']]; \
		sys.exit('cache-smoke: the re-run added or replaced a shard' \
			if after != json.load(open('$(CACHE_SMOKE_STAT)')) \
			else 'cache-smoke: the cache holds no run' if not runs \
			else 'cache-smoke: a shard holds a JSON float list' \
			if any(isinstance(run.get(name), list) \
				for run in runs for name in SAMPLE_COLUMNS) \
			else 0)"
	@rm -rf $(CACHE_SMOKE_CACHE) $(CACHE_SMOKE_STAT)

check: lint test claims bench-smoke example sensitivity-smoke \
	session-smoke population-smoke cache-smoke chaos-smoke

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

# Run every script in examples/ (about 10 s): they drive the public
# Session / run_sweep / compare_architectures API end to end, so an
# API change that breaks a documented usage fails the build.
example:
	@set -e; for script in examples/*.py; do \
		echo "[example] $$script"; \
		$(PYTHON) $$script > /dev/null; \
	done
