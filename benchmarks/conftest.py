"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures on a
scaled-down message budget (the paper streams up to 128K messages per run on
real hardware; the simulated benches default to a few hundred per point so
the whole suite finishes in about a minute).  Set ``REPRO_BENCH_MESSAGES``
to raise the per-producer message budget, and ``REPRO_BENCH_RUNS`` to
average more runs per point, when more fidelity is wanted.

Every figure and ablation bench runs under the one cached
``bench_session``, so a point two benches share (Figures 5 and 6, the
overhead summary's Figures 4 and 6) is simulated once per test session.
``make claims`` runs the paper-claim benches this way as part of
``make check``.

Run with::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import os
import time

import pytest

from repro.harness import Session

#: Per-producer message budget used by the figure benches.
BENCH_MESSAGES = int(os.environ.get("REPRO_BENCH_MESSAGES", "25"))
#: Runs averaged per experiment point.
BENCH_RUNS = int(os.environ.get("REPRO_BENCH_RUNS", "1"))
#: Consumer counts on the x axis (the paper's 1-64 powers of two).
BENCH_CONSUMER_COUNTS = (1, 2, 4, 8, 16, 32, 64)
#: Root seed for all benches.
BENCH_SEED = 1


def curve(sweep, architecture, metric="throughput_msgs_per_s"):
    """``{consumers: value}`` for one architecture of an (architecture,
    consumers) sweep; infeasible points are left out."""
    return dict(sweep.series("consumers", metric, architecture=architecture))


def run_once(benchmark, func, *args, **kwargs):
    """Run a whole-figure regeneration exactly once under pytest-benchmark."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)


@pytest.fixture(scope="session")
def bench_session(tmp_path_factory):
    """One Session with a result cache, shared by every figure and
    ablation bench of the test session."""
    cache = tmp_path_factory.mktemp("bench") / "cache"
    with Session(cache=cache) as session:
        yield session


@pytest.fixture
def bench_settings():
    """Expose the shared benchmark scale settings to the benches."""
    return {
        "messages": BENCH_MESSAGES,
        "runs": BENCH_RUNS,
        "consumer_counts": BENCH_CONSUMER_COUNTS,
        "seed": BENCH_SEED,
    }


class _FallbackBenchmark:
    """Minimal stand-in for the pytest-benchmark ``benchmark`` fixture.

    Times the callable once with :func:`time.perf_counter` and remembers the
    elapsed seconds, so ``pytest benchmarks/`` stays runnable (as a smoke
    pass) in environments without the plugin.  The persistent trajectory
    lives in the dependency-free ``repro-streamsim bench`` subsystem; this
    fallback only keeps collection and the benches' assertions working.
    """

    def __init__(self) -> None:
        self.elapsed_s: float | None = None

    def _timed(self, func, *args, **kwargs):
        start = time.perf_counter()
        result = func(*args, **kwargs)
        self.elapsed_s = time.perf_counter() - start
        return result

    def __call__(self, func, *args, **kwargs):
        return self._timed(func, *args, **kwargs)

    def pedantic(self, func, args=(), kwargs=None, rounds=1, iterations=1,
                 warmup_rounds=0):
        kwargs = kwargs or {}
        for _ in range(warmup_rounds):
            func(*args, **kwargs)
        result = None
        for _ in range(max(1, rounds)):
            for _ in range(max(1, iterations)):
                result = self._timed(func, *args, **kwargs)
        return result


class _FallbackBenchmarkPlugin:
    """Provides the ``benchmark`` fixture when the real plugin is inactive."""

    @pytest.fixture
    def benchmark(self):
        return _FallbackBenchmark()


def pytest_configure(config):
    # Registered dynamically (not as a module-level fixture) so the real
    # pytest-benchmark fixture is never shadowed when the plugin is active;
    # this covers both "not installed" and "-p no:benchmark".
    if not config.pluginmanager.hasplugin("benchmark"):
        config.pluginmanager.register(_FallbackBenchmarkPlugin(),
                                      "repro-benchmark-fallback")
