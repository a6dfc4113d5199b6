"""Shared helpers for the paper-claim benches.

Every bench regenerates one of the paper's tables, figures or ablations
on a scaled-down message budget and asserts the qualitative claims of
§5.2-§6 on it.  The paper streams up to 128K messages per run on real
hardware; the benches run 25 messages per producer, seed 1.  That budget
is fixed, not a knob: the Figure 4 and 5 claims fail below 20 messages
per producer, so a smaller budget would fail them for a reason unrelated
to the code.

Every figure and ablation bench runs under the one ``bench_session``,
which resolves each point once, so a point two benches share (Figures 5
and 6, Figures 7 and 8, the overhead summary's Figures 4 and 6) is
simulated once per test session.  ``make claims`` runs them this way as
part of ``make check``::

    pytest benchmarks -q -p no:benchmark

The benches time nothing: ``bench/run.py`` and ``bench/ab.py`` measure
the simulator's speed.
"""

from __future__ import annotations

import pytest

from repro.harness import Session

#: Per-producer message budget used by the figure benches.
BENCH_MESSAGES = 25
#: Consumer counts on the x axis (the paper's 1-64 powers of two).
BENCH_CONSUMER_COUNTS = (1, 2, 4, 8, 16, 32, 64)
#: Root seed for all benches.
BENCH_SEED = 1


def curve(sweep, architecture, metric="throughput_msgs_per_s"):
    """``{consumers: value}`` for one architecture of an (architecture,
    consumers) sweep; infeasible points are left out."""
    return dict(sweep.series("consumers", metric, architecture=architecture))


@pytest.fixture(scope="session")
def bench_session():
    """One Session, shared by every figure and ablation bench of the test
    session.  It keeps every result in memory, and the benches only read
    them."""
    with Session() as session:
        yield session


@pytest.fixture
def bench_settings():
    """Expose the shared benchmark scale settings to the benches."""
    return {
        "messages": BENCH_MESSAGES,
        "consumer_counts": BENCH_CONSUMER_COUNTS,
        "seed": BENCH_SEED,
    }
