#!/usr/bin/env python3
"""Parallel scenario sweeps through an execution :class:`Session`.

This example demonstrates the execution engine behind every sweep, figure
and CLI command:

1. sweep a grid (architecture x consumer count) with
   :func:`~repro.harness.run_sweep`,
2. run it under a serial session and a named parallel backend
   (``Session(backend="process")``, one worker per CPU this process may
   use) and verify the results are bit-identical (each point derives all
   randomness from its own config),
3. cache the results to a sharded cache directory (``Session(cache=...)``)
   and re-run the sweep instantly from disk, the way figure regeneration
   reuses earlier runs,
4. run under an :class:`~repro.harness.ExecutionPolicy` carried by the
   session so per-point timeouts, retries and failures become structured
   records instead of killing the sweep,
5. build the same session from ``REPRO_*`` environment variables with
   :meth:`~repro.harness.Session.from_env` — the CLI's configuration path.

Run with::

    python examples/parallel_sweep.py
"""

from __future__ import annotations

import os
import tempfile
import time

from repro.architectures import TestbedConfig
from repro.harness import (
    ExecutionPolicy,
    ExperimentConfig,
    Session,
    run_sweep,
)
from repro.metrics import format_table

AXES = {"architecture": ["DTS", "PRS(HAProxy)", "MSS"],
        "consumers": [1, 2, 4, 8]}


def base_config() -> ExperimentConfig:
    return ExperimentConfig(
        workload="Dstream",
        pattern="work_sharing",
        num_producers=2,
        num_consumers=2,
        messages_per_producer=10,
        seed=7,
        testbed=TestbedConfig(producer_nodes=8, consumer_nodes=8),
    )


def sweep(session: Session):
    """The (architecture, consumers) grid under one execution session."""
    return run_sweep(base_config(), AXES, session=session)


def main() -> None:
    start = time.perf_counter()
    serial = sweep(Session())
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    with Session(backend="process") as session:
        pooled = sweep(session)
    pooled_s = time.perf_counter() - start

    print(f"serial: {serial_s:.2f}s   jobs={session.backend.jobs}: "
          f"{pooled_s:.2f}s")
    print("bit-identical:", serial.rows() == pooled.rows())
    print(format_table(pooled.rows(),
                       title="Dstream / work sharing consumer sweep"))

    with tempfile.TemporaryDirectory() as tmp:
        cache_path = os.path.join(tmp, "sweep-cache")
        with Session(cache=cache_path) as session:
            sweep(session)  # populates the cache
        start = time.perf_counter()
        with Session(cache=cache_path) as session:
            cached = sweep(session)
        cached_s = time.perf_counter() - start
        print(f"re-run from cache: {cached_s:.3f}s "
              f"(matches: {cached.rows() == serial.rows()})")

    # Fault tolerance: bound each point to 60s of wall clock, retry twice
    # (retries re-derive their seeds, so results match a clean run), and
    # record exhausted points instead of raising.  The policy travels with
    # the session into every backend worker.
    policy = ExecutionPolicy(timeout_s=60.0, retries=2, on_error="record")
    with Session(backend="process", policy=policy) as session:
        guarded = sweep(session)
    print(f"with policy {policy}: {len(guarded.failures)} failed point(s), "
          f"matches clean run: {guarded.rows() == serial.rows()}")

    # The CLI builds its session the same way, from the environment:
    # REPRO_JOBS=4 REPRO_BACKEND=process python examples/parallel_sweep.py
    env_session = Session.from_env()
    print(f"session from environment: {env_session.describe()}")


if __name__ == "__main__":
    main()
