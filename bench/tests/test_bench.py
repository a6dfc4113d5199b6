"""Self-tests of the benchmark, at ``--smoke`` scale (consumer counts 1
and 2, 2 msgs/producer)::

    python -m pytest bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH))
import ab  # noqa: E402
import layers  # noqa: E402
from workloads import WORKLOADS, timed_rounds  # noqa: E402


def bench(*args: str, root: Path = ROOT) -> dict:
    """Run ``bench/run.py --smoke`` in ``root``; parse what it printed."""
    process = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--smoke",
         "--seconds", "0", *args],
        cwd=root, capture_output=True, text=True, timeout=600)
    lines = process.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        workload, metric, value, *unit = line.split()
        printed[(workload, metric)] = (value, " ".join(unit))
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return {"code": process.returncode, "printed": printed, "result": result,
            "stderr": process.stderr}


def checkout_copy(target: Path, *, sources: bool = True) -> Path:
    """A checkout as the benchmark's users get it: BENCHMARK.json, bench/
    and (unless ``sources`` is false) src/."""
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".work",
                                    ".out")
    shutil.copytree(BENCH, target / "bench", ignore=ignore)
    shutil.copy2(ROOT / "BENCHMARK.json", target)
    if sources:
        shutil.copytree(ROOT / "src", target / "src", ignore=ignore)
    return target


@pytest.fixture(scope="module")
def untraced():
    return bench()


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("trace")
    return {**bench("--trace", "--out", str(out)), "out": out}


def test_untraced_run_prints_every_end_to_end_metric(untraced):
    assert untraced["code"] == 0, untraced["stderr"]
    assert set(untraced["result"]) == {"correct", "attempted", "failed",
                                       "metrics"}
    assert untraced["result"]["correct"] is True
    assert untraced["result"]["failed"] == 0
    for workload in WORKLOADS:
        assert untraced["printed"][(workload, "point_fail_ratio")][0] == "0.0"
        for metric in CONFIG["end_to_end"]:
            value, unit = untraced["printed"][(workload, metric["name"])]
            assert unit == metric["unit"]
            assert float(value) > 0
            reported = untraced["result"]["metrics"][
                f"{workload}/{metric['name']}"]
            assert reported["unit"] == metric["unit"]
    # The pass count is fixed by --seconds, not by how fast passes go, and
    # the percentiles take one sample per point of a pass.
    passes = {workload: int(untraced["printed"][(workload, "passes")][0])
              for workload in WORKLOADS}
    assert passes == {workload: timed_rounds(workload, 0)
                      for workload in WORKLOADS}
    assert sum(passes[workload]
               * int(untraced["printed"][(workload, "point_samples")][0])
               for workload in WORKLOADS) == untraced["result"]["attempted"]


def test_traced_run_prints_every_per_layer_metric(traced):
    assert traced["code"] == 0, traced["stderr"]
    for workload in WORKLOADS:
        for metric in CONFIG["per_layer"]:
            value, unit = traced["printed"][(workload, metric["name"])]
            assert unit == metric["unit"]
            assert value != "absent"
        shares = sum(float(traced["printed"][(workload, f"{layer}.share")][0])
                     for layer in layers.LAYERS)
        assert shares == pytest.approx(1.0, abs=0.01)
        report = json.loads((traced["out"]
                             / f"trace-{workload}.json").read_text())
        assert len(report["top"]) == layers.TOP
        assert (traced["out"] / f"trace-{workload}-top.txt").is_file()
    assert float(traced["printed"][("figures_warm", "cache.hit_ratio")][0]) \
        == 1.0
    assert int(traced["printed"][("ws_throughput", "simkit.resumes")][0]) > 0


def test_tampered_digest_fails_every_point(tmp_path):
    root = checkout_copy(tmp_path)
    expected_path = root / "bench" / "expected.json"
    expected = json.loads(expected_path.read_text())
    expected["digests"]["smoke"]["ws_throughput"] = "0" * 64
    expected_path.write_text(json.dumps(expected))

    run = bench("--workload", "ws_throughput", root=root)
    assert run["code"] == 1
    assert run["printed"][("ws_throughput", "point_fail_ratio")][0] == "1.0"
    assert run["result"]["correct"] is False
    assert run["result"]["failed"] == run["result"]["attempted"]


def test_other_seed_passes_conservation_checks(untraced):
    run = bench("--seed", "2")
    assert run["code"] == 0, run["stderr"]
    assert run["result"]["correct"] is True
    for workload in WORKLOADS:
        assert run["printed"][(workload, "point_fail_ratio")][0] == "0.0"
        assert (run["printed"][(workload, "digest")]
                != untraced["printed"][(workload, "digest")])


def test_refuses_a_checkout_without_sources(tmp_path):
    root = checkout_copy(tmp_path, sources=False)
    run = bench("--workload", "ws_throughput", root=root)
    assert run["code"] != 0
    assert run["result"] is None


def test_builtins_are_charged_to_their_callers_layers():
    resume = ("/src/repro/simkit/core.py", 362, "_resume")
    transfer = ("/src/repro/netsim/link.py", 80, "transfer")
    send = ("~", 0, "<method 'send' of 'generator' objects>")
    heappush = ("~", 0, "<built-in method _heapq.heappush>")
    untimed = ("~", 0, "<built-in method builtins.len>")
    orphan = ("~", 0, "<method 'disable' of '_lsprof.Profiler' objects>")
    stats = {
        resume: (5, 5, 1.0, 3.0, {}),
        transfer: (2, 2, 0.5, 1.0, {}),
        # 0.3 s of send() came from _resume and 0.1 s from transfer.
        send: (7, 7, 0.4, 2.0, {resume: (5, 5, 0.3, 1.5),
                                transfer: (2, 2, 0.1, 0.5)}),
        # A built-in called only by a built-in follows its caller's split.
        heappush: (4, 4, 0.2, 0.2, {send: (4, 4, 0.2, 0.2)}),
        # Edges too short to time are split by call counts (3:1).
        untimed: (4, 4, 0.08, 0.08, {resume: (3, 3, 0.0, 0.0),
                                     transfer: (1, 1, 0.0, 0.0)}),
        orphan: (1, 1, 0.01, 0.01, {}),
    }

    def layer_of_file(path):
        return path.split("/")[3]

    totals = layers.charge_layers(stats, layer_of_file)
    assert totals["simkit"] == pytest.approx(1.0 + 0.3 + 0.15 + 0.06)
    assert totals["netsim"] == pytest.approx(0.5 + 0.1 + 0.05 + 0.02)
    assert totals["other"] == pytest.approx(0.01)
    assert sum(totals.values()) == pytest.approx(
        sum(entry[2] for entry in stats.values()))


def test_missing_or_generator_functions_are_absent_not_zero(tmp_path):
    module = tmp_path / "repro" / "simkit" / "core.py"
    module.parent.mkdir(parents=True)
    module.write_text("class Process:\n"
                      "    def _resume(self):\n"
                      "        pass\n"
                      "\n"
                      "    def stop(self):\n"
                      "        pass\n"
                      "\n"
                      "    def run(self):\n"
                      "        yield 1\n")
    stats = {(str(module), 2, "_resume"): (7, 7, 0.1, 0.1, {})}
    probes = {"resumes": ("simkit/core.py", "Process._resume"),
              "stops": ("simkit/core.py", "Process.stop"),
              "runs": ("simkit/core.py", "Process.run"),
              "gone": ("simkit/core.py", "Environment.timeout")}
    counts = layers.lookup(stats, str(tmp_path), probes, 1)
    assert counts == {"resumes": 7, "stops": 0, "runs": None, "gone": None}


@pytest.mark.parametrize("change, expected", [
    # The same tight runs on both sides.
    ([1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00],
     "no-regression"),
    # Every pair won by 20 %, far beyond the parent's spread.
    ([0.80, 0.81, 0.79, 0.80, 0.82, 0.78, 0.80, 0.81, 0.79, 0.80],
     "improved"),
    # 20 % worse on every pair, with a spread inside the bound.
    ([1.20, 1.21, 1.19, 1.20, 1.22, 1.18, 1.20, 1.21, 1.19, 1.20],
     "regression"),
    # Run-to-run spread of about 30 %, three times the bound.
    ([0.80, 1.30, 0.95, 1.20, 0.85, 1.25, 1.00, 0.90, 1.15, 1.10],
     "unresolved"),
])
def test_ab_verdicts(change, expected):
    parent = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    assert ab.verdict(parent, change, "lower", 0.1) == expected
