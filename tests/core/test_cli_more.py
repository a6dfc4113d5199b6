"""Additional CLI coverage: compare, figure, deployment and sensitivity
subcommands."""

from __future__ import annotations

import os

import pytest

from repro.cli import main


def test_cli_compare_two_architectures(capsys, tmp_path):
    csv_path = tmp_path / "compare.csv"
    code = main(["compare", "--workload", "Dstream", "--pattern", "work_sharing",
                 "--consumers", "2", "--messages", "6",
                 "--architectures", "DTS", "MSS", "--csv", str(csv_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "DTS" in out and "MSS" in out
    assert "throughput_msgs_per_s" in out
    content = csv_path.read_text()
    assert content.count("\n") >= 3   # header + 2 rows


def test_cli_figure_fig7_small(capsys):
    code = main(["figure", "fig7", "--messages", "3", "--consumers", "1", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "broadcast" in out


def test_cli_deployment(capsys):
    code = main(["deployment", "--architectures", "DTS", "MSS"])
    assert code == 0
    out = capsys.readouterr().out
    assert "multi_user_scalability" in out
    assert "DTS" in out and "MSS" in out


SMALL_TESTBED_AXES = ["--axis", "testbed.producer_nodes=4",
                      "--axis", "testbed.consumer_nodes=4"]


def test_cli_sensitivity_bandwidth_axis_with_cache(capsys, tmp_path):
    """The acceptance scenario: a bandwidth axis produces a CSV, cached
    into the sharded layout, and a re-run serves every point from disk."""
    csv_path = tmp_path / "sensitivity.csv"
    cache_path = tmp_path / "cache"
    argv = ["sensitivity",
            "--axis", "testbed.link_bandwidth_bps=1e9,100e9",
            *SMALL_TESTBED_AXES,
            "--architectures", "DTS",
            "--consumers", "2", "--messages", "4", "--jobs", "2",
            "--cache", str(cache_path), "--csv", str(csv_path)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "testbed.link_bandwidth_bps" in out
    content = csv_path.read_text()
    assert content.count("\n") >= 3  # header + 2 points
    assert os.path.isdir(cache_path)

    # Second run hits only the cache (and yields the same CSV).
    assert main(argv) == 0
    assert csv_path.read_text() == content


def test_cli_sensitivity_sweeps_ack_mode_and_dsn_count(capsys):
    code = main(["sensitivity",
                 "--axis", "testbed.ack_policy.mode=batch,per_message",
                 "--axis", "testbed.dsn_count=1,3",
                 *SMALL_TESTBED_AXES,
                 "--consumers", "2", "--messages", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "per_message" in out
    assert "testbed.dsn_count" in out


def test_cli_sensitivity_rejects_unknown_axis(capsys):
    code = main(["sensitivity", "--axis", "testbed.link_bandwidth=1e9"])
    assert code == 2
    assert "unknown axis" in capsys.readouterr().err


def test_cli_sensitivity_rejects_duplicate_axis(capsys):
    code = main(["sensitivity", "--axis", "seed=1", "--axis", "seed=2"])
    assert code == 2
    assert "more than once" in capsys.readouterr().err


def test_cli_sensitivity_rejects_wrongly_typed_axis_value(capsys):
    code = main(["sensitivity", "--axis", "testbed.dsn_count=1,three"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_sensitivity_rejects_scale_backbone_over_backbone_axis(capsys):
    code = main(["sensitivity", "--scale-backbone",
                 "--axis", "testbed.backbone_bandwidth_bps=1e9,4e9"])
    assert code == 2
    assert "--scale-backbone" in capsys.readouterr().err


def test_cli_sensitivity_requires_an_axis(capsys):
    code = main(["sensitivity"])
    assert code == 2
    assert "no axes" in capsys.readouterr().err


def test_cli_figure_bandwidth(capsys):
    code = main(["figure", "bandwidth", "--link-gbps", "1", "100",
                 "--consumers", "2", "--messages", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "link_gbps" in out and "speedup_vs_1gbps" in out


# ---------------------------------------------------------------------------
# Execution sessions: the shared option block, --backend, and REPRO_* env
# ---------------------------------------------------------------------------

SMALL_SWEEP = ["sweep", "--workload", "Dstream", "--architectures", "DTS",
               "--consumers", "1", "2", "--messages", "4"]


def test_cli_backend_process_matches_serial(capsys):
    assert main(SMALL_SWEEP) == 0
    serial_out = capsys.readouterr().out
    assert main([*SMALL_SWEEP, "--backend", "process", "--jobs", "2"]) == 0
    assert capsys.readouterr().out == serial_out


def test_cli_every_runner_subcommand_shares_the_option_block(capsys):
    """The parent parser wires the same execution flags everywhere."""
    from repro.cli import build_parser
    parser = build_parser()
    for command in ("deployment", "compare", "experiment", "figure",
                    "sweep", "sensitivity"):
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args([command, "--backend", "warp"])
        assert excinfo.value.code == 2  # invalid choice, from one definition
    capsys.readouterr()  # swallow argparse usage noise


def test_cli_session_from_env(monkeypatch, tmp_path, capsys):
    """REPRO_JOBS/REPRO_CACHE configure the run with no CLI flags at all,
    and a second identical invocation is served from the cache."""
    cache_path = tmp_path / "env-cache"
    monkeypatch.setenv("REPRO_JOBS", "2")
    monkeypatch.setenv("REPRO_CACHE", str(cache_path))
    assert main(SMALL_SWEEP) == 0
    first = capsys.readouterr().out
    assert os.path.isdir(cache_path)
    assert main(SMALL_SWEEP) == 0
    assert capsys.readouterr().out == first


def test_cli_flags_override_env(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "env-cache"))
    monkeypatch.setenv("REPRO_JOBS", "2")
    assert main([*SMALL_SWEEP, "--cache", str(tmp_path / "flag-cache"),
                 "--jobs", "1"]) == 0
    capsys.readouterr()
    assert os.path.isdir(tmp_path / "flag-cache")
    assert not os.path.exists(tmp_path / "env-cache")


def test_cli_experiment_goes_through_the_session_cache(tmp_path, capsys):
    argv = ["experiment", "--architecture", "DTS", "--consumers", "2",
            "--messages", "4", "--cache", str(tmp_path / "cache")]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert os.path.isdir(tmp_path / "cache")
    assert main(argv) == 0  # second run is a pure cache hit
    assert capsys.readouterr().out == first


def test_cli_bad_env_value_is_a_clean_error(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_JOBS", "0")
    assert main(SMALL_SWEEP) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "jobs" in err

    monkeypatch.setenv("REPRO_JOBS", "many")
    assert main(SMALL_SWEEP) == 2
    assert "REPRO_JOBS" in capsys.readouterr().err


def test_cli_explicit_on_error_raise_overrides_env(monkeypatch, capsys):
    """--on-error raise must beat REPRO_ON_ERROR even though the value
    equals the default."""
    monkeypatch.setenv("REPRO_ON_ERROR", "record")
    code = main(["experiment", "--architecture", "DTS", "--consumers", "2",
                 "--messages", "4", "--on-error", "raise"])
    assert code == 0
    capsys.readouterr()
