"""Byte-level goldens for every collected output.

Figure rows and CDFs, the overhead summary, the six ablations, the
architecture comparisons and the tables printed by the CLI's ``sweep``,
``compare``, ``sensitivity``, ``figure fig7`` and ``chaos`` subcommands all
run on a tiny testbed (4 producer and 4 consumer nodes) at consumer counts
(1, 2) and 2 messages per producer.  Each output is dumped with
``json.dumps`` *without* ``sort_keys``, so a digest pins column and row
order as well as every value.

These pin how outcomes are *collected* into rows, not what is simulated
(the determinism-matrix goldens pin the payloads).  Re-record a digest only
for a deliberate change to what an output contains::

    hashlib.sha256(json.dumps(output).encode()).hexdigest()
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.architectures import TestbedConfig
from repro.cli import main
from repro.core import (
    RTT_ARCHITECTURES,
    ablation_link_speed,
    ablation_mss_lb_bypass,
    ablation_network_layer_forwarding,
    ablation_proxy_connections,
    ablation_tunnel_type,
    ablation_work_queue_count,
    compare_architectures,
    comparison_rows,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    figure_bandwidth_scaling,
    figure_chaos_degradation,
    overhead_summary,
    overheads,
)

TINY = TestbedConfig(producer_nodes=4, consumer_nodes=4)
MESSAGES = 2
GRID = dict(consumer_counts=(1, 2), messages_per_producer=MESSAGES,
            testbed=TINY)
POINT = dict(consumers=2, messages_per_producer=MESSAGES)

CLI_COMMANDS = {
    "cli_sweep": ["sweep", "--workload", "Dstream", "--architectures",
                  "DTS", "MSS", "--consumers", "1", "2", "--messages", "2"],
    "cli_compare": ["compare", "--consumers", "2", "--messages", "2"],
    "cli_sensitivity": ["sensitivity", "--axis", "testbed.dsn_count=1,3",
                        "--architectures", "DTS", "MSS", "--consumers", "2",
                        "--messages", "2"],
    "cli_figure_fig7": ["figure", "fig7", "--messages", "2",
                        "--consumers", "1", "2"],
    "cli_chaos": ["chaos", "--rates", "0", "1", "--architectures", "DTS",
                  "MSS", "--consumers", "2", "--messages", "2"],
}

#: sha256 of ``json.dumps(output)`` per output (CLI outputs: of stdout).
ROWS_GOLDEN = {
    "figure4_rows":
        "c3313e1b9fec2082c8f370b302d8a35a80decc95100bf4f02e2e5db237f34884",
    "figure5_rows":
        "e3013e848a6af1289ce558112a02ad79fc9ca22bfc2e551d1ff9a1d9f5905fb1",
    "figure6_rows":
        "e3013e848a6af1289ce558112a02ad79fc9ca22bfc2e551d1ff9a1d9f5905fb1",
    "figure7_rows":
        "75f49e95463134d2995b6a3873e49a27d4e897817e241deb64f806410a63bb13",
    "figure8_rows":
        "2b8d9224bd4ab3d50bfd15dc040dc82fd735aa495ff5191d31530547807e63b4",
    "bandwidth_rows":
        "2a6ac8f498664ded954bc84a0e8f83127b98ce1297d7ac7763b4c43d01b6269c",
    "chaos_rows":
        "47ce356dc3aee10ea67de3482c83da5d4d609f840626fe842473160cbd76b8ad",
    "figure5_cdfs":
        "53e752d00586ec439729d82bbcb737b992b6ba2709db288d6cf43086f21d3bd7",
    "figure8_cdfs":
        "d146808c9e04932c90e57b071b4a443ccb85d4d46a14a78d36915c5a3542899e",
    "overhead_summary":
        "51b9e170897d04446975af8e0a203458fbae573578290f79e6450a74d3e1970a",
    "ablation_tunnel_type":
        "0aead62a5076dcfef4a38e1df77d35847f4ea5f5d0bf09e0fd560b1f19e40329",
    "ablation_proxy_connections":
        "35ac2e2f0d92befc7048c60253a0964c6862d6a9bc5439cd91c48a1f77a70851",
    "ablation_mss_lb_bypass":
        "9132dbd39e9a15d48d5cad90ffd8432dc87c768f8668dcd5a0e0ed299d4a711f",
    "ablation_link_speed":
        "098d1a33f9c155c9a7d335a2c6fde390d555f5f5ddfdda3fde3d50f75415f918",
    "ablation_work_queue_count":
        "5b8aa6c5ef98e951f33b54efb2169c6bf23be347fdc021cf045c6f768552abb6",
    "ablation_network_layer_forwarding":
        "d57c4101e7338bf903fcd2670269a617d4fc7128018f7d87a4c3898cee18a67e",
    "compare_rows":
        "4c9f423eab9afb8827e5f70b324040455e5004f3e43b417365a71391f20d0f20",
    "compare_axis_rows":
        "742dcb8b51336eed33d54a936e44ef10903ad3c4ed07337b9934098f05e03af8",
    "compare_feedback_rows":
        "90cd2d589db39ccf3e142be1a66ea347286df46f58152badc9a8dd04716c303f",
    "compare_throughput_overheads":
        "8f179f5ccb31fca971df1ee3bb6c9ea3302a4c6e2dd9db4f157c12430ca835bf",
    "compare_rtt_overheads":
        "365c4366ba4d978912bf5a112e62ae193237532f2acc1fe93eb2a9aeabb97529",
    "cli_sweep":
        "9a3f3812b42a6669b3a124c714744f45a4a455917654fa4692e81a643c1ee753",
    "cli_compare":
        "cc20faceefe7529729bdcea97ae41b013d36989267de4841a60778c5567b1d7f",
    "cli_sensitivity":
        "fd0dd52f47dc76c241db19c1a2a0b51a7b6cbf98f163aa53bcc42714b4282808",
    "cli_figure_fig7":
        "21670771702f49bd2942db9622de5632aeb9d6594f64bc2c070a748da82de1c4",
    "cli_chaos":
        "4e51e0b845e0e3a18f301cf0813d6d8d521a09f6c17fbdca1aa4fdd7df779ae5",
}


def _cdf_lists(data) -> list:
    return [[workload, consumers, architecture, x.tolist(), p.tolist()]
            for workload, by_consumers in data.cdfs.items()
            for consumers, by_architecture in by_consumers.items()
            for architecture, (x, p) in by_architecture.items()]


def _collect() -> dict:
    fig4 = figure4(**GRID)
    fig5 = figure5(**GRID)
    fig6 = figure6(**GRID)
    fig7 = figure7(**GRID)
    fig8 = figure8(**GRID)
    feedback = compare_architectures(pattern="work_sharing_feedback",
                                     testbed=TINY, **POINT)
    [((), by_architecture)] = feedback.groups()
    outputs = {
        "figure4_rows": fig4.rows,
        "figure5_rows": fig5.rows,
        "figure6_rows": fig6.rows,
        "figure7_rows": fig7.rows,
        "figure8_rows": fig8.rows,
        "bandwidth_rows": figure_bandwidth_scaling(
            testbed=TINY, **POINT).rows,
        "chaos_rows": figure_chaos_degradation(testbed=TINY, **POINT).rows,
        "figure5_cdfs": _cdf_lists(fig5),
        "figure8_cdfs": _cdf_lists(fig8),
        "overhead_summary": overhead_summary(fig4, fig6),
        "ablation_tunnel_type": ablation_tunnel_type(**GRID).rows(),
        "ablation_proxy_connections":
            ablation_proxy_connections(**GRID).rows(),
        "ablation_mss_lb_bypass": ablation_mss_lb_bypass(**GRID).rows(),
        "ablation_link_speed": ablation_link_speed(**POINT),
        "ablation_work_queue_count": ablation_work_queue_count(**POINT),
        "ablation_network_layer_forwarding":
            ablation_network_layer_forwarding(**GRID).rows(),
        "compare_rows": comparison_rows(
            compare_architectures(testbed=TINY, **POINT)),
        "compare_axis_rows": comparison_rows(compare_architectures(
            architectures=RTT_ARCHITECTURES, testbed=TINY,
            axes={"testbed.dsn_count": [1, 3]}, **POINT)),
        "compare_feedback_rows": comparison_rows(feedback),
        "compare_throughput_overheads":
            [entry.as_dict() for entry in
             overheads(by_architecture, "throughput_msgs_per_s")],
        "compare_rtt_overheads":
            [entry.as_dict() for entry in
             overheads(by_architecture, "median_rtt_s")],
    }
    return {name: json.dumps(output) for name, output in outputs.items()}


@pytest.fixture(scope="module")
def dumps() -> dict:
    return _collect()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_output_has_a_golden(dumps):
    assert set(dumps) | set(CLI_COMMANDS) == set(ROWS_GOLDEN)


@pytest.mark.parametrize("name", [name for name in ROWS_GOLDEN
                                  if not name.startswith("cli_")])
def test_output_matches_golden(dumps, name):
    assert _digest(dumps[name]) == ROWS_GOLDEN[name]


@pytest.mark.parametrize("name", list(CLI_COMMANDS))
def test_cli_stdout_matches_golden(capsys, name):
    assert main(CLI_COMMANDS[name]) == 0
    assert _digest(capsys.readouterr().out) == ROWS_GOLDEN[name]
