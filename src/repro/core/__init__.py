"""The comparative-study API: experiments, figures and tables.

This is the package most users interact with::

    from repro.core import (compare_architectures, comparison_rows,
                            figure4, table1_text)

    print(table1_text())
    comparison = compare_architectures(workload="Dstream", consumers=4)
    rows = comparison_rows(comparison)
    fig4 = figure4(messages_per_producer=20)
"""

from ..harness import ExperimentConfig, run_experiment
from .figures import (
    BROADCAST_ARCHITECTURES,
    FIGURE4_ARCHITECTURES,
    RTT_ARCHITECTURES,
    FigureData,
    ablation_link_speed,
    ablation_mss_lb_bypass,
    ablation_network_layer_forwarding,
    ablation_proxy_connections,
    ablation_tunnel_type,
    ablation_work_queue_count,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    figure_bandwidth_scaling,
    figure_chaos_degradation,
    overhead_summary,
)
from .study import (
    BASELINE_ARCHITECTURE,
    PAPER_ARCHITECTURES,
    compare_architectures,
    comparison_rows,
    deployment_comparison,
    overheads,
)
from .tables import (
    TABLE1_COLUMNS,
    architecture_comparison_rows,
    architecture_comparison_text,
    table1_rows,
    table1_text,
)

__all__ = [
    "ExperimentConfig",
    "run_experiment",
    "compare_architectures",
    "comparison_rows",
    "overheads",
    "deployment_comparison",
    "PAPER_ARCHITECTURES",
    "BASELINE_ARCHITECTURE",
    "FigureData",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure_bandwidth_scaling",
    "figure_chaos_degradation",
    "overhead_summary",
    "ablation_tunnel_type",
    "ablation_proxy_connections",
    "ablation_mss_lb_bypass",
    "ablation_link_speed",
    "ablation_work_queue_count",
    "ablation_network_layer_forwarding",
    "FIGURE4_ARCHITECTURES",
    "RTT_ARCHITECTURES",
    "BROADCAST_ARCHITECTURES",
    "table1_rows",
    "table1_text",
    "TABLE1_COLUMNS",
    "architecture_comparison_rows",
    "architecture_comparison_text",
]
