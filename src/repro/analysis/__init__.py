"""Statistics and capacity metrics used by the paper's evaluation."""

from repro.analysis.stats import (
    empirical_cdf,
    first_order_differences,
    k_scale_max_differences,
    pearson_correlation,
    pairwise_correlations,
)
from repro.analysis.metrics import (
    count_violations,
    throughput_per_watt,
    gain_in_tpw,
    GroupRunSummary,
    summarize_power_series,
)
from repro.analysis.report import render_table, render_cdf, format_percent
from repro.analysis.ascii_plots import (
    column_chart,
    heatmap,
    sparkline,
    sparkline_with_scale,
)
from repro.analysis.bootstrap import (
    ConfidenceInterval,
    gtpw_ci,
    throughput_ratio_ci,
)

# NOTE: repro.analysis.serialize is intentionally NOT imported here: it
# depends on repro.sim.experiment, which itself imports this package --
# import it as a module (``from repro.analysis.serialize import ...``).

__all__ = [
    "empirical_cdf",
    "first_order_differences",
    "k_scale_max_differences",
    "pearson_correlation",
    "pairwise_correlations",
    "count_violations",
    "throughput_per_watt",
    "gain_in_tpw",
    "GroupRunSummary",
    "summarize_power_series",
    "render_table",
    "render_cdf",
    "format_percent",
    "column_chart",
    "heatmap",
    "sparkline",
    "sparkline_with_scale",
    "ConfidenceInterval",
    "gtpw_ci",
    "throughput_ratio_ci",
]
