"""Analysis: rates, certificates, comparisons and paper-style reports."""

from repro.analysis.comparison import (
    MacroEpochComparison,
    SpeedupReport,
    compare_macro_epoch,
    speedup,
)
from repro.analysis.fleet import (
    FAULT_COUNTERS,
    ThroughputComparison,
    backend_comparison_rows,
    compare_throughput,
    fault_intensity_rows,
    fleet_from_store,
    fleet_summary_rows,
    render_backend_comparison,
    render_fault_intensity,
    render_fleet_table,
    render_study_report,
)
from repro.analysis.rates import (
    RateFit,
    fit_geometric_rate,
    iterations_to_tolerance,
    time_to_tolerance,
)
from repro.analysis.reporting import render_schedule, render_series, render_table

__all__ = [
    "FAULT_COUNTERS",
    "MacroEpochComparison",
    "RateFit",
    "SpeedupReport",
    "ThroughputComparison",
    "backend_comparison_rows",
    "compare_macro_epoch",
    "compare_throughput",
    "fault_intensity_rows",
    "fit_geometric_rate",
    "fleet_from_store",
    "fleet_summary_rows",
    "iterations_to_tolerance",
    "render_backend_comparison",
    "render_fault_intensity",
    "render_fleet_table",
    "render_schedule",
    "render_series",
    "render_study_report",
    "render_table",
    "speedup",
    "time_to_tolerance",
]
