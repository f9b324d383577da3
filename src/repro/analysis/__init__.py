"""Metrics, power models and report rendering.

* :mod:`repro.analysis.metrics` -- DNL/INL/monotonicity of delay-line
  transfer curves.
* :mod:`repro.analysis.power` -- the dynamic-power model of paper eq. 14 and
  leakage roll-ups over synthesized netlists.
* :mod:`repro.analysis.reports` -- plain-text table/series rendering used by
  the experiment harnesses and examples.
"""

from repro.analysis.metastability import (
    FlipFlopMetastabilityModel,
    synchronizer_mtbf_years,
)
from repro.analysis.metrics import (
    BatchLinearityMetrics,
    LinearityMetrics,
    batch_linearity_metrics,
    differential_nonlinearity,
    distinct_level_counts,
    integral_nonlinearity,
    is_monotonic,
    linearity_metrics,
)
from repro.analysis.power import dynamic_power_w, netlist_dynamic_power_w
from repro.analysis.reports import format_series, format_table

__all__ = [
    "BatchLinearityMetrics",
    "FlipFlopMetastabilityModel",
    "LinearityMetrics",
    "batch_linearity_metrics",
    "differential_nonlinearity",
    "distinct_level_counts",
    "dynamic_power_w",
    "format_series",
    "format_table",
    "integral_nonlinearity",
    "is_monotonic",
    "linearity_metrics",
    "netlist_dynamic_power_w",
    "synchronizer_mtbf_years",
]
