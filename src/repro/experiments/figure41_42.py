"""Figures 41-42 -- tuning-order scenarios and their linearity.

In the conventional scheme, which cells receive the extra delay elements is a
free choice (the arrangement of control bits in the shift register).  The
paper shows two scenarios on a four-cell example (Figure 41) and argues that
spreading the extra delay across the line is better for linearity than piling
it onto the first cells (Figure 42).

The experiment locks the 100 MHz conventional design at the typical corner
under three orderings (sequential, round-robin, distributed), reports the
per-cell tuning-level profiles (Figure 41) and the linearity of the resulting
transfer curves (Figure 42).  All three scenarios share one fabricated
instance and run through the vectorized ensemble engine (closed-form batch
lock + batch transfer curves); the scalar numbers reported are views of the
batch results.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.reports import format_table
from repro.core.conventional import TuningOrder
from repro.core.design import DesignSpec, design_conventional
from repro.core.ensemble import ConventionalEnsemble
from repro.experiments.base import ExperimentResult, register
from repro.technology.corners import OperatingConditions
from repro.technology.library import intel32_like_library
from repro.technology.variation import VariationModel

__all__ = ["run"]


@register("fig41_42")
def run() -> ExperimentResult:
    """Regenerate Figures 41-42 (tuning scenarios and their linearity)."""
    library = intel32_like_library()
    spec = DesignSpec(clock_frequency_mhz=100.0, resolution_bits=6)
    conditions = OperatingConditions.typical()
    design = design_conventional(spec, library)
    variation = VariationModel(random_sigma=0.03, gradient_peak=0.01, seed=42)

    scenarios = {}
    rows = []
    for order in (
        TuningOrder.SEQUENTIAL,
        TuningOrder.ROUND_ROBIN,
        TuningOrder.DISTRIBUTED,
    ):
        config = design.build_line(library=library, tuning_order=order).config
        ensemble = ConventionalEnsemble.sample(config, 1, variation, library=library)
        calibration, curves = ensemble.calibrate(conditions)
        levels = ensemble.levels_schedule()[int(calibration.control_state[0])]
        metrics = curves.metrics().instance(0)
        max_error_fraction = float(curves.max_error_fraction_of_period()[0])
        scenarios[order.value] = {
            "levels": levels.tolist(),
            "lock_cycles": int(calibration.lock_cycles[0]),
            "max_inl_lsb": metrics.max_inl_lsb,
            "max_dnl_lsb": metrics.max_dnl_lsb,
            "max_error_fraction_of_period": max_error_fraction,
            "monotonic": metrics.monotonic,
        }
        level_counts = np.bincount(levels, minlength=design.branches)
        rows.append(
            [
                order.value,
                " / ".join(str(int(count)) for count in level_counts),
                f"{metrics.max_inl_lsb:.2f}",
                f"{metrics.max_dnl_lsb:.2f}",
                f"{100 * max_error_fraction:.2f} %",
            ]
        )

    report = format_table(
        headers=[
            "Tuning order (Fig. 41 scenario)",
            "Cells per level (0/1/2/3)",
            "Max |INL| (LSB)",
            "Max |DNL| (LSB)",
            "Max error (% of period)",
        ],
        rows=rows,
        title=(
            "Figures 41-42 -- conventional scheme locking scenarios and linearity "
            "(100 MHz, typical corner, post-APR mismatch)"
        ),
    )
    return ExperimentResult(
        experiment_id="fig41_42",
        title="Tuning-order scenarios and linearity (paper Figures 41-42)",
        data={"scenarios": scenarios},
        report=report,
        paper_reference={
            "claim": "spreading the tuned cells across the line is more linear "
            "than clustering them at the start"
        },
    )
