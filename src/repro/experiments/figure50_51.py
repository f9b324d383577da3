"""Figures 50-51 -- proposed scheme linearity across frequencies and corners.

Post-APR, the proposed delay line's delay-versus-input-word curve is measured
at 50 / 100 / 200 MHz; the 100 MHz curve is multiplied by 2 and the 200 MHz
curve by 4 so all three share the 20 ns full scale.  Figure 50 shows the slow
corner (fewer cells locked, so several input words collapse onto the same
tap -- visible plateaus) and Figure 51 the fast corner (most of the line is
used, so the curve is finer-grained).  Linearity is better at lower
frequencies because each cell combines more buffers and their random
variation partially averages out.

The experiment rebuilds the three frequency configurations with per-buffer
mismatch, calibrates each at both corners through the vectorized ensemble
engine (closed-form batch lock + batch transfer curves) and reports the
scaled transfer curves plus summary linearity metrics.  The Monte-Carlo
companion experiment ``fig50_51_mc`` asks the same question at population
scale (1000 instances per configuration).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.reports import format_series, format_table
from repro.core.design import DesignSpec, design_proposed
from repro.core.ensemble import ProposedEnsemble
from repro.experiments.base import ExperimentResult, register
from repro.technology.corners import OperatingConditions, ProcessCorner
from repro.technology.library import TechnologyLibrary, intel32_like_library
from repro.technology.variation import VariationModel

__all__ = ["run", "FREQUENCIES_MHZ", "SCALE_FACTORS"]

FREQUENCIES_MHZ = (50.0, 100.0, 200.0)
#: Multipliers that bring every frequency onto the 50 MHz (20 ns) full scale.
SCALE_FACTORS = {50.0: 1.0, 100.0: 2.0, 200.0: 4.0}


def _run_corner(
    corner: ProcessCorner,
    library: TechnologyLibrary,
    variation: VariationModel,
) -> dict[float, dict[str, object]]:
    conditions = OperatingConditions(corner=corner)
    curves: dict[float, dict[str, object]] = {}
    for frequency in FREQUENCIES_MHZ:
        spec = DesignSpec(clock_frequency_mhz=frequency, resolution_bits=6)
        design = design_proposed(spec, library)
        config = design.build_line(library=library).config
        ensemble = ProposedEnsemble.sample(
            config, 1, variation, library=library, first_instance=int(frequency)
        )
        calibration, batch_curves = ensemble.calibrate(conditions)
        curve = batch_curves.curve(0)
        metrics = batch_curves.metrics().instance(0)
        curves[frequency] = {
            "input_words": curve.input_words,
            "scaled_delay_ns": curve.scaled_delays_ns(SCALE_FACTORS[frequency]),
            "tap_sel": int(calibration.control_state[0]),
            "distinct_levels": metrics.distinct_levels,
            "rms_inl_lsb": metrics.rms_inl_lsb,
            "max_inl_lsb": metrics.max_inl_lsb,
            "monotonic": metrics.monotonic,
            "max_error_fraction": float(
                batch_curves.max_error_fraction_of_period()[0]
            ),
        }
    return curves


@register("fig50_51")
def run() -> ExperimentResult:
    """Regenerate Figures 50 (slow corner) and 51 (fast corner)."""
    library = intel32_like_library()
    variation = VariationModel(random_sigma=0.04, gradient_peak=0.015, seed=2012)

    data = {}
    reports = []
    summary_rows = []
    for corner, figure in ((ProcessCorner.SLOW, "Figure 50"), (ProcessCorner.FAST, "Figure 51")):
        curves = _run_corner(corner, library, variation)
        data[corner.name.lower()] = curves
        words = curves[FREQUENCIES_MHZ[0]]["input_words"]
        series = {
            f"{frequency:.0f} MHz x {SCALE_FACTORS[frequency]:.0f}": curves[frequency][
                "scaled_delay_ns"
            ]
            for frequency in FREQUENCIES_MHZ
        }
        reports.append(
            format_series(
                x_label="input word",
                x_values=list(words),
                series={name: list(values) for name, values in series.items()},
                title=f"{figure} -- linearity at the {corner.name.lower()} corner "
                "(delay in ns, frequency-normalized)",
                max_rows=12,
            )
        )
        for frequency in FREQUENCIES_MHZ:
            entry = curves[frequency]
            summary_rows.append(
                [
                    corner.name.lower(),
                    f"{frequency:.0f}",
                    entry["tap_sel"],
                    entry["distinct_levels"],
                    f"{entry['rms_inl_lsb']:.3f}",
                    "yes" if entry["monotonic"] else "no",
                ]
            )

    summary = format_table(
        headers=[
            "Corner",
            "Frequency (MHz)",
            "Locked tap_sel",
            "Distinct output levels",
            "RMS INL (LSB)",
            "Monotonic",
        ],
        rows=summary_rows,
        title="Summary linearity metrics (Figures 50-51)",
    )
    report = "\n\n".join(reports + [summary])
    return ExperimentResult(
        experiment_id="fig50_51",
        title="Proposed scheme linearity across frequencies and corners "
        "(paper Figures 50-51)",
        data=data,
        report=report,
        paper_reference={
            "claims": [
                "curves for all three frequencies overlay on the 20 ns full scale",
                "linearity is better at lower frequencies (more buffers per cell)",
                "slow corner shows plateaus: several input words map to the same tap",
                "fast corner uses more cells, so more distinct output delays",
            ]
        },
    )
