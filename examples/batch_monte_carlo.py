#!/usr/bin/env python3
"""Monte-Carlo regulation sweeps with the vectorized batch engine.

The scalar closed loop advances one converter per Python loop iteration;
the batch engine (:mod:`repro.simulation.batch`) advances a whole fleet of
converter variants with exact state-space steps, so statistical questions
about the regulation loop -- the Section 5.2 mindset applied to the
converter itself -- cost a single vectorized run:

* How tightly does the output voltage distribute when L, C and the
  parasitics vary from part to part?
* What fraction of parts regulates within a tolerance (the "regulation
  yield")?
* How does the fleet ride through a realistic pulsed workload?
* What fraction of *fabricated chips* -- process-varied delay-line DPWM
  plus component-varied buck, fused by :mod:`repro.pipeline` -- meets the
  composed linearity + regulation specification?

Both yields come from the Monte-Carlo estimators of
:mod:`repro.core.yield_analysis` at a fixed budget: ``precision=0`` in one
chunk of ``NUM_VARIANTS`` instances.

Run with:  python examples/batch_monte_carlo.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis.reports import format_table
from repro.converter.buck import BuckParameters
from repro.converter.load import PulseTrainLoad
from repro.core.design import DesignSpec
from repro.core.yield_analysis import (
    ComponentVariation,
    LinearitySpec,
    RegulationSpec,
    adaptive_closed_loop_yield,
    adaptive_regulation_yield,
)
from repro.simulation.batch import BatchClosedLoop, BatchQuantizer
from repro.technology.corners import OperatingConditions
from repro.technology.variation import VariationModel

VIN_V = 1.8
VREF_V = 0.9
NUM_VARIANTS = 512
PERIODS = 300


def main() -> None:
    nominal = BuckParameters(input_voltage_v=VIN_V, switching_frequency_hz=100e6)
    variation = ComponentVariation(
        inductance_sigma=0.08,
        capacitance_sigma=0.08,
        resistance_sigma=0.15,
        input_voltage_sigma=0.02,
        seed=2012,
    )

    fixed_budget = dict(
        precision=0.0, max_instances=NUM_VARIANTS, chunk_size=NUM_VARIANTS
    )

    # 1. Regulation yield under component spread, one vectorized run.
    result = adaptive_regulation_yield(
        nominal,
        reference_v=VREF_V,
        variation=variation,
        periods=PERIODS,
        tolerance_v=0.02,
        dpwm_bits=8,
        **fixed_budget,
    )
    steady_state = result.moments["steady_state_v"]
    interval = result.interval
    print(
        format_table(
            headers=["Metric", "Value"],
            rows=[
                ["Variants", str(result.trials)],
                ["Regulation yield (+/- 20 mV)", f"{result.estimate:.3f}"],
                ["95 % CI on the yield", f"[{interval.lower:.3f}, {interval.upper:.3f}]"],
                ["Steady-state Vout mean (mV)", f"{steady_state.mean * 1e3:.2f}"],
                ["Steady-state Vout std (mV)", f"{steady_state.std() * 1e3:.2f}"],
                [
                    "Worst deviation from Vref (mV)",
                    f"{result.moments['error_v'].maximum * 1e3:.2f}",
                ],
            ],
            title=(
                f"Monte-Carlo regulation sweep: {VIN_V} V -> {VREF_V} V, "
                f"{NUM_VARIANTS} component draws in one batch run"
            ),
        )
    )

    # 2. The same fleet riding a pulsed microprocessor-style workload.
    parameters = variation.sample_instances(nominal, NUM_VARIANTS)
    loop = BatchClosedLoop(
        parameters,
        BatchQuantizer.ideal(8, NUM_VARIANTS),
        reference_v=VREF_V,
        load=PulseTrainLoad(
            light_ohm=2.0, heavy_ohm=0.9, pulse_periods=40, train_period=160
        ),
    )
    trace = loop.run(PERIODS)
    voltages = trace.output_voltages_v
    worst_dip = voltages.min(axis=0)
    worst_peak = voltages.max(axis=0)
    print()
    print(
        format_table(
            headers=["Metric", "Fleet min", "Fleet median", "Fleet max"],
            rows=[
                [
                    "Worst dip under pulses (V)",
                    f"{worst_dip.min():.3f}",
                    f"{np.median(worst_dip):.3f}",
                    f"{worst_dip.max():.3f}",
                ],
                [
                    "Worst overshoot (V)",
                    f"{worst_peak.min():.3f}",
                    f"{np.median(worst_peak):.3f}",
                    f"{worst_peak.max():.3f}",
                ],
                [
                    "Final-period Vout (V)",
                    f"{voltages[-1].min():.3f}",
                    f"{np.median(voltages[-1]):.3f}",
                    f"{voltages[-1].max():.3f}",
                ],
            ],
            title="Pulse-train workload across the fleet (40-on / 120-off periods)",
        )
    )

    # 3. The fused silicon-to-regulation pipeline: every fabricated
    #    proposed-scheme delay line calibrated, converted to a DPWM duty
    #    table and closed around its own component-varied buck.
    silicon = adaptive_closed_loop_yield(
        "proposed",
        DesignSpec(clock_frequency_mhz=100.0, resolution_bits=6),
        OperatingConditions.slow(),
        nominal=nominal,
        reference_v=VREF_V,
        variation=VariationModel(seed=2012),
        component_variation=variation,
        periods=PERIODS,
        linearity_spec=LinearitySpec(error_limit_fraction=0.045),
        regulation_spec=RegulationSpec(tolerance_v=0.02),
        **fixed_budget,
    )
    amplitude = silicon.moments["limit_cycle_amplitude_v"]
    interval = silicon.interval
    print()
    print(
        format_table(
            headers=["Metric", "Value"],
            rows=[
                ["Fabricated instances", str(silicon.trials)],
                ["Closed-loop yield", f"{silicon.estimate:.3f}"],
                ["95 % CI on the yield", f"[{interval.lower:.3f}, {interval.upper:.3f}]"],
                ["Linearity yield", f"{silicon.estimates['linearity']:.3f}"],
                ["Regulation yield", f"{silicon.estimates['regulation']:.3f}"],
                [
                    "Worst limit-cycle amplitude (mV)",
                    f"{amplitude.maximum * 1e3:.2f}",
                ],
            ],
            title=(
                "Silicon-to-regulation pipeline at the slow corner: "
                "process-varied DPWM silicon + component-varied bucks"
            ),
        )
    )


if __name__ == "__main__":
    main()
