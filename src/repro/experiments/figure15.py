"""Figure 15 -- the digitally controlled buck converter, batch-simulated.

The paper's Figure 15 is the application the delay-line DPWM exists for: a
buck power stage closed through a windowed ADC, PID compensator and DPWM.
This experiment exercises that loop at scale with the vectorized batch
engine (:mod:`repro.simulation.batch`):

* **Architecture comparison** -- the ideal 6-bit DPWM and the calibrated
  proposed / conventional delay-line DPWMs regulate the same load-step
  scenario side by side (one 3-variant batch), reporting steady state, the
  transient dip and recovery.
* **Monte-Carlo regulation yield** -- a 256-variant fleet with component
  spreads drawn from :class:`~repro.core.yield_analysis.ComponentVariation`
  is advanced in one vectorized run
  (:func:`~repro.core.yield_analysis.adaptive_regulation_yield`), extending
  the paper's Section 5.2 statistical-sizing mindset from the delay line to
  the regulation loop.
* **Silicon Monte-Carlo** -- the fused silicon-to-regulation pipeline
  (:mod:`repro.pipeline` via
  :func:`~repro.core.yield_analysis.adaptive_closed_loop_yield`): 256
  fabricated proposed-scheme delay lines, each calibrated and closed around
  its own component-varied buck, scored against the composed linearity +
  regulation specification.

Both sections spend a fixed budget of 256 instances (``precision=0`` in one
chunk) unless a ``precision`` asks for adaptive sampling.
"""

from __future__ import annotations

from repro.analysis.reports import format_table
from repro.converter.buck import BuckParameters
from repro.converter.closed_loop import IdealDPWM
from repro.converter.load import SteppedLoad
from repro.core.design import DesignSpec, design_conventional, design_proposed
from repro.core.yield_analysis import (
    ComponentVariation,
    LinearitySpec,
    RegulationSpec,
    adaptive_closed_loop_yield,
    adaptive_regulation_yield,
)
from repro.dpwm.calibrated import CalibratedDelayLineDPWM
from repro.experiments.base import (
    ExperimentResult,
    adaptive_coordinates,
    monte_carlo_budget,
    register,
)
from repro.simulation.batch import (
    BatchBuckParameters,
    BatchClosedLoop,
    BatchQuantizer,
)
from repro.sweep import SweepOrchestrator, sweep_map
from repro.technology.corners import OperatingConditions
from repro.technology.library import intel32_like_library
from repro.technology.variation import VariationModel

__all__ = [
    "run",
    "run_cell",
    "REFERENCE_V",
    "NUM_MONTE_CARLO_VARIANTS",
    "DEFAULT_MAX_INSTANCES",
]

REFERENCE_V = 0.9
NUM_MONTE_CARLO_VARIANTS = 256
#: Default per-section sample cap of the adaptive (``--precision``) mode.
DEFAULT_MAX_INSTANCES = 4 * NUM_MONTE_CARLO_VARIANTS
DEFAULT_SEED = 2012
_FREQUENCY_MHZ = 100.0
_MC_PERIODS = 300
_PERIODS = 900
_STEP_UP = 300
_STEP_DOWN = 600


def run_cell(params: dict) -> dict:
    """Payload of one Monte-Carlo section of the experiment.

    Two cell kinds share this entry point (``params["section"]`` selects):
    ``component_mc`` is the component-variation regulation sweep,
    ``silicon_mc`` the fused silicon-to-regulation pipeline run.  Both are
    pure functions of their scalar parameters, so the sweep orchestrator
    can fan them out and cache them independently.  A cell with
    ``precision`` / ``max_instances`` coordinates samples adaptively; one
    without spends its ``num_instances`` budget (see
    :func:`~repro.experiments.base.monte_carlo_budget`).  Either way the
    payload carries streaming summaries plus the confidence bookkeeping.
    """
    nominal = BuckParameters(
        input_voltage_v=1.8,
        switching_frequency_hz=params["frequency_mhz"] * 1e6,
    )
    budget = monte_carlo_budget(
        params,
        fixed_instances=params.get("num_instances", NUM_MONTE_CARLO_VARIANTS),
    )
    if params["section"] == "component_mc":
        result = adaptive_regulation_yield(
            nominal,
            reference_v=REFERENCE_V,
            variation=ComponentVariation(seed=params["seed"]),
            periods=_MC_PERIODS,
            tolerance_v=0.02,
            **budget,
        )
        steady_state = result.moments["steady_state_v"]
        return {
            "regulation_yield": result.estimate,
            "mean_steady_state_v": steady_state.mean,
            "std_steady_state_v": steady_state.std(),
            "worst_error_v": result.moments["error_v"].maximum,
            "worst_ripple_v": result.moments["ripple_v"].maximum,
            **result.interval_summary(),
        }
    if params["section"] == "silicon_mc":
        result = adaptive_closed_loop_yield(
            "proposed",
            DesignSpec(
                clock_frequency_mhz=params["frequency_mhz"], resolution_bits=6
            ),
            OperatingConditions.typical(),
            nominal=nominal,
            reference_v=REFERENCE_V,
            variation=VariationModel(seed=params["seed"]),
            component_variation=ComponentVariation(seed=params["seed"]),
            periods=_MC_PERIODS,
            linearity_spec=LinearitySpec(error_limit_fraction=0.045),
            regulation_spec=RegulationSpec(tolerance_v=0.02),
            library=intel32_like_library(),
            **budget,
        )
        return {
            "closed_loop_yield": result.estimate,
            "linearity_yield": result.estimates["linearity"],
            "regulation_yield": result.estimates["regulation"],
            "lock_yield": result.estimates["lock"],
            "worst_error_v": result.moments["error_v"].maximum,
            "worst_limit_cycle_amplitude_v": (
                result.moments["limit_cycle_amplitude_v"].maximum
            ),
            **result.interval_summary(),
        }
    raise ValueError(f"unknown fig15 cell section {params['section']!r}")


def _section_tables(
    monte_carlo: dict[str, object],
    silicon: dict[str, object],
    precision: float | None,
) -> tuple[str, str]:
    """Report tables of the two Monte-Carlo sections."""
    if precision is None:
        sampling, budget = "fixed", f"{NUM_MONTE_CARLO_VARIANTS} instances"
    else:
        sampling, budget = "adaptive", f"adaptive to +/- {precision:g} CI half-width"

    def ci(entry: dict) -> str:
        return f"[{entry['ci_lower']:.3f}, {entry['ci_upper']:.3f}]"

    yield_table = format_table(
        headers=["Metric", "Value"],
        rows=[
            [f"Samples drawn ({sampling})", str(monte_carlo["samples"])],
            ["Stop reason", monte_carlo["stop_reason"]],
            ["Regulation yield (|Vss - Vref| <= 20 mV)", f"{monte_carlo['regulation_yield']:.3f}"],
            ["95 % CI on the yield", ci(monte_carlo)],
            ["Mean steady-state Vout (V)", f"{monte_carlo['mean_steady_state_v']:.4f}"],
            ["Std of steady-state Vout (mV)", f"{monte_carlo['std_steady_state_v'] * 1e3:.2f}"],
            ["Worst |Vss - Vref| (mV)", f"{monte_carlo['worst_error_v'] * 1e3:.2f}"],
            ["Worst tail ripple (mV)", f"{monte_carlo['worst_ripple_v'] * 1e3:.2f}"],
        ],
        title=f"Monte-Carlo regulation yield under component variation ({budget})",
    )
    silicon_table = format_table(
        headers=["Metric", "Value"],
        rows=[
            [f"Samples drawn ({sampling})", str(silicon["samples"])],
            ["Stop reason", silicon["stop_reason"]],
            ["Closed-loop yield (linearity AND regulation)", f"{silicon['closed_loop_yield']:.3f}"],
            ["95 % CI on the yield", ci(silicon)],
            ["Linearity yield", f"{silicon['linearity_yield']:.3f}"],
            ["Regulation yield", f"{silicon['regulation_yield']:.3f}"],
            ["Lock yield", f"{silicon['lock_yield']:.3f}"],
            ["Worst |Vss - Vref| (mV)", f"{silicon['worst_error_v'] * 1e3:.2f}"],
            [
                "Worst limit-cycle amplitude (mV)",
                f"{silicon['worst_limit_cycle_amplitude_v'] * 1e3:.2f}",
            ],
        ],
        title=(
            f"Silicon-to-regulation pipeline ({budget}) -- every fabricated "
            "proposed-scheme delay line closed around its own "
            "component-varied buck"
        ),
    )
    return yield_table, silicon_table


@register("fig15")
def run(
    seed: int | None = None,
    sweep: SweepOrchestrator | None = None,
    precision: float | None = None,
    max_instances: int | None = None,
) -> ExperimentResult:
    """Regenerate Figure 15 (closed-loop regulation) as batch simulations.

    Args:
        seed: RNG seed for the Monte-Carlo draws (the CLI's ``--seed``
            flag); defaults to the experiment's stock seed.
        sweep: optional :class:`~repro.sweep.SweepOrchestrator` (the CLI's
            ``--workers`` / ``--cache-dir`` flags); the two Monte-Carlo
            sections then run as cacheable sweep cells.
        precision: optional CI half-width target (the CLI's ``--precision``
            flag); switches both Monte-Carlo sections from their fixed
            256-variant budget to adaptive sampling (the architecture
            comparison is deterministic and unaffected).
        max_instances: per-section sample cap of the adaptive mode (the
            CLI's ``--max-instances`` flag); requires ``precision``.
    """
    coordinates = adaptive_coordinates(
        precision, max_instances, default_max_instances=DEFAULT_MAX_INSTANCES
    )
    seed = DEFAULT_SEED if seed is None else seed
    library = intel32_like_library()
    spec = DesignSpec(clock_frequency_mhz=_FREQUENCY_MHZ, resolution_bits=6)
    conditions = OperatingConditions.typical()
    parameters = BuckParameters(
        input_voltage_v=1.8, switching_frequency_hz=_FREQUENCY_MHZ * 1e6
    )

    architectures = {
        "ideal 6-bit": IdealDPWM(bits=6),
        "calibrated proposed": CalibratedDelayLineDPWM(
            design_proposed(spec, library).build_line(library=library), conditions
        ),
        "calibrated conventional": CalibratedDelayLineDPWM(
            design_conventional(spec, library).build_line(library=library), conditions
        ),
    }

    # One batch advances all three architectures through the load step.
    load = SteppedLoad(
        light_ohm=2.0, heavy_ohm=0.9, step_up_period=_STEP_UP, step_down_period=_STEP_DOWN
    )
    batch = BatchClosedLoop(
        BatchBuckParameters.uniform(parameters, len(architectures)),
        BatchQuantizer.from_quantizers(list(architectures.values())),
        reference_v=REFERENCE_V,
        load=load,
    )
    result = batch.run(_PERIODS)
    voltages = result.output_voltages_v

    comparison = {}
    rows = []
    for column, name in enumerate(architectures):
        trace = voltages[:, column]
        entry = {
            "pre_step_v": float(trace[_STEP_UP - 50 : _STEP_UP].mean()),
            "dip_v": float(trace[_STEP_UP : _STEP_UP + 120].min()),
            "heavy_v": float(trace[_STEP_DOWN - 50 : _STEP_DOWN].mean()),
            "final_v": float(trace[-50:].mean()),
            "ripple_v": float(trace[-50:].max() - trace[-50:].min()),
        }
        comparison[name] = entry
        rows.append(
            [
                name,
                f"{entry['pre_step_v']:.4f}",
                f"{entry['dip_v']:.4f}",
                f"{entry['heavy_v']:.4f}",
                f"{entry['final_v']:.4f}",
                f"{entry['ripple_v'] * 1e3:.1f}",
            ]
        )
    architecture_table = format_table(
        headers=[
            "DPWM architecture",
            "Vout before step (V)",
            "Worst dip (V)",
            "Vout heavy load (V)",
            "Vout after release (V)",
            "Tail ripple (mV)",
        ],
        rows=rows,
        title=(
            "Figure 15 -- digitally controlled buck, 1.8 V -> 0.9 V at 100 MHz: "
            "load-step regulation per DPWM architecture (one batch run)"
        ),
    )

    # The two Monte-Carlo sections run as sweep cells: the 256-variant
    # component sweep and the fused silicon pipeline fan out (and cache)
    # independently when an orchestrator is threaded in.
    # The adaptive cell's budget coordinates replace the fixed count (which
    # the adaptive path never reads) in the cache key.
    cell_common = {
        "frequency_mhz": _FREQUENCY_MHZ,
        "seed": seed,
        **(coordinates or {"num_instances": NUM_MONTE_CARLO_VARIANTS}),
    }
    monte_carlo, silicon = sweep_map(
        run_cell,
        [
            {"section": "component_mc", **cell_common},
            {"section": "silicon_mc", **cell_common},
        ],
        experiment_id="fig15",
        sweep=sweep,
    )
    yield_table, silicon_table = _section_tables(monte_carlo, silicon, precision)

    return ExperimentResult(
        experiment_id="fig15",
        title="Digitally controlled buck regulation at scale (paper Figure 15)",
        data={
            "architectures": comparison,
            "monte_carlo": monte_carlo,
            "silicon_monte_carlo": silicon,
        },
        report=architecture_table + "\n\n" + yield_table + "\n\n" + silicon_table,
        paper_reference={
            "claims": [
                "the loop regulates Vout to Duty * Vg (paper eq. 11)",
                "calibrated delay-line DPWMs regulate as well as the ideal quantizer",
                "regulation survives the paper's load transients at every architecture",
                "fabricated silicon under process + component variation still yields",
            ]
        },
    )
