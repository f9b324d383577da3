"""Figure 15, Monte-Carlo edition -- silicon-to-regulation yield at scale.

The ``fig15`` experiment shows *one* converter per DPWM architecture and a
component-only Monte-Carlo sweep; the ``fig50_51_mc`` experiment scores the
delay-line silicon but never closes a loop.  This experiment fuses the two
halves with the silicon-to-regulation pipeline (:mod:`repro.pipeline` via
:func:`~repro.core.yield_analysis.adaptive_closed_loop_yield`): for every
(scheme x corner x frequency x load scenario) cell, a population of
fabricated delay-line instances is drawn, calibrated closed-form, converted
into per-instance DPWM duty tables and closed around its own
component-varied buck -- one vectorized run per cell, no per-instance Python
loop anywhere.  Each cell reports the per-chip steady-state limit-cycle
amplitude and the composed closed-loop yield (linearity AND regulation).

The composition is the payoff: at the slow corner the conventional DLL's
lock yield collapses (paper Figure 37 as a population statement), yet the
unlocked chips still *regulate* -- the loop servos the duty word around the
mis-scaled table -- so a regulation-only screen would ship silicon whose
DPWM never calibrated.  The composed specification catches it.

The sweep itself is declarative: :data:`GRID` names the cell axes and
:func:`run_cell` computes one cell from its scalar coordinates, so the
orchestrator (:mod:`repro.sweep`) can fan cells out across worker
processes and memoize each one in the result cache.

By default each cell spends a fixed budget of 128 instances: the estimator
at ``precision=0`` in one chunk.  With a ``precision`` (the CLI's
``--precision``) each cell instead fabricates and regulates chunks until
the confidence interval on its composed closed-loop yield has the
requested half-width or the ``max_instances`` cap is spent.  The adaptive
coordinates join the cell dicts -- and therefore the cache keys -- so the
two budgets never collide in the sweep cache.
"""

from __future__ import annotations

from repro.analysis.reports import format_table
from repro.converter.load import SteppedLoad
from repro.core.design import DesignSpec
from repro.core.yield_analysis import (
    ComponentVariation,
    LinearitySpec,
    RegulationSpec,
    adaptive_closed_loop_yield,
)
from repro.experiments.base import (
    ExperimentResult,
    adaptive_coordinates,
    monte_carlo_budget,
    register,
)
from repro.sweep import ParameterGrid, SweepOrchestrator, sweep_map
from repro.technology.corners import OperatingConditions, ProcessCorner
from repro.technology.library import intel32_like_library
from repro.technology.variation import VariationModel

__all__ = [
    "run",
    "run_cell",
    "GRID",
    "FREQUENCIES_MHZ",
    "LOAD_SCENARIOS",
    "NUM_INSTANCES",
    "DEFAULT_MAX_INSTANCES",
    "PERIODS",
]

FREQUENCIES_MHZ = (100.0, 200.0)
NUM_INSTANCES = 128
#: Default per-cell sample cap of the adaptive (``--precision``) mode.
DEFAULT_MAX_INSTANCES = 4 * NUM_INSTANCES
PERIODS = 400
DEFAULT_SEED = 2012
REFERENCE_V = 0.9
#: The composed specification: the silicon side mirrors ``fig50_51_mc``'s
#: period-referred deviation limit, the loop side is the 20 mV regulation
#: window of ``fig15``.
LINEARITY_SPEC = LinearitySpec(error_limit_fraction=0.045)
REGULATION_SPEC = RegulationSpec(tolerance_v=0.02)
#: Load scenarios; the step lands early so the steady-state tail scores the
#: recovered loop at every frequency (slower-switching fleets need more
#: periods per time constant to settle).
LOAD_SCENARIOS = {
    "constant": None,
    "load_step": SteppedLoad(
        light_ohm=2.0, heavy_ohm=0.9, step_up_period=60, step_down_period=120
    ),
}

#: The sweep axes; one cell per (scheme, corner, frequency, load scenario),
#: visited in the same order as the original nested loops so the report
#: rows are stable.
GRID = ParameterGrid(
    scheme=("proposed", "conventional"),
    corner=tuple(c.name.lower() for c in (ProcessCorner.SLOW, ProcessCorner.FAST)),
    frequency_mhz=FREQUENCIES_MHZ,
    load=tuple(LOAD_SCENARIOS),
)


def run_cell(params: dict) -> dict:
    """Closed-loop-yield payload of one (scheme, corner, frequency, load) cell.

    Module-level and driven entirely by the scalar ``params`` dict (the
    grid coordinates plus the RNG seed), so the sweep orchestrator can
    pickle it into worker processes and content-address the result.  The
    load *scenario name* is the cell coordinate; the scenario object is
    looked up here, inside the worker.  Both the silicon mismatch and the
    per-chip component spread derive from the seed.  A cell with
    ``precision`` / ``max_instances`` coordinates samples adaptively; one
    without spends the fixed :data:`NUM_INSTANCES` budget (see
    :func:`~repro.experiments.base.monte_carlo_budget`).  Either way the
    payload carries the confidence bookkeeping after the metric keys.
    """
    result = adaptive_closed_loop_yield(
        params["scheme"],
        DesignSpec(
            clock_frequency_mhz=params["frequency_mhz"], resolution_bits=6
        ),
        OperatingConditions(corner=ProcessCorner[params["corner"].upper()]),
        reference_v=REFERENCE_V,
        variation=VariationModel(seed=params["seed"]),
        component_variation=ComponentVariation(seed=params["seed"]),
        periods=PERIODS,
        linearity_spec=LINEARITY_SPEC,
        regulation_spec=REGULATION_SPEC,
        load=LOAD_SCENARIOS[params["load"]],
        library=intel32_like_library(),
        **monte_carlo_budget(params, fixed_instances=NUM_INSTANCES),
    )
    amplitude = result.moments["limit_cycle_amplitude_v"]
    return {
        "closed_loop_yield": result.estimate,
        "linearity_yield": result.estimates["linearity"],
        "regulation_yield": result.estimates["regulation"],
        "lock_yield": result.estimates["lock"],
        "worst_error_v": result.moments["error_v"].maximum,
        "mean_limit_cycle_amplitude_v": amplitude.mean,
        "worst_limit_cycle_amplitude_v": amplitude.maximum,
        **result.interval_summary(),
    }


@register("fig15_mc")
def run(
    seed: int | None = None,
    sweep: SweepOrchestrator | None = None,
    precision: float | None = None,
    max_instances: int | None = None,
) -> ExperimentResult:
    """Monte-Carlo closed-loop yield per scheme x corner x frequency x load.

    Args:
        seed: RNG seed for the silicon and component draws (the CLI's
            ``--seed`` flag); defaults to the experiment's stock seed.
        sweep: optional :class:`~repro.sweep.SweepOrchestrator` (the CLI's
            ``--workers`` / ``--cache-dir`` flags); cells run serially
            without one, with bit-identical results.
        precision: optional CI half-width target (the CLI's ``--precision``
            flag); switches every cell from the fixed 128-instance budget
            to adaptive sampling.
        max_instances: per-cell sample cap of the adaptive mode (the CLI's
            ``--max-instances`` flag); requires ``precision``.
    """
    coordinates = adaptive_coordinates(
        precision, max_instances, default_max_instances=DEFAULT_MAX_INSTANCES
    )
    cells = GRID.cells(seed=DEFAULT_SEED if seed is None else seed, **coordinates)
    payloads = sweep_map(run_cell, cells, experiment_id="fig15_mc", sweep=sweep)

    data = {}
    rows = []
    for cell, entry in zip(cells, payloads):
        scheme, corner = cell["scheme"], cell["corner"]
        frequency, scenario = cell["frequency_mhz"], cell["load"]
        per_frequency = data.setdefault(scheme, {}).setdefault(corner, {})
        per_frequency.setdefault(frequency, {})[scenario] = entry
        rows.append(
            [
                scheme,
                corner,
                f"{frequency:.0f}",
                scenario,
                f"{entry['closed_loop_yield']:.3f}",
                f"{entry['regulation_yield']:.3f}",
                f"{entry['lock_yield']:.3f}",
                f"{entry['mean_limit_cycle_amplitude_v'] * 1e3:.1f}",
                f"{entry['worst_error_v'] * 1e3:.1f}",
                f"[{entry['ci_lower']:.3f}, {entry['ci_upper']:.3f}]",
                str(entry["samples"]),
                entry["stop_reason"],
            ]
        )

    headers = [
        "Scheme",
        "Corner",
        "Freq (MHz)",
        "Load",
        "Closed-loop yield",
        "Regulation yield",
        "Lock yield",
        "Mean limit cycle (mV)",
        "Worst |Vss-Vref| (mV)",
        "95 % CI",
        "Samples",
        "Stop",
    ]
    if precision is None:
        budget = f"over {NUM_INSTANCES} fabricated instances per cell"
    else:
        budget = (
            f"adaptive to +/- {precision:g} CI half-width "
            f"(cap {coordinates['max_instances']} instances/cell)"
        )
    report = format_table(
        headers=headers,
        rows=rows,
        title=(
            f"Figure 15 Monte-Carlo -- silicon-to-regulation yield {budget} "
            f"(spec: deviation "
            f"<= {100 * LINEARITY_SPEC.error_limit_fraction:.1f} % of period, "
            f"monotonic, locked, AND |Vss - Vref| <= "
            f"{REGULATION_SPEC.tolerance_v * 1e3:.0f} mV)"
        ),
    )
    return ExperimentResult(
        experiment_id="fig15_mc",
        title="Monte-Carlo silicon-to-regulation yield across corners, "
        "frequencies and load scenarios (population-scale Figure 15)",
        data=data,
        report=report,
        paper_reference={
            "claims": [
                "process variation in the delay line decides closed-loop quality",
                "the proposed scheme's population locks and regulates at every corner",
                "the conventional DLL's slow-corner lock collapse survives the loop: "
                "regulation alone cannot screen it",
            ]
        },
    )
