"""Figure 15, rare-event edition -- ppm-regime load-step failure rates.

The ``fig15_mc`` experiment scores yields that live in the percent range,
where a few hundred vanilla samples resolve the interval.  This experiment
asks the tail question instead: *how often does the closed loop's load-step
undershoot cross a guard-banded dip limit?*  At the shipped limit that is a
~1e-4 event -- vanilla adaptive sampling needs hundreds of thousands of
fleet simulations before the Wilson interval says anything, which is
exactly the regime the variance-reduced estimators of :mod:`repro.mc` are
for.

Per (process corner) cell, one ideal proposed delay line is designed and
calibrated at the corner, its duty table is shared across the fleet, and
the component spreads (:class:`~repro.core.yield_analysis.ComponentVariation`)
drive the failure statistics through
:func:`~repro.core.yield_analysis.rare_event_regulation_yield`.  The
estimator is a cell coordinate (the CLI's ``--estimator``), so vanilla,
stratified and importance runs of the same cell occupy distinct slots in
the sweep cache:

* ``importance`` (default) -- draws are tilted toward slow inductors and
  small capacitors (the axes the dip correlates with) and reweighted back
  through per-instance likelihood ratios; the stopping rule requires both
  the target CI half-width and a minimum effective sample size.
* ``stratified`` -- sigma-shells of the capacitance draw with Neyman
  chunk allocation.
* ``vanilla`` -- the brute-force baseline (expect it to exhaust the cap).

``--tilt-shift`` scales the built-in tilt direction and ``--tilt-scale``
sets the proposal's sigma widening; both join the cache key.  See
``docs/monte_carlo.md`` for the estimator math and tilt guidance.
"""

from __future__ import annotations

from repro.analysis.reports import format_table
from repro.converter.buck import BuckParameters
from repro.converter.load import SteppedLoad
from repro.core.design import DesignSpec
from repro.core.yield_analysis import (
    ComponentStratification,
    ComponentTilt,
    ComponentVariation,
    rare_event_regulation_yield,
)
from repro.experiments.base import ExperimentResult, register
from repro.pipeline import ChunkedFabricator
from repro.simulation.batch import BatchQuantizer
from repro.sweep import ParameterGrid, SweepOrchestrator, sweep_map
from repro.technology.corners import OperatingConditions, ProcessCorner
from repro.technology.library import intel32_like_library

__all__ = [
    "run",
    "run_cell",
    "GRID",
    "DIP_LIMIT_V",
    "DEFAULT_PRECISION",
    "DEFAULT_MAX_INSTANCES",
    "CHUNK_SIZE",
    "ESTIMATORS",
    "TILT_INDUCTANCE_SHIFT",
    "TILT_CAPACITANCE_SHIFT",
    "DEFAULT_TILT_SCALE",
]

FREQUENCY_MHZ = 100.0
RESOLUTION_BITS = 6
REFERENCE_V = 0.9
DEFAULT_SEED = 2012
PERIODS = 160
#: Periods excluded from the dip measurement while the loop settles; the
#: load step lands on this period, so the window scores the transient.
SETTLE_PERIODS = 60
#: Undershoot threshold defining failure.  Calibrated against a 262144-
#: sample brute-force run of the slow-corner cell: the dip distribution's
#: 1.1e-4 quantile, i.e. a guard band that a nominal fleet crosses at ppm
#: rates (the regime the estimators are built for).
DIP_LIMIT_V = 0.5930
#: Target CI half-width on the failure probability -- about half the
#: slow-corner cell's true failure rate, so a resolved interval actually
#: separates the estimate from zero.
DEFAULT_PRECISION = 5e-5
DEFAULT_MAX_INSTANCES = 16384
CHUNK_SIZE = 2048
ESTIMATORS = ("vanilla", "stratified", "importance")
#: Built-in tilt direction, from the dip's component correlations (slower
#: inductors and smaller capacitors deepen the undershoot); ``--tilt-shift``
#: scales both components together.
TILT_INDUCTANCE_SHIFT = 1.2
TILT_CAPACITANCE_SHIFT = -2.5
#: Proposal sigma widening; >1 keeps the importance weights well behaved
#: (see docs/monte_carlo.md).
DEFAULT_TILT_SCALE = 1.3
#: The load step: light to heavy at the settle boundary, no step back
#: within the run, so the minimum after settling is the step transient.
LOAD = SteppedLoad(
    light_ohm=2.0, heavy_ohm=0.9, step_up_period=60, step_down_period=100000
)

GRID = ParameterGrid(
    corner=tuple(c.name.lower() for c in (ProcessCorner.SLOW, ProcessCorner.FAST)),
)


def _duty_levels(corner: str) -> "BatchQuantizer":
    """Calibrate one ideal proposed line at the corner; share its duty table.

    The rare-event question here is about the *electrical* tails, so the
    silicon side is held at its nominal design point: one mismatch-free
    instance, locked closed-form at the corner, its quantizer levels
    broadcast over the whole component-varied fleet.
    """
    spec = DesignSpec(
        clock_frequency_mhz=FREQUENCY_MHZ, resolution_bits=RESOLUTION_BITS
    )
    conditions = OperatingConditions(corner=ProcessCorner[corner.upper()])
    ensemble = ChunkedFabricator(
        "proposed", spec, library=intel32_like_library()
    ).fabricate(1)
    _, curves = ensemble.calibrate(conditions)
    return BatchQuantizer.from_ensemble(curves)


def run_cell(params: dict) -> dict:
    """Rare-event failure payload of one (corner) cell.

    Module-level and driven entirely by scalar ``params`` (corner, seed,
    estimator, precision, budget, tilt coordinates), so the sweep
    orchestrator can pickle it into workers and content-address the
    result -- estimator and tilt variants never collide in the cache.
    """
    from repro.mc import ImportanceSampleResult, StratifiedSampleResult

    estimator = params["estimator"]
    tilt = None
    stratification = None
    if estimator == "importance":
        tilt = ComponentTilt(
            inductance_shift=TILT_INDUCTANCE_SHIFT * params["tilt_shift"],
            capacitance_shift=TILT_CAPACITANCE_SHIFT * params["tilt_shift"],
            sigma_scale=params["tilt_scale"],
        )
    elif estimator == "stratified":
        stratification = ComponentStratification()
    result = rare_event_regulation_yield(
        BuckParameters(switching_frequency_hz=FREQUENCY_MHZ * 1e6),
        REFERENCE_V,
        dip_limit_v=DIP_LIMIT_V,
        quantizer=_duty_levels(params["corner"]),
        variation=ComponentVariation(seed=params["seed"]),
        tilt=tilt,
        stratification=stratification,
        load=LOAD,
        periods=PERIODS,
        settle_periods=SETTLE_PERIODS,
        precision=params["precision"],
        max_instances=params["max_instances"],
        chunk_size=min(CHUNK_SIZE, params["max_instances"]),
    )
    # The engine-specific fields: the weighted or post-stratified mean dip,
    # and the weight-stream ESS or the per-stratum rows.
    detail: dict[str, object] = {}
    if isinstance(result, ImportanceSampleResult):
        mean_dip_v = result.value_moments["dip_v"].mean
        detail["effective_sample_size"] = result.effective_sample_size
    elif isinstance(result, StratifiedSampleResult):
        mean_dip_v = result.value_means["dip_v"]
        detail["strata"] = [
            {
                "name": row.name,
                "weight": row.weight,
                "trials": row.trials,
                "failures": row.successes.get("failure", 0),
                "failure_rate": row.estimate("failure"),
            }
            for row in result.strata
        ]
    else:
        mean_dip_v = result.moments["dip_v"].mean
    interval = result.interval
    return {
        "estimator": estimator,
        "failure_probability": result.estimate,
        "lower": interval.lower,
        "upper": interval.upper,
        "half_width": interval.half_width,
        "confidence": result.confidence,
        "precision": result.precision,
        "samples": result.trials,
        "max_samples": result.max_samples,
        "chunk_size": result.chunk_size,
        "stop_reason": result.stop_reason,
        "dip_limit_v": DIP_LIMIT_V,
        "mean_dip_v": mean_dip_v,
        **detail,
        "failure_ppm": result.estimate * 1e6,
        "ci_lower_ppm": interval.lower * 1e6,
        "ci_upper_ppm": interval.upper * 1e6,
    }


@register("fig15_rare")
def run(
    seed: int | None = None,
    sweep: SweepOrchestrator | None = None,
    precision: float | None = None,
    max_instances: int | None = None,
    estimator: str | None = None,
    tilt_shift: float | None = None,
    tilt_scale: float | None = None,
) -> ExperimentResult:
    """Rare-event load-step failure rate per process corner.

    Args:
        seed: RNG seed for the component draws (the CLI's ``--seed``).
        sweep: optional :class:`~repro.sweep.SweepOrchestrator` (the CLI's
            ``--workers`` / ``--cache-dir`` flags).
        precision: CI half-width target on the failure probability (the
            CLI's ``--precision``); defaults to :data:`DEFAULT_PRECISION` --
            this experiment is always adaptive.
        max_instances: per-cell sample cap (the CLI's ``--max-instances``).
        estimator: ``"vanilla"`` / ``"stratified"`` / ``"importance"``
            (the CLI's ``--estimator``); defaults to importance.
        tilt_shift: scale on the built-in tilt direction (the CLI's
            ``--tilt-shift``); importance estimator only.
        tilt_scale: proposal sigma widening (the CLI's ``--tilt-scale``);
            importance estimator only.
    """
    estimator = "importance" if estimator is None else estimator
    if estimator not in ESTIMATORS:
        raise ValueError(
            f"estimator must be one of {ESTIMATORS}; got {estimator!r}"
        )
    if estimator != "importance":
        if tilt_shift is not None or tilt_scale is not None:
            raise ValueError(
                "tilt parameters only apply to the importance estimator"
            )
    precision = DEFAULT_PRECISION if precision is None else precision
    max_instances = (
        DEFAULT_MAX_INSTANCES if max_instances is None else max_instances
    )
    cells = GRID.cells(
        seed=DEFAULT_SEED if seed is None else seed,
        estimator=estimator,
        precision=precision,
        max_instances=max_instances,
        tilt_shift=1.0 if tilt_shift is None else tilt_shift,
        tilt_scale=DEFAULT_TILT_SCALE if tilt_scale is None else tilt_scale,
    )
    payloads = sweep_map(run_cell, cells, experiment_id="fig15_rare", sweep=sweep)

    data = {}
    rows = []
    for cell, entry in zip(cells, payloads):
        data[cell["corner"]] = entry
        ess = entry.get("effective_sample_size")
        rows.append(
            [
                cell["corner"],
                entry["estimator"],
                f"{entry['failure_ppm']:.1f}",
                f"[{entry['ci_lower_ppm']:.1f}, {entry['ci_upper_ppm']:.1f}]",
                str(entry["samples"]),
                "-" if ess is None else f"{ess:.0f}",
                entry["stop_reason"],
                f"{entry['mean_dip_v'] * 1e3:.1f}",
            ]
        )

    report = format_table(
        headers=[
            "Corner",
            "Estimator",
            "Failure (ppm)",
            "95 % CI (ppm)",
            "Samples",
            "ESS",
            "Stop",
            "Mean dip (mV)",
        ],
        rows=rows,
        title=(
            f"Figure 15 rare-event -- load-step dip below "
            f"{DIP_LIMIT_V * 1e3:.0f} mV "
            f"(+/- {precision:g} CI target, cap {max_instances} instances/cell)"
        ),
    )
    return ExperimentResult(
        experiment_id="fig15_rare",
        title="Rare-event load-step undershoot probability per process "
        "corner (ppm-regime Figure 15 tail)",
        data=data,
        report=report,
        paper_reference={
            "claims": [
                "yield claims at guard-banded limits live in the ppm tail",
                "variance-reduced estimators resolve ppm failure rates at a "
                "fraction of the vanilla sample budget",
            ]
        },
    )
