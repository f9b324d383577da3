"""Figures 50-51, Monte-Carlo edition -- linearity *yield* across corners.

The paper's Figures 50-51 show the post-APR linearity of *one* fabricated
instance per frequency.  The interesting production question is statistical:
what fraction of fabricated delay lines meets a DNL/INL/monotonicity
specification at each corner and frequency?  This experiment answers it for
both schemes with the vectorized ensemble engine: 1000 post-APR instances
per (scheme, corner, frequency) cell are drawn, calibrated with the
closed-form batch lock and swept into a full transfer-curve matrix in one
numpy pass, then scored against the specification -- the delay-line analogue
of the ``fig15`` experiment's regulation yield, in the spirit of the paper's
Section 5.2 statistical-sizing proposal.

The sweep itself is declarative: :data:`GRID` names the cell axes and
:func:`run_cell` computes one (scheme, corner, frequency) cell from its
scalar coordinates, so the orchestrator (:mod:`repro.sweep`) can fan cells
out across worker processes and memoize each one in the result cache.

Every cell runs :func:`repro.core.yield_analysis.adaptive_linearity_yield`.
By default it spends a fixed budget of 1000 instances: ``precision=0`` in
one chunk.  With a ``precision`` (the CLI's ``--precision``) each cell
instead draws chunks until the confidence interval on its linearity yield
has the requested half-width or the ``max_instances`` cap is spent.  The
adaptive coordinates join the cell dicts -- and therefore the cache keys --
so the two budgets never collide in the sweep cache.
"""

from __future__ import annotations

from repro.analysis.reports import format_table
from repro.core.design import DesignSpec
from repro.core.yield_analysis import LinearitySpec, adaptive_linearity_yield
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
    "NUM_INSTANCES",
    "DEFAULT_MAX_INSTANCES",
    "DNL_LIMIT_LSB",
    "INL_LIMIT_LSB",
]

FREQUENCIES_MHZ = (50.0, 100.0, 200.0)
NUM_INSTANCES = 1000
#: Default per-cell sample cap of the adaptive (``--precision``) mode: four
#: times the fixed budget, so hard cells can buy extra confidence with the
#: samples the pinned cells no longer burn.
DEFAULT_MAX_INSTANCES = 4 * NUM_INSTANCES
DEFAULT_SEED = 2012
#: Linearity specification.  DNL/INL are scheme-referred LSB limits sized to
#: bind against mismatch rather than the mapper's inherent quantization
#: staircase; the deviation limit is referred to the switching period, the
#: scale that compares both schemes fairly (paper eq. 12) and the binding
#: constraint for most cells.  Monotonicity and a valid lock are required.
DNL_LIMIT_LSB = 4.0
INL_LIMIT_LSB = 4.0
ERROR_LIMIT_FRACTION = 0.045

#: The sweep axes; one cell per (scheme, corner, frequency), visited in the
#: same order as the original nested loops so the report rows are stable.
GRID = ParameterGrid(
    scheme=("proposed", "conventional"),
    corner=tuple(c.name.lower() for c in (ProcessCorner.SLOW, ProcessCorner.FAST)),
    frequency_mhz=FREQUENCIES_MHZ,
)


def run_cell(params: dict) -> dict:
    """Linearity-yield payload of one (scheme, corner, frequency) cell.

    Module-level and driven entirely by the scalar ``params`` dict (the
    grid coordinates plus the RNG seed), so the sweep orchestrator can
    pickle it into worker processes and content-address the result.  A
    cell with ``precision`` / ``max_instances`` coordinates samples
    adaptively; one without spends the fixed :data:`NUM_INSTANCES` budget
    (see :func:`~repro.experiments.base.monte_carlo_budget`).  Either way
    the payload carries the confidence bookkeeping (CI bounds, samples
    drawn, stop reason) after the metric keys.
    """
    result = adaptive_linearity_yield(
        scheme=params["scheme"],
        spec=DesignSpec(
            clock_frequency_mhz=params["frequency_mhz"], resolution_bits=6
        ),
        conditions=OperatingConditions(
            corner=ProcessCorner[params["corner"].upper()]
        ),
        variation=VariationModel(
            random_sigma=0.04, gradient_peak=0.015, seed=params["seed"]
        ),
        linearity_spec=LinearitySpec(
            dnl_limit_lsb=DNL_LIMIT_LSB,
            inl_limit_lsb=INL_LIMIT_LSB,
            error_limit_fraction=ERROR_LIMIT_FRACTION,
        ),
        library=intel32_like_library(),
        **monte_carlo_budget(params, fixed_instances=NUM_INSTANCES),
    )
    stats = result.moments
    return {
        "linearity_yield": result.estimate,
        "lock_yield": result.estimates["lock"],
        "monotonic_fraction": result.estimates["monotonic"],
        "mean_max_dnl_lsb": stats["max_dnl_lsb"].mean,
        "mean_max_inl_lsb": stats["max_inl_lsb"].mean,
        "worst_max_inl_lsb": stats["max_inl_lsb"].maximum,
        "mean_rms_inl_lsb": stats["rms_inl_lsb"].mean,
        "worst_error_fraction": stats["error_fraction"].maximum,
        **result.interval_summary(),
    }


@register("fig50_51_mc")
def run(
    seed: int | None = None,
    sweep: SweepOrchestrator | None = None,
    precision: float | None = None,
    max_instances: int | None = None,
) -> ExperimentResult:
    """Monte-Carlo linearity yield per corner x frequency for both schemes.

    Args:
        seed: RNG seed for the variation draws (the CLI's ``--seed`` flag);
            defaults to the experiment's stock seed.
        sweep: optional :class:`~repro.sweep.SweepOrchestrator` (the CLI's
            ``--workers`` / ``--cache-dir`` flags); cells run serially
            without one, with bit-identical results.
        precision: optional CI half-width target (the CLI's ``--precision``
            flag); switches every cell from the fixed 1000-instance budget
            to adaptive sampling.
        max_instances: per-cell sample cap of the adaptive mode (the CLI's
            ``--max-instances`` flag); requires ``precision``.
    """
    coordinates = adaptive_coordinates(
        precision, max_instances, default_max_instances=DEFAULT_MAX_INSTANCES
    )
    cells = GRID.cells(seed=DEFAULT_SEED if seed is None else seed, **coordinates)
    payloads = sweep_map(run_cell, cells, experiment_id="fig50_51_mc", sweep=sweep)

    data = {}
    rows = []
    for cell, entry in zip(cells, payloads):
        scheme, corner = cell["scheme"], cell["corner"]
        frequency = cell["frequency_mhz"]
        data.setdefault(scheme, {}).setdefault(corner, {})[frequency] = entry
        rows.append(
            [
                scheme,
                corner,
                f"{frequency:.0f}",
                f"{entry['linearity_yield']:.3f}",
                f"{entry['lock_yield']:.3f}",
                f"{entry['monotonic_fraction']:.3f}",
                f"{entry['mean_max_inl_lsb']:.2f}",
                f"{100 * entry['worst_error_fraction']:.2f} %",
                f"[{entry['ci_lower']:.3f}, {entry['ci_upper']:.3f}]",
                str(entry["samples"]),
                entry["stop_reason"],
            ]
        )

    headers = [
        "Scheme",
        "Corner",
        "Freq (MHz)",
        "Linearity yield",
        "Lock yield",
        "Monotonic",
        "Mean max |INL| (LSB)",
        "Worst error (% period)",
        "95 % CI",
        "Samples",
        "Stop",
    ]
    if precision is None:
        budget = f"over {NUM_INSTANCES} post-APR instances per cell"
    else:
        budget = (
            f"adaptive to +/- {precision:g} CI half-width "
            f"(cap {coordinates['max_instances']} instances/cell)"
        )
    report = format_table(
        headers=headers,
        rows=rows,
        title=(
            f"Figures 50-51 Monte-Carlo -- linearity yield {budget} "
            f"(spec: |DNL| <= {DNL_LIMIT_LSB} LSB, "
            f"|INL| <= {INL_LIMIT_LSB} LSB, error <= "
            f"{100 * ERROR_LIMIT_FRACTION:.1f} % of period, monotonic, locked)"
        ),
    )
    return ExperimentResult(
        experiment_id="fig50_51_mc",
        title="Monte-Carlo linearity yield across corners and frequencies "
        "(population-scale Figures 50-51)",
        data=data,
        report=report,
        paper_reference={
            "claims": [
                "linearity is better at lower frequencies (more buffers per cell)",
                "the proposed scheme stays monotonic and linear across corners",
                "post-APR mismatch turns single-instance figures into a yield question",
            ]
        },
    )
