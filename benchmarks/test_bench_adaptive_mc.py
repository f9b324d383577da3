"""Benchmark: adaptive confidence-bounded Monte-Carlo versus the fixed budget.

The adaptive engine's reason to exist is budget: a cell whose yield is
pinned should not burn the same 1000 samples as a cell teetering at a
corner.  The acceptance workload is the high-yield ``fig50_51_mc`` cell
(proposed scheme, fast corner, 100 MHz -- linearity yield 1.0): at a 2 %
confidence-interval half-width the adaptive run must spend **less than
25 % of the fixed 1000-instance budget** (a >= 4x sample-budget
reduction), stop on precision, and produce an estimate the fixed run's
answer falls inside the confidence interval of.

A second measurement covers the opposite regime: the marginal
slow-corner proposed cell must *keep* sampling (spending more than the
high-yield cell) -- the adaptive budget concentrates where the
uncertainty is, it does not starve hard cells.

The fixed budget is the same estimator at ``precision=0`` in one chunk.
"""

from __future__ import annotations

import time

from repro.core.design import DesignSpec
from repro.core.yield_analysis import LinearitySpec, adaptive_linearity_yield
from repro.experiments.figure50_51_mc import (
    DNL_LIMIT_LSB,
    ERROR_LIMIT_FRACTION,
    INL_LIMIT_LSB,
    NUM_INSTANCES,
)
from repro.technology.corners import OperatingConditions
from repro.technology.library import intel32_like_library
from repro.technology.variation import VariationModel

PRECISION = 0.02
SEED = 2012
FREQUENCY_MHZ = 100.0


def _cell_kwargs(corner: OperatingConditions) -> dict:
    return dict(
        spec=DesignSpec(clock_frequency_mhz=FREQUENCY_MHZ, resolution_bits=6),
        conditions=corner,
        variation=VariationModel(
            random_sigma=0.04, gradient_peak=0.015, seed=SEED
        ),
        linearity_spec=LinearitySpec(
            dnl_limit_lsb=DNL_LIMIT_LSB,
            inl_limit_lsb=INL_LIMIT_LSB,
            error_limit_fraction=ERROR_LIMIT_FRACTION,
        ),
        library=intel32_like_library(),
    )


def test_bench_adaptive_budget_reduction_on_a_high_yield_cell():
    # The fixed reference: the stock fig50_51_mc budget of 1000 instances.
    start = time.perf_counter()
    fixed = adaptive_linearity_yield(
        "proposed",
        precision=0.0,
        max_instances=NUM_INSTANCES,
        chunk_size=NUM_INSTANCES,
        **_cell_kwargs(OperatingConditions.fast()),
    )
    fixed_seconds = time.perf_counter() - start

    start = time.perf_counter()
    adaptive = adaptive_linearity_yield(
        "proposed",
        precision=PRECISION,
        max_instances=NUM_INSTANCES,
        **_cell_kwargs(OperatingConditions.fast()),
    )
    adaptive_seconds = time.perf_counter() - start

    # The opposite regime: the marginal slow-corner cell keeps drawing.
    marginal = adaptive_linearity_yield(
        "proposed",
        precision=PRECISION,
        max_instances=NUM_INSTANCES,
        **_cell_kwargs(OperatingConditions.slow()),
    )

    budget_fraction = adaptive.trials / NUM_INSTANCES
    report = {
        "workload": (
            "fig50_51_mc cell: proposed scheme, fast corner, "
            f"{FREQUENCY_MHZ:.0f} MHz, precision {PRECISION}"
        ),
        "fixed_instances": NUM_INSTANCES,
        "fixed_seconds": fixed_seconds,
        "fixed_yield": fixed.estimate,
        "adaptive_samples": adaptive.trials,
        "adaptive_seconds": adaptive_seconds,
        "adaptive_yield": adaptive.estimate,
        "adaptive_ci": [adaptive.interval.lower, adaptive.interval.upper],
        "adaptive_stop_reason": adaptive.stop_reason,
        "budget_fraction": budget_fraction,
        "budget_reduction_x": NUM_INSTANCES / adaptive.trials,
        "marginal_cell_samples": marginal.trials,
        "marginal_cell_yield": marginal.estimate,
    }

    # The headline gate: < 25 % of the fixed budget (>= 4x reduction).
    assert adaptive.stop_reason == "precision", report
    assert budget_fraction < 0.25, report

    # Statistical sanity: the tight interval really brackets the answer
    # the full fixed budget converges to.
    assert adaptive.interval.half_width <= PRECISION, report
    assert (
        adaptive.interval.lower <= fixed.estimate <= adaptive.interval.upper
    ), report

    # The saved budget is concentration, not starvation: the marginal
    # slow-corner cell spends strictly more than the pinned fast cell.
    assert marginal.trials > adaptive.trials, report
