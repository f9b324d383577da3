"""Benchmark: importance sampling versus brute force in the ppm regime.

The rare-event estimators' reason to exist is the tail: the slow-corner
``fig15_rare`` cell fails at ~1e-4 (30/262144 by brute force), so a
vanilla adaptive run needs ~1.5e5 fleet simulations before the Wilson
interval reaches a half-width that separates the estimate from zero.
The acceptance gate: at the same precision target the tilted
importance-sampling run must stop on precision with **at most 10 % of
the vanilla sample budget**, its interval must bracket the brute-force
answer, and the two estimates must agree within their summed
half-widths.
"""

from __future__ import annotations

import time

from repro.converter.buck import BuckParameters
from repro.core.yield_analysis import (
    ComponentTilt,
    ComponentVariation,
    rare_event_regulation_yield,
)
from repro.experiments.figure15_rare import (
    DEFAULT_TILT_SCALE,
    DIP_LIMIT_V,
    FREQUENCY_MHZ,
    LOAD,
    PERIODS,
    REFERENCE_V,
    SETTLE_PERIODS,
    TILT_CAPACITANCE_SHIFT,
    TILT_INDUCTANCE_SHIFT,
    _duty_levels,
)

#: Half the slow-corner cell's true failure rate (~1.14e-4), so a
#: resolved interval actually separates the estimate from zero.
PRECISION = 5.5e-5
SEED = 2012
VANILLA_CAP = 262_144
IMPORTANCE_CAP = 32_768


def _run(*, max_instances: int, chunk_size: int, tilt=None):
    """Vanilla adaptive sampling, or importance sampling given a ``tilt``."""
    return rare_event_regulation_yield(
        BuckParameters(switching_frequency_hz=FREQUENCY_MHZ * 1e6),
        REFERENCE_V,
        dip_limit_v=DIP_LIMIT_V,
        quantizer=_duty_levels("slow"),
        variation=ComponentVariation(seed=SEED),
        tilt=tilt,
        load=LOAD,
        periods=PERIODS,
        settle_periods=SETTLE_PERIODS,
        precision=PRECISION,
        max_instances=max_instances,
        chunk_size=chunk_size,
    )


def test_bench_importance_budget_reduction_on_ppm_cell():
    # The brute-force reference: vanilla adaptive sampling to the same
    # precision target.  It doubles as the budget baseline and as the
    # unbiased estimate the importance interval must bracket.
    start = time.perf_counter()
    vanilla = _run(max_instances=VANILLA_CAP, chunk_size=4096)
    vanilla_seconds = time.perf_counter() - start

    start = time.perf_counter()
    importance = _run(
        max_instances=IMPORTANCE_CAP,
        chunk_size=2048,
        tilt=ComponentTilt(
            inductance_shift=TILT_INDUCTANCE_SHIFT,
            capacitance_shift=TILT_CAPACITANCE_SHIFT,
            sigma_scale=DEFAULT_TILT_SCALE,
        ),
    )
    importance_seconds = time.perf_counter() - start

    budget_fraction = importance.trials / vanilla.trials
    report = {
        "workload": (
            "fig15_rare slow-corner cell, dip limit "
            f"{DIP_LIMIT_V} V, precision {PRECISION}"
        ),
        "vanilla_samples": vanilla.trials,
        "vanilla_seconds": vanilla_seconds,
        "vanilla_failure_ppm": vanilla.estimate * 1e6,
        "vanilla_ci_ppm": [
            vanilla.interval.lower * 1e6,
            vanilla.interval.upper * 1e6,
        ],
        "vanilla_stop_reason": vanilla.stop_reason,
        "importance_samples": importance.trials,
        "importance_seconds": importance_seconds,
        "importance_failure_ppm": importance.estimate * 1e6,
        "importance_ci_ppm": [
            importance.interval.lower * 1e6,
            importance.interval.upper * 1e6,
        ],
        "importance_stop_reason": importance.stop_reason,
        "importance_ess": importance.effective_sample_size,
        "budget_fraction": budget_fraction,
        "budget_reduction_x": vanilla.trials / importance.trials,
    }

    # The headline gate: same precision, <= 10 % of the vanilla budget.
    assert importance.stop_reason == "precision", report
    assert importance.interval.half_width <= PRECISION, report
    assert budget_fraction <= 0.10, report

    # Statistical sanity: the cheap interval brackets the brute-force
    # estimate, and the two estimates agree within their summed widths.
    assert (
        importance.interval.lower
        <= vanilla.estimate
        <= importance.interval.upper
    ), report
    assert abs(importance.estimate - vanilla.estimate) <= (
        importance.interval.half_width + vanilla.interval.half_width
    ), report

    # The weight stream is healthy, not a handful of dominant draws.
    assert importance.effective_sample_size is not None
    assert importance.effective_sample_size >= 32.0, report
