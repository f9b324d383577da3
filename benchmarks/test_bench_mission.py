"""Benchmark: batched mission-profile sweep vs the scalar per-instance loop.

The acceptance workload is a 32-instance mission run of the paper's
100 MHz / 6-bit proposed design: every instance rides its own randomized
6-segment mission from a chunk-invariant :class:`MissionGenerator` while a
25 -> 85 -> 25 degC temperature trace re-locks and re-derates the fleet at
each thermal epoch.  The scalar reference issues one ``run_chunk(i, 1)``
per instance -- fabricating, locking and advancing a one-variant fleet 32
times; the batched path issues a single ``run_chunk(0, 32)``.  Because
both sides draw from the same per-instance ``(seed, tag, i)`` streams, the
batched run must reproduce the scalar columns *bit for bit* -- the
benchmark doubles as the chunk-invariance gate under thermal epoching.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.converter.missions import MissionGenerator
from repro.core.design import DesignSpec
from repro.core.yield_analysis import ComponentVariation
from repro.pipeline import ChunkedSiliconToRegulation
from repro.technology.corners import OperatingConditions
from repro.technology.thermal import TemperatureTrace, ThermalDerating
from repro.technology.variation import VariationModel

#: Wall-clock gated: out of tier-1, run by the CI benchmarks job; the
#: agreement asserts have a reduced twin in tests/test_bench_twins.py.
pytestmark = pytest.mark.wallclock

NUM_INSTANCES = 32
PERIODS = 360
REFERENCE_V = 0.9
SPEC = DesignSpec(clock_frequency_mhz=100.0, resolution_bits=6)
MISSIONS = MissionGenerator(
    total_periods=PERIODS, num_segments=6, seed=2012, heavy_ohm=1.4
)
TRACE = TemperatureTrace(
    temperatures_c=(25.0, 85.0, 25.0), durations_periods=(120, 120, 120)
)
THERMAL = ThermalDerating()


def _build_pipeline() -> ChunkedSiliconToRegulation:
    return ChunkedSiliconToRegulation(
        "proposed",
        SPEC,
        OperatingConditions.typical(),
        variation=VariationModel(seed=2012),
        component_variation=ComponentVariation(seed=2012),
        reference_v=REFERENCE_V,
    )


def _run_batched(pipeline: ChunkedSiliconToRegulation):
    return pipeline.run_chunk(
        0,
        NUM_INSTANCES,
        periods=PERIODS,
        missions=MISSIONS,
        temperature_trace=TRACE,
        thermal=THERMAL,
    )


def _run_scalar_loop(pipeline: ChunkedSiliconToRegulation):
    """One single-instance chunk per chip -- the pre-batching composition."""
    voltages = np.empty((PERIODS, NUM_INSTANCES))
    words = np.empty((PERIODS, NUM_INSTANCES), dtype=np.int64)
    for instance in range(NUM_INSTANCES):
        result = pipeline.run_chunk(
            instance,
            1,
            periods=PERIODS,
            missions=MISSIONS,
            temperature_trace=TRACE,
            thermal=THERMAL,
        )
        voltages[:, instance] = result.regulation.output_voltages_v[:, 0]
        words[:, instance] = result.regulation.duty_words[:, 0]
    return words, voltages


def test_bench_mission_speedup_and_bit_exactness(benchmark):
    pipeline = _build_pipeline()

    # Reference: the scalar loop, timed once (it is the slow side; timing
    # it through the benchmark fixture would dominate the suite).
    start = time.perf_counter()
    scalar_words, scalar_voltages = _run_scalar_loop(pipeline)
    scalar_seconds = time.perf_counter() - start

    result = benchmark(_run_batched, pipeline)
    batch_seconds = benchmark.stats.stats.mean
    speedup = scalar_seconds / batch_seconds

    words_equal = bool(
        np.array_equal(result.regulation.duty_words, scalar_words)
    )
    voltages_equal = bool(
        np.array_equal(result.regulation.output_voltages_v, scalar_voltages)
    )

    # Acceptance: >= 5x over the scalar loop, bit-for-bit columns.
    assert speedup >= 5.0, (
        f"batched mission run only {speedup:.1f}x faster "
        f"({scalar_seconds:.2f}s scalar vs {batch_seconds:.3f}s batched)"
    )
    assert words_equal, "per-period duty-word decisions diverged"
    assert voltages_equal, "output-voltage histories diverged"
    # The workload is sane: the fleet regulates near the reference at the
    # light-load legs (mission tails hold within the coarse window).
    assert np.isfinite(result.regulation.output_voltages_v).all()
