"""Benchmark: the silicon-to-regulation stage function vs scalar composition.

The acceptance workload is a 512-instance Monte-Carlo run of the paper's
100 MHz / 6-bit proposed design at the typical corner, with per-chip
component variation on the buck: the scalar composition fabricates each
instance, runs the cycle-accurate lock inside a
``CalibratedDelayLineDPWM``, and advances a scalar
``DigitallyControlledBuck`` period by period;
``ChunkedSiliconToRegulation.run_chunk`` draws the same instances as one
ensemble and hands them to ``regulate_ensemble``, which locks them
closed-form, converts the
``(instances, words)`` curve matrix straight into a ``BatchQuantizer`` and
advances the whole fleet per period.  The pipeline must be at least 10x
faster end to end at *bit-exact* agreement: identical duty-word decisions in
every period and identical (not merely close) steady-state voltages.
"""

from __future__ import annotations

import time

import numpy as np

from repro.converter.buck import BuckParameters
from repro.converter.closed_loop import DigitallyControlledBuck
from repro.core.design import DesignSpec, design_proposed
from repro.core.yield_analysis import ComponentVariation
from repro.dpwm.calibrated import CalibratedDelayLineDPWM
from repro.pipeline import ChunkedSiliconToRegulation
from repro.technology.corners import OperatingConditions
from repro.technology.library import intel32_like_library
from repro.technology.variation import VariationModel

NUM_INSTANCES = 512
PERIODS = 300
REFERENCE_V = 0.9
SPEC = DesignSpec(clock_frequency_mhz=100.0, resolution_bits=6)
CONDITIONS = OperatingConditions.typical()
VARIATION = VariationModel(random_sigma=0.04, gradient_peak=0.015, seed=2012)
COMPONENTS = ComponentVariation(seed=2012)

LIBRARY = intel32_like_library()
DESIGN = design_proposed(SPEC, LIBRARY)


def _run_pipeline():
    return ChunkedSiliconToRegulation(
        "proposed",
        SPEC,
        CONDITIONS,
        reference_v=REFERENCE_V,
        variation=VARIATION,
        component_variation=COMPONENTS,
        library=LIBRARY,
    ).run_chunk(0, NUM_INSTANCES, periods=PERIODS)


def _run_scalar_composition():
    """The seed-style path: one scalar DPWM + one scalar loop per instance."""
    config = DESIGN.build_line(library=LIBRARY).config
    parameters = COMPONENTS.sample_instances(
        BuckParameters(switching_frequency_hz=SPEC.clock_frequency_mhz * 1e6),
        NUM_INSTANCES,
    )
    duty_words = np.empty((PERIODS, NUM_INSTANCES), dtype=np.int64)
    voltages = np.empty((PERIODS, NUM_INSTANCES))
    for index in range(NUM_INSTANCES):
        sample = VARIATION.sample(
            config.num_cells, config.buffers_per_cell, instance=index
        )
        line = DESIGN.build_line(library=LIBRARY, variation=sample)
        dpwm = CalibratedDelayLineDPWM(line, CONDITIONS)
        loop = DigitallyControlledBuck(
            parameters.variant(index), dpwm, reference_v=REFERENCE_V
        )
        trace = loop.run(PERIODS)
        duty_words[:, index] = trace.duty_words
        voltages[:, index] = trace.output_voltages_v
    return duty_words, voltages


def test_bench_pipeline_speedup_and_bit_exactness(benchmark):
    # Reference: the scalar composition, timed once (it is the slow side;
    # timing it through the benchmark fixture would dominate the suite).
    start = time.perf_counter()
    scalar_words, scalar_voltages = _run_scalar_composition()
    scalar_seconds = time.perf_counter() - start

    result = benchmark(_run_pipeline)
    batch_seconds = benchmark.stats.stats.mean
    speedup = scalar_seconds / batch_seconds

    words_equal = bool(
        np.array_equal(result.regulation.duty_words, scalar_words)
    )
    voltages_equal = bool(
        np.array_equal(result.regulation.output_voltages_v, scalar_voltages)
    )

    # Acceptance: >= 10x over the scalar composition, bit-for-bit.
    assert speedup >= 10.0, (
        f"pipeline only {speedup:.1f}x faster "
        f"({scalar_seconds:.2f}s scalar vs {batch_seconds:.3f}s fused)"
    )
    assert words_equal, "per-period duty-word decisions diverged"
    assert voltages_equal, "output-voltage histories diverged"
    # The workload is sane: every instance locked and the fleet regulates.
    assert bool(result.calibration.locked.all())
    np.testing.assert_allclose(
        result.steady_state_voltages_v(), REFERENCE_V, atol=0.02
    )
