"""Benchmark: the vectorized ensemble engine vs the scalar per-instance loop.

The acceptance workload is a 1000-instance Monte-Carlo linearity sweep of the
paper's 100 MHz / 6-bit proposed design at the typical corner: the seed-style
implementation samples each fabricated instance, runs the cycle-accurate
``ProposedController`` lock and extracts the transfer curve one word at a
time; the ensemble engine draws the same instances as one batch, locks them
closed-form and produces the whole ``(instances, words)`` curve matrix in
vectorized numpy.  The engine must be at least 10x faster end to end with
transfer-curve agreement tighter than 1e-6 ps and identical locked tap
counts.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.design import DesignSpec, design_proposed
from repro.core.ensemble import ProposedEnsemble
from repro.core.proposed import ProposedController
from repro.technology.corners import OperatingConditions
from repro.technology.library import intel32_like_library
from repro.technology.variation import VariationModel

#: Wall-clock gated: out of tier-1, run by the CI benchmarks job; the
#: agreement asserts have a reduced twin in tests/test_bench_twins.py.
pytestmark = pytest.mark.wallclock

NUM_INSTANCES = 1000
SPEC = DesignSpec(clock_frequency_mhz=100.0, resolution_bits=6)
CONDITIONS = OperatingConditions.typical()
VARIATION = VariationModel(random_sigma=0.04, gradient_peak=0.015, seed=2012)

LIBRARY = intel32_like_library()
DESIGN = design_proposed(SPEC, LIBRARY)
CONFIG = DESIGN.build_line(library=LIBRARY).config


def _run_batch():
    ensemble = ProposedEnsemble.sample(
        CONFIG, NUM_INSTANCES, VARIATION, library=LIBRARY
    )
    calibration = ensemble.lock(CONDITIONS)
    curves = ensemble.transfer_curves(CONDITIONS, calibration=calibration)
    return calibration, curves


def _run_scalar_sweep():
    tap_sels = np.empty(NUM_INSTANCES, dtype=int)
    delays = None
    for index in range(NUM_INSTANCES):
        sample = VARIATION.sample(
            CONFIG.num_cells, CONFIG.buffers_per_cell, instance=index
        )
        line = DESIGN.build_line(library=LIBRARY, variation=sample)
        result = ProposedController(line).lock(CONDITIONS)
        tap_sels[index] = result.control_state
        words = range(1, line.mapper.max_word + 1)
        row = np.array(
            [
                line.output_delay_ps(word, result.control_state, CONDITIONS)
                for word in words
            ]
        )
        if delays is None:
            delays = np.empty((NUM_INSTANCES, row.size))
        delays[index] = row
    return tap_sels, delays


def test_bench_linearity_engine_speedup_and_agreement(benchmark):
    # Reference: the seed per-instance loop, timed once (it is the slow side;
    # timing it through the benchmark fixture would dominate the suite).
    start = time.perf_counter()
    scalar_tap_sels, scalar_delays = _run_scalar_sweep()
    scalar_seconds = time.perf_counter() - start

    calibration, curves = benchmark(_run_batch)
    batch_seconds = benchmark.stats.stats.mean

    worst_disagreement = np.max(np.abs(curves.delays_ps - scalar_delays))
    speedup = scalar_seconds / batch_seconds

    # Acceptance: >= 10x over the scalar loop at sub-1e-6 ps agreement.
    assert speedup >= 10.0, (
        f"ensemble engine only {speedup:.1f}x faster "
        f"({scalar_seconds:.2f}s scalar vs {batch_seconds:.3f}s batch)"
    )
    assert worst_disagreement < 1e-6, (
        f"transfer-curve disagreement {worst_disagreement:.3e} ps"
    )
    np.testing.assert_array_equal(calibration.control_state, scalar_tap_sels)
    # The sweep itself is sane: every instance locks at the typical corner.
    assert bool(calibration.locked.all())
