"""Benchmark: the exact-step batch engine vs the seed Euler loop.

The acceptance workload is a 256-variant Monte-Carlo regulation sweep (the
paper's Figure 15 loop under component variation): the seed implementation
runs each variant through the scalar closed loop with the explicit-Euler
power stage (128 Python sub-steps per switching period), while the batch
engine advances all variants at once with closed-form state-space updates.
The engine must be at least 10x faster at matched accuracy (steady-state
voltages within 1 mV of the Euler reference).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.converter.buck import BuckParameters
from repro.converter.closed_loop import DigitallyControlledBuck, IdealDPWM
from repro.core.yield_analysis import ComponentVariation
from repro.simulation.batch import BatchClosedLoop, BatchQuantizer

#: Wall-clock gated: out of tier-1, run by the CI benchmarks job; the
#: agreement asserts have a reduced twin in tests/test_bench_twins.py.
pytestmark = pytest.mark.wallclock

NUM_VARIANTS = 256
PERIODS = 300
REFERENCE_V = 0.9
# 9-bit DPWM: finer than the ADC LSB, so the loop satisfies the
# no-limit-cycle condition and the steady state is deterministic -- a 6-bit
# DPWM limit-cycles, and the dither phase (not the stepper) then dominates
# the tail mean for a handful of variants.
DPWM_BITS = 9

NOMINAL = BuckParameters(input_voltage_v=1.8, switching_frequency_hz=100e6)
VARIATION = ComponentVariation(seed=2012)


def _run_batch(parameters):
    loop = BatchClosedLoop(
        parameters,
        BatchQuantizer.ideal(DPWM_BITS, NUM_VARIANTS),
        reference_v=REFERENCE_V,
    )
    return loop.run(PERIODS)


def _run_euler_sweep(parameters):
    steady_states = np.empty(NUM_VARIANTS)
    for index in range(NUM_VARIANTS):
        loop = DigitallyControlledBuck(
            parameters.variant(index),
            IdealDPWM(bits=DPWM_BITS),
            reference_v=REFERENCE_V,
            stepper="euler",
        )
        steady_states[index] = loop.run(PERIODS).steady_state_voltage_v()
    return steady_states


def test_bench_batch_engine_speedup_and_accuracy(benchmark):
    parameters = VARIATION.sample_batch(NOMINAL, NUM_VARIANTS)

    # Reference: the seed scalar Euler sweep, timed once (it is the slow
    # side; timing it through the benchmark fixture would dominate the
    # suite's runtime).
    start = time.perf_counter()
    euler_steady_states = _run_euler_sweep(parameters)
    euler_seconds = time.perf_counter() - start

    result = benchmark(_run_batch, parameters)
    batch_seconds = benchmark.stats.stats.mean

    batch_steady_states = result.steady_state_voltage_v()
    worst_disagreement = np.max(np.abs(batch_steady_states - euler_steady_states))
    speedup = euler_seconds / batch_seconds

    # Acceptance: >= 10x over the seed loop, steady state within 1 mV.
    assert speedup >= 10.0, (
        f"batch engine only {speedup:.1f}x faster "
        f"({euler_seconds:.2f}s Euler vs {batch_seconds:.3f}s batch)"
    )
    assert worst_disagreement < 1e-3, (
        f"steady-state disagreement {worst_disagreement * 1e3:.3f} mV"
    )
    # And the sweep itself is sane: every variant regulates near the target.
    assert np.all(np.abs(batch_steady_states - REFERENCE_V) < 0.03)
