"""The conventional scheme's bisection lock against the full-tensor lock.

:meth:`repro.core.ensemble.ConventionalEnsemble.lock` finds each
instance's first period-crossing step with the
:func:`repro.kernels.ensemble.conventional_lock` bisection, in
``O(instances * cells)`` memory.  The reference below is the lock it
replaced: one gather evaluates the tap delays of every
``(instance, step, cell)`` triple, and an argmax over the steps finds the
first crossing.  Every comparison demands bit-identity, across
resolutions, corners, tuning orders, seeds, tilted draws and periods no
instance ever reaches.  The distributed tuning order lowers some cells on
the way, so its lock takes the kernel's in-order block scan rather than
the bisection; it is compared all the same.
"""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.conventional import TuningOrder
from repro.core.design import DesignSpec, design_conventional
from repro.core.ensemble import ConventionalEnsemble
from repro.kernels.fabrication import active_branch_delays
from repro.technology.corners import OperatingConditions
from repro.technology.variation import VariationModel

CORNERS = {
    "slow": OperatingConditions.slow(),
    "typical": OperatingConditions.typical(),
    "fast": OperatingConditions.fast(),
}


def step_tap_tensor(
    ensemble: ConventionalEnsemble, conditions: OperatingConditions
) -> np.ndarray:
    """``(instances, steps + 1, cells)`` tap delays of every step at once."""
    config = ensemble.config
    unit = ensemble.unit_delay_ps(conditions)
    buffers_active = (ensemble.levels_schedule() + 1) * config.buffers_per_element
    if ensemble.batch is None:
        cell_delays = buffers_active.astype(float) * unit
        step_taps = np.cumsum(cell_delays, axis=1, out=cell_delays)
        return np.broadcast_to(step_taps, (ensemble.num_instances, *step_taps.shape))
    cell_delays = active_branch_delays(
        ensemble.batch.multipliers[:, np.newaxis],
        buffers_active[np.newaxis],
        unit,
    )
    return np.cumsum(cell_delays, axis=2, out=cell_delays)


def full_tensor_lock(
    ensemble: ConventionalEnsemble, conditions: OperatingConditions
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(steps, locked, total_at_stop)`` from the whole step tensor."""
    period = ensemble.config.clock_period_ps
    step_taps = step_tap_tensor(ensemble, conditions)
    totals = step_taps[..., -1]
    last_but_one = step_taps[..., -2]
    reaches = totals >= period
    steps = np.where(
        reaches.any(axis=1),
        np.argmax(reaches, axis=1),
        ensemble.config.max_adjustment_steps,
    )
    rows = np.arange(totals.shape[0])
    total_at_stop = totals[rows, steps]
    locked = (last_but_one[rows, steps] < period) & (total_at_stop >= period)
    return steps, locked, total_at_stop


def assert_same_lock(ensemble: ConventionalEnsemble, conditions) -> np.ndarray:
    """Bisection and reference agree bit for bit; returns the steps."""
    calibration = ensemble.lock(conditions)
    steps, locked, total_at_stop = full_tensor_lock(ensemble, conditions)
    np.testing.assert_array_equal(calibration.control_state, steps)
    assert calibration.control_state.dtype == steps.dtype
    np.testing.assert_array_equal(calibration.locked, locked)
    np.testing.assert_array_equal(calibration.locked_delay_ps, total_at_stop)
    return steps


def conventional_config(bits: int, frequency_mhz: float, order: TuningOrder):
    design = design_conventional(DesignSpec(frequency_mhz, bits))
    return design.build_line(tuning_order=order).config


class TestBisectionMatchesFullTensor:
    @settings(max_examples=40, deadline=None)
    @given(
        bits=st.integers(4, 8),
        frequency_mhz=st.sampled_from([50.0, 100.0, 200.0]),
        corner=st.sampled_from(sorted(CORNERS)),
        order=st.sampled_from(list(TuningOrder)),
        seed=st.integers(0, 2**16),
        tilt=st.one_of(
            st.none(),
            st.tuples(st.floats(-2.0, 2.0), st.floats(0.5, 2.0)),
        ),
        period_scale=st.sampled_from([1.0, 1.0, 0.3, 3.0]),
        instances=st.integers(1, 6),
    )
    def test_lock_is_bit_identical(
        self, bits, frequency_mhz, corner, order, seed, tilt, period_scale,
        instances,
    ):
        config = conventional_config(bits, frequency_mhz, order)
        config = dataclasses.replace(
            config, clock_period_ps=config.clock_period_ps * period_scale
        )
        model = VariationModel(seed=seed)
        shape = (
            instances,
            config.num_cells,
            config.branches * config.buffers_per_element,
        )
        if tilt is None:
            batch = model.sample_batch(*shape)
        else:
            batch, _ = model.sample_batch_tilted(
                *shape, shift=tilt[0], sigma_scale=tilt[1]
            )
        ensemble = ConventionalEnsemble(config, batch=batch)
        assert_same_lock(ensemble, CORNERS[corner])

    @pytest.mark.parametrize("order", list(TuningOrder))
    @pytest.mark.parametrize("bits", [4, 6, 8])
    def test_unreachable_and_over_long_periods(self, bits, order):
        # A period three times the design's is never reached: every
        # instance saturates at the last step, unlocked.  A third of it is
        # over-long from step 0 (the slow-corner collapse of Figure 37).
        config = conventional_config(bits, 100.0, order)

        def ensemble_of(scale: float) -> ConventionalEnsemble:
            scaled = dataclasses.replace(
                config, clock_period_ps=config.clock_period_ps * scale
            )
            return ConventionalEnsemble.sample(scaled, 4, VariationModel(seed=bits))

        steps = assert_same_lock(ensemble_of(3.0), CORNERS["fast"])
        assert np.all(steps == config.max_adjustment_steps)
        steps = assert_same_lock(ensemble_of(1.0 / 3.0), CORNERS["slow"])
        assert np.all(steps == 0)

    @pytest.mark.parametrize("corner", sorted(CORNERS))
    @pytest.mark.parametrize("order", list(TuningOrder))
    def test_nominal_line(self, corner, order):
        config = conventional_config(6, 100.0, order)
        ensemble = ConventionalEnsemble(config, num_instances=3)
        assert_same_lock(ensemble, CORNERS[corner])


    def test_periods_inside_a_dip_of_the_distributed_order(self):
        # At 8 bits the distributed order's step totals fall at some steps.
        # A period equal to the total just before such a fall is first
        # reached there, then lost at the next step: a bisection probing
        # that next step would settle on a later crossing.
        base = conventional_config(8, 100.0, TuningOrder.DISTRIBUTED)
        batch = ConventionalEnsemble.sample(base, 4, VariationModel(seed=0)).batch
        conditions = CORNERS["typical"]
        totals = step_tap_tensor(
            ConventionalEnsemble(base, batch=batch), conditions
        )[..., -1]
        dips = np.argwhere(totals[:, 1:] < totals[:, :-1])
        assert len(dips) > 0
        for instance, step in dips:
            config = dataclasses.replace(
                base, clock_period_ps=float(totals[instance, step])
            )
            steps = assert_same_lock(
                ConventionalEnsemble(config, batch=batch), conditions
            )
            assert steps[instance] <= step


class TestLockMemory:
    def test_eight_bit_lock_holds_no_step_tensor(self):
        # The full tensor of this lock is (64, 769, 256) floats, about
        # 100 MB per copy.  The bisection works on (64, 256) matrices next
        # to the prefix sums; the shared schedule is built (and cached)
        # by the first lock, so the second one measures the working set.
        config = conventional_config(8, 50.0, TuningOrder.ROUND_ROBIN)
        ensemble = ConventionalEnsemble.sample(config, 64, VariationModel(seed=3))
        conditions = OperatingConditions.typical()
        first = ensemble.lock(conditions)
        tracemalloc.start()
        try:
            second = ensemble.lock(conditions)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(first.control_state, second.control_state)
        assert peak < 4 * ensemble.batch.multipliers.nbytes
