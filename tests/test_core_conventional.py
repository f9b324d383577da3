"""Tests for the conventional adjustable-cells delay line and its controller."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.conventional import (
    ConventionalDelayLine,
    ConventionalDelayLineConfig,
    ShiftRegisterController,
    TuningOrder,
)
from repro.technology.corners import OperatingConditions, ProcessCorner
from repro.technology.variation import VariationModel


def make_line(
    num_cells=64,
    branches=4,
    buffers_per_element=2,
    clock_period_ps=10_000.0,
    tuning_order=TuningOrder.ROUND_ROBIN,
    **kwargs,
):
    config = ConventionalDelayLineConfig(
        num_cells=num_cells,
        branches=branches,
        buffers_per_element=buffers_per_element,
        clock_period_ps=clock_period_ps,
        tuning_order=tuning_order,
    )
    return ConventionalDelayLine(config, **kwargs)


class TestConventionalConfig:
    def test_derived_quantities_match_paper(self):
        config = make_line().config
        assert config.resolution_bits == 6
        assert config.control_bits_per_cell == 2
        # Paper eq. 17: 64 cells x 2 bits + 1 = 129 bits.
        assert config.shift_register_bits == 129
        assert config.max_adjustment_steps == 64 * 3
        assert config.clock_frequency_mhz == pytest.approx(100.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ConventionalDelayLineConfig(1, 4, 2, 10_000.0)
        with pytest.raises(ValueError):
            ConventionalDelayLineConfig(64, 1, 2, 10_000.0)
        with pytest.raises(ValueError):
            ConventionalDelayLineConfig(64, 4, 0, 10_000.0)
        with pytest.raises(ValueError):
            ConventionalDelayLineConfig(64, 4, 2, 0.0)


class TestTuningLevels:
    def test_zero_steps_gives_all_minimum(self, library):
        line = make_line(library=library)
        assert np.all(line.levels_for_steps(0) == 0)

    def test_sequential_order_fills_first_cells_first(self, library):
        line = make_line(library=library, tuning_order=TuningOrder.SEQUENTIAL)
        levels = line.levels_for_steps(7)
        assert list(levels[:4]) == [3, 3, 1, 0]
        assert np.all(levels[4:] == 0)

    def test_round_robin_spreads_one_level_at_a_time(self, library):
        line = make_line(library=library, tuning_order=TuningOrder.ROUND_ROBIN)
        levels = line.levels_for_steps(70)
        # 64 cells get one step, the first 6 get a second.
        assert np.all(levels >= 1)
        assert int(levels.sum()) == 70
        assert levels.max() == 2

    def test_distributed_order_spreads_remainder(self, library):
        line = make_line(library=library, tuning_order=TuningOrder.DISTRIBUTED)
        levels = line.levels_for_steps(32)
        assert int(levels.sum()) == 32
        # The 32 raised cells are spread across the line, not clustered.
        raised = np.nonzero(levels)[0]
        assert raised[-1] - raised[0] > 32

    def test_steps_clamped_to_maximum(self, library):
        line = make_line(library=library)
        levels = line.levels_for_steps(10_000)
        assert np.all(levels == line.config.branches - 1)

    def test_step_count_preserved_for_all_orders(self, library):
        for order in TuningOrder:
            line = make_line(library=library, tuning_order=order)
            for steps in (0, 1, 17, 64, 100, 192):
                assert int(line.levels_for_steps(steps).sum()) == min(steps, 192)


class TestConventionalDelays:
    def test_min_and_max_total_delay(self, library):
        line = make_line(library=library)
        fast = OperatingConditions.fast()
        # All-minimum: 64 cells x 1 element x 2 buffers x 20 ps = 2.56 ns.
        assert line.min_total_delay_ps(fast) == pytest.approx(2_560.0)
        # All-maximum: 64 x 4 x 2 x 20 ps = 10.24 ns (paper eq. 29).
        assert line.max_total_delay_ps(fast) == pytest.approx(10_240.0)

    def test_covers_clock_period_at_all_corners(self, library):
        line = make_line(library=library)
        for conditions in OperatingConditions.all_corners():
            assert line.covers_clock_period(conditions)

    def test_tap_delays_monotonic(self, library):
        line = make_line(library=library)
        levels = line.levels_for_steps(100)
        taps = line.tap_delays_ps(levels, OperatingConditions.typical())
        assert np.all(np.diff(taps) > 0)

    def test_invalid_levels_rejected(self, library):
        line = make_line(library=library)
        with pytest.raises(ValueError):
            line.cell_delays_ps(np.zeros(10, dtype=int), OperatingConditions.typical())
        bad = np.zeros(64, dtype=int)
        bad[0] = 4
        with pytest.raises(ValueError):
            line.cell_delays_ps(bad, OperatingConditions.typical())

    def test_variation_branch_matches_per_cell_reference(self, library):
        # The vectorized cumulative-sum gather must reproduce the per-cell
        # prefix sums of the variation multipliers for every tuning profile.
        sample = VariationModel(random_sigma=0.05, gradient_peak=0.01, seed=7).sample(
            num_cells=64, buffers_per_cell=8
        )
        line = make_line(library=library, variation=sample)
        unit = library.buffer_delay_ps(OperatingConditions.typical())
        for steps in (0, 1, 17, 64, 100, 192):
            levels = line.levels_for_steps(steps)
            delays = line.cell_delays_ps(levels, OperatingConditions.typical())
            active = (levels + 1) * line.config.buffers_per_element
            reference = np.array(
                [
                    unit * sample.multipliers[index, : active[index]].sum()
                    for index in range(64)
                ]
            )
            np.testing.assert_allclose(delays, reference, rtol=0, atol=1e-12)

    def test_variation_sample_cell_count_mismatch_rejected(self, library):
        sample = VariationModel(seed=7).sample(num_cells=32, buffers_per_cell=8)
        with pytest.raises(ValueError, match="variation sample has 32 cells"):
            make_line(library=library, variation=sample)

    def test_undersized_variation_sample_rejected(self, library):
        # The longest branch of the 64x4x2 line spans 8 buffers; a 4-buffer
        # sample cannot cover it (the seed implementation silently truncated).
        sample = VariationModel(seed=7).sample(num_cells=64, buffers_per_cell=4)
        with pytest.raises(ValueError, match="longest branch"):
            make_line(library=library, variation=sample)

    def test_output_delay_zero_word(self, library):
        line = make_line(library=library)
        levels = line.levels_for_steps(0)
        assert line.output_delay_ps(0, levels, OperatingConditions.typical()) == 0.0

    def test_output_delay_out_of_range_word(self, library):
        line = make_line(library=library)
        levels = line.levels_for_steps(0)
        with pytest.raises(ValueError):
            line.output_delay_ps(64, levels, OperatingConditions.typical())

    def test_netlist_shift_register_size(self, library):
        from repro.technology.cells import CellKind

        netlist = make_line(library=library).netlist()
        controller_dffs = netlist.find("Controller").cell_counts()[CellKind.DFF]
        assert controller_dffs == 129 + 2  # shift register + synchronizer


class TestShiftRegisterController:
    def test_locks_at_fast_and_typical_corners(self, library):
        line = make_line(library=library)
        controller = ShiftRegisterController(line)
        for corner in (ProcessCorner.FAST, ProcessCorner.TYPICAL):
            result = controller.lock(OperatingConditions(corner=corner))
            assert result.locked
            # Lock condition: the clock edge lies between the last two taps.
            levels = line.levels_for_steps(result.control_state)
            taps = line.tap_delays_ps(levels, OperatingConditions(corner=corner))
            assert taps[-2] < 10_000.0 <= taps[-1]

    def test_slow_corner_saturates_at_minimum(self, library):
        # At the slow corner the all-minimum line is already slightly longer
        # than the clock period, so the conventional controller cannot place
        # the edge between the last two taps; it stops with a small residual.
        line = make_line(library=library)
        result = ShiftRegisterController(line).lock(OperatingConditions.slow())
        assert not result.locked
        assert result.control_state == 0
        assert 0 < result.residual_error_ps < 300.0

    def test_fast_corner_needs_most_steps(self, library):
        line = make_line(library=library)
        controller = ShiftRegisterController(line)
        fast = controller.lock(OperatingConditions.fast())
        typical = controller.lock(OperatingConditions.typical())
        assert fast.control_state > typical.control_state

    def test_lock_cycles_account_for_update_rate(self, library):
        line = make_line(library=library)
        controller = ShiftRegisterController(line, cycles_per_update=2)
        result = controller.lock(OperatingConditions.typical())
        expected = (
            controller.synchronizer_latency_cycles
            + result.control_state * controller.cycles_per_update
        )
        assert result.lock_cycles == expected

    def test_conventional_slower_than_proposed(self, library, proposed_design):
        from repro.core.proposed import ProposedController

        conventional = make_line(library=library)
        proposed = proposed_design.build_line(library=library)
        conditions = OperatingConditions.typical()
        conventional_cycles = ShiftRegisterController(conventional).lock(conditions).lock_cycles
        proposed_cycles = ProposedController(proposed).lock(conditions).lock_cycles
        assert proposed_cycles < conventional_cycles

    def test_trace_delay_is_non_decreasing(self, library):
        line = make_line(library=library)
        result = ShiftRegisterController(line).lock(OperatingConditions.fast())
        delays = result.trace.delay_history_ps()
        assert all(b >= a for a, b in zip(delays, delays[1:]))
