"""Tests for the buck power stage."""

from __future__ import annotations

import numpy as np
import pytest

from repro.converter.buck import BuckParameters, BuckPowerStage


def make_params(**overrides):
    base = dict(
        input_voltage_v=1.8,
        inductance_h=100e-9,
        capacitance_f=100e-9,
        switching_frequency_hz=100e6,
        switch_resistance_ohm=0.0,
        inductor_resistance_ohm=0.0,
    )
    base.update(overrides)
    return BuckParameters(**base)


class TestBuckParameters:
    def test_switching_period(self):
        assert make_params().switching_period_s == pytest.approx(10e-9)

    def test_lc_cutoff_well_below_switching_frequency(self):
        params = make_params()
        # The filter corner must sit far below the switching frequency so the
        # output is the average of the switched node (paper section 2.1.2).
        assert params.lc_cutoff_frequency_hz < params.switching_frequency_hz / 10

    def test_steady_state_output(self):
        params = make_params()
        assert params.steady_state_output_v(0.5) == pytest.approx(0.9)
        assert params.steady_state_output_v(0.0) == 0.0
        with pytest.raises(ValueError):
            params.steady_state_output_v(1.5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"input_voltage_v": 0.0},
            {"inductance_h": 0.0},
            {"capacitance_f": -1e-9},
            {"switching_frequency_hz": 0.0},
            {"switch_resistance_ohm": -0.1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            make_params(**kwargs)


class TestBuckPowerStage:
    @pytest.mark.parametrize("duty", [0.25, 0.5, 0.75])
    def test_ideal_converter_settles_to_duty_times_vg(self, duty):
        stage = BuckPowerStage(make_params())
        settled = stage.settle(duty, load_resistance_ohm=1.0)
        assert settled == pytest.approx(1.8 * duty, rel=0.03)

    def test_parasitics_reduce_output(self):
        ideal = BuckPowerStage(make_params()).settle(0.5, 1.0)
        lossy = BuckPowerStage(
            make_params(switch_resistance_ohm=0.05, inductor_resistance_ohm=0.05)
        ).settle(0.5, 1.0)
        assert lossy < ideal

    def test_zero_duty_discharges_to_zero(self):
        stage = BuckPowerStage(make_params())
        stage.reset(output_voltage_v=0.9, inductor_current_a=0.9)
        settled = stage.settle(0.0, 1.0)
        assert settled == pytest.approx(0.0, abs=0.02)

    def test_full_duty_reaches_input_voltage(self):
        stage = BuckPowerStage(make_params())
        settled = stage.settle(1.0, 1.0)
        assert settled == pytest.approx(1.8, rel=0.02)

    def test_inductor_current_matches_load_current(self):
        stage = BuckPowerStage(make_params())
        stage.settle(0.5, 2.0)
        expected_current = stage.state.output_voltage_v / 2.0
        assert stage.state.inductor_current_a == pytest.approx(
            expected_current, rel=0.05
        )

    def test_run_periods_returns_trajectory(self):
        stage = BuckPowerStage(make_params())
        outputs = stage.run_periods(0.5, 1.0, periods=50)
        assert outputs.shape == (50,)
        assert np.all(np.isfinite(outputs))
        assert outputs[-1] > outputs[0]

    def test_heavier_load_increases_ripple_current(self):
        params = make_params()
        light = BuckPowerStage(params)
        light.settle(0.5, 10.0)
        heavy = BuckPowerStage(params)
        heavy.settle(0.5, 0.5)
        assert heavy.state.inductor_current_a > light.state.inductor_current_a

    def test_reset_clears_state(self):
        stage = BuckPowerStage(make_params())
        stage.settle(0.5, 1.0)
        stage.reset()
        assert stage.state.output_voltage_v == 0.0
        assert stage.state.inductor_current_a == 0.0

    def test_invalid_inputs_rejected(self):
        stage = BuckPowerStage(make_params())
        with pytest.raises(ValueError):
            stage.run_period(1.5, 1.0)
        with pytest.raises(ValueError):
            stage.run_period(0.5, 0.0)
        with pytest.raises(ValueError):
            stage.run_periods(0.5, 1.0, periods=0)

    def test_settle_gives_up_after_max_periods(self):
        # A cold start rings for far more than a handful of periods, so a
        # tight period budget must fail loudly rather than return a value
        # taken mid-transient.
        stage = BuckPowerStage(make_params())
        with pytest.raises(RuntimeError, match="did not settle within 20"):
            stage.settle(0.5, 1.0, max_periods=20)
        with pytest.raises(ValueError):
            BuckPowerStage(make_params(), substeps_per_interval=2)
