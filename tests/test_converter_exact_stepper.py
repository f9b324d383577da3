"""Exact state-space stepper vs the seed Euler integrator.

The exact stepper evaluates the interval update in closed form (matrix
exponential of the 2x2 system matrix), so on any configuration where the
explicit Euler integration is well resolved the two must agree tightly --
and in the underdamped regime the *Euler* trajectory is the one that
drifts, bounded-above by refining its step.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.converter.buck import (
    BuckParameters,
    BuckPowerStage,
    exact_interval_coefficients,
)

duties = st.floats(min_value=0.1, max_value=0.9)
loads = st.floats(min_value=0.5, max_value=10.0)
resistances = st.floats(min_value=0.0, max_value=0.1)


class TestExactIntervalCoefficients:
    def test_zero_duration_is_identity(self):
        ad11, ad12, ad21, ad22, m11, m21 = exact_interval_coefficients(
            a=-1e5, b=-1e7, c=1e7, d=-1e7, duration=0.0
        )
        assert (ad11, ad12, ad21, ad22) == pytest.approx((1.0, 0.0, 0.0, 1.0))
        assert (m11, m21) == pytest.approx((0.0, 0.0))

    def test_matches_scipy_expm(self):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(5)
        for _ in range(50):
            inductance = rng.uniform(20e-9, 500e-9)
            capacitance = rng.uniform(20e-9, 500e-9)
            rload = rng.uniform(0.3, 20.0)
            series = rng.uniform(0.0, 0.2)
            duration = rng.uniform(0.05e-9, 20e-9)
            matrix = np.array(
                [
                    [-series / inductance, -1.0 / inductance],
                    [1.0 / capacitance, -1.0 / (rload * capacitance)],
                ]
            )
            expected = scipy_linalg.expm(matrix * duration)
            ad11, ad12, ad21, ad22, m11, m21 = exact_interval_coefficients(
                matrix[0, 0], matrix[0, 1], matrix[1, 0], matrix[1, 1], duration
            )
            computed = np.array([[ad11, ad12], [ad21, ad22]])
            np.testing.assert_allclose(computed, expected, rtol=1e-9, atol=1e-12)
            expected_m = np.linalg.solve(matrix, expected - np.eye(2))
            np.testing.assert_allclose(
                [m11, m21], expected_m[:, 0], rtol=1e-7, atol=1e-15
            )

    def test_stiff_overdamped_interval_is_finite(self):
        # Regression: exp(mu t) underflowed while cosh(q t) overflowed for
        # stiff overdamped intervals, yielding NaN instead of the finite
        # true exponential.  Here A is diagonal, so Ad = diag(e^a, e^d).
        ad11, ad12, ad21, ad22, m11, m21 = exact_interval_coefficients(
            a=-0.5, b=0.0, c=0.0, d=-1999.5, duration=1.0
        )
        assert ad11 == pytest.approx(np.exp(-0.5), rel=1e-12)
        assert ad22 == pytest.approx(np.exp(-1999.5), abs=1e-300)
        assert ad12 == 0.0 and ad21 == 0.0
        assert np.isfinite(m11) and np.isfinite(m21)

    def test_critically_damped_limit_is_finite(self):
        # delta**2 + b*c == 0 exercises the degenerate branch.
        ad11, ad12, ad21, ad22, m11, m21 = exact_interval_coefficients(
            a=-2.0, b=1.0, c=-1.0, d=-4.0, duration=0.5
        )
        for value in (ad11, ad12, ad21, ad22, m11, m21):
            assert np.isfinite(value)
        # Against the series expansion computed with scipy if available.
        scipy_linalg = pytest.importorskip("scipy.linalg")
        matrix = np.array([[-2.0, 1.0], [-1.0, -4.0]])
        expected = scipy_linalg.expm(matrix * 0.5)
        np.testing.assert_allclose(
            np.array([[ad11, ad12], [ad21, ad22]]), expected, rtol=1e-9
        )


class TestExactVersusEuler:
    @settings(max_examples=30, deadline=None)
    @given(duty=duties, load=loads, series_resistance=resistances)
    def test_steady_state_agrees_across_parameter_space(
        self, duty, load, series_resistance
    ):
        params = BuckParameters(
            switch_resistance_ohm=series_resistance / 2,
            inductor_resistance_ohm=series_resistance / 2,
        )
        exact = BuckPowerStage(params, method="exact")
        euler = BuckPowerStage(params, method="euler")
        exact_outputs = exact.run_periods(duty, load, periods=600)
        euler_outputs = euler.run_periods(duty, load, periods=600)
        # Steady state (tail mean) within 1 mV across duty / load / parasitics.
        assert abs(exact_outputs[-100:].mean() - euler_outputs[-100:].mean()) < 1e-3

    @settings(max_examples=20, deadline=None)
    @given(duty=duties, load=loads)
    def test_transient_trajectory_tracks_euler(self, duty, load):
        params = BuckParameters()
        exact = BuckPowerStage(params, method="exact")
        euler = BuckPowerStage(params, method="euler")
        exact_outputs = exact.run_periods(duty, load, periods=200)
        euler_outputs = euler.run_periods(duty, load, periods=200)
        # The transient deviation is dominated by Euler's first-order error
        # (it reaches ~5 mV at high duty into a light load), so the bound
        # only asserts the trajectories stay in the same regime.
        assert np.max(np.abs(exact_outputs - euler_outputs)) < 2e-2

    def test_underdamped_regime_euler_converges_to_exact(self):
        # With zero damping the LC rings forever; Euler at the default step
        # drifts, and refining the step moves Euler *toward* the exact
        # trajectory -- evidence the exact stepper, not Euler, is the truth.
        params = BuckParameters(switch_resistance_ohm=0.0, inductor_resistance_ohm=0.0)
        exact = BuckPowerStage(params, method="exact")
        coarse = BuckPowerStage(params, substeps_per_interval=64, method="euler")
        fine = BuckPowerStage(params, substeps_per_interval=1024, method="euler")
        exact_outputs = exact.run_periods(0.5, 5.0, periods=300)
        coarse_outputs = coarse.run_periods(0.5, 5.0, periods=300)
        fine_outputs = fine.run_periods(0.5, 5.0, periods=300)
        coarse_error = np.max(np.abs(coarse_outputs - exact_outputs))
        fine_error = np.max(np.abs(fine_outputs - exact_outputs))
        assert fine_error < coarse_error / 4

    def test_exact_is_step_count_invariant(self):
        # The exact update must not depend on substeps_per_interval at all.
        params = BuckParameters()
        one = BuckPowerStage(params, substeps_per_interval=4, method="exact")
        other = BuckPowerStage(params, substeps_per_interval=512, method="exact")
        np.testing.assert_array_equal(
            one.run_periods(0.4, 1.0, 100), other.run_periods(0.4, 1.0, 100)
        )

    def test_settle_agrees_with_analytic_dc_value(self):
        # DC operating point: Vout = D*Vg * R / (R + Rs) from the averaged
        # model; the exact stepper should land on it to sub-mV.
        params = BuckParameters(
            switch_resistance_ohm=0.02, inductor_resistance_ohm=0.01
        )
        duty, load = 0.5, 1.0
        settled = BuckPowerStage(params, method="exact").settle(duty, load)
        series = params.switch_resistance_ohm + params.inductor_resistance_ohm
        analytic = duty * params.input_voltage_v * load / (load + series)
        assert settled == pytest.approx(analytic, abs=2e-3)

    def test_lower_input_rail_lowers_output(self):
        # The stage drives from parameters.input_voltage_v alone, so a lower
        # rail settles the same duty at a proportionally lower output.
        duty, load = 0.5, 1.0
        nominal = BuckPowerStage(BuckParameters(), method="exact").settle(duty, load)
        low = BuckParameters(input_voltage_v=1.2)
        sagged = BuckPowerStage(low, method="exact").settle(duty, load)
        assert sagged < nominal - 0.1
        assert sagged / nominal == pytest.approx(
            low.input_voltage_v / BuckParameters().input_voltage_v, rel=1e-3
        )

    def test_invalid_method_rejected(self):
        with pytest.raises(ValueError):
            BuckPowerStage(BuckParameters(), method="rk4")

    def test_retuned_parameters_invalidate_cache(self):
        # Regression: reassigning .parameters used to reuse cached
        # transition coefficients of the old plant.
        retuned = BuckParameters(inductance_h=300e-9)
        stage = BuckPowerStage(BuckParameters(), method="exact")
        stage.run_period(0.5, 1.0)
        stage.parameters = retuned
        stage.reset()
        stage.run_period(0.5, 1.0)
        fresh = BuckPowerStage(retuned, method="exact")
        fresh.run_period(0.5, 1.0)
        assert stage.state.output_voltage_v == fresh.state.output_voltage_v
        assert stage.state.inductor_current_a == fresh.state.inductor_current_a

    def test_interval_cache_is_bounded(self):
        stage = BuckPowerStage(BuckParameters(), method="exact")
        stage.MAX_CACHED_INTERVALS = 32
        rng = np.random.default_rng(0)
        for duty in rng.uniform(0.1, 0.9, 200):
            stage.run_period(float(duty), 1.0)
        assert len(stage._interval_cache) <= 32
