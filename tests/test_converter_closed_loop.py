"""Tests for the digitally controlled buck converter (closed loop)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.converter.buck import BuckParameters
from repro.converter.closed_loop import (
    DigitallyControlledBuck,
    IdealDPWM,
    RegulationTrace,
)
from repro.converter.load import ConstantLoad, SteppedLoad
from repro.dpwm.calibrated import CalibratedDelayLineDPWM
from repro.technology.corners import OperatingConditions


class _FixedLoad:
    """A duck-typed load that skips ConstantLoad's positivity check."""

    def __init__(self, resistance_ohm: float) -> None:
        self.resistance_ohm = resistance_ohm

    def resistance_at(self, period_index: int) -> float:
        return self.resistance_ohm


@pytest.fixture(scope="module")
def params():
    return BuckParameters(input_voltage_v=1.8, switching_frequency_hz=100e6)


class TestIdealDPWM:
    def test_round_trip(self):
        dpwm = IdealDPWM(bits=8)
        assert dpwm.max_word == 255
        assert dpwm.duty_word_for(0.5) == 128
        assert dpwm.duty_fraction(128) == pytest.approx(0.5)

    def test_clamping(self):
        dpwm = IdealDPWM(bits=4)
        assert dpwm.duty_word_for(2.0) == dpwm.max_word
        assert dpwm.duty_word_for(-1.0) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            IdealDPWM(bits=0)
        with pytest.raises(ValueError):
            IdealDPWM(bits=4).duty_fraction(99)


class TestClosedLoopWithIdealDPWM:
    def test_regulates_to_reference(self, params):
        loop = DigitallyControlledBuck(params, IdealDPWM(bits=8), reference_v=0.9)
        trace = loop.run(500)
        assert trace.steady_state_voltage_v() == pytest.approx(0.9, abs=0.02)

    def test_different_references(self, params):
        for reference in (0.6, 1.2):
            loop = DigitallyControlledBuck(params, IdealDPWM(bits=8), reference_v=reference)
            trace = loop.run(500)
            assert trace.steady_state_voltage_v() == pytest.approx(reference, abs=0.03)

    def test_voltage_resolution_follows_dpwm_bits(self, params):
        coarse = DigitallyControlledBuck(params, IdealDPWM(bits=4), reference_v=0.9)
        fine = DigitallyControlledBuck(params, IdealDPWM(bits=10), reference_v=0.9)
        # Paper eq. 12: resolution = Vg / 2**n.
        assert coarse.output_voltage_resolution_v() == pytest.approx(1.8 / 16)
        assert fine.output_voltage_resolution_v() == pytest.approx(1.8 / 1024)

    def test_coarse_dpwm_limit_cycles_more(self, params):
        # A reference that is *not* exactly representable forces the loop to
        # dither between adjacent duty words; the dither amplitude (and hence
        # the output ripple) shrinks with DPWM resolution -- the reason the
        # paper pushes for high-resolution DPWM (eq. 12).
        coarse = DigitallyControlledBuck(params, IdealDPWM(bits=4), reference_v=0.95)
        fine = DigitallyControlledBuck(params, IdealDPWM(bits=9), reference_v=0.95)
        coarse_ripple = coarse.run(600).steady_state_ripple_v()
        fine_ripple = fine.run(600).steady_state_ripple_v()
        assert fine_ripple < coarse_ripple

    def test_load_step_recovery(self, params):
        load = SteppedLoad(light_ohm=2.0, heavy_ohm=1.0, step_up_period=200)
        loop = DigitallyControlledBuck(
            params, IdealDPWM(bits=8), reference_v=0.9, load=load
        )
        trace = loop.run(900)
        voltages = np.asarray(trace.output_voltages_v)
        # The output dips on the load step but recovers close to the reference.
        assert voltages[200:260].min() < 0.9
        assert voltages[-50:].mean() == pytest.approx(0.9, abs=0.03)

    def test_trace_arrays_consistent(self, params):
        loop = DigitallyControlledBuck(params, IdealDPWM(bits=8), reference_v=0.9)
        trace = loop.run(50)
        arrays = trace.as_arrays()
        assert len(trace) == 50
        assert arrays["vout_v"].shape == (50,)
        assert arrays["duty"].min() >= 0.0
        assert arrays["duty"].max() <= 1.0
        assert np.all(np.diff(arrays["time_s"]) > 0)

    def test_validation(self, params):
        with pytest.raises(ValueError):
            DigitallyControlledBuck(params, IdealDPWM(bits=8), reference_v=2.5)
        # A non-positive initial load is rejected at construction, as the
        # batch engine rejects it, instead of dividing by zero or starting
        # from a negative current.
        for resistance_ohm in (0.0, -1.0):
            with pytest.raises(ValueError, match="load resistance must be positive"):
                DigitallyControlledBuck(
                    params,
                    IdealDPWM(bits=8),
                    reference_v=0.9,
                    load=_FixedLoad(resistance_ohm),
                )
        loop = DigitallyControlledBuck(params, IdealDPWM(bits=8), reference_v=0.9)
        with pytest.raises(ValueError):
            loop.run(0)

    @pytest.mark.parametrize("reference_v", [-5.0, 2.5])
    def test_reference_out_of_range_rejected(self, params, reference_v):
        with pytest.raises(ValueError, match="reference voltage"):
            DigitallyControlledBuck(params, IdealDPWM(bits=8), reference_v=reference_v)

    def test_start_at_reference_starts_at_reference_v(self, params):
        loop = DigitallyControlledBuck(
            params, IdealDPWM(bits=8), reference_v=0.6, load=ConstantLoad(2.0)
        )
        assert loop.power_stage.state.output_voltage_v == pytest.approx(0.6)
        assert loop.power_stage.state.inductor_current_a == pytest.approx(0.3)
        voltages = np.asarray(loop.run(250).output_voltages_v)
        # No artificial transient: the loop holds the reference from period 0.
        assert voltages[200:250].mean() == pytest.approx(0.6, abs=0.02)

    @pytest.mark.parametrize("input_voltage_v", [1.4, 1.8, 2.4])
    def test_regulates_from_the_parameters_input_rail(self, input_voltage_v):
        params = BuckParameters(
            input_voltage_v=input_voltage_v, switching_frequency_hz=100e6
        )
        trace = DigitallyControlledBuck(
            params, IdealDPWM(bits=8), reference_v=0.9
        ).run(600)
        assert trace.steady_state_voltage_v() == pytest.approx(0.9, abs=0.03)
        # The rail is the only source: the duty settles near Vref / Vg.
        duty = np.asarray(trace.duty_fractions)[-100:].mean()
        assert duty == pytest.approx(0.9 / input_voltage_v, abs=0.05)

    def test_empty_trace_statistics_raise(self):
        # Regression: mean() of an empty trace used to yield NaN plus a
        # numpy warning instead of a clear error.
        trace = RegulationTrace()
        with pytest.raises(ValueError, match="empty trace"):
            trace.steady_state_voltage_v()
        with pytest.raises(ValueError, match="empty trace"):
            trace.steady_state_ripple_v()

    def test_invalid_tail_fraction_rejected(self, params):
        trace = DigitallyControlledBuck(params, IdealDPWM(bits=8), reference_v=0.9).run(10)
        with pytest.raises(ValueError):
            trace.steady_state_voltage_v(tail_fraction=0.0)
        with pytest.raises(ValueError):
            trace.steady_state_ripple_v(tail_fraction=1.5)

    def test_euler_stepper_selectable_and_close(self, params):
        exact = DigitallyControlledBuck(params, IdealDPWM(bits=8), reference_v=0.9)
        euler = DigitallyControlledBuck(
            params, IdealDPWM(bits=8), reference_v=0.9, stepper="euler"
        )
        assert exact.power_stage.method == "exact"
        assert euler.power_stage.method == "euler"
        v_exact = exact.run(400).steady_state_voltage_v()
        v_euler = euler.run(400).steady_state_voltage_v()
        assert v_exact == pytest.approx(v_euler, abs=1e-3)

    def test_cold_start_reaches_reference(self, params):
        loop = DigitallyControlledBuck(
            params,
            IdealDPWM(bits=8),
            reference_v=0.9,
            load=ConstantLoad(1.0),
            start_at_reference=False,
        )
        trace = loop.run(1500)
        assert trace.output_voltages_v[0] < 0.5
        assert trace.steady_state_voltage_v(tail_fraction=0.1) == pytest.approx(
            0.9, abs=0.05
        )


class TestClosedLoopWithCalibratedDPWM:
    @pytest.mark.parametrize("corner_name", ["fast", "typical", "slow"])
    def test_proposed_line_regulates_at_every_corner(
        self, params, proposed_design, library, corner_name
    ):
        conditions = {
            "fast": OperatingConditions.fast(),
            "typical": OperatingConditions.typical(),
            "slow": OperatingConditions.slow(),
        }[corner_name]
        line = proposed_design.build_line(library=library)
        dpwm = CalibratedDelayLineDPWM(line, conditions)
        loop = DigitallyControlledBuck(params, dpwm, reference_v=0.9)
        trace = loop.run(400)
        assert trace.steady_state_voltage_v() == pytest.approx(0.9, abs=0.03)

    def test_conventional_line_regulates(self, params, conventional_design, library):
        line = conventional_design.build_line(library=library)
        dpwm = CalibratedDelayLineDPWM(line, OperatingConditions.typical())
        loop = DigitallyControlledBuck(params, dpwm, reference_v=0.9)
        trace = loop.run(400)
        assert trace.steady_state_voltage_v() == pytest.approx(0.9, abs=0.04)
