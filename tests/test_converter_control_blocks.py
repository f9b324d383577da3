"""Tests for the ADC, compensator, load profiles and mission composition."""

from __future__ import annotations

import numpy as np
import pytest

from repro.converter.adc import WindowedADC
from repro.converter.compensator import PIDCompensator
from repro.converter.load import (
    ConstantLoad,
    PulseTrainLoad,
    RampLoad,
    RandomBurstLoad,
    SteppedLoad,
)
from repro.converter.missions import (
    MissionGenerator,
    MissionProfile,
    MissionSegment,
    OffsetLoad,
    resolve_missions,
)


class TestWindowedADC:
    def test_zero_error_gives_zero_code(self):
        adc = WindowedADC(lsb_v=0.005, bits=5)
        assert adc.quantize_error(0.9, 0.9) == 0

    def test_quantization_rounds_to_nearest_code(self):
        adc = WindowedADC(lsb_v=0.005, bits=5)
        assert adc.quantize_error(0.9, 0.889) == 2
        assert adc.quantize_error(0.9, 0.912) == -2

    def test_saturation_at_window_edges(self):
        adc = WindowedADC(lsb_v=0.005, bits=5)
        assert adc.quantize_error(0.9, 0.0) == adc.max_code
        assert adc.quantize_error(0.9, 1.8) == adc.min_code
        assert adc.is_saturated(0.9, 0.0)
        assert not adc.is_saturated(0.9, 0.898)

    def test_dead_band_suppresses_small_errors(self):
        adc = WindowedADC(lsb_v=0.005, bits=5, dead_band_v=0.01)
        assert adc.quantize_error(0.9, 0.893) == 0
        assert adc.quantize_error(0.9, 0.88) != 0

    def test_dead_band_error_is_never_saturated(self):
        # Regression: is_saturated used to re-quantize without the dead band,
        # so a wide dead band could disagree with quantize_error.
        adc = WindowedADC(lsb_v=0.005, bits=4, dead_band_v=0.1)
        # |error| = 0.08 is inside the dead band (code 0) but 16 LSBs wide,
        # beyond the 3-bit signed window.
        assert adc.quantize_error(0.9, 0.82) == 0
        assert not adc.is_saturated(0.9, 0.82)

    def test_saturation_agrees_with_quantization_everywhere(self):
        adc = WindowedADC(lsb_v=0.005, bits=5, dead_band_v=0.012)
        for measured in np.linspace(0.6, 1.2, 601):
            code = adc.quantize_error(0.9, measured)
            saturated = adc.is_saturated(0.9, measured)
            if saturated:
                assert code in (adc.min_code, adc.max_code)
            if code not in (adc.min_code, adc.max_code):
                assert not saturated

    def test_vectorized_quantization_matches_scalar(self):
        adc = WindowedADC(lsb_v=0.005, bits=5, dead_band_v=0.008)
        measured = np.linspace(0.5, 1.3, 257)
        codes = adc.quantize_error_array(0.9, measured)
        assert codes.tolist() == [adc.quantize_error(0.9, m) for m in measured]

    def test_full_scale(self):
        adc = WindowedADC(lsb_v=0.01, bits=4)
        assert adc.max_code == 7
        assert adc.min_code == -8
        assert adc.full_scale_v == pytest.approx(0.07)

    def test_validation(self):
        with pytest.raises(ValueError):
            WindowedADC(lsb_v=0.0)
        with pytest.raises(ValueError):
            WindowedADC(bits=1)
        with pytest.raises(ValueError):
            WindowedADC(dead_band_v=-0.1)


class TestPIDCompensator:
    def test_zero_error_holds_initial_duty(self):
        pid = PIDCompensator(initial_duty=0.5)
        assert pid.update(0) == pytest.approx(0.5)
        assert pid.update(0) == pytest.approx(0.5)

    def test_positive_error_raises_duty(self):
        pid = PIDCompensator(kp=0.01, ki=0.001, initial_duty=0.5)
        assert pid.update(5) > 0.5

    def test_negative_error_lowers_duty(self):
        pid = PIDCompensator(kp=0.01, ki=0.001, initial_duty=0.5)
        assert pid.update(-5) < 0.5

    def test_integral_accumulates(self):
        pid = PIDCompensator(kp=0.0, ki=0.01, initial_duty=0.5)
        for _ in range(10):
            pid.update(1)
        assert pid.integral == pytest.approx(0.6)

    def test_anti_windup_clamps_integrator(self):
        pid = PIDCompensator(kp=0.0, ki=0.1, initial_duty=0.5, max_duty=0.8)
        for _ in range(100):
            duty = pid.update(10)
        assert pid.integral <= 0.8
        assert duty <= 0.8

    def test_output_respects_duty_limits(self):
        pid = PIDCompensator(kp=1.0, initial_duty=0.5)
        assert pid.update(100) == 1.0
        assert pid.update(-100) == 0.0

    def test_derivative_term_reacts_to_error_change(self):
        pid = PIDCompensator(kp=0.0, ki=0.0, kd=0.01, initial_duty=0.5)
        first = pid.update(4)
        second = pid.update(4)
        assert first > 0.5
        assert second == pytest.approx(0.5)

    def test_reset_restores_initial_state(self):
        pid = PIDCompensator(ki=0.01, initial_duty=0.4)
        pid.update(10)
        pid.reset()
        assert pid.integral == pytest.approx(0.4)
        assert pid.update(0) == pytest.approx(0.4)

    def test_validation(self):
        with pytest.raises(ValueError):
            PIDCompensator(min_duty=0.9, max_duty=0.5)
        with pytest.raises(ValueError):
            PIDCompensator(initial_duty=1.5)


class TestLoads:
    def test_constant_load(self):
        load = ConstantLoad(resistance_ohm=2.0)
        assert load.resistance_at(0) == 2.0
        assert load.resistance_at(10**6) == 2.0
        with pytest.raises(ValueError):
            ConstantLoad(resistance_ohm=0.0)

    def test_stepped_load_profile(self):
        load = SteppedLoad(
            light_ohm=2.0, heavy_ohm=0.5, step_up_period=100, step_down_period=200
        )
        assert load.resistance_at(0) == 2.0
        assert load.resistance_at(99) == 2.0
        assert load.resistance_at(100) == 0.5
        assert load.resistance_at(199) == 0.5
        assert load.resistance_at(200) == 2.0

    def test_stepped_load_validation(self):
        with pytest.raises(ValueError):
            SteppedLoad(light_ohm=0.0, heavy_ohm=1.0, step_up_period=1)
        with pytest.raises(ValueError):
            SteppedLoad(light_ohm=1.0, heavy_ohm=1.0, step_up_period=10, step_down_period=5)
        with pytest.raises(ValueError):
            SteppedLoad(light_ohm=1.0, heavy_ohm=1.0, step_up_period=-1)

    def test_ramp_load_interpolates(self):
        load = RampLoad(start_ohm=2.0, end_ohm=1.0, ramp_start_period=100, ramp_end_period=300)
        assert load.resistance_at(0) == 2.0
        assert load.resistance_at(100) == 2.0
        assert load.resistance_at(200) == pytest.approx(1.5)
        assert load.resistance_at(300) == 1.0
        assert load.resistance_at(10**6) == 1.0

    def test_ramp_load_validation(self):
        with pytest.raises(ValueError):
            RampLoad(start_ohm=0.0, end_ohm=1.0, ramp_start_period=0, ramp_end_period=10)
        with pytest.raises(ValueError):
            RampLoad(start_ohm=1.0, end_ohm=2.0, ramp_start_period=10, ramp_end_period=10)

    def test_pulse_train_load_repeats(self):
        load = PulseTrainLoad(
            light_ohm=2.0, heavy_ohm=0.5, pulse_periods=3, train_period=10,
            first_pulse_period=5,
        )
        assert load.resistance_at(4) == 2.0
        for start in (5, 15, 25):
            assert load.resistance_at(start) == 0.5
            assert load.resistance_at(start + 2) == 0.5
            assert load.resistance_at(start + 3) == 2.0

    def test_pulse_train_validation(self):
        with pytest.raises(ValueError):
            PulseTrainLoad(light_ohm=1.0, heavy_ohm=1.0, pulse_periods=5, train_period=5)
        with pytest.raises(ValueError):
            PulseTrainLoad(light_ohm=1.0, heavy_ohm=1.0, pulse_periods=0, train_period=5)

    def test_random_burst_load_is_reproducible(self):
        load_a = RandomBurstLoad(light_ohm=2.0, heavy_ohm=0.5, seed=7)
        load_b = RandomBurstLoad(light_ohm=2.0, heavy_ohm=0.5, seed=7)
        values_a = [load_a.resistance_at(i) for i in range(500)]
        values_b = [load_b.resistance_at(i) for i in range(500)]
        assert values_a == values_b
        assert set(values_a) <= {2.0, 0.5}

    def test_random_burst_load_bursts_hold(self):
        load = RandomBurstLoad(
            light_ohm=2.0, heavy_ohm=0.5, burst_probability=0.05,
            burst_periods=10, horizon_periods=1000, seed=3,
        )
        values = np.array([load.resistance_at(i) for i in range(1000)])
        heavy = values == 0.5
        assert heavy.any() and not heavy.all()
        # Each burst holds the heavy load for at least burst_periods.
        starts = np.flatnonzero(heavy[1:] & ~heavy[:-1]) + 1
        for start in starts:
            assert heavy[start : start + 10].all() or start + 10 > 1000

    @pytest.mark.parametrize("burst_probability", [0.0, 0.05, 0.5, 1.0])
    @pytest.mark.parametrize(
        ("burst_periods", "horizon_periods"),
        [(20, 4096), (7, 300), (500, 300), (1, 50), (3, 1), (1, 1)],
    )
    def test_random_burst_mask_matches_the_loop_reference(
        self, burst_probability, burst_periods, horizon_periods
    ):
        """The cumsum-window mask equals marking each burst with a loop."""
        for seed in range(25):
            load = RandomBurstLoad(
                light_ohm=2.0,
                heavy_ohm=0.5,
                burst_probability=burst_probability,
                burst_periods=burst_periods,
                horizon_periods=horizon_periods,
                seed=seed,
            )
            rng = np.random.default_rng(seed)
            starts = rng.random(horizon_periods) < burst_probability
            expected = np.zeros(horizon_periods, dtype=bool)
            for start in np.flatnonzero(starts):
                expected[start : start + burst_periods] = True
            np.testing.assert_array_equal(load._heavy_mask, expected)



class TestMissionEdgeCases:
    """Regression tests: degenerate mission schedules fail loudly and typed.

    A zero-duration segment would own no period (the bisect lookup would
    silently skip it), and an empty schedule has no segment to evaluate at
    all -- both must be rejected at construction, not surface later as an
    IndexError mid-simulation.
    """

    def test_zero_duration_segment_raises(self):
        with pytest.raises(ValueError, match="at least one switching period"):
            MissionSegment(duration_periods=0)

    def test_negative_duration_segment_raises(self):
        with pytest.raises(ValueError, match="at least one switching period"):
            MissionSegment(duration_periods=-5, load=ConstantLoad(2.0))

    def test_empty_mission_schedule_raises(self):
        with pytest.raises(ValueError, match="empty mission schedule"):
            MissionProfile(segments=())

    def test_empty_mission_schedule_raises_from_sequence(self):
        with pytest.raises(ValueError, match="empty mission schedule"):
            MissionProfile(segments=[])

    def test_negative_period_raises_typed_error(self):
        mission = MissionProfile(
            segments=(MissionSegment(duration_periods=4),)
        )
        with pytest.raises(ValueError, match="non-negative"):
            mission.resistance_at(-1)

    def test_generator_validation(self):
        with pytest.raises(ValueError, match="num_segments"):
            MissionGenerator(total_periods=10, num_segments=0)
        with pytest.raises(ValueError, match="cover at least"):
            MissionGenerator(total_periods=3, num_segments=4)
        with pytest.raises(ValueError, match="positive"):
            MissionGenerator(total_periods=10, light_ohm=0.0)
        generator = MissionGenerator(total_periods=64)
        with pytest.raises(ValueError, match="non-negative"):
            generator.mission(-1)
        with pytest.raises(ValueError, match="at least one instance"):
            generator.missions(0)

    def test_resolve_missions_requires_one_per_instance(self):
        mission = MissionProfile(
            segments=(MissionSegment(duration_periods=4),)
        )
        with pytest.raises(ValueError, match="one mission per instance"):
            resolve_missions([mission], num_instances=2)

    def test_offset_load_validation(self):
        load = ConstantLoad(2.0)
        with pytest.raises(ValueError, match="non-negative"):
            OffsetLoad(load=load, offset_periods=-1)
        shifted = OffsetLoad(load=load, offset_periods=3)
        with pytest.raises(ValueError, match="non-negative"):
            shifted.resistance_at(-1)
        assert OffsetLoad.wrap(load, 0) is load
