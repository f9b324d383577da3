"""Tests for the vectorized batch simulation engine."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.converter.adc import WindowedADC
from repro.converter.buck import BuckParameters
from repro.converter.closed_loop import DigitallyControlledBuck, IdealDPWM
from repro.converter.load import (
    ConstantLoad,
    PulseTrainLoad,
    RampLoad,
    RandomBurstLoad,
    SteppedLoad,
)
from repro.converter.missions import MissionGenerator, OffsetLoad
from repro.core.yield_analysis import ComponentVariation, adaptive_regulation_yield
from repro.dpwm.calibrated import CalibratedDelayLineDPWM
from repro.simulation.batch import (
    BatchBuckParameters,
    BatchClosedLoop,
    BatchCompensator,
    BatchQuantizer,
    from_closed_loops,
)
from repro.technology.corners import OperatingConditions


@pytest.fixture(scope="module")
def nominal():
    return BuckParameters(input_voltage_v=1.8, switching_frequency_hz=100e6)


class TestBatchBuckParameters:
    def test_broadcasts_scalars(self, nominal):
        batch = BatchBuckParameters(
            input_voltage_v=1.8,
            inductance_h=np.array([90e-9, 100e-9, 110e-9]),
            capacitance_f=100e-9,
            switching_frequency_hz=100e6,
            switch_resistance_ohm=0.02,
            inductor_resistance_ohm=0.01,
        )
        assert batch.num_variants == 3
        assert batch.input_voltage_v.shape == (3,)

    def test_round_trips_scalar_parameters(self, nominal):
        batch = BatchBuckParameters.from_parameters([nominal, nominal])
        assert batch.num_variants == 2
        assert batch.variant(1) == nominal

    def test_uniform(self, nominal):
        batch = BatchBuckParameters.uniform(nominal, 5)
        assert batch.num_variants == 5
        assert batch.variant(3) == nominal

    def test_validation(self, nominal):
        with pytest.raises(ValueError):
            BatchBuckParameters.uniform(nominal, 0)
        with pytest.raises(ValueError):
            BatchBuckParameters(
                input_voltage_v=-1.0,
                inductance_h=100e-9,
                capacitance_f=100e-9,
                switching_frequency_hz=100e6,
                switch_resistance_ohm=0.02,
                inductor_resistance_ohm=0.01,
            )
        with pytest.raises(ValueError):
            BatchBuckParameters(
                input_voltage_v=np.array([1.8, 1.8]),
                inductance_h=np.array([1e-9, 1e-9, 1e-9]),
                capacitance_f=100e-9,
                switching_frequency_hz=100e6,
                switch_resistance_ohm=0.02,
                inductor_resistance_ohm=0.01,
            )


class TestBatchQuantizer:
    def test_ideal_matches_scalar_dpwm(self):
        scalar = IdealDPWM(bits=6)
        batch = BatchQuantizer.ideal(6, num_variants=1)
        commands = np.linspace(0.0, 1.0, 257)
        for command in commands:
            words, duties = batch.quantize(np.array([command]))
            assert words[0] == scalar.duty_word_for(float(command))
            assert duties[0] == pytest.approx(scalar.duty_fraction(int(words[0])))

    def test_from_quantizers_mixed_resolutions(self):
        quantizers = [IdealDPWM(bits=4), IdealDPWM(bits=6)]
        batch = BatchQuantizer.from_quantizers(quantizers)
        assert batch.num_variants == 2
        assert batch.max_word.tolist() == [15, 63]
        words, duties = batch.quantize(np.array([0.37, 0.37]))
        assert words.tolist() == [
            quantizers[0].duty_word_for(0.37),
            quantizers[1].duty_word_for(0.37),
        ]
        assert duties[0] == pytest.approx(quantizers[0].duty_fraction(int(words[0])))
        assert duties[1] == pytest.approx(quantizers[1].duty_fraction(int(words[1])))

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchQuantizer(np.array([[0.0, 2.0]]))
        with pytest.raises(ValueError):
            BatchQuantizer.from_quantizers([])
        with pytest.raises(ValueError):
            BatchQuantizer.ideal(0, 4)

    def test_command_count_mismatch_rejected(self):
        quantizer = BatchQuantizer.ideal(6, 4)
        with pytest.raises(ValueError, match="one duty command per variant"):
            quantizer.quantize(np.array([0.5, 0.5]))
        # A single shared table still broadcasts over any command count,
        # including a bare scalar.
        words, duties = BatchQuantizer.ideal(6, 1).quantize(np.full(5, 0.5))
        assert words.shape == (5,)
        words, duties = BatchQuantizer.ideal(6, 1).quantize(0.5)
        assert words.shape == (1,)


class TestBatchCompensator:
    def test_matches_scalar_pid(self):
        from repro.converter.compensator import PIDCompensator

        scalar = PIDCompensator(kp=0.002, ki=1e-4, kd=5e-4, initial_duty=0.5)
        batch = BatchCompensator(
            1, kp=0.002, ki=1e-4, kd=5e-4, initial_duty=0.5
        )
        rng = np.random.default_rng(11)
        for code in rng.integers(-15, 16, size=200):
            expected = scalar.update(int(code))
            got = batch.update(np.array([code]))
            assert got[0] == pytest.approx(expected, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchCompensator(2, min_duty=0.9, max_duty=0.5)
        with pytest.raises(ValueError):
            BatchCompensator(2, initial_duty=1.5)


class TestBatchClosedLoop:
    def test_reproduces_scalar_loops_exactly(self, nominal):
        """The core contract: batch == scalar exact loop, decision for decision."""
        references = [0.6, 0.9, 1.2]
        loops = [
            DigitallyControlledBuck(nominal, IdealDPWM(bits=6), reference_v=ref)
            for ref in references
        ]
        batch = from_closed_loops(loops)
        batch_result = batch.run(400)
        for column, loop in enumerate(loops):
            trace = loop.run(400)
            np.testing.assert_array_equal(
                np.asarray(trace.duty_words), batch_result.duty_words[:, column]
            )
            np.testing.assert_array_equal(
                np.asarray(trace.error_codes), batch_result.error_codes[:, column]
            )
            np.testing.assert_allclose(
                np.asarray(trace.output_voltages_v),
                batch_result.output_voltages_v[:, column],
                rtol=0.0,
                atol=0.0,
            )

    def test_reproduces_scalar_loop_with_calibrated_dpwm(
        self, nominal, proposed_design, library
    ):
        line = proposed_design.build_line(library=library)
        dpwm = CalibratedDelayLineDPWM(line, OperatingConditions.typical())
        scalar = DigitallyControlledBuck(nominal, dpwm, reference_v=0.9)
        batch = from_closed_loops([scalar])
        batch_result = batch.run(300)
        trace = scalar.run(300)
        np.testing.assert_array_equal(
            np.asarray(trace.duty_words), batch_result.duty_words[:, 0]
        )
        np.testing.assert_allclose(
            np.asarray(trace.output_voltages_v),
            batch_result.output_voltages_v[:, 0],
            rtol=0.0,
            atol=0.0,
        )

    @pytest.mark.parametrize(
        "load",
        [
            SteppedLoad(light_ohm=2.0, heavy_ohm=0.9, step_up_period=100),
            RampLoad(2.0, 1.0, ramp_start_period=50, ramp_end_period=150),
            PulseTrainLoad(2.0, 0.8, pulse_periods=20, train_period=80),
            RandomBurstLoad(2.0, 0.8, burst_probability=0.05, seed=3),
            MissionGenerator(total_periods=300, num_segments=5, seed=7).mission(2),
            OffsetLoad(RampLoad(2.0, 1.0, ramp_start_period=50, ramp_end_period=150), 80),
        ],
        ids=["stepped", "ramp", "pulse-train", "random-burst", "mission", "offset"],
    )
    def test_reproduces_scalar_loop_under_each_load(self, nominal, load):
        # The load is the only per-period scenario channel, so every shape
        # must lift into the batch engine bit for bit.
        scalar = DigitallyControlledBuck(
            nominal, IdealDPWM(bits=6), reference_v=0.9, load=load
        )
        batch = from_closed_loops([scalar]).run(300)
        expected = scalar.run(300)
        np.testing.assert_array_equal(
            np.asarray(expected.duty_words), batch.duty_words[:, 0]
        )
        np.testing.assert_array_equal(
            np.asarray(expected.output_voltages_v), batch.output_voltages_v[:, 0]
        )

    def test_regulates_all_variants(self, nominal):
        batch = BatchClosedLoop(
            BatchBuckParameters.uniform(nominal, 16),
            BatchQuantizer.ideal(8, 16),
            reference_v=0.9,
        )
        result = batch.run(500)
        np.testing.assert_allclose(
            result.steady_state_voltage_v(), np.full(16, 0.9), atol=0.02
        )

    def test_per_variant_references(self, nominal):
        references = np.array([0.6, 0.9, 1.2])
        batch = BatchClosedLoop(
            BatchBuckParameters.uniform(nominal, 3),
            BatchQuantizer.ideal(8, 3),
            reference_v=references,
        )
        result = batch.run(500)
        np.testing.assert_allclose(
            result.steady_state_voltage_v(), references, atol=0.03
        )

    def test_per_variant_loads(self, nominal):
        loads = [ConstantLoad(2.0), SteppedLoad(2.0, 0.9, step_up_period=100)]
        batch = BatchClosedLoop(
            BatchBuckParameters.uniform(nominal, 2),
            BatchQuantizer.ideal(8, 2),
            reference_v=0.9,
            loads=loads,
        )
        result = batch.run(300)
        assert result.load_resistances_ohm[200, 0] == 2.0
        assert result.load_resistances_ohm[200, 1] == 0.9
        # Both recover to the reference regardless of the load history.
        np.testing.assert_allclose(
            result.steady_state_voltage_v(), [0.9, 0.9], atol=0.03
        )

    def test_start_at_reference_starts_at_reference_v(self, nominal):
        batch = BatchClosedLoop(
            BatchBuckParameters.uniform(nominal, 2),
            BatchQuantizer.ideal(8, 2),
            reference_v=[0.6, 0.9],
            load=ConstantLoad(2.0),
        )
        np.testing.assert_array_equal(batch.output_voltage_v, [0.6, 0.9])
        np.testing.assert_allclose(batch.inductor_current_a, [0.3, 0.45])
        result = batch.run(150)
        # No artificial transient: each lane holds its reference.
        np.testing.assert_allclose(
            result.output_voltages_v[100:150].mean(axis=0), [0.6, 0.9], atol=0.02
        )

    def test_per_variant_input_rails_reproduce_scalar_loops(self, nominal):
        rails = [1.4, 1.8, 2.4]
        loops = [
            DigitallyControlledBuck(
                dataclasses.replace(nominal, input_voltage_v=rail),
                IdealDPWM(bits=6),
                reference_v=0.9,
            )
            for rail in rails
        ]
        result = from_closed_loops(loops).run(300)
        for column, loop in enumerate(loops):
            trace = loop.run(300)
            np.testing.assert_array_equal(
                np.asarray(trace.duty_words), result.duty_words[:, column]
            )
            np.testing.assert_array_equal(
                np.asarray(trace.output_voltages_v), result.output_voltages_v[:, column]
            )
        # A lower rail needs a larger duty word for the same reference.
        steady_words = result.duty_words[-50:].mean(axis=0)
        assert steady_words[0] > steady_words[1] > steady_words[2]

    def test_equal_loads_on_distinct_objects_share_one_profile(self, nominal):
        # Frozen-dataclass loads compare by value, so per-loop instances
        # with the same parameters lift as one shared load.
        loops = [
            DigitallyControlledBuck(
                nominal,
                IdealDPWM(bits=6),
                reference_v=0.9,
                load=SteppedLoad(2.0, 0.9, step_up_period=100),
            )
            for _ in range(3)
        ]
        batch = from_closed_loops(loops)
        assert batch._variant_loads is None
        result = batch.run(300)
        expected = loops[0].run(300)
        for column in range(3):
            np.testing.assert_array_equal(
                np.asarray(expected.duty_words), result.duty_words[:, column]
            )

    def test_ramp_pulse_and_burst_loads_run(self, nominal):
        for load in (
            RampLoad(2.0, 1.0, ramp_start_period=50, ramp_end_period=150),
            PulseTrainLoad(2.0, 0.8, pulse_periods=20, train_period=80),
            RandomBurstLoad(2.0, 0.8, seed=3),
        ):
            batch = BatchClosedLoop(
                BatchBuckParameters.uniform(nominal, 3),
                BatchQuantizer.ideal(8, 3),
                reference_v=0.9,
                load=load,
            )
            result = batch.run(400)
            voltages = result.output_voltages_v
            assert np.all(np.isfinite(voltages))
            # Pulsed/bursty workloads keep the loop in perpetual transient,
            # so check boundedness and the long-run average, not the tail.
            assert voltages.min() > 0.3 and voltages.max() < 1.6
            np.testing.assert_allclose(
                voltages.mean(axis=0), np.full(3, 0.9), atol=0.1
            )

    def test_trace_extraction_matches_columns(self, nominal):
        batch = BatchClosedLoop(
            BatchBuckParameters.uniform(nominal, 2),
            BatchQuantizer.ideal(6, 2),
            reference_v=0.9,
        )
        result = batch.run(50)
        trace = result.trace(1)
        assert len(trace) == 50
        np.testing.assert_allclose(
            trace.as_arrays()["vout_v"], result.output_voltages_v[:, 1]
        )
        assert trace.times_s[0] == pytest.approx(1e-8)

    def test_trace_round_trips_standalone_scalar_simulation(self, nominal):
        """result.trace(i) equals the standalone scalar run, field for field."""
        load = SteppedLoad(light_ohm=2.0, heavy_ohm=0.9, step_up_period=60)
        scalars = [
            DigitallyControlledBuck(
                nominal, IdealDPWM(bits=6), reference_v=ref, load=load
            )
            for ref in (0.7, 1.0)
        ]
        result = from_closed_loops(scalars).run(150)
        for column, loop in enumerate(scalars):
            expected = loop.run(150)
            trace = result.trace(column)
            assert trace.times_s == expected.times_s
            assert trace.output_voltages_v == expected.output_voltages_v
            assert trace.inductor_currents_a == expected.inductor_currents_a
            assert trace.duty_words == expected.duty_words
            assert trace.duty_fractions == expected.duty_fractions
            assert trace.error_codes == expected.error_codes
            assert trace.load_resistances_ohm == expected.load_resistances_ohm

    def test_static_load_evaluated_once_per_run(self, nominal):
        """Static loads resolve to one resistance vector, not one per period."""

        class CountingLoad:
            def __init__(self, resistance_ohm, static):
                self.resistance_ohm = resistance_ohm
                self.calls = 0
                if static:
                    self.is_static = True

            def resistance_at(self, period_index):
                self.calls += 1
                return self.resistance_ohm

        static = CountingLoad(2.0, static=True)
        batch = BatchClosedLoop(
            BatchBuckParameters.uniform(nominal, 3),
            BatchQuantizer.ideal(6, 3),
            reference_v=0.9,
            load=static,
        )
        result = batch.run(200)
        assert static.calls == 1  # the construction-time evaluation is reused

        # The fast path changes bookkeeping only, not the physics.
        reference = BatchClosedLoop(
            BatchBuckParameters.uniform(nominal, 3),
            BatchQuantizer.ideal(6, 3),
            reference_v=0.9,
            load=ConstantLoad(2.0),
        )
        np.testing.assert_array_equal(
            result.output_voltages_v, reference.run(200).output_voltages_v
        )

        # Loads that do not declare themselves static keep the per-period
        # evaluation (their resistance may depend on the period index).
        dynamic = CountingLoad(2.0, static=False)
        BatchClosedLoop(
            BatchBuckParameters.uniform(nominal, 3),
            BatchQuantizer.ideal(6, 3),
            reference_v=0.9,
            load=dynamic,
        ).run(200)
        assert dynamic.calls == 201  # construction + one per period

    def test_empty_result_statistics_raise(self, nominal):
        batch = BatchClosedLoop(
            BatchBuckParameters.uniform(nominal, 2),
            BatchQuantizer.ideal(6, 2),
            reference_v=0.9,
        )
        with pytest.raises(ValueError):
            batch.run(0)

    def test_validation(self, nominal):
        params = BatchBuckParameters.uniform(nominal, 2)
        quantizer = BatchQuantizer.ideal(6, 2)
        with pytest.raises(ValueError):
            BatchClosedLoop(params, quantizer, reference_v=2.5)
        with pytest.raises(ValueError):
            BatchClosedLoop(params, BatchQuantizer.ideal(6, 3), reference_v=0.9)
        with pytest.raises(ValueError, match="compensator covers"):
            BatchClosedLoop(
                params, quantizer, reference_v=0.9, compensator=BatchCompensator(3)
            )
        with pytest.raises(ValueError):
            BatchClosedLoop(
                params,
                quantizer,
                reference_v=0.9,
                load=ConstantLoad(1.0),
                loads=[ConstantLoad(1.0), ConstantLoad(2.0)],
            )
        with pytest.raises(ValueError):
            from_closed_loops([])

    @pytest.mark.parametrize("reference_v", [-5.0, 2.5])
    def test_reference_out_of_range_rejected(self, nominal, reference_v):
        with pytest.raises(ValueError, match="reference voltages"):
            BatchClosedLoop(
                BatchBuckParameters.uniform(nominal, 2),
                BatchQuantizer.ideal(6, 2),
                reference_v=reference_v,
            )

    def test_nonpositive_load_rejected(self, nominal):
        class BrokenLoad:
            def resistance_at(self, period_index: int) -> float:
                return 0.0

        with pytest.raises(ValueError, match="load resistance must be positive"):
            BatchClosedLoop(
                BatchBuckParameters.uniform(nominal, 2),
                BatchQuantizer.ideal(6, 2),
                reference_v=0.9,
                load=BrokenLoad(),
            ).run(10)

    def test_euler_loops_rejected(self, nominal):
        # The batch engine only reproduces the exact stepper; silently
        # lifting an Euler loop would break the cross-validation contract.
        loops = [
            DigitallyControlledBuck(
                nominal, IdealDPWM(bits=6), reference_v=0.9, stepper="euler"
            )
        ]
        with pytest.raises(ValueError, match="Euler"):
            from_closed_loops(loops)

    def test_mismatched_adcs_rejected(self, nominal):
        loops = [
            DigitallyControlledBuck(
                nominal, IdealDPWM(bits=6), reference_v=0.9, adc=WindowedADC(lsb_v=lsb)
            )
            for lsb in (0.005, 0.01)
        ]
        with pytest.raises(ValueError, match="ADC"):
            from_closed_loops(loops)


class TestRegulationYield:
    def test_component_variation_sampling(self, nominal):
        variation = ComponentVariation(seed=9)
        batch = variation.sample_batch(nominal, 64)
        assert batch.num_variants == 64
        assert np.all(batch.inductance_h > 0)
        assert np.all(batch.switch_resistance_ohm >= 0)
        # Reproducible from the seed.
        again = ComponentVariation(seed=9).sample_batch(nominal, 64)
        np.testing.assert_array_equal(batch.inductance_h, again.inductance_h)

    def test_zero_sigma_reproduces_nominal(self, nominal):
        variation = ComponentVariation(
            inductance_sigma=0.0,
            capacitance_sigma=0.0,
            resistance_sigma=0.0,
            input_voltage_sigma=0.0,
        )
        batch = variation.sample_batch(nominal, 4)
        assert batch.variant(2) == nominal

    def test_regulation_yield_nominal_fleet(self, nominal):
        result = adaptive_regulation_yield(
            nominal,
            reference_v=0.9,
            variation=ComponentVariation(seed=7),
            precision=0.0,
            max_instances=64,
            chunk_size=64,
            periods=250,
            tolerance_v=0.02,
        )
        assert result.estimate > 0.95
        assert result.moments["steady_state_v"].count == 64
        assert result.moments["error_v"].maximum < 0.05

    def test_regulation_yield_validation(self, nominal):
        with pytest.raises(ValueError):
            adaptive_regulation_yield(nominal, reference_v=0.9, tolerance_v=0.0)
        with pytest.raises(ValueError):
            ComponentVariation(inductance_sigma=-0.1)
