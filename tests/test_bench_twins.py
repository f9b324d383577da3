"""Reduced twins of the speed-gated engine benchmarks' value gates.

``benchmarks/test_bench_batch_engine.py``,
``benchmarks/test_bench_linearity_engine.py``,
``benchmarks/test_bench_pipeline.py`` and ``benchmarks/test_bench_mission.py``
gate on a measured speedup, so they are ``wallclock``-marked and run in the
CI benchmarks job only.  Their agreement and bit-identity asserts must not
leave tier-1 with them: each class here makes the same asserts on the same
configuration at a fleet size that runs in about a second.
"""

from __future__ import annotations

import numpy as np

from repro.converter.buck import BuckParameters
from repro.converter.closed_loop import DigitallyControlledBuck, IdealDPWM
from repro.converter.missions import MissionGenerator
from repro.core.design import DesignSpec, design_proposed
from repro.core.ensemble import ProposedEnsemble
from repro.core.proposed import ProposedController
from repro.core.yield_analysis import ComponentVariation
from repro.dpwm.calibrated import CalibratedDelayLineDPWM
from repro.pipeline import ChunkedSiliconToRegulation
from repro.simulation.batch import BatchClosedLoop, BatchQuantizer
from repro.technology.corners import OperatingConditions
from repro.technology.thermal import TemperatureTrace, ThermalDerating
from repro.technology.variation import VariationModel

SPEC = DesignSpec(clock_frequency_mhz=100.0, resolution_bits=6)
CONDITIONS = OperatingConditions.typical()
REFERENCE_V = 0.9


class TestBatchEngineTwin:
    """``test_bench_batch_engine``: exact batch vs the scalar Euler loop."""

    NUM_VARIANTS = 32
    PERIODS = 300
    DPWM_BITS = 9

    def test_steady_states_agree_within_a_millivolt(self):
        nominal = BuckParameters(input_voltage_v=1.8, switching_frequency_hz=100e6)
        parameters = ComponentVariation(seed=2012).sample_batch(
            nominal, self.NUM_VARIANTS
        )
        batch = BatchClosedLoop(
            parameters,
            BatchQuantizer.ideal(self.DPWM_BITS, self.NUM_VARIANTS),
            reference_v=REFERENCE_V,
        ).run(self.PERIODS).steady_state_voltage_v()
        euler = np.array(
            [
                DigitallyControlledBuck(
                    parameters.variant(index),
                    IdealDPWM(bits=self.DPWM_BITS),
                    reference_v=REFERENCE_V,
                    stepper="euler",
                )
                .run(self.PERIODS)
                .steady_state_voltage_v()
                for index in range(self.NUM_VARIANTS)
            ]
        )
        assert np.max(np.abs(batch - euler)) < 1e-3
        assert np.all(np.abs(batch - REFERENCE_V) < 0.03)


class TestLinearityEngineTwin:
    """``test_bench_linearity_engine``: ensemble vs per-instance lock."""

    NUM_INSTANCES = 64

    def test_curves_and_taps_match_the_scalar_controller(self, library):
        variation = VariationModel(random_sigma=0.04, gradient_peak=0.015, seed=2012)
        design = design_proposed(SPEC, library)
        config = design.build_line(library=library).config
        ensemble = ProposedEnsemble.sample(
            config, self.NUM_INSTANCES, variation, library=library
        )
        calibration = ensemble.lock(CONDITIONS)
        curves = ensemble.transfer_curves(CONDITIONS, calibration=calibration)
        for index in range(self.NUM_INSTANCES):
            sample = variation.sample(
                config.num_cells, config.buffers_per_cell, instance=index
            )
            line = design.build_line(library=library, variation=sample)
            result = ProposedController(line).lock(CONDITIONS)
            assert calibration.control_state[index] == result.control_state
            row = [
                line.output_delay_ps(word, result.control_state, CONDITIONS)
                for word in range(1, line.mapper.max_word + 1)
            ]
            assert np.max(np.abs(curves.delays_ps[index] - row)) < 1e-6
        assert bool(calibration.locked.all())


class TestPipelineTwin:
    """``test_bench_pipeline``: ``run_chunk`` vs the scalar composition."""

    NUM_INSTANCES = 32
    PERIODS = 300

    def test_chunk_equals_scalar_composition_bit_for_bit(self, library):
        variation = VariationModel(random_sigma=0.04, gradient_peak=0.015, seed=2012)
        components = ComponentVariation(seed=2012)
        result = ChunkedSiliconToRegulation(
            "proposed",
            SPEC,
            CONDITIONS,
            reference_v=REFERENCE_V,
            variation=variation,
            component_variation=components,
            library=library,
        ).run_chunk(0, self.NUM_INSTANCES, periods=self.PERIODS)
        design = design_proposed(SPEC, library)
        config = design.build_line(library=library).config
        parameters = components.sample_instances(
            BuckParameters(switching_frequency_hz=SPEC.clock_frequency_mhz * 1e6),
            self.NUM_INSTANCES,
        )
        for index in range(self.NUM_INSTANCES):
            sample = variation.sample(
                config.num_cells, config.buffers_per_cell, instance=index
            )
            line = design.build_line(library=library, variation=sample)
            trace = DigitallyControlledBuck(
                parameters.variant(index),
                CalibratedDelayLineDPWM(line, CONDITIONS),
                reference_v=REFERENCE_V,
            ).run(self.PERIODS)
            np.testing.assert_array_equal(
                result.regulation.duty_words[:, index], trace.duty_words
            )
            np.testing.assert_array_equal(
                result.regulation.output_voltages_v[:, index],
                trace.output_voltages_v,
            )
        assert bool(result.calibration.locked.all())
        np.testing.assert_allclose(
            result.regulation.steady_state_voltage_v(), REFERENCE_V, atol=0.02
        )


class TestMissionTwin:
    """``test_bench_mission``: one batched chunk vs one chunk per chip."""

    NUM_INSTANCES = 8
    PERIODS = 360

    def test_batched_missions_equal_single_instance_chunks(self):
        options = dict(
            periods=self.PERIODS,
            missions=MissionGenerator(
                total_periods=self.PERIODS, num_segments=6, seed=2012, heavy_ohm=1.4
            ),
            temperature_trace=TemperatureTrace(
                temperatures_c=(25.0, 85.0, 25.0), durations_periods=(120, 120, 120)
            ),
            thermal=ThermalDerating(),
        )
        pipeline = ChunkedSiliconToRegulation(
            "proposed",
            SPEC,
            CONDITIONS,
            variation=VariationModel(seed=2012),
            component_variation=ComponentVariation(seed=2012),
            reference_v=REFERENCE_V,
        )
        batched = pipeline.run_chunk(0, self.NUM_INSTANCES, **options).regulation
        for instance in range(self.NUM_INSTANCES):
            single = pipeline.run_chunk(instance, 1, **options).regulation
            np.testing.assert_array_equal(
                batched.duty_words[:, instance], single.duty_words[:, 0]
            )
            np.testing.assert_array_equal(
                batched.output_voltages_v[:, instance],
                single.output_voltages_v[:, 0],
            )
        assert np.isfinite(batched.output_voltages_v).all()
