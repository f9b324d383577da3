"""Tests for the silicon-to-regulation stage function and its callers.

The load-bearing property: :func:`regulate_ensemble`, reached through the
chunked runner, must match composing the two engines by hand, instance by
instance -- a scalar
:class:`CalibratedDelayLineDPWM` (cycle-accurate lock, per-word table) closed
inside a scalar :class:`DigitallyControlledBuck`, run period by period.
Bit-exact: identical duty-word decisions and identical output-voltage
histories, not merely close ones.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.converter.buck import BuckParameters
from repro.converter.closed_loop import DigitallyControlledBuck, IdealDPWM
from repro.converter.load import ConstantLoad, SteppedLoad
from repro.converter.missions import (
    MissionGenerator,
    MissionProfile,
    MissionSegment,
)
from repro.core.design import DesignSpec, design_conventional, design_proposed
from repro.core.ensemble import ConventionalEnsemble, ProposedEnsemble
from repro.core.yield_analysis import (
    ComponentVariation,
    LinearitySpec,
    RegulationSpec,
    adaptive_closed_loop_yield,
)
from repro.dpwm.calibrated import CalibratedDelayLineDPWM
from repro.pipeline import (
    ChunkedFabricator,
    ChunkedSiliconToRegulation,
    regulate_ensemble,
)
from repro.simulation.batch import BatchBuckParameters, BatchQuantizer
from repro.technology.corners import OperatingConditions, ProcessCorner
from repro.technology.library import intel32_like_library
from repro.technology.variation import VariationModel

LIBRARY = intel32_like_library()
SPEC = DesignSpec(clock_frequency_mhz=100.0, resolution_bits=5)
NOMINAL = BuckParameters(switching_frequency_hz=100e6)

schemes = st.sampled_from(["proposed", "conventional"])
corners = st.sampled_from(list(ProcessCorner))
seeds = st.integers(min_value=0, max_value=2**16)


def _fabricate(scheme, variation, num_instances):
    return ChunkedFabricator(
        scheme, SPEC, variation=variation, library=LIBRARY
    ).fabricate(num_instances)


def _hand_composed(ensemble, parameters, design, conditions, periods):
    """The two engines composed by hand: one scalar DPWM + loop per instance."""
    num = ensemble.num_instances
    words = np.empty((periods, num), dtype=np.int64)
    voltages = np.empty((periods, num))
    duty_tables = []
    for index in range(num):
        line = design.build_line(
            library=LIBRARY, variation=ensemble.batch.instance(index)
        )
        dpwm = CalibratedDelayLineDPWM(line, conditions)
        duty_tables.append(dpwm.duty_table())
        loop = DigitallyControlledBuck(
            parameters.variant(index), dpwm, reference_v=0.9
        )
        trace = loop.run(periods)
        words[:, index] = trace.duty_words
        voltages[:, index] = trace.output_voltages_v
    return words, voltages, duty_tables


class TestFusedVersusHandComposed:
    @settings(max_examples=12, deadline=None)
    @given(scheme=schemes, corner=corners, seed=seeds)
    def test_pipeline_matches_scalar_composition_bit_exactly(
        self, scheme, corner, seed
    ):
        conditions = OperatingConditions(corner=corner)
        design_fn = design_proposed if scheme == "proposed" else design_conventional
        design = design_fn(SPEC, LIBRARY)
        variation = VariationModel(random_sigma=0.05, gradient_peak=0.01, seed=seed)
        components = ComponentVariation(seed=seed)
        periods = 40
        result = ChunkedSiliconToRegulation(
            scheme,
            SPEC,
            conditions,
            variation=variation,
            component_variation=components,
            library=LIBRARY,
        ).run_chunk(0, 3, periods=periods)
        words, voltages, duty_tables = _hand_composed(
            _fabricate(scheme, variation, 3),
            components.sample_instances(NOMINAL, 3),
            design,
            conditions,
            periods,
        )
        np.testing.assert_array_equal(result.regulation.duty_words, words)
        np.testing.assert_array_equal(result.regulation.output_voltages_v, voltages)
        quantizer = BatchQuantizer.from_ensemble(result.curves)
        for index, table in enumerate(duty_tables):
            np.testing.assert_array_equal(
                quantizer.levels[index, : table.size], table
            )

    def test_pipeline_matches_composition_under_load_step(self):
        conditions = OperatingConditions.typical()
        load = SteppedLoad(light_ohm=2.0, heavy_ohm=0.9, step_up_period=15)
        ensemble = _fabricate("proposed", VariationModel(seed=3), 2)
        parameters = BatchBuckParameters.uniform(NOMINAL, 2)
        result = regulate_ensemble(
            ensemble, parameters, conditions, reference_v=0.9, periods=50, load=load
        )
        design = design_proposed(SPEC, LIBRARY)
        for index in range(2):
            line = design.build_line(
                library=LIBRARY, variation=ensemble.batch.instance(index)
            )
            loop = DigitallyControlledBuck(
                parameters.variant(index),
                CalibratedDelayLineDPWM(line, conditions),
                reference_v=0.9,
                load=load,
            )
            trace = loop.run(50)
            np.testing.assert_array_equal(
                np.asarray(trace.duty_words), result.regulation.duty_words[:, index]
            )
            np.testing.assert_array_equal(
                np.asarray(trace.output_voltages_v),
                result.regulation.output_voltages_v[:, index],
            )


class TestChunkedFabricator:
    def test_design_runs_once_and_chunks_share_it(self):
        fabricator = ChunkedFabricator(
            "proposed", SPEC, variation=VariationModel(seed=2), library=LIBRARY
        )
        first = fabricator.fabricate(3)
        second = fabricator.fabricate(2, first_instance=3)
        assert first.config == second.config == fabricator.config

    @given(scheme=schemes, split=st.integers(min_value=1, max_value=7))
    @settings(max_examples=10, deadline=None)
    def test_chunks_tile_the_one_shot_fabrication(self, scheme, split):
        fabricator = ChunkedFabricator(
            scheme, SPEC, variation=VariationModel(seed=4), library=LIBRARY
        )
        whole = fabricator.fabricate(8)
        head = fabricator.fabricate(split)
        tail = fabricator.fabricate(8 - split, first_instance=split)
        np.testing.assert_array_equal(
            whole.batch.multipliers,
            np.concatenate([head.batch.multipliers, tail.batch.multipliers]),
        )

    def test_designs_both_schemes(self):
        proposed = _fabricate("proposed", VariationModel(seed=1), 4)
        conventional = _fabricate("conventional", VariationModel(seed=1), 4)
        assert isinstance(proposed, ProposedEnsemble)
        assert isinstance(conventional, ConventionalEnsemble)
        assert proposed.num_instances == conventional.num_instances == 4

    def test_none_variation_fabricates_nominal_silicon(self):
        ensemble = _fabricate("proposed", None, 3)
        assert ensemble.batch is None
        assert ensemble.num_instances == 3
        conditions = OperatingConditions.typical()
        delays = ensemble.cell_delays_ps(conditions)
        np.testing.assert_array_equal(delays[0], delays[1])

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            ChunkedFabricator("ideal", SPEC, library=LIBRARY)
        with pytest.raises(ValueError, match="at least one instance"):
            ChunkedFabricator("proposed", SPEC, library=LIBRARY).fabricate(0)


class TestChunkedSiliconToRegulation:
    @given(
        scheme=schemes,
        chunks=st.sampled_from([(6,), (3, 3), (1, 5), (2, 2, 2), (4, 1, 1)]),
    )
    @settings(max_examples=10, deadline=None)
    def test_any_chunking_matches_the_one_shot_run(self, scheme, chunks):
        """The tentpole contract: chunk boundaries never change the stream."""
        runner = ChunkedSiliconToRegulation(
            scheme,
            SPEC,
            OperatingConditions.typical(),
            variation=VariationModel(seed=6),
            component_variation=ComponentVariation(seed=6),
            library=LIBRARY,
        )
        one_shot = runner.run_chunk(0, 6, periods=80)
        first_instance = 0
        pieces = []
        for count in chunks:
            pieces.append(runner.run_chunk(first_instance, count, periods=80))
            first_instance += count
        np.testing.assert_array_equal(
            one_shot.regulation.output_voltages_v,
            np.concatenate(
                [piece.regulation.output_voltages_v for piece in pieces], axis=1
            ),
        )
        np.testing.assert_array_equal(
            one_shot.calibration.locked,
            np.concatenate([piece.calibration.locked for piece in pieces]),
        )

    @pytest.mark.parametrize(
        "missions",
        [
            [
                MissionProfile(
                    segments=(MissionSegment(20, load=ConstantLoad(2.0)),)
                )
            ]
            * 2,
            MissionGenerator(total_periods=20, num_segments=2, seed=3),
        ],
        ids=["mission-list", "mission-generator"],
    )
    def test_shared_load_and_missions_are_exclusive(self, missions):
        """The runner's shared load is never dropped for the missions."""
        runner = ChunkedSiliconToRegulation(
            "proposed",
            SPEC,
            load=SteppedLoad(light_ohm=2.0, heavy_ohm=0.9, step_up_period=5),
            library=LIBRARY,
        )
        with pytest.raises(ValueError, match="shared load and per-instance missions"):
            runner.run_chunk(0, 2, periods=20, missions=missions)
        # Either input alone still runs.
        assert runner.run_chunk(0, 2, periods=20).num_instances == 2
        missions_only = ChunkedSiliconToRegulation("proposed", SPEC, library=LIBRARY)
        result = missions_only.run_chunk(0, 2, periods=20, missions=missions)
        assert result.num_instances == 2

    def test_uniform_parameters_without_component_variation(self):
        runner = ChunkedSiliconToRegulation(
            "proposed", SPEC, library=LIBRARY
        )
        result = runner.run_chunk(0, 3, periods=40)
        assert result.num_instances == 3
        assert result.scheme == "proposed"

    def test_silicon_only_shards_tile_the_population(self):
        runner = ChunkedSiliconToRegulation(
            "proposed", SPEC, variation=VariationModel(seed=5), library=LIBRARY
        )
        whole = runner.run_chunk(0, 8, periods=40)
        shards = [runner.run_chunk(0, 4, periods=40), runner.run_chunk(4, 4, periods=40)]
        np.testing.assert_array_equal(
            np.concatenate(
                [shard.regulation.steady_state_voltage_v() for shard in shards]
            ),
            whole.regulation.steady_state_voltage_v(),
        )
        np.testing.assert_array_equal(
            np.concatenate([shard.calibration.locked for shard in shards]),
            whole.calibration.locked,
        )

    def test_mismatched_switching_frequency_rejected(self):
        nominal = BuckParameters(switching_frequency_hz=50e6)
        with pytest.raises(ValueError, match="one switching clock"):
            ChunkedSiliconToRegulation(
                "proposed", SPEC, nominal=nominal, library=LIBRARY
            )


class TestFixedBudgetMatchesRunChunk:
    @pytest.mark.parametrize(
        "load",
        [None, SteppedLoad(light_ohm=2.0, heavy_ohm=0.9, step_up_period=25)],
        ids=["static", "stepped"],
    )
    @pytest.mark.parametrize("scheme", ["proposed", "conventional"])
    def test_fixed_budget_scores_run_chunk(self, scheme, load):
        """A fixed budget (``precision=0``, one chunk) is ``run_chunk`` over
        the same instances scored against both specs, bit for bit."""
        conditions = OperatingConditions.typical()
        variation = VariationModel(seed=8)
        components = ComponentVariation(seed=8)
        fixed = adaptive_closed_loop_yield(
            scheme,
            SPEC,
            conditions,
            variation=variation,
            component_variation=components,
            precision=0.0,
            max_instances=5,
            chunk_size=5,
            periods=60,
            load=load,
            library=LIBRARY,
        )
        chunk = ChunkedSiliconToRegulation(
            scheme,
            SPEC,
            conditions,
            variation=variation,
            component_variation=components,
            load=load,
            library=LIBRARY,
        ).run_chunk(0, 5, periods=60)
        linearity = LinearitySpec().evaluate(chunk.calibration, chunk.curves)
        regulation = RegulationSpec().evaluate(chunk.regulation, 0.9)
        assert fixed.trials == 5
        assert fixed.estimates == {
            "closed_loop": float(np.mean(linearity & regulation)),
            "linearity": float(np.mean(linearity)),
            "regulation": float(np.mean(regulation)),
            "lock": float(np.mean(chunk.calibration.locked)),
        }
        steady = chunk.regulation.steady_state_voltage_v()
        errors = np.abs(steady - chunk.reference_v)
        assert fixed.moments["error_v"].maximum == float(errors.max())
        assert fixed.moments["limit_cycle_amplitude_v"].maximum == float(
            chunk.regulation.steady_state_ripple_v().max()
        )


class TestPipelineConstruction:
    def test_mismatched_switching_frequency_rejected(self):
        nominal = BuckParameters(switching_frequency_hz=50e6)
        with pytest.raises(ValueError, match="one switching clock"):
            adaptive_closed_loop_yield(
                "proposed",
                SPEC,
                OperatingConditions.typical(),
                nominal=nominal,
                max_instances=2,
                library=LIBRARY,
            )

    def test_defaults_follow_the_spec_frequency(self):
        result = ChunkedSiliconToRegulation(
            "proposed", SPEC, library=LIBRARY
        ).run_chunk(0, 2, periods=20)
        assert result.regulation.switching_period_s == pytest.approx(1e-8)
        assert result.regulation.num_variants == 2
        assert result.curves.delays_ps.shape[0] == 2

    def test_result_statistics_shapes(self):
        result = ChunkedSiliconToRegulation(
            "proposed", SPEC, variation=VariationModel(seed=5), library=LIBRARY
        ).run_chunk(0, 4, periods=60)
        assert result.num_instances == 4
        assert result.regulation.steady_state_voltage_v().shape == (4,)
        assert result.regulation.steady_state_ripple_v().shape == (4,)
        assert result.regulation.num_periods == 60


class TestBatchQuantizerFromEnsemble:
    def test_matches_scalar_calibrated_tables(self):
        conditions = OperatingConditions.typical()
        design = design_proposed(SPEC, LIBRARY)
        config = design.build_line(library=LIBRARY).config
        model = VariationModel(seed=9)
        ensemble = ProposedEnsemble.sample(config, 3, model, library=LIBRARY)
        curves = ensemble.transfer_curves(conditions)
        quantizer = BatchQuantizer.from_ensemble(curves)
        for index in range(3):
            line = design.build_line(
                library=LIBRARY, variation=ensemble.batch.instance(index)
            )
            dpwm = CalibratedDelayLineDPWM(line, conditions)
            reference = np.array(
                [dpwm.duty_fraction(word) for word in range(dpwm.max_word + 1)]
            )
            np.testing.assert_array_equal(quantizer.levels[index], reference)

    def test_word_zero_is_the_no_pulse_word(self):
        ensemble = _fabricate("proposed", VariationModel(seed=2), 2)
        quantizer = BatchQuantizer.from_ensemble(
            ensemble.transfer_curves(OperatingConditions.typical())
        )
        np.testing.assert_array_equal(quantizer.levels[:, 0], [0.0, 0.0])
        assert np.all(np.diff(quantizer.levels, axis=1) >= 0.0)

    def test_narrower_word_register(self):
        ensemble = _fabricate("proposed", None, 1)
        curves = ensemble.transfer_curves(OperatingConditions.typical())
        quantizer = BatchQuantizer.from_ensemble(curves, num_words=8)
        assert quantizer.levels.shape == (1, 8)

    def test_validation(self):
        class FakeCurves:
            input_words = np.array([2, 3, 4])
            delays_ps = np.ones((1, 3))
            clock_period_ps = 100.0

        with pytest.raises(ValueError, match="contiguous"):
            BatchQuantizer.from_ensemble(FakeCurves())

        class ShapeMismatch:
            input_words = np.array([1, 2, 3])
            delays_ps = np.ones((1, 4))
            clock_period_ps = 100.0

        with pytest.raises(ValueError, match="covers"):
            BatchQuantizer.from_ensemble(ShapeMismatch())

        ensemble = _fabricate("proposed", None, 1)
        curves = ensemble.transfer_curves(OperatingConditions.typical())
        with pytest.raises(ValueError, match="num_words"):
            BatchQuantizer.from_ensemble(curves, num_words=1)
        with pytest.raises(ValueError, match="num_words"):
            BatchQuantizer.from_ensemble(curves, num_words=10_000)


class TestSpecFramework:
    def test_linearity_spec_validation(self):
        with pytest.raises(ValueError):
            LinearitySpec(dnl_limit_lsb=0.0)
        with pytest.raises(ValueError):
            LinearitySpec(error_limit_fraction=-1.0)

    def test_regulation_spec_validation(self):
        with pytest.raises(ValueError):
            RegulationSpec(tolerance_v=0.0)
        with pytest.raises(ValueError):
            RegulationSpec(ripple_limit_v=-0.1)
        with pytest.raises(ValueError):
            RegulationSpec(tail_fraction=0.0)

    def test_linearity_spec_evaluates_ensembles(self):
        conditions = OperatingConditions.typical()
        ensemble = _fabricate("proposed", VariationModel(seed=4), 5)
        calibration = ensemble.lock(conditions)
        curves = ensemble.transfer_curves(conditions, calibration=calibration)
        passes = LinearitySpec().evaluate(calibration, curves)
        assert passes.shape == (5,)
        # A spec no instance can meet fails everyone; the permissive default
        # passes the locked, monotonic typical-corner population.
        assert bool(passes.all())
        impossible = LinearitySpec(error_limit_fraction=1e-9)
        assert not impossible.evaluate(calibration, curves).any()

    def test_regulation_spec_ripple_limit(self):
        steady = np.array([0.9, 0.9, 0.95])
        ripple = np.array([0.001, 0.5, 0.001])
        spec = RegulationSpec(tolerance_v=0.02, ripple_limit_v=0.05)
        np.testing.assert_array_equal(
            spec.passes(steady, ripple, 0.9), [True, False, False]
        )


class TestClosedLoopYield:
    def test_composes_linearity_and_regulation(self):
        result = adaptive_closed_loop_yield(
            "proposed",
            SPEC,
            OperatingConditions.typical(),
            variation=VariationModel(seed=11),
            precision=0.0,
            max_instances=8,
            chunk_size=8,
            periods=120,
            linearity_spec=LinearitySpec(error_limit_fraction=0.06),
            regulation_spec=RegulationSpec(tolerance_v=0.02),
            library=LIBRARY,
        )
        composed = result.estimate
        linearity = result.estimates["linearity"]
        regulation = result.estimates["regulation"]
        assert result.trials == 8
        assert 0.0 <= composed <= 1.0
        # An AND of two pass flags: bounded by each and by their overlap.
        assert composed <= min(linearity, regulation)
        assert composed >= linearity + regulation - 1.0
        assert result.moments["steady_state_v"].count == 8

    def test_unlocked_silicon_fails_the_composed_spec(self):
        # At the slow corner the conventional DLL saturates (fig37): the
        # loops still regulate, but require_lock fails the composed spec.
        result = adaptive_closed_loop_yield(
            "conventional",
            DesignSpec(clock_frequency_mhz=100.0, resolution_bits=6),
            OperatingConditions.slow(),
            variation=VariationModel(seed=11),
            precision=0.0,
            max_instances=16,
            chunk_size=16,
            periods=120,
            library=LIBRARY,
        )
        lock = result.estimates["lock"]
        assert lock < 0.5
        assert result.estimate <= lock
        assert result.estimates["regulation"] > result.estimate


class TestQuantizerFastPath:
    def test_duty_table_fast_path_matches_per_word_extraction(self):
        conditions = OperatingConditions.typical()
        design = design_proposed(SPEC, LIBRARY)
        config = design.build_line(library=LIBRARY).config
        sample = VariationModel(seed=6).sample(
            config.num_cells, config.buffers_per_cell
        )
        line = design.build_line(library=LIBRARY, variation=sample)
        dpwm = CalibratedDelayLineDPWM(line, conditions)
        quantizers = [dpwm, IdealDPWM(bits=6)]
        batch = BatchQuantizer.from_quantizers(quantizers)
        expected = np.zeros((2, max(q.max_word + 1 for q in quantizers)))
        for row, quantizer in enumerate(quantizers):
            count = quantizer.max_word + 1
            expected[row, :count] = [quantizer.duty_fraction(w) for w in range(count)]
        np.testing.assert_array_equal(batch.levels, expected)
        np.testing.assert_array_equal(
            batch.num_words, [q.max_word + 1 for q in quantizers]
        )

    def test_lying_duty_table_rejected(self):
        class Liar:
            max_word = 7

            def duty_table(self):
                return np.zeros(4)

            def duty_fraction(self, word):
                return 0.0

        with pytest.raises(ValueError, match="duty_table"):
            BatchQuantizer.from_quantizers([Liar()])

    def test_ideal_dpwm_duty_table_matches_duty_fraction(self):
        dpwm = IdealDPWM(bits=5)
        table = dpwm.duty_table()
        assert table.shape == (32,)
        for word in range(32):
            assert table[word] == dpwm.duty_fraction(word)
