"""Tests for the statistical sizing analysis (paper future work, section 5.2)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.converter.buck import BuckParameters
from repro.core.design import DesignSpec, design_proposed
from repro.core.yield_analysis import (
    ComponentVariation,
    YieldModel,
    adaptive_closed_loop_yield,
    adaptive_linearity_yield,
    adaptive_regulation_yield,
    cells_for_yield,
    closed_loop_yield,
    coverage_yield,
    linearity_yield,
    yield_curve,
)
from repro.technology.corners import OperatingConditions
from repro.technology.variation import VariationModel


class TestYieldModel:
    def test_sample_shape_and_positivity(self):
        model = YieldModel(seed=1)
        delays = model.sample_chip_buffer_delays(40.0, num_buffers=32, num_chips=10)
        assert delays.shape == (10, 32)
        assert np.all(delays > 0)

    def test_zero_sigma_gives_typical_delay(self):
        model = YieldModel(global_sigma=0.0, mismatch_sigma=0.0)
        delays = model.sample_chip_buffer_delays(40.0, 16, 4)
        assert np.allclose(delays, 40.0)

    def test_global_sigma_spans_the_corner_spread(self):
        # +/- 3 sigma of the default global spread should reach roughly the
        # paper's fast (0.5x) and slow (2x) corners.
        model = YieldModel()
        three_sigma = np.exp(3 * model.global_sigma)
        assert 1.8 < three_sigma < 2.3

    def test_validation(self):
        with pytest.raises(ValueError):
            YieldModel(global_sigma=-0.1)
        model = YieldModel()
        with pytest.raises(ValueError):
            model.sample_chip_buffer_delays(0.0, 1, 1)
        with pytest.raises(ValueError):
            model.sample_chip_buffer_delays(40.0, 0, 1)


class TestCoverageYield:
    def test_worst_case_design_yields_everything(self, spec_100mhz_6bit, library):
        design = design_proposed(spec_100mhz_6bit, library)
        result = coverage_yield(
            num_cells=design.num_cells,
            buffers_per_cell=design.buffers_per_cell,
            clock_period_ps=spec_100mhz_6bit.clock_period_ps,
            num_chips=500,
            library=library,
        )
        assert result > 0.999

    def test_nominal_design_yields_about_half(self, library):
        # A line sized exactly for the typical corner covers the period on
        # roughly half of the chips (the global spread is symmetric in log).
        result = coverage_yield(
            num_cells=125,
            buffers_per_cell=2,
            clock_period_ps=10_000.0,
            num_chips=4000,
            library=library,
        )
        assert 0.35 < result < 0.65

    def test_yield_is_monotonic_in_cell_count(self, library):
        yields = [
            coverage_yield(
                num_cells=cells,
                buffers_per_cell=2,
                clock_period_ps=10_000.0,
                num_chips=1500,
                library=library,
            )
            for cells in (100, 140, 180, 256)
        ]
        assert yields == sorted(yields)
        assert yields[0] < 0.2
        assert yields[-1] > 0.99

    def test_validation(self, library):
        with pytest.raises(ValueError):
            coverage_yield(0, 2, 10_000.0, library=library)
        with pytest.raises(ValueError):
            coverage_yield(10, 2, -1.0, library=library)


class TestYieldCurveAndSizing:
    def test_curve_spans_nominal_to_worst_case(self, spec_100mhz_6bit, library):
        points = yield_curve(
            spec_100mhz_6bit, buffers_per_cell=2, num_chips=800, library=library
        )
        assert points[0].num_cells <= 130
        assert points[-1].num_cells >= 240
        yields = [point.locking_yield for point in points]
        assert yields == sorted(yields)
        areas = [point.line_area_um2 for point in points]
        assert areas == sorted(areas)

    def test_cells_for_yield_trades_area_for_yield(self, spec_100mhz_6bit, library):
        relaxed = cells_for_yield(
            spec_100mhz_6bit,
            buffers_per_cell=2,
            target_yield=0.9,
            num_chips=1500,
            library=library,
        )
        strict = cells_for_yield(
            spec_100mhz_6bit,
            buffers_per_cell=2,
            target_yield=0.999,
            num_chips=1500,
            library=library,
        )
        assert relaxed.num_cells < strict.num_cells
        assert relaxed.locking_yield >= 0.9
        assert strict.locking_yield >= 0.999
        # The statistical sizing saves cells relative to the worst-case 256.
        assert relaxed.num_cells < 256

    def test_cells_for_yield_validation(self, spec_100mhz_6bit, library):
        with pytest.raises(ValueError):
            cells_for_yield(spec_100mhz_6bit, 2, target_yield=0.0, library=library)


class TestComponentVariationSampleInstances:
    """The chunk-stable electrical draw behind the adaptive engines."""

    @given(
        split=st.integers(min_value=1, max_value=15),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=30, deadline=None)
    def test_chunks_tile_the_one_shot_fleet(self, split, seed):
        variation = ComponentVariation(seed=seed)
        nominal = BuckParameters()
        whole = variation.sample_instances(nominal, 16)
        head = variation.sample_instances(nominal, split)
        tail = variation.sample_instances(nominal, 16 - split, first_instance=split)
        for name in (
            "input_voltage_v",
            "inductance_h",
            "capacitance_f",
            "switching_frequency_hz",
            "switch_resistance_ohm",
            "inductor_resistance_ohm",
        ):
            assert np.array_equal(
                getattr(whole, name),
                np.concatenate([getattr(head, name), getattr(tail, name)]),
            ), name

    def test_stream_differs_from_the_fixed_batch_stream(self):
        # sample_batch's one-generator stream and the per-instance streams
        # are different populations of the same distribution -- by design:
        # changing sample_batch would break the fixed-N baselines.
        variation = ComponentVariation(seed=7)
        nominal = BuckParameters()
        batch = variation.sample_batch(nominal, 8)
        instances = variation.sample_instances(nominal, 8)
        assert not np.array_equal(batch.inductance_h, instances.inductance_h)
        assert not np.array_equal(batch.input_voltage_v, instances.input_voltage_v)

    def test_decorrelated_from_silicon_variation_streams(self):
        # The same seed drives both the silicon mismatch and the component
        # spread in a closed-loop cell; the stream tag must keep the first
        # draws of each from being bit-equal copies of one another.
        from repro.technology.variation import VariationModel

        seed = 11
        silicon = VariationModel(seed=seed).sample(4, 2, instance=0).multipliers
        components = ComponentVariation(seed=seed).sample_instances(
            BuckParameters(), 1
        )
        assert not np.isclose(
            float(silicon[0, 0]),
            float(components.input_voltage_v[0] / BuckParameters().input_voltage_v),
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            ComponentVariation().sample_instances(BuckParameters(), 0)


class TestAdaptiveLinearityYield:
    def test_high_yield_cell_stops_early_and_brackets_the_fixed_estimate(
        self, spec_100mhz_6bit, library
    ):
        conditions = OperatingConditions.fast()
        variation = VariationModel(random_sigma=0.04, gradient_peak=0.015, seed=5)
        adaptive = adaptive_linearity_yield(
            "proposed",
            spec_100mhz_6bit,
            conditions,
            variation=variation,
            precision=0.02,
            max_instances=1000,
            error_limit_fraction=0.045,
            library=library,
        )
        assert adaptive.stop_reason == "precision"
        assert adaptive.samples < 250  # >= 4x below the fixed 1000 budget
        assert adaptive.half_width <= 0.02
        fixed = linearity_yield(
            "proposed",
            spec_100mhz_6bit,
            conditions,
            variation=variation,
            num_instances=adaptive.samples,
            error_limit_fraction=0.045,
            library=library,
        )
        # Same per-instance streams: the adaptive run IS the first
        # `samples` instances of the fixed run.
        assert adaptive.yield_estimate == fixed.linearity_yield
        assert adaptive.spec_yields["lock"] == fixed.lock_yield

    @given(chunk_size=st.integers(min_value=7, max_value=96))
    @settings(max_examples=8, deadline=None)
    def test_chunk_size_never_changes_the_estimate(
        self, chunk_size, spec_100mhz_6bit, library
    ):
        kwargs = dict(
            spec=spec_100mhz_6bit,
            conditions=OperatingConditions.fast(),
            variation=VariationModel(seed=3),
            precision=0.0,  # disable early stopping: always run to the cap
            max_instances=96,
            error_limit_fraction=0.045,
            library=library,
        )
        reference = adaptive_linearity_yield(
            "proposed", chunk_size=96, **kwargs
        )
        chunked = adaptive_linearity_yield(
            "proposed", chunk_size=chunk_size, **kwargs
        )
        assert chunked.samples == reference.samples == 96
        assert chunked.yield_estimate == reference.yield_estimate
        assert chunked.spec_yields == reference.spec_yields
        for name, stats in reference.value_stats.items():
            assert chunked.value_stats[name]["min"] == stats["min"]
            assert chunked.value_stats[name]["max"] == stats["max"]
            assert chunked.value_stats[name]["mean"] == pytest.approx(
                stats["mean"], rel=1e-12
            )

    def test_collapsed_cell_exhausts_its_cap(self, spec_100mhz_6bit, library):
        # The conventional slow-corner lock collapse: yield pinned near 0,
        # but a sliver of locking instances keeps the CI from collapsing
        # faster than the precision target.
        adaptive = adaptive_linearity_yield(
            "conventional",
            spec_100mhz_6bit,
            OperatingConditions.slow(),
            variation=VariationModel(seed=3),
            precision=0.001,
            max_instances=192,
            chunk_size=64,
            library=library,
        )
        assert adaptive.stop_reason == "max_samples"
        assert adaptive.samples == 192
        assert adaptive.yield_estimate < 0.2


class TestAdaptiveClosedLoopYield:
    def test_composed_specs_and_streaming_amplitudes(self, library):
        spec = DesignSpec(clock_frequency_mhz=100.0, resolution_bits=5)
        adaptive = adaptive_closed_loop_yield(
            "proposed",
            spec,
            OperatingConditions.typical(),
            variation=VariationModel(seed=9),
            component_variation=ComponentVariation(seed=9),
            precision=0.05,
            max_instances=128,
            chunk_size=32,
            periods=150,
            library=library,
        )
        assert set(adaptive.spec_yields) == {
            "closed_loop",
            "linearity",
            "regulation",
            "lock",
        }
        # The composed yield can never beat its component specs.
        assert adaptive.yield_estimate <= adaptive.spec_yields["linearity"]
        assert adaptive.yield_estimate <= adaptive.spec_yields["regulation"]
        amplitude = adaptive.value_stats["limit_cycle_amplitude_v"]
        assert 0.0 <= amplitude["min"] <= amplitude["mean"] <= amplitude["max"]
        assert amplitude["count"] == adaptive.samples

    def test_chunked_equals_one_shot(self, library):
        spec = DesignSpec(clock_frequency_mhz=100.0, resolution_bits=5)
        kwargs = dict(
            conditions=OperatingConditions.typical(),
            variation=VariationModel(seed=2),
            component_variation=ComponentVariation(seed=2),
            precision=0.0,
            max_instances=48,
            periods=120,
            library=library,
        )
        one_shot = adaptive_closed_loop_yield(
            "proposed", spec, chunk_size=48, **kwargs
        )
        chunked = adaptive_closed_loop_yield(
            "proposed", spec, chunk_size=13, **kwargs
        )
        assert chunked.yield_estimate == one_shot.yield_estimate
        assert chunked.spec_yields == one_shot.spec_yields
        assert chunked.value_stats["error_v"]["max"] == (
            one_shot.value_stats["error_v"]["max"]
        )


class TestClosedLoopYieldSharding:
    SPEC = DesignSpec(clock_frequency_mhz=100.0, resolution_bits=5)

    def test_component_draw_cannot_be_sharded(self, library):
        """sample_batch ignores first_instance, so every shard would reuse
        shard 0's component spreads; the fixed-N path refuses instead."""
        with pytest.raises(
            ValueError, match=r"first_instance=4 .*adaptive_closed_loop_yield"
        ):
            closed_loop_yield(
                "proposed",
                self.SPEC,
                OperatingConditions.typical(),
                variation=VariationModel(seed=5),
                component_variation=ComponentVariation(seed=5),
                num_instances=4,
                periods=40,
                library=library,
                first_instance=4,
            )

    def test_silicon_only_shards_tile_the_population(self, library):
        def run(num_instances, first_instance):
            return closed_loop_yield(
                "proposed",
                self.SPEC,
                OperatingConditions.typical(),
                variation=VariationModel(seed=5),
                num_instances=num_instances,
                periods=40,
                library=library,
                first_instance=first_instance,
            )

        whole = run(8, 0)
        shards = [run(4, 0), run(4, 4)]
        np.testing.assert_array_equal(
            np.concatenate([shard.steady_state_voltages_v for shard in shards]),
            whole.steady_state_voltages_v,
        )
        np.testing.assert_array_equal(
            np.concatenate([shard.passes for shard in shards]), whole.passes
        )


class TestAdaptiveRegulationYield:
    def test_matches_regulation_spec_semantics(self):
        adaptive = adaptive_regulation_yield(
            BuckParameters(),
            reference_v=0.9,
            variation=ComponentVariation(seed=4),
            precision=0.05,
            max_instances=128,
            chunk_size=32,
            periods=150,
        )
        assert adaptive.scheme is None
        assert 0.0 <= adaptive.yield_estimate <= 1.0
        assert adaptive.lower <= adaptive.yield_estimate <= adaptive.upper
        assert adaptive.value_stats["error_v"]["max"] >= 0.0

    def test_result_is_json_scalar_only(self):
        # The sweep cache stores cell payloads as canonical JSON; the
        # adaptive result must survive the round trip unchanged.
        import dataclasses
        import json

        adaptive = adaptive_regulation_yield(
            BuckParameters(),
            reference_v=0.9,
            variation=ComponentVariation(seed=4),
            precision=0.2,
            max_instances=32,
            chunk_size=32,
            periods=100,
        )
        canonical = json.loads(json.dumps(dataclasses.asdict(adaptive)))
        assert json.loads(json.dumps(canonical)) == canonical
