"""Tests for the statistical sizing analysis (paper future work, section 5.2)."""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.analysis.metrics
import repro.mc
from repro.analysis.metrics import (
    differential_nonlinearity,
    distinct_level_counts,
    integral_nonlinearity,
    is_monotonic,
)
from repro.converter.buck import BuckParameters
from repro.core.design import DesignSpec, design_proposed
from repro.core.ensemble import EnsembleCalibration, EnsembleTransferCurves
from repro.core.yield_analysis import (
    ComponentVariation,
    LinearitySpec,
    MissionSpec,
    RegulationSpec,
    YieldModel,
    adaptive_closed_loop_yield,
    adaptive_linearity_yield,
    adaptive_regulation_yield,
    cells_for_yield,
    coverage_yield,
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

    @given(
        num_variants=st.integers(min_value=1, max_value=24),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=30, deadline=None)
    def test_sample_batch_is_the_instance_stream(self, num_variants, seed):
        # One population per seed: the whole-fleet draw is instances
        # [0, n) of the per-instance streams, bit for bit.
        variation = ComponentVariation(seed=seed)
        nominal = BuckParameters()
        batch = variation.sample_batch(nominal, num_variants)
        instances = variation.sample_instances(nominal, num_variants)
        for name in (
            "input_voltage_v",
            "inductance_h",
            "capacitance_f",
            "switching_frequency_hz",
            "switch_resistance_ohm",
            "inductor_resistance_ohm",
        ):
            assert np.array_equal(
                getattr(batch, name), getattr(instances, name)
            ), name

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


#: Every spread and limit a spec or variation model checks on construction.
NON_FINITE_FIELDS = [
    (ComponentVariation, "inductance_sigma"),
    (ComponentVariation, "capacitance_sigma"),
    (ComponentVariation, "resistance_sigma"),
    (ComponentVariation, "input_voltage_sigma"),
    (VariationModel, "random_sigma"),
    (VariationModel, "gradient_peak"),
    (RegulationSpec, "tolerance_v"),
    (RegulationSpec, "ripple_limit_v"),
    (LinearitySpec, "dnl_limit_lsb"),
    (LinearitySpec, "inl_limit_lsb"),
    (LinearitySpec, "error_limit_fraction"),
    (MissionSpec, "tolerance_v"),
    (MissionSpec, "dip_limit_v"),
    (MissionSpec, "ripple_limit_v"),
]


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "cls, name",
    NON_FINITE_FIELDS,
    ids=[f"{cls.__name__}.{name}" for cls, name in NON_FINITE_FIELDS],
)
def test_non_finite_spreads_and_limits_are_rejected(cls, name, value):
    # A NaN spread used to draw NaN parameters, and a NaN limit to fail
    # (or an infinite one to pass) every instance, without a word.
    with pytest.raises(ValueError, match=name):
        cls(**{name: value})


def _synthetic_fleet() -> tuple[EnsembleCalibration, EnsembleTransferCurves]:
    """Forty curves of 32 words: some non-monotonic, some unlocked."""
    rng = np.random.default_rng(2012)
    steps = rng.uniform(0.2, 2.0, size=(40, 32))
    steps[rng.uniform(size=40) < 0.3, 10] = -0.5
    delays = np.cumsum(steps, axis=1)
    words = np.arange(1, 33)
    locked = rng.uniform(size=40) < 0.8
    calibration = EnsembleCalibration(
        scheme="proposed",
        control_state=np.full(40, 16),
        locked=locked,
        lock_cycles=np.full(40, 18),
        locked_delay_ps=delays[:, 15],
        target_ps=16.0,
    )
    curves = EnsembleTransferCurves(
        scheme="proposed",
        input_words=words,
        delays_ps=delays,
        ideal_delays_ps=words * 1.0,
        clock_period_ps=32.0,
    )
    return calibration, curves


def _eager_metrics(delays: np.ndarray) -> SimpleNamespace:
    """Every batch metric, computed up front from the metric functions."""
    dnl = differential_nonlinearity(delays)
    inl = integral_nonlinearity(delays)
    return SimpleNamespace(
        max_dnl_lsb=np.max(np.abs(dnl), axis=-1),
        max_inl_lsb=np.max(np.abs(inl), axis=-1),
        rms_inl_lsb=np.sqrt(np.mean(inl**2, axis=-1)),
        monotonic=is_monotonic(delays),
        distinct_levels=distinct_level_counts(delays),
    )


#: A limit as a quantile of its metric over the synthetic fleet (so every
#: drawn limit splits the fleet), or ``None`` for an unchecked limit.
quantiles = st.none() | st.floats(min_value=0.0, max_value=1.0)


class TestLazyLinearityScoring:
    @settings(max_examples=60, deadline=None)
    @given(
        dnl=quantiles,
        inl=quantiles,
        error=quantiles,
        require_monotonic=st.booleans(),
        require_lock=st.booleans(),
    )
    def test_evaluate_equals_eager_passes(
        self, dnl, inl, error, require_monotonic, require_lock
    ):
        calibration, curves = _synthetic_fleet()
        eager = _eager_metrics(curves.delays_ps)
        errors = curves.max_error_fraction_of_period()

        def limit(quantile, metric):
            return None if quantile is None else float(np.quantile(metric, quantile))

        spec = LinearitySpec(
            dnl_limit_lsb=limit(dnl, eager.max_dnl_lsb),
            inl_limit_lsb=limit(inl, eager.max_inl_lsb),
            error_limit_fraction=limit(error, errors),
            require_monotonic=require_monotonic,
            require_lock=require_lock,
        )
        expected = spec.passes(eager, calibration.locked, errors)
        np.testing.assert_array_equal(spec.evaluate(calibration, curves), expected)
        lazy = curves.metrics()
        for name in vars(eager):
            np.testing.assert_array_equal(getattr(lazy, name), getattr(eager, name))

    @settings(max_examples=20, deadline=None)
    @given(
        error=quantiles,
        require_monotonic=st.booleans(),
        require_lock=st.booleans(),
    )
    def test_unread_metrics_are_never_computed(
        self, error, require_monotonic, require_lock
    ):
        calibration, curves = _synthetic_fleet()
        errors = curves.max_error_fraction_of_period()
        spec = LinearitySpec(
            error_limit_fraction=(
                None if error is None else float(np.quantile(errors, error))
            ),
            require_monotonic=require_monotonic,
            require_lock=require_lock,
        )

        def unexpected(*args, **kwargs):
            raise AssertionError("computed a metric the spec does not read")

        with pytest.MonkeyPatch.context() as patch:
            for name in (
                "differential_nonlinearity",
                "integral_nonlinearity",
                "distinct_level_counts",
            ):
                patch.setattr(repro.analysis.metrics, name, unexpected)
            passes = spec.evaluate(calibration, curves)
        expected = spec.passes(
            _eager_metrics(curves.delays_ps), calibration.locked, errors
        )
        np.testing.assert_array_equal(passes, expected)


class TestAdaptiveLinearityYield:
    def test_high_yield_cell_stops_early_and_brackets_the_fixed_estimate(
        self, spec_100mhz_6bit, library
    ):
        kwargs = dict(
            spec=spec_100mhz_6bit,
            conditions=OperatingConditions.fast(),
            variation=VariationModel(
                random_sigma=0.04, gradient_peak=0.015, seed=5
            ),
            linearity_spec=LinearitySpec(error_limit_fraction=0.045),
            library=library,
        )
        adaptive = adaptive_linearity_yield(
            "proposed", precision=0.02, max_instances=1000, **kwargs
        )
        assert adaptive.stop_reason == "precision"
        assert adaptive.trials < 250  # >= 4x below the fixed 1000 budget
        assert adaptive.interval.half_width <= 0.02
        fixed = adaptive_linearity_yield(
            "proposed",
            precision=0.0,
            max_instances=adaptive.trials,
            chunk_size=adaptive.trials,
            **kwargs,
        )
        # Same per-instance streams: the adaptive run IS a fixed budget of
        # its first `trials` instances.
        assert fixed.stop_reason == "max_samples"
        assert adaptive.estimate == fixed.estimate
        assert adaptive.estimates["lock"] == fixed.estimates["lock"]

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
        assert adaptive.trials == 192
        assert adaptive.estimate < 0.2


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
        assert set(adaptive.estimates) == {
            "closed_loop",
            "linearity",
            "regulation",
            "lock",
        }
        # The composed yield can never beat its component specs.
        assert adaptive.estimate <= adaptive.estimates["linearity"]
        assert adaptive.estimate <= adaptive.estimates["regulation"]
        amplitude = adaptive.moments["limit_cycle_amplitude_v"]
        assert 0.0 <= amplitude.minimum <= amplitude.mean <= amplitude.maximum
        assert amplitude.count == adaptive.trials


def _linearity_run(library, **budget):
    return adaptive_linearity_yield(
        "proposed",
        DesignSpec(clock_frequency_mhz=100.0, resolution_bits=6),
        OperatingConditions.fast(),
        variation=VariationModel(seed=3),
        linearity_spec=LinearitySpec(error_limit_fraction=0.045),
        library=library,
        **budget,
    )


def _closed_loop_run(library, **budget):
    return adaptive_closed_loop_yield(
        "proposed",
        DesignSpec(clock_frequency_mhz=100.0, resolution_bits=5),
        OperatingConditions.typical(),
        variation=VariationModel(seed=2),
        component_variation=ComponentVariation(seed=2),
        periods=120,
        library=library,
        **budget,
    )


def _regulation_run(library, **budget):
    return adaptive_regulation_yield(
        BuckParameters(),
        reference_v=0.9,
        variation=ComponentVariation(seed=4),
        periods=150,
        **budget,
    )


class TestChunkInvariance:
    """A fixed budget is one chunk at ``precision=0``; chunking never moves it."""

    @pytest.mark.parametrize(
        "run, budget",
        [
            (_linearity_run, 96),
            (_closed_loop_run, 48),
            (_regulation_run, 48),
        ],
        ids=["linearity", "closed_loop", "regulation"],
    )
    def test_one_chunk_equals_chunk_7(self, run, budget, library, monkeypatch):
        one_chunk = run(
            library, precision=0.0, max_instances=budget, chunk_size=budget
        )
        # A lane target of one makes every 7-instance chunk its own draw,
        # so the real scorers see the chunk boundaries.
        monkeypatch.setattr(repro.mc, "_LANE_TARGET", 1)
        chunked = run(library, precision=0.0, max_instances=budget, chunk_size=7)
        assert chunked.trials == one_chunk.trials == budget
        assert chunked.stop_reason == one_chunk.stop_reason == "max_samples"
        assert chunked.estimate == one_chunk.estimate
        assert chunked.interval == one_chunk.interval
        assert chunked.estimates == one_chunk.estimates
        assert chunked.intervals == one_chunk.intervals
        for name, stats in one_chunk.moments.items():
            assert chunked.moments[name].count == budget
            assert chunked.moments[name].minimum == stats.minimum
            assert chunked.moments[name].maximum == stats.maximum
            assert chunked.moments[name].mean == pytest.approx(
                stats.mean, rel=1e-12
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
        assert adaptive.primary == "regulation"
        assert 0.0 <= adaptive.estimate <= 1.0
        assert (
            adaptive.interval.lower
            <= adaptive.estimate
            <= adaptive.interval.upper
        )
        assert adaptive.moments["error_v"].maximum >= 0.0

    def test_interval_summary_is_json_scalar_only(self):
        # The sweep cache stores cell payloads as canonical JSON; the
        # interval summary every adaptive payload carries must survive the
        # round trip unchanged, keys in payload order.
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
        summary = adaptive.interval_summary()
        assert list(summary) == [
            "ci_lower", "ci_upper", "confidence", "samples", "stop_reason"
        ]
        assert json.loads(json.dumps(summary)) == summary
        assert summary["samples"] == adaptive.trials
        assert summary["confidence"] == 0.95
