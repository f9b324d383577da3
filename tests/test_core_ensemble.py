"""Tests for the vectorized delay-line ensemble engine.

The load-bearing property: everything the ensemble computes in one batch --
per-cell delays, closed-form locks, transfer curves -- must agree with the
scalar models run instance by instance, including the cycle-accurate
controllers (`ProposedController` / `ShiftRegisterController`) the batch
locks replace with fixed-point formulas.  The scalar transfer curves used as
references below are rebuilt with the seed-style per-word loops, not with
`transfer_curve` (which is itself a thin view of the ensemble engine now).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import batch_linearity_metrics, linearity_metrics
from repro.core.conventional import (
    ConventionalDelayLine,
    ConventionalDelayLineConfig,
    ShiftRegisterController,
    TuningOrder,
)
from repro.core.design import DesignSpec, design_conventional, design_proposed
from repro.core.ensemble import ConventionalEnsemble, ProposedEnsemble
from repro.core.linearity import transfer_curve
from repro.core.proposed import (
    ProposedController,
    ProposedDelayLine,
    ProposedDelayLineConfig,
)
from repro.core.yield_analysis import LinearitySpec, adaptive_linearity_yield
from repro.pipeline import ChunkedFabricator
from repro.technology.corners import OperatingConditions, ProcessCorner
from repro.technology.library import intel32_like_library
from repro.technology.variation import BatchVariationSample, VariationModel

LIBRARY = intel32_like_library()

corners = st.sampled_from(list(ProcessCorner))
frequencies = st.sampled_from([50.0, 100.0, 200.0])
seeds = st.integers(min_value=0, max_value=2**16)


def scalar_proposed_curve(line: ProposedDelayLine, tap_sel, conditions):
    """Seed-style per-word reference curve for the proposed scheme."""
    words = np.arange(1, line.mapper.max_word + 1)
    return np.array(
        [line.output_delay_ps(int(word), int(tap_sel), conditions) for word in words]
    )


def scalar_conventional_curve(line: ConventionalDelayLine, steps, conditions):
    """Seed-style reference curve for the conventional scheme."""
    levels = line.levels_for_steps(int(steps))
    taps = line.tap_delays_ps(levels, conditions)
    words = np.arange(1, line.config.num_cells)
    return np.asarray(taps[words - 1], dtype=float)


class TestBatchVariationSample:
    def test_sample_batch_matches_stacked_scalar_samples(self):
        model = VariationModel(random_sigma=0.05, gradient_peak=0.01, seed=11)
        batch = model.sample_batch(4, 16, 3, first_instance=7)
        assert batch.multipliers.shape == (4, 16, 3)
        gradient = model.gradient_peak * np.cos(np.pi * np.linspace(0.0, 1.0, 16))
        for i in range(4):
            scalar = model.sample(16, 3, instance=7 + i)
            np.testing.assert_array_equal(
                batch.instance(i).multipliers, scalar.multipliers
            )
            # Independent reference: instance i's own default_rng stream.
            rng = np.random.default_rng((model.seed, 7 + i))
            reference = np.clip(
                1.0
                + rng.normal(0.0, model.random_sigma, size=(16, 3))
                + gradient[:, np.newaxis],
                0.2,
                None,
            )
            np.testing.assert_array_equal(batch.instance(i).multipliers, reference)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            BatchVariationSample(multipliers=np.ones((4, 16)))
        with pytest.raises(ValueError):
            VariationModel().sample_batch(0, 16, 2)


class TestProposedEnsembleEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(frequency=frequencies, corner=corners, seed=seeds)
    def test_lock_and_curves_match_scalar(self, frequency, corner, seed):
        conditions = OperatingConditions(corner=corner)
        design = design_proposed(DesignSpec(frequency, 5), LIBRARY)
        config = design.build_line(library=LIBRARY).config
        model = VariationModel(random_sigma=0.05, gradient_peak=0.01, seed=seed)
        ensemble = ProposedEnsemble.sample(config, 3, model, library=LIBRARY)

        calibration = ensemble.lock(conditions)
        curves = ensemble.transfer_curves(conditions, calibration=calibration)
        for i in range(3):
            line = design.build_line(
                library=LIBRARY, variation=ensemble.batch.instance(i)
            )
            scalar = ProposedController(line).lock(conditions)
            assert int(calibration.control_state[i]) == scalar.control_state
            assert bool(calibration.locked[i]) == scalar.locked
            assert int(calibration.lock_cycles[i]) == scalar.lock_cycles
            assert calibration.locked_delay_ps[i] == pytest.approx(
                scalar.locked_delay_ps, abs=1e-9
            )
            reference = scalar_proposed_curve(line, scalar.control_state, conditions)
            assert np.max(np.abs(curves.delays_ps[i] - reference)) < 1e-6

    @settings(max_examples=15, deadline=None)
    @given(
        num_cells=st.sampled_from([4, 8, 16]),
        buffers=st.integers(min_value=1, max_value=3),
        period_scale=st.floats(min_value=0.01, max_value=20.0),
        seed=seeds,
    )
    def test_saturated_and_no_lock_edges_match_scalar(
        self, num_cells, buffers, period_scale, seed
    ):
        # Deliberately mis-sized lines: the clock period ranges from far too
        # short (the first tap already exceeds the half period -> bottom
        # saturation) to far too long (the whole line cannot bracket it ->
        # top saturation).  Both controllers must agree that no lock exists.
        typical_total = num_cells * buffers * 40.0
        config = ProposedDelayLineConfig(
            num_cells=num_cells,
            buffers_per_cell=buffers,
            clock_period_ps=period_scale * typical_total,
        )
        model = VariationModel(random_sigma=0.08, gradient_peak=0.02, seed=seed)
        ensemble = ProposedEnsemble.sample(config, 2, model, library=LIBRARY)
        conditions = OperatingConditions.typical()
        calibration = ensemble.lock(conditions)
        for i in range(2):
            line = ProposedDelayLine(
                config, library=LIBRARY, variation=ensemble.batch.instance(i)
            )
            scalar = ProposedController(line).lock(conditions)
            assert int(calibration.control_state[i]) == scalar.control_state
            assert bool(calibration.locked[i]) == scalar.locked
            assert int(calibration.lock_cycles[i]) == scalar.lock_cycles

    def test_ideal_ensemble_replicates_nominal_line(self):
        config = design_proposed(DesignSpec(100.0, 6), LIBRARY).build_line().config
        ensemble = ProposedEnsemble(config, library=LIBRARY, num_instances=3)
        conditions = OperatingConditions.typical()
        taps = ensemble.tap_delays_ps(conditions)
        line = ProposedDelayLine(config, library=LIBRARY)
        np.testing.assert_array_equal(taps[0], line.tap_delays_ps(conditions))
        np.testing.assert_array_equal(taps[0], taps[1])

    def test_transfer_curve_is_a_view_of_the_ensemble(self, proposed_line):
        conditions = OperatingConditions.typical()
        scalar_view = transfer_curve(proposed_line, conditions)
        ensemble = ProposedEnsemble.from_line(proposed_line)
        batch = ensemble.transfer_curves(conditions)
        np.testing.assert_array_equal(scalar_view.delays_ps, batch.delays_ps[0])
        np.testing.assert_array_equal(scalar_view.input_words, batch.input_words)

    def test_tap_sel_validation(self):
        config = design_proposed(DesignSpec(100.0, 5), LIBRARY).build_line().config
        ensemble = ProposedEnsemble(config, library=LIBRARY, num_instances=2)
        conditions = OperatingConditions.typical()
        with pytest.raises(ValueError, match="tap_sel"):
            ensemble.transfer_curves(conditions, tap_sel=np.array([0, 1]))
        with pytest.raises(ValueError):
            ensemble.transfer_curves(conditions, tap_sel=np.array([1]))

    def test_batch_shape_validation(self):
        config = design_proposed(DesignSpec(100.0, 5), LIBRARY).build_line().config
        batch = VariationModel(seed=3).sample_batch(2, 8, 2)
        with pytest.raises(ValueError, match="does not match"):
            ProposedEnsemble(config, library=LIBRARY, batch=batch)
        good = VariationModel(seed=3).sample_batch(
            2, config.num_cells, config.buffers_per_cell
        )
        with pytest.raises(ValueError, match="conflicts"):
            ProposedEnsemble(config, library=LIBRARY, batch=good, num_instances=5)


class TestConventionalEnsembleEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(
        frequency=frequencies,
        corner=corners,
        order=st.sampled_from(list(TuningOrder)),
        seed=seeds,
    )
    def test_lock_and_curves_match_scalar(self, frequency, corner, order, seed):
        conditions = OperatingConditions(corner=corner)
        design = design_conventional(DesignSpec(frequency, 5), LIBRARY)
        config = design.build_line(library=LIBRARY, tuning_order=order).config
        model = VariationModel(random_sigma=0.05, gradient_peak=0.01, seed=seed)
        ensemble = ConventionalEnsemble.sample(config, 3, model, library=LIBRARY)

        calibration = ensemble.lock(conditions)
        curves = ensemble.transfer_curves(conditions, calibration=calibration)
        for i in range(3):
            line = design.build_line(
                library=LIBRARY,
                tuning_order=order,
                variation=ensemble.batch.instance(i),
            )
            scalar = ShiftRegisterController(line).lock(conditions)
            assert int(calibration.control_state[i]) == scalar.control_state
            assert bool(calibration.locked[i]) == scalar.locked
            assert int(calibration.lock_cycles[i]) == scalar.lock_cycles
            assert calibration.locked_delay_ps[i] == pytest.approx(
                scalar.locked_delay_ps, abs=1e-9
            )
            reference = scalar_conventional_curve(
                line, scalar.control_state, conditions
            )
            assert np.max(np.abs(curves.delays_ps[i] - reference)) < 1e-6

    @settings(max_examples=10, deadline=None)
    @given(period_scale=st.floats(min_value=0.05, max_value=10.0), seed=seeds)
    def test_saturation_edges_match_scalar(self, period_scale, seed):
        # Short periods make the line over-long from step 0 (the slow-corner
        # failure of paper fig37); long periods exhaust the shift register
        # (up_limit).  The batch first-crossing must stop exactly where the
        # scalar controller does in both cases.
        config = ConventionalDelayLineConfig(
            num_cells=8,
            branches=3,
            buffers_per_element=2,
            clock_period_ps=period_scale * 8 * 2 * 40.0,
            tuning_order=TuningOrder.ROUND_ROBIN,
        )
        model = VariationModel(random_sigma=0.08, gradient_peak=0.02, seed=seed)
        ensemble = ConventionalEnsemble.sample(config, 2, model, library=LIBRARY)
        conditions = OperatingConditions.typical()
        calibration = ensemble.lock(conditions)
        for i in range(2):
            line = ConventionalDelayLine(
                config, library=LIBRARY, variation=ensemble.batch.instance(i)
            )
            scalar = ShiftRegisterController(line).lock(conditions)
            assert int(calibration.control_state[i]) == scalar.control_state
            assert bool(calibration.locked[i]) == scalar.locked
            assert int(calibration.lock_cycles[i]) == scalar.lock_cycles

    @pytest.mark.parametrize("order", list(TuningOrder), ids=lambda o: o.value)
    def test_levels_schedule_matches_scalar_bookkeeping(self, order):
        config = ConventionalDelayLineConfig(
            num_cells=8,
            branches=4,
            buffers_per_element=1,
            clock_period_ps=3000.0,
            tuning_order=order,
        )
        ensemble = ConventionalEnsemble(config, library=LIBRARY)
        line = ConventionalDelayLine(config, library=LIBRARY)
        schedule = ensemble.levels_schedule()
        assert schedule.shape == (config.max_adjustment_steps + 1, 8)
        for steps in range(config.max_adjustment_steps + 1):
            np.testing.assert_array_equal(
                schedule[steps], line.levels_for_steps(steps)
            )
        # One read-only copy per configuration, shared by its ensembles.
        other = ConventionalEnsemble(config, library=LIBRARY, num_instances=3)
        assert other.levels_schedule() is schedule
        assert not schedule.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            schedule[0, 0] = 1

    def test_oversized_variation_sample_accepted_like_the_scalar_line(self):
        # The scalar line accepts samples wider than the longest branch
        # (extra buffers are never active); the ensemble view must too.
        config = ConventionalDelayLineConfig(
            num_cells=8, branches=3, buffers_per_element=2, clock_period_ps=3000.0
        )
        sample = VariationModel(seed=13).sample(num_cells=8, buffers_per_cell=10)
        line = ConventionalDelayLine(config, library=LIBRARY, variation=sample)
        conditions = OperatingConditions.typical()
        curve = transfer_curve(line, conditions)  # seed behaviour: no raise
        levels = line.levels_for_steps(
            ShiftRegisterController(line).lock(conditions).control_state
        )
        taps = line.tap_delays_ps(levels, conditions)
        np.testing.assert_array_equal(curve.delays_ps, taps[:-1])

    def test_levels_validation(self):
        config = ConventionalDelayLineConfig(
            num_cells=8, branches=3, buffers_per_element=1, clock_period_ps=3000.0
        )
        ensemble = ConventionalEnsemble(config, library=LIBRARY, num_instances=2)
        conditions = OperatingConditions.typical()
        with pytest.raises(ValueError):
            ensemble.cell_delays_ps(np.zeros((3, 8), dtype=int), conditions)
        bad = np.zeros(8, dtype=int)
        bad[0] = 3
        with pytest.raises(ValueError, match="out of range"):
            ensemble.cell_delays_ps(bad, conditions)


def _fleet(scheme: str):
    """A mismatched 5-bit, 100 MHz fleet of eight instances of either scheme."""
    spec = DesignSpec(100.0, 5)
    model = VariationModel(random_sigma=0.05, gradient_peak=0.01, seed=21)
    if scheme == "proposed":
        config = design_proposed(spec, LIBRARY).build_line(library=LIBRARY).config
        return ProposedEnsemble.sample(config, 8, model, library=LIBRARY)
    config = design_conventional(spec, LIBRARY).build_line(library=LIBRARY).config
    return ConventionalEnsemble.sample(config, 8, model, library=LIBRARY)


#: The buffer-axis reduction of each scheme, as ``repro.core.ensemble``
#: looks it up: the proposed cell sums, the conventional prefix sums.
REDUCTIONS = {
    "proposed": "cell_delays_from_multipliers",
    "conventional": "branch_prefix_sums",
}


class TestSharedCalibration:
    @pytest.mark.parametrize("corner", list(ProcessCorner), ids=lambda c: c.name)
    @pytest.mark.parametrize("scheme", ["proposed", "conventional"])
    def test_calibrate_equals_lock_then_curves(self, scheme, corner):
        conditions = OperatingConditions(corner=corner)
        ensemble = _fleet(scheme)
        calibration, curves = ensemble.calibrate(conditions)
        plain_calibration = ensemble.lock(conditions)
        plain_curves = ensemble.transfer_curves(
            conditions, calibration=plain_calibration
        )
        for name in ("control_state", "locked", "lock_cycles", "locked_delay_ps"):
            np.testing.assert_array_equal(
                getattr(calibration, name), getattr(plain_calibration, name)
            )
        assert calibration.target_ps == plain_calibration.target_ps
        np.testing.assert_array_equal(curves.delays_ps, plain_curves.delays_ps)
        np.testing.assert_array_equal(curves.input_words, plain_curves.input_words)
        np.testing.assert_array_equal(
            curves.ideal_delays_ps, plain_curves.ideal_delays_ps
        )

    @pytest.mark.parametrize("scheme", ["proposed", "conventional"])
    def test_one_buffer_axis_reduction_per_calibration(self, scheme, monkeypatch):
        import repro.core.ensemble as module

        calls = []
        reduction = getattr(module, REDUCTIONS[scheme])

        def counted(*args, **kwargs):
            calls.append(1)
            return reduction(*args, **kwargs)

        monkeypatch.setattr(module, REDUCTIONS[scheme], counted)
        ensemble = _fleet(scheme)
        conditions = OperatingConditions.typical()
        ensemble.calibrate(conditions)
        assert len(calls) == 1
        # A bare lock and a bare curve sweep each build their own.
        calibration = ensemble.lock(conditions)
        ensemble.transfer_curves(conditions, calibration=calibration)
        assert len(calls) == 3


class TestBatchMetrics:
    def test_batch_metrics_match_scalar_rows(self):
        rng = np.random.default_rng(5)
        curves = np.cumsum(rng.uniform(0.5, 1.5, size=(6, 40)), axis=1)
        curves[2, 10] = curves[2, 9] - 0.1  # one non-monotonic row
        batch = batch_linearity_metrics(curves)
        for i in range(6):
            scalar = linearity_metrics(curves[i])
            assert batch.max_dnl_lsb[i] == pytest.approx(scalar.max_dnl_lsb)
            assert batch.max_inl_lsb[i] == pytest.approx(scalar.max_inl_lsb)
            assert batch.rms_inl_lsb[i] == pytest.approx(scalar.rms_inl_lsb)
            assert bool(batch.monotonic[i]) == scalar.monotonic
            assert int(batch.distinct_levels[i]) == scalar.distinct_levels
            assert batch.instance(i) == scalar

    def test_linearity_metrics_rejects_batches(self):
        with pytest.raises(ValueError, match="one curve"):
            linearity_metrics(np.ones((2, 5)))

    def test_degenerate_batch_rejected(self):
        flat = np.ones((2, 5))
        with pytest.raises(ValueError, match="degenerate"):
            batch_linearity_metrics(flat)


class TestLinearityYield:
    def test_fixed_budget_scores_the_fabricated_population(self):
        spec = DesignSpec(100.0, 5)
        conditions = OperatingConditions.typical()
        variation = VariationModel(seed=9)
        result = adaptive_linearity_yield(
            scheme="proposed",
            spec=spec,
            conditions=conditions,
            variation=variation,
            precision=0.0,
            max_instances=32,
            chunk_size=32,
            linearity_spec=LinearitySpec(error_limit_fraction=0.05),
            library=LIBRARY,
        )
        assert result.trials == 32
        assert 0.0 <= result.estimate <= 1.0
        # The estimate is the pass fraction of the same 32 instances,
        # scored by hand against the same spec.
        ensemble = ChunkedFabricator(
            "proposed", spec, variation=variation, library=LIBRARY
        ).fabricate(32)
        calibration = ensemble.lock(conditions)
        curves = ensemble.transfer_curves(conditions, calibration=calibration)
        passes = LinearitySpec(error_limit_fraction=0.05).evaluate(
            calibration, curves
        )
        expected = (
            (curves.max_error_fraction_of_period() <= 0.05)
            & curves.metrics().monotonic
            & calibration.locked
        )
        np.testing.assert_array_equal(passes, expected)
        assert result.estimate == float(np.mean(passes))
        assert result.estimates["lock"] == float(np.mean(calibration.locked))
        assert result.moments["max_inl_lsb"].maximum == float(
            curves.metrics().max_inl_lsb.max()
        )

    def test_unknown_scheme_and_bad_limits_rejected(self):
        spec = DesignSpec(100.0, 5)
        conditions = OperatingConditions.typical()
        with pytest.raises(ValueError, match="unknown scheme"):
            adaptive_linearity_yield("hybrid", spec, conditions, max_instances=2)
        with pytest.raises(ValueError, match="must be positive"):
            adaptive_linearity_yield(
                "proposed",
                spec,
                conditions,
                max_instances=2,
                linearity_spec=LinearitySpec(dnl_limit_lsb=0.0),
            )
        with pytest.raises(ValueError):
            adaptive_linearity_yield("proposed", spec, conditions, max_instances=0)

    def test_conventional_slow_corner_lock_collapse(self):
        # The paper's 6-bit 100 MHz sizing: at the slow corner even the
        # all-minimum line overshoots the period (fig37's saturation), so
        # only a sliver of mismatched instances lock.
        result = adaptive_linearity_yield(
            scheme="conventional",
            spec=DesignSpec(100.0, 6),
            conditions=OperatingConditions.slow(),
            variation=VariationModel(seed=9),
            precision=0.0,
            max_instances=64,
            chunk_size=64,
            library=LIBRARY,
        )
        assert result.estimates["lock"] < 0.2
        assert result.estimate <= result.estimates["lock"]
