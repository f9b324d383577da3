"""Statistical-validation suite for the Monte-Carlo estimators.

Three layers of checks, all seeded and deterministic:

* **Interval coverage** -- over thousands of Bernoulli replications, the
  Wilson interval must achieve at least nominal - 2 % empirical coverage
  from the coin-flip regime down to the ppm regime (p = 1e-5 over a
  million trials).
* **Estimator correctness** -- the self-normalized importance-sampling
  and post-stratified estimates must agree with analytic truth on a
  closed-form toy problem (the normal tail probability P(Z > c)), and
  the weighted accumulator must survive log-weights far beyond float
  range.
* **Chunk invariance** -- the tilted and stratified sample streams must
  be independent of chunking (the ``(seed, tag, i)`` per-instance keying
  contract of :mod:`repro.mc`), with the identity tilt reproducing the
  vanilla draws bit for bit, and the new modules must pass the
  ``seeding-contract`` lint rule with zero suppressions.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.converter.buck import BuckParameters
from repro.core.yield_analysis import (
    CORRELATION_PRESETS,
    ComponentStratification,
    ComponentTilt,
    ComponentVariation,
    component_correlation_preset,
    rare_event_regulation_yield,
)
from repro.mc import (
    AdaptiveSampleResult,
    ImportanceSampleResult,
    RunningMoments,
    SampleChunk,
    Stratum,
    StratifiedSampleResult,
    WeightedRunningMoments,
    WeightedSampleChunk,
    MIN_ESS,
    importance_sample,
    normal_cdf,
    normal_ppf,
    stratified_sample,
    wilson_interval,
)
from repro.simulation.batch import BatchQuantizer
from repro.technology.variation import CorrelatedVariationModel, VariationModel

# ---------------------------------------------------------------------------
# Interval coverage from the coin-flip regime to the ppm regime.
# ---------------------------------------------------------------------------

#: (true probability, trials per replication); the trial counts scale so
#: every regime has signal (expected successes >= 10).
COVERAGE_CASES = [
    (0.5, 100),
    (0.05, 500),
    (1e-3, 10_000),
    (1e-5, 1_000_000),
]
REPLICATIONS = 2000
CONFIDENCE = 0.95
#: Empirical coverage floor: nominal minus two points of Monte-Carlo and
#: approximation slack (Wilson is approximate).
COVERAGE_FLOOR = CONFIDENCE - 0.02


class TestIntervalCoverage:
    @pytest.mark.parametrize(("probability", "trials"), COVERAGE_CASES)
    def test_empirical_coverage_meets_nominal(
        self, probability: float, trials: int
    ) -> None:
        rng = np.random.default_rng((20260808, trials))
        successes = rng.binomial(trials, probability, size=REPLICATIONS)
        # Few distinct success counts occur, so memoize the interval per
        # count -- this is what keeps a million-trial regime cheap.
        cache = {}
        covered = 0
        for count in successes:
            bounds = cache.get(int(count))
            if bounds is None:
                bounds = wilson_interval(int(count), trials, CONFIDENCE)
                cache[int(count)] = bounds
            covered += bounds.contains(probability)
        assert covered / REPLICATIONS >= COVERAGE_FLOOR


# ---------------------------------------------------------------------------
# The closed-form toy problem: P(Z > c) for a standard normal.
# ---------------------------------------------------------------------------

TAIL_C = 3.0
TAIL_TRUTH = 1.0 - normal_cdf(TAIL_C)
#: Proposal N(2, 1.5^2): shifted toward the tail and *widened* so the
#: likelihood ratio stays bounded on both flanks (a pure shift tilt has
#: unbounded weights on the left tail and a collapsing ESS).
TAIL_SHIFT = 2.0
TAIL_SCALE = 1.5


def _tilted_tail_draw(first_instance: int, count: int) -> WeightedSampleChunk:
    """Tilted chunk for P(Z > c): widened proposal, per-instance streams."""
    passes = np.empty(count, dtype=bool)
    log_weights = np.empty(count)
    values = np.empty(count)
    for offset in range(count):
        i = first_instance + offset
        z = float(np.random.default_rng((97, i)).standard_normal())
        shifted = TAIL_SHIFT + TAIL_SCALE * z
        passes[offset] = shifted > TAIL_C
        log_weights[offset] = (
            0.5 * z * z - 0.5 * shifted * shifted + math.log(TAIL_SCALE)
        )
        values[offset] = shifted
    return WeightedSampleChunk(
        passes={"tail": passes}, log_weights=log_weights, values={"z": values}
    )


class TestImportanceSampling:
    def test_self_normalized_estimate_matches_analytic_truth(self) -> None:
        result = importance_sample(
            _tilted_tail_draw,
            primary="tail",
            precision=0.0,
            max_samples=4096,
            chunk_size=256,
        )
        stat = result.weighted["tail"]
        # Unbiasedness gate: within 3 Monte-Carlo sigmas of truth.
        assert abs(result.estimate - TAIL_TRUTH) <= 3.0 * stat.standard_error()
        assert result.interval.contains(TAIL_TRUTH)
        # The tilt centres the proposal on the boundary, so the tail is no
        # longer rare under q and the weights stay healthy.
        assert result.effective_sample_size > 500.0
        # The reweighted mean of the proposal draws estimates E[Z] = 0.
        assert abs(result.value_moments["z"].mean) <= (
            3.0 * result.value_moments["z"].standard_error()
        )

    def test_ess_guard_blocks_premature_precision_stop(self) -> None:
        # A chunk smaller than the ESS floor satisfies the (loose)
        # precision target on its own, but its weights are non-uniform, so
        # its ESS is below its size and the floor forces the run onward --
        # exactly until the first chunk that lifts the ESS over the floor.
        chunk_size = 16
        assert chunk_size < MIN_ESS
        guarded = importance_sample(
            _tilted_tail_draw,
            primary="tail",
            precision=0.5,
            max_samples=512,
            chunk_size=chunk_size,
        )
        assert guarded.stop_reason == "precision"
        assert guarded.trials > chunk_size
        assert guarded.effective_sample_size >= MIN_ESS

        def prefix(count: int) -> WeightedRunningMoments:
            chunk = _tilted_tail_draw(0, count)
            stat = WeightedRunningMoments()
            stat.extend(chunk.passes["tail"].astype(float), chunk.log_weights)
            return stat

        first_chunk = prefix(chunk_size)
        assert first_chunk.interval().half_width <= 0.5
        assert first_chunk.effective_sample_size() < MIN_ESS
        assert (
            prefix(guarded.trials - chunk_size).effective_sample_size() < MIN_ESS
        )

    @given(chunk_size=st.integers(min_value=1, max_value=97))
    @settings(max_examples=25, deadline=None)
    def test_estimates_invariant_to_chunk_size(self, chunk_size: int) -> None:
        reference = importance_sample(
            _tilted_tail_draw,
            primary="tail",
            precision=0.0,
            max_samples=240,
            chunk_size=60,
        )
        chunked = importance_sample(
            _tilted_tail_draw,
            primary="tail",
            precision=0.0,
            max_samples=240,
            chunk_size=chunk_size,
        )
        assert chunked.trials == reference.trials == 240
        # The per-instance stream is identical; only the fold order differs,
        # so the accumulated sums agree to round-off.
        np.testing.assert_allclose(
            chunked.estimate, reference.estimate, rtol=1e-9
        )
        np.testing.assert_allclose(
            chunked.effective_sample_size,
            reference.effective_sample_size,
            rtol=1e-9,
        )

    def test_validation_errors(self) -> None:
        with pytest.raises(ValueError, match="primary"):
            importance_sample(
                lambda first, count: WeightedSampleChunk(
                    passes={"other": np.zeros(count, dtype=bool)},
                    log_weights=np.zeros(count),
                ),
                primary="tail",
                precision=0.0,
                max_samples=64,
            )
        with pytest.raises(ValueError, match="shape"):
            importance_sample(
                lambda first, count: WeightedSampleChunk(
                    passes={"tail": np.zeros(count, dtype=bool)},
                    log_weights=np.zeros(count + 1),
                ),
                primary="tail",
                precision=0.0,
                max_samples=64,
            )
        with pytest.raises(TypeError, match="WeightedSampleChunk"):
            importance_sample(
                lambda first, count: SampleChunk(
                    passes={"tail": np.zeros(count, dtype=bool)}
                ),
                primary="tail",
                precision=0.0,
                max_samples=64,
            )


def _stratified_tail_strata(cutoff: float) -> list[Stratum]:
    """Sigma-shell strata for P(Z > cutoff), boundaries at 2 and 3 sigma."""
    edges = (-math.inf, 2.0, 3.0, math.inf)
    strata = []
    for index, (lower, upper) in enumerate(zip(edges, edges[1:])):
        cdf_lower, cdf_upper = normal_cdf(lower), normal_cdf(upper)

        def draw(
            first_instance: int,
            count: int,
            index: int = index,
            cdf_lower: float = cdf_lower,
            cdf_upper: float = cdf_upper,
        ) -> SampleChunk:
            passes = np.empty(count, dtype=bool)
            for offset in range(count):
                i = first_instance + offset
                u = float(np.random.default_rng((31, index, i)).random())
                quantile = cdf_lower + u * (cdf_upper - cdf_lower)
                quantile = min(max(quantile, 1e-12), 1.0 - 1e-12)
                passes[offset] = normal_ppf(quantile) > cutoff
            return SampleChunk(passes={"tail": passes})

        strata.append(
            Stratum(name=f"s{index}", weight=cdf_upper - cdf_lower, draw=draw)
        )
    return strata


class TestStratifiedSampling:
    def test_post_stratified_estimate_matches_analytic_truth(self) -> None:
        cutoff = 2.5
        truth = 1.0 - normal_cdf(cutoff)
        result = stratified_sample(
            _stratified_tail_strata(cutoff),
            primary="tail",
            precision=0.0,
            max_samples=3000,
            chunk_size=100,
        )
        assert result.interval.contains(truth)
        assert abs(result.estimate - truth) <= 0.5 * truth
        # Every stratum got its exploration floor despite Neyman greed.
        assert all(row.trials >= 100 for row in result.strata)
        # The boundary stratum carries the mixed outcomes; the outer
        # shells are pure by construction.
        by_name = {row.name: row for row in result.strata}
        assert by_name["s0"].successes.get("tail", 0) == 0
        assert by_name["s2"].successes["tail"] == by_name["s2"].trials

    def test_neyman_allocation_concentrates_on_mixed_stratum(self) -> None:
        cutoff = 2.5
        result = stratified_sample(
            _stratified_tail_strata(cutoff),
            primary="tail",
            precision=0.0,
            max_samples=4000,
            chunk_size=50,
        )
        by_name = {row.name: row for row in result.strata}
        # s1 = (2, 3] straddles the cutoff, so it carries the within-stratum
        # variance; proportional allocation would hand it ~2 % of the budget
        # (its probability mass), Neyman hands it an order of magnitude more.
        share = by_name["s1"].trials / result.trials
        assert share > 10.0 * by_name["s1"].weight
        # The far-tail shell is nearly pure (all passes) and tiny, so the
        # greedy rule leaves it close to its exploration floor.
        assert by_name["s1"].trials > by_name["s2"].trials

    def test_weight_and_name_validation(self) -> None:
        strata = _stratified_tail_strata(2.5)
        bad_weight = [
            Stratum(name=s.name, weight=0.5, draw=s.draw) for s in strata
        ]
        with pytest.raises(ValueError, match="sum to 1"):
            stratified_sample(
                bad_weight, primary="tail", precision=0.0, max_samples=300
            )
        duplicated = [
            Stratum(name="dup", weight=s.weight, draw=s.draw) for s in strata
        ]
        with pytest.raises(ValueError, match="unique"):
            stratified_sample(
                duplicated, primary="tail", precision=0.0, max_samples=300
            )
        with pytest.raises(ValueError, match="at least one draw"):
            stratified_sample(
                strata, primary="tail", precision=0.0, max_samples=2
            )
        with pytest.raises(ValueError, match="weight"):
            Stratum(name="zero", weight=0.0, draw=strata[0].draw)

    def test_deterministic_reruns(self) -> None:
        kwargs = dict(
            primary="tail", precision=0.0, max_samples=1200, chunk_size=60
        )
        first = stratified_sample(_stratified_tail_strata(2.5), **kwargs)
        second = stratified_sample(_stratified_tail_strata(2.5), **kwargs)
        assert first.estimates == second.estimates
        assert [row.trials for row in first.strata] == [
            row.trials for row in second.strata
        ]


# ---------------------------------------------------------------------------
# The weighted accumulator.
# ---------------------------------------------------------------------------


class TestWeightedRunningMoments:
    def test_matches_direct_computation(self) -> None:
        rng = np.random.default_rng(5)
        values = rng.random(400)
        log_weights = rng.normal(0.0, 2.0, 400)
        stat = WeightedRunningMoments()
        for start in (0, 100, 250, 399, 400):
            stat.extend(values[start : start + 1], log_weights[start : start + 1])
        stat2 = WeightedRunningMoments()
        stat2.extend(values[:4], log_weights[:4])
        weights = np.exp(log_weights[:4] - log_weights[:4].max())
        np.testing.assert_allclose(
            stat2.mean, float((weights * values[:4]).sum() / weights.sum())
        )
        np.testing.assert_allclose(
            stat2.effective_sample_size(),
            float(weights.sum() ** 2 / (weights * weights).sum()),
        )

    def test_survives_log_weights_beyond_float_range(self) -> None:
        # exp(800) overflows a double; the offset representation must not.
        stat = WeightedRunningMoments()
        stat.extend(np.array([1.0, 0.0]), np.array([800.0, 800.0]))
        stat.extend(np.array([1.0]), np.array([900.0]))
        # The third observation's weight dwarfs the first two: mean -> 1.
        assert 0.99 < stat.mean <= 1.0
        assert math.isfinite(stat.effective_sample_size())
        assert stat.count == 3

    def test_equal_weights_reduce_to_unweighted(self) -> None:
        values = np.array([1.0, 0.0, 1.0, 1.0])
        stat = WeightedRunningMoments()
        stat.extend(values, np.full(4, -123.0))
        np.testing.assert_allclose(stat.mean, values.mean())
        np.testing.assert_allclose(stat.effective_sample_size(), 4.0)
        np.testing.assert_allclose(
            stat.variance_of_mean(),
            float(((values - values.mean()) ** 2).sum()) / 16.0,
        )

    def test_zero_weight_chunk_counts_but_carries_no_mass(self) -> None:
        stat = WeightedRunningMoments()
        stat.extend(np.array([1.0, 1.0]), np.array([-math.inf, -math.inf]))
        assert stat.count == 2
        assert math.isnan(stat.mean)
        assert stat.effective_sample_size() == 0.0
        interval = stat.interval()
        assert (interval.lower, interval.upper) == (0.0, 1.0)
        stat.extend(np.array([1.0]), np.array([0.0]))
        assert stat.mean == 1.0

    def test_empty_chunk_is_noop_and_validation(self) -> None:
        stat = WeightedRunningMoments()
        stat.push(1.0, 0.0)
        stat.extend(np.array([]), np.array([]))
        assert stat.count == 1
        with pytest.raises(ValueError, match="align"):
            stat.extend(np.array([1.0]), np.array([0.0, 0.0]))
        with pytest.raises(ValueError, match="finite"):
            stat.extend(np.array([1.0]), np.array([math.nan]))
        with pytest.raises(ValueError, match="finite"):
            stat.extend(np.array([1.0]), np.array([math.inf]))


# ---------------------------------------------------------------------------
# RunningMoments edge cases (the documented contract).
# ---------------------------------------------------------------------------


class TestRunningMomentsEdgeCases:
    def test_extend_empty_is_strict_noop(self) -> None:
        fresh = RunningMoments()
        fresh.extend([])
        assert fresh.count == 0
        summary = fresh.summary()
        assert math.isnan(summary["mean"])
        assert math.isnan(summary["min"]) and math.isnan(summary["max"])

        seeded = RunningMoments()
        seeded.extend([2.0, 4.0])
        before = (seeded.count, seeded.mean, seeded.minimum, seeded.maximum)
        seeded.extend(np.array([]))
        assert (
            seeded.count,
            seeded.mean,
            seeded.minimum,
            seeded.maximum,
        ) == before

    def test_sample_variance_of_single_observation_is_nan(self) -> None:
        stat = RunningMoments()
        stat.push(3.0)
        assert math.isnan(stat.variance(ddof=1))
        assert math.isnan(stat.std(ddof=1))
        assert stat.variance(ddof=0) == 0.0

    def test_chan_merge_with_empty_side_is_exact(self) -> None:
        values = np.random.default_rng(8).normal(5.0, 3.0, 257)
        merged = RunningMoments()
        merged.extend(values)  # empty accumulator + chunk
        assert merged.mean == float(values.mean())
        assert merged.variance() == float(
            ((values - values.mean()) ** 2).sum() / values.size
        )
        assert merged.minimum == float(values.min())
        assert merged.maximum == float(values.max())


# ---------------------------------------------------------------------------
# Chunk-stable streams: tilted and stratified component/silicon draws.
# ---------------------------------------------------------------------------

NOMINAL = BuckParameters()
VARIATION = ComponentVariation(seed=77)
TILT = ComponentTilt(
    inductance_shift=1.2, capacitance_shift=-2.5, sigma_scale=1.3
)
STRATIFICATION = ComponentStratification()
_FIELDS = (
    "input_voltage_v",
    "inductance_h",
    "capacitance_f",
    "switch_resistance_ohm",
    "inductor_resistance_ohm",
)


#: The component stream tags ("comp", "stra"), spelled out so the inline
#: references below stay independent of the code under test.
COMPONENT_TAG = 0x636F6D70
STRATUM_TAG = 0x73747261


def _reference_spreads(variation: ComponentVariation, z: np.ndarray) -> list[float]:
    """One instance's relative spreads from its (possibly moved) z-draws."""
    return [
        math.exp(variation.input_voltage_sigma * z[0]),
        math.exp(variation.inductance_sigma * z[1]),
        math.exp(variation.capacitance_sigma * z[2]),
        max(1.0 + variation.resistance_sigma * z[3], 0.0),
        max(1.0 + variation.resistance_sigma * z[4], 0.0),
    ]


def _reference_instances(
    variation: ComponentVariation, count: int, first: int
) -> np.ndarray:
    """Per-instance ``default_rng((seed, "comp", i))`` draws, one at a time."""
    rows = []
    for instance in range(first, first + count):
        rng = np.random.default_rng((variation.seed, COMPONENT_TAG, instance))
        rows.append(
            [
                rng.lognormal(mean=0.0, sigma=variation.input_voltage_sigma),
                rng.lognormal(mean=0.0, sigma=variation.inductance_sigma),
                rng.lognormal(mean=0.0, sigma=variation.capacitance_sigma),
                max(rng.normal(loc=1.0, scale=variation.resistance_sigma), 0.0),
                max(rng.normal(loc=1.0, scale=variation.resistance_sigma), 0.0),
            ]
        )
    return np.array(rows)


def _assert_fleet_matches(parameters: object, spreads: np.ndarray) -> None:
    for column, name in enumerate(_FIELDS):
        np.testing.assert_array_equal(
            getattr(parameters, name), getattr(NOMINAL, name) * spreads[:, column]
        )


class TestInlineStreamReference:
    """Every chunk-stable component path against a per-instance
    ``default_rng`` loop written out here, not a second call of the code
    under test."""

    @pytest.mark.parametrize(("first", "count"), [(0, 1), (5, 17), (2**32 - 4, 9)])
    def test_sample_instances(self, first: int, count: int) -> None:
        parameters = VARIATION.sample_instances(NOMINAL, count, first_instance=first)
        _assert_fleet_matches(
            parameters, _reference_instances(VARIATION, count, first)
        )

    @pytest.mark.parametrize("preset", ["passives", "thermal"])
    def test_correlated_sample_instances(self, preset: str) -> None:
        model = component_correlation_preset(preset)
        parameters = VARIATION.sample_instances(
            NOMINAL, 12, first_instance=3, correlation=model
        )
        rows = []
        for instance in range(3, 15):
            rng = np.random.default_rng((VARIATION.seed, COMPONENT_TAG, instance))
            mixed = model.cholesky() @ rng.standard_normal(5)
            rows.append(_reference_spreads(VARIATION, mixed))
        _assert_fleet_matches(parameters, np.array(rows))

    def test_tilted_sample_instances(self) -> None:
        parameters, log_weights = VARIATION.sample_instances_tilted(
            NOMINAL, 12, first_instance=4, tilt=TILT
        )
        rows, weights = [], []
        for instance in range(4, 16):
            rng = np.random.default_rng((VARIATION.seed, COMPONENT_TAG, instance))
            z = rng.standard_normal(5)
            moved = TILT.shifts() + TILT.sigma_scale * z
            weights.append(
                0.5 * float(z @ z)
                - 0.5 * float(moved @ moved)
                + 5 * math.log(TILT.sigma_scale)
            )
            rows.append(_reference_spreads(VARIATION, moved))
        _assert_fleet_matches(parameters, np.array(rows))
        np.testing.assert_array_equal(log_weights, np.array(weights))

    @pytest.mark.parametrize("stratum", [0, 2])
    def test_stratum_sample_instances(self, stratum: int) -> None:
        parameters = VARIATION.sample_instances_stratum(
            NOMINAL, 10, stratum, first_instance=6, stratification=STRATIFICATION
        )
        lower, upper = (normal_cdf(edge) for edge in STRATIFICATION.bounds(stratum))
        rows = []
        for instance in range(6, 16):
            rng = np.random.default_rng(
                (VARIATION.seed, STRATUM_TAG, stratum, instance)
            )
            z = rng.standard_normal(5)
            quantile = min(max(lower + rng.random() * (upper - lower), 1e-12),
                           1.0 - 1e-12)
            z[STRATIFICATION.axis_index()] = normal_ppf(quantile)
            rows.append(_reference_spreads(VARIATION, z))
        _assert_fleet_matches(parameters, np.array(rows))


class TestChunkStableStreams:
    def test_identity_tilt_reproduces_vanilla_bitwise(self) -> None:
        vanilla = VARIATION.sample_instances(NOMINAL, 16, first_instance=5)
        tilted, log_weights = VARIATION.sample_instances_tilted(
            NOMINAL, 16, first_instance=5, tilt=ComponentTilt()
        )
        for name in _FIELDS:
            np.testing.assert_array_equal(
                getattr(vanilla, name), getattr(tilted, name)
            )
        np.testing.assert_array_equal(log_weights, np.zeros(16))

    def test_identity_silicon_tilt_reproduces_vanilla_bitwise(self) -> None:
        model = VariationModel(seed=13)
        for instance in (0, 7):
            vanilla = model.sample(12, 3, instance=instance)
            batch, log_lrs = model.sample_batch_tilted(
                1, 12, 3, first_instance=instance
            )
            tilted, log_lr = batch.instance(0), log_lrs[0]
            np.testing.assert_array_equal(
                vanilla.multipliers, tilted.multipliers
            )
            assert log_lr == 0.0
            # Inline per-instance reference for the shared draw.
            rng = np.random.default_rng((model.seed, instance))
            gradient = model.gradient_peak * np.cos(np.pi * np.linspace(0, 1, 12))
            reference = np.clip(
                1.0
                + rng.normal(0.0, model.random_sigma, size=(12, 3))
                + gradient[:, np.newaxis],
                0.2,
                None,
            )
            np.testing.assert_array_equal(vanilla.multipliers, reference)

    @given(split=st.integers(min_value=1, max_value=23))
    @settings(max_examples=25, deadline=None)
    def test_tilted_component_stream_is_chunk_invariant(
        self, split: int
    ) -> None:
        whole, whole_lw = VARIATION.sample_instances_tilted(
            NOMINAL, 24, tilt=TILT
        )
        head, head_lw = VARIATION.sample_instances_tilted(
            NOMINAL, split, tilt=TILT
        )
        tail, tail_lw = VARIATION.sample_instances_tilted(
            NOMINAL, 24 - split, first_instance=split, tilt=TILT
        )
        for name in _FIELDS:
            np.testing.assert_array_equal(
                getattr(whole, name),
                np.concatenate([getattr(head, name), getattr(tail, name)]),
            )
        np.testing.assert_array_equal(
            whole_lw, np.concatenate([head_lw, tail_lw])
        )

    @given(split=st.integers(min_value=1, max_value=23))
    @settings(max_examples=25, deadline=None)
    def test_stratum_component_stream_is_chunk_invariant(
        self, split: int
    ) -> None:
        whole = VARIATION.sample_instances_stratum(
            NOMINAL, 24, 1, stratification=STRATIFICATION
        )
        head = VARIATION.sample_instances_stratum(
            NOMINAL, split, 1, stratification=STRATIFICATION
        )
        tail = VARIATION.sample_instances_stratum(
            NOMINAL, 24 - split, 1, first_instance=split,
            stratification=STRATIFICATION,
        )
        for name in _FIELDS:
            np.testing.assert_array_equal(
                getattr(whole, name),
                np.concatenate([getattr(head, name), getattr(tail, name)]),
            )

    @given(split=st.integers(min_value=1, max_value=15))
    @settings(max_examples=20, deadline=None)
    def test_tilted_silicon_stream_is_chunk_invariant(self, split: int) -> None:
        model = VariationModel(seed=19)
        whole, whole_lw = model.sample_batch_tilted(
            16, 8, 2, shift=0.9, sigma_scale=1.2
        )
        head, head_lw = model.sample_batch_tilted(
            split, 8, 2, shift=0.9, sigma_scale=1.2
        )
        tail, tail_lw = model.sample_batch_tilted(
            16 - split, 8, 2, first_instance=split, shift=0.9, sigma_scale=1.2
        )
        np.testing.assert_array_equal(
            whole.multipliers,
            np.concatenate([head.multipliers, tail.multipliers]),
        )
        np.testing.assert_array_equal(
            whole_lw, np.concatenate([head_lw, tail_lw])
        )

    def test_stratum_draws_land_in_their_shell(self) -> None:
        for stratum in range(STRATIFICATION.num_strata):
            lower_z, upper_z = STRATIFICATION.bounds(stratum)
            parameters = VARIATION.sample_instances_stratum(
                NOMINAL, 64, stratum, stratification=STRATIFICATION
            )
            z = (
                np.log(parameters.capacitance_f / NOMINAL.capacitance_f)
                / VARIATION.capacitance_sigma
            )
            assert (z > lower_z).all()
            assert (z <= upper_z + 1e-9).all()

    def test_stratification_weights_are_exact_masses(self) -> None:
        weights = STRATIFICATION.weights()
        assert abs(sum(weights) - 1.0) < 1e-12
        np.testing.assert_allclose(weights[0], normal_cdf(-3.5))
        np.testing.assert_allclose(
            weights[1], normal_cdf(-2.5) - normal_cdf(-3.5)
        )

    def test_tilt_validation(self) -> None:
        with pytest.raises(ValueError, match="sigma_scale"):
            ComponentTilt(sigma_scale=0.0)
        with pytest.raises(ValueError, match="finite"):
            ComponentTilt(capacitance_shift=math.inf)
        with pytest.raises(ValueError, match="axis"):
            ComponentStratification(axis="nonsense")
        with pytest.raises(ValueError, match="increasing"):
            ComponentStratification(boundaries=(1.0, 1.0))


# ---------------------------------------------------------------------------
# The domain wrapper: its validation, and the engine each draw object picks.
# ---------------------------------------------------------------------------

#: The shared DPWM of the wrapper tests: one ideal 6-bit duty table.
QUANTIZER = BatchQuantizer.ideal(6, 1)


class TestRareEventWrapperValidation:
    def test_rejects_bad_configurations(self) -> None:
        kwargs = dict(quantizer=QUANTIZER, variation=VARIATION)
        with pytest.raises(ValueError, match="tilt or a stratification"):
            rare_event_regulation_yield(
                NOMINAL,
                0.9,
                dip_limit_v=0.6,
                tilt=TILT,
                stratification=STRATIFICATION,
                **kwargs,
            )
        with pytest.raises(ValueError, match="dip_limit_v"):
            rare_event_regulation_yield(NOMINAL, 0.9, dip_limit_v=1.5, **kwargs)
        with pytest.raises(ValueError, match="settle_periods"):
            rare_event_regulation_yield(
                NOMINAL,
                0.9,
                dip_limit_v=0.6,
                periods=100,
                settle_periods=100,
                **kwargs,
            )

    @pytest.mark.parametrize(
        ("draw_object", "engine_result"),
        [
            ({}, AdaptiveSampleResult),
            ({"tilt": TILT}, ImportanceSampleResult),
            ({"stratification": STRATIFICATION}, StratifiedSampleResult),
        ],
        ids=["vanilla", "tilt", "stratification"],
    )
    def test_draw_object_picks_the_engine(
        self, draw_object: dict, engine_result: type
    ) -> None:
        result = rare_event_regulation_yield(
            NOMINAL,
            0.9,
            dip_limit_v=0.6,
            quantizer=QUANTIZER,
            variation=VARIATION,
            periods=40,
            settle_periods=10,
            max_instances=16,
            chunk_size=8,
            **draw_object,
        )
        assert type(result) is engine_result
        assert result.primary == "failure"
        assert result.trials == 16


# ---------------------------------------------------------------------------
# Correlated component draws: statistics, bitwise identity, validation.
# ---------------------------------------------------------------------------

#: Fleet size of the empirical-correlation check.  The sample correlation
#: coefficient's asymptotic standard error is (1 - rho^2) / sqrt(n); at
#: n = 50_000 three sigmas of the rho = 0 entries is ~0.013.
CORRELATION_DRAWS = 50_000


def _recover_z(parameters: object) -> np.ndarray:
    """Invert the per-axis transforms back to the underlying normals.

    The lognormal axes invert through ``log``, the resistance axes through
    ``(x - 1) / sigma``; both are exact (the resistance clip at zero never
    fires at these sigmas), so the recovered rows *are* the mixed
    standard-normal draws and their sample correlation estimates the
    declared matrix directly.
    """
    return np.stack(
        [
            np.log(parameters.input_voltage_v / NOMINAL.input_voltage_v)
            / VARIATION.input_voltage_sigma,
            np.log(parameters.inductance_h / NOMINAL.inductance_h)
            / VARIATION.inductance_sigma,
            np.log(parameters.capacitance_f / NOMINAL.capacitance_f)
            / VARIATION.capacitance_sigma,
            (
                parameters.switch_resistance_ohm
                / NOMINAL.switch_resistance_ohm
                - 1.0
            )
            / VARIATION.resistance_sigma,
            (
                parameters.inductor_resistance_ohm
                / NOMINAL.inductor_resistance_ohm
                - 1.0
            )
            / VARIATION.resistance_sigma,
        ]
    )


class TestCorrelatedVariation:
    @pytest.mark.parametrize("preset", ["passives", "thermal"])
    def test_empirical_correlation_matches_preset(self, preset: str) -> None:
        model = component_correlation_preset(preset)
        parameters = VARIATION.sample_instances(
            NOMINAL, CORRELATION_DRAWS, correlation=model
        )
        empirical = np.corrcoef(_recover_z(parameters))
        truth = CORRELATION_PRESETS[preset]
        tolerance = 3.0 * (1.0 - truth**2) / math.sqrt(CORRELATION_DRAWS)
        assert (np.abs(empirical - truth) <= tolerance + 1e-9).all()

    @pytest.mark.parametrize("preset", ["passives", "thermal"])
    def test_marginals_keep_iid_moments(self, preset: str) -> None:
        model = component_correlation_preset(preset)
        parameters = VARIATION.sample_instances(
            NOMINAL, CORRELATION_DRAWS, correlation=model
        )
        z = _recover_z(parameters)
        bound = 3.0 / math.sqrt(CORRELATION_DRAWS)
        assert (np.abs(z.mean(axis=1)) <= bound + 1e-9).all()
        assert (np.abs(z.std(axis=1) - 1.0) <= 2.0 * bound).all()

    def test_identity_sample_instances_is_bitwise_vanilla(self) -> None:
        correlated = VARIATION.sample_instances(
            NOMINAL,
            24,
            first_instance=3,
            correlation=component_correlation_preset("identity"),
        )
        _assert_fleet_matches(correlated, _reference_instances(VARIATION, 24, 3))

    @given(split=st.integers(min_value=1, max_value=23))
    @settings(max_examples=25, deadline=None)
    def test_correlated_instance_stream_is_chunk_invariant(
        self, split: int
    ) -> None:
        model = component_correlation_preset("passives")
        whole = VARIATION.sample_instances(NOMINAL, 24, correlation=model)
        head = VARIATION.sample_instances(NOMINAL, split, correlation=model)
        tail = VARIATION.sample_instances(
            NOMINAL, 24 - split, first_instance=split, correlation=model
        )
        for name in _FIELDS:
            np.testing.assert_array_equal(
                getattr(whole, name),
                np.concatenate([getattr(head, name), getattr(tail, name)]),
            )

    def test_non_psd_matrix_raises_typed_error(self) -> None:
        matrix = np.eye(5)
        matrix[0, 1] = matrix[1, 0] = 0.9
        matrix[0, 2] = matrix[2, 0] = 0.9
        matrix[1, 2] = matrix[2, 1] = -0.9
        with pytest.raises(ValueError, match="positive semi-definite"):
            CorrelatedVariationModel(matrix=matrix)

    def test_matrix_validation(self) -> None:
        with pytest.raises(ValueError, match="square"):
            CorrelatedVariationModel(matrix=np.ones((2, 3)))
        lopsided = np.eye(3)
        lopsided[0, 1] = 0.5
        with pytest.raises(ValueError, match="symmetric"):
            CorrelatedVariationModel(matrix=lopsided)
        scaled = np.eye(3) * 2.0
        with pytest.raises(ValueError, match="diagonal"):
            CorrelatedVariationModel(matrix=scaled)
        with pytest.raises(ValueError, match="unknown correlation preset"):
            component_correlation_preset("bogus")

    def test_dimension_mismatch_raises(self) -> None:
        matrix = np.eye(3)
        matrix[0, 1] = matrix[1, 0] = 0.5
        small = CorrelatedVariationModel(matrix=matrix)
        with pytest.raises(ValueError, match="spans 3 axes"):
            VARIATION.sample_instances(NOMINAL, 8, correlation=small)


# ---------------------------------------------------------------------------
# Lint: the seeding contract must hold over the new modules, unsuppressed.
# ---------------------------------------------------------------------------

NEW_MODULES = [
    "src/repro/mc.py",
    "src/repro/core/yield_analysis.py",
    "src/repro/technology/variation.py",
    "src/repro/technology/thermal.py",
    "src/repro/converter/missions.py",
    "src/repro/pipeline.py",
    "src/repro/streams.py",
    "src/repro/experiments/figure15_mission.py",
    "src/repro/experiments/figure15_rare.py",
]


class TestSeedingContractLint:
    def test_new_modules_pass_seeding_contract_unsuppressed(self) -> None:
        from pathlib import Path

        from repro.lint import lint_paths

        root = Path(__file__).resolve().parent.parent
        paths = [root / name for name in NEW_MODULES]
        assert lint_paths(paths, select=["seeding-contract"]) == []
        for path in paths:
            assert "repro-lint: disable" not in path.read_text(
                encoding="utf-8"
            ), f"suppression comment found in {path}"
