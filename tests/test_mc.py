"""The streaming Monte-Carlo engine: sound statistics, chunk-proof streams.

Three fronts:

* the confidence intervals are statistically correct (cross-checked against
  scipy where available, plus structural properties via hypothesis),
* the streaming moments match the batch formulas regardless of chunking,
* the adaptive sampler stops for the right reasons and -- the load-bearing
  reproducibility contract -- draws the *same sample stream at any chunk
  size* when the chunk function keys instance randomness on the instance
  index.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.mc
from repro.mc import (
    AdaptiveSampleResult,
    ConfidenceInterval,
    RunningMoments,
    SampleChunk,
    WeightedSampleChunk,
    Stratum,
    adaptive_sample,
    importance_sample,
    normal_ppf,
    stratified_sample,
    wilson_interval,
)


class TestNormalPpf:
    def test_median_is_zero(self):
        assert normal_ppf(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_symmetry(self):
        assert normal_ppf(0.975) == pytest.approx(-normal_ppf(0.025), abs=1e-12)

    def test_classic_z_values(self):
        assert normal_ppf(0.975) == pytest.approx(1.959963984540054, abs=1e-9)
        assert normal_ppf(0.995) == pytest.approx(2.5758293035489004, abs=1e-9)

    @pytest.mark.parametrize("quantile", [0.0, 1.0, -0.1, 1.1])
    def test_rejects_out_of_range(self, quantile):
        with pytest.raises(ValueError):
            normal_ppf(quantile)

    def test_matches_scipy_across_the_range(self):
        stats = pytest.importorskip("scipy.stats")
        for quantile in np.linspace(1e-6, 1 - 1e-6, 101):
            assert normal_ppf(float(quantile)) == pytest.approx(
                stats.norm.ppf(quantile), abs=1e-9
            )


class TestIntervals:
    def test_wilson_known_value(self):
        # 198/200 at 95 %: the canonical worked example.
        interval = wilson_interval(198, 200)
        assert interval.lower == pytest.approx(0.96428, abs=1e-4)
        assert interval.upper == pytest.approx(0.99725, abs=1e-4)

    def test_all_passed_still_carries_uncertainty(self):
        interval = wilson_interval(100, 100, 0.95)
        assert interval.upper == 1.0
        assert interval.lower < 1.0
        assert interval.half_width > 0.0

    @given(
        trials=st.integers(min_value=1, max_value=5000),
        fraction=st.floats(min_value=0.0, max_value=1.0),
        confidence=st.floats(min_value=0.5, max_value=0.999),
    )
    @settings(max_examples=150, deadline=None)
    def test_interval_brackets_the_estimate(self, trials, fraction, confidence):
        successes = round(fraction * trials)
        interval = wilson_interval(successes, trials, confidence)
        assert 0.0 <= interval.lower <= successes / trials <= interval.upper <= 1.0

    @given(
        trials=st.integers(min_value=4, max_value=2000),
        fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_more_samples_never_widen_the_interval(self, trials, fraction):
        # Scale (successes, trials) by 4 at the same observed proportion:
        # the interval must tighten (or stay equal).
        successes = round(fraction * trials)
        small = wilson_interval(successes, trials, 0.95)
        large = wilson_interval(4 * successes, 4 * trials, 0.95)
        assert large.half_width <= small.half_width + 1e-12

    @pytest.mark.parametrize(
        "successes, trials", [(-1, 10), (11, 10), (0, 0), (1, -5)]
    )
    def test_rejects_bad_counts(self, successes, trials):
        with pytest.raises(ValueError):
            wilson_interval(successes, trials)

    @pytest.mark.parametrize("confidence", [0.0, 1.0, 1.5])
    def test_rejects_confidence_outside_the_unit_interval(self, confidence):
        with pytest.raises(ValueError, match="confidence"):
            wilson_interval(5, 10, confidence)

    def test_confidence_interval_validates_bounds(self):
        with pytest.raises(ValueError):
            ConfidenceInterval(lower=0.9, upper=0.1, confidence=0.95)


class TestRunningMoments:
    @given(
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_numpy_batch_formulas(self, values):
        moments = RunningMoments()
        for value in values:
            moments.push(value)
        array = np.asarray(values)
        scale = max(1.0, float(np.abs(array).max()) ** 2)
        assert moments.count == len(values)
        assert moments.mean == pytest.approx(array.mean(), abs=1e-9 * scale)
        assert moments.variance() == pytest.approx(array.var(), abs=1e-6 * scale)
        assert moments.minimum == array.min()
        assert moments.maximum == array.max()

    @given(
        values=st.lists(
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
            min_size=1,
            max_size=100,
        ),
        split=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=100, deadline=None)
    def test_chunked_extend_matches_one_shot(self, values, split):
        split = min(split, len(values))
        chunked = RunningMoments()
        chunked.extend(values[:split])
        chunked.extend(values[split:])
        one_shot = RunningMoments()
        one_shot.extend(values)
        assert chunked.count == one_shot.count == len(values)
        assert chunked.mean == pytest.approx(one_shot.mean, abs=1e-9)
        assert chunked.variance() == pytest.approx(one_shot.variance(), abs=1e-6)
        assert chunked.minimum == one_shot.minimum
        assert chunked.maximum == one_shot.maximum

    def test_sample_variance_needs_two_points(self):
        moments = RunningMoments()
        moments.push(1.0)
        assert math.isnan(moments.variance(ddof=1))
        moments.push(2.0)
        assert moments.variance(ddof=1) == pytest.approx(0.5)

    def test_empty_extend_is_a_no_op(self):
        moments = RunningMoments()
        moments.extend([])
        assert moments.count == 0
        assert math.isnan(moments.summary()["mean"])


def _bernoulli_draw(seed: int, pass_rate: float):
    """A chunk function whose instance i randomness is keyed on i itself."""

    def draw(first_instance: int, count: int) -> SampleChunk:
        uniforms = np.array(
            [
                np.random.default_rng((seed, i)).uniform()
                for i in range(first_instance, first_instance + count)
            ]
        )
        return SampleChunk(
            passes={"yield": uniforms < pass_rate},
            values={"uniform": uniforms},
        )

    return draw


def _one_stratum(draw, **kwargs):
    """:func:`stratified_sample` over a single stratum holding all the mass."""
    return stratified_sample([Stratum(name="all", weight=1.0, draw=draw)], **kwargs)


class TestAdaptiveSample:
    def test_high_yield_stops_on_precision_long_before_the_cap(self):
        result = adaptive_sample(
            _bernoulli_draw(seed=1, pass_rate=0.999),
            primary="yield",
            precision=0.02,
            chunk_size=64,
            max_samples=4096,
        )
        assert isinstance(result, AdaptiveSampleResult)
        assert result.stop_reason == "precision"
        assert result.trials < 4096 // 4
        assert result.interval.half_width <= 0.02
        assert result.trials == result.chunk_size * result.chunks

    def test_marginal_yield_exhausts_the_cap(self):
        result = adaptive_sample(
            _bernoulli_draw(seed=2, pass_rate=0.5),
            primary="yield",
            precision=0.001,
            chunk_size=32,
            max_samples=200,
        )
        assert result.stop_reason == "max_samples"
        assert result.trials == 200  # the final chunk is clipped to the cap
        assert result.chunks == math.ceil(200 / 32)

    def test_zero_precision_disables_early_stopping(self):
        result = adaptive_sample(
            _bernoulli_draw(seed=3, pass_rate=1.0),
            primary="yield",
            precision=0.0,
            chunk_size=16,
            max_samples=64,
        )
        assert result.stop_reason == "max_samples"
        assert result.trials == 64

    @given(chunk_size=st.integers(min_value=1, max_value=97))
    @settings(max_examples=30, deadline=None)
    def test_chunk_size_never_changes_the_sample_stream(self, chunk_size):
        # Run to a fixed cap with early stopping disabled: every chunking
        # must see exactly the same instances and therefore the same
        # successes and value moments.  A lane target of one makes every
        # chunk its own draw call, so the chunk boundaries reach ``draw``.
        reference = adaptive_sample(
            _bernoulli_draw(seed=4, pass_rate=0.9),
            primary="yield",
            precision=0.0,
            chunk_size=160,
            max_samples=160,
        )
        bernoulli = _bernoulli_draw(seed=4, pass_rate=0.9)
        calls: list[tuple[int, int]] = []

        def logged_draw(first_instance: int, count: int) -> SampleChunk:
            calls.append((first_instance, count))
            return bernoulli(first_instance, count)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(repro.mc, "_LANE_TARGET", 1)
            chunked = adaptive_sample(
                logged_draw,
                primary="yield",
                precision=0.0,
                chunk_size=chunk_size,
                max_samples=160,
            )
        assert calls == [
            (first, min(chunk_size, 160 - first))
            for first in range(0, 160, chunk_size)
        ]
        assert chunked.trials == reference.trials == 160
        assert chunked.successes == reference.successes
        assert chunked.estimates == reference.estimates
        assert chunked.moments["uniform"].mean == pytest.approx(
            reference.moments["uniform"].mean, abs=1e-12
        )
        assert chunked.moments["uniform"].minimum == (
            reference.moments["uniform"].minimum
        )
        assert chunked.moments["uniform"].maximum == (
            reference.moments["uniform"].maximum
        )

    def test_secondary_statistics_ride_along(self):
        def draw(first_instance: int, count: int) -> SampleChunk:
            flags = np.ones(count, dtype=bool)
            return SampleChunk(
                passes={"primary": flags, "secondary": ~flags},
            )

        result = adaptive_sample(
            draw, primary="primary", precision=0.1, chunk_size=32,
            max_samples=128,
        )
        assert result.estimates["secondary"] == 0.0
        assert result.intervals["secondary"].lower == 0.0
        assert result.intervals["secondary"].upper < 1.0

    def test_missing_primary_statistic_is_an_error(self):
        def draw(first_instance: int, count: int) -> SampleChunk:
            return SampleChunk(passes={"other": np.ones(count, dtype=bool)})

        with pytest.raises(ValueError, match="no primary pass statistic"):
            adaptive_sample(
                draw, primary="yield", precision=0.1, max_samples=64,
            )

    def test_wrong_chunk_shape_is_an_error(self):
        def draw(first_instance: int, count: int) -> SampleChunk:
            return SampleChunk(passes={"yield": np.ones(count + 1, dtype=bool)})

        with pytest.raises(ValueError, match="shape"):
            adaptive_sample(
                draw, primary="yield", precision=0.1, max_samples=64,
            )

    def test_wrong_value_stream_shape_is_an_error(self):
        def draw(first_instance: int, count: int) -> SampleChunk:
            return SampleChunk(
                passes={"yield": np.ones(count, dtype=bool)},
                values={"metric": np.zeros(count - 1)},
            )

        with pytest.raises(ValueError, match="value stream 'metric' has shape"):
            adaptive_sample(
                draw, primary="yield", precision=0.1, max_samples=64,
            )

    def test_changing_statistics_mid_run_is_an_error(self):
        def draw(first_instance: int, count: int) -> SampleChunk:
            name = "yield" if first_instance == 0 else "renamed"
            return SampleChunk(
                passes={"yield": np.ones(count, dtype=bool), name: np.ones(count, dtype=bool)}
            )

        # The cap spans more than one wide draw, so a second draw happens.
        with pytest.raises(ValueError, match="changed mid-run"):
            adaptive_sample(
                draw, primary="yield", precision=0.0, chunk_size=8,
                max_samples=1024,
            )

    def test_changing_value_streams_mid_run_is_an_error(self):
        # A value stream that silently vanishes would leave RunningMoments
        # covering only a subset of the samples; the engine must refuse.
        def draw(first_instance: int, count: int) -> SampleChunk:
            values = {"metric": np.zeros(count)} if first_instance == 0 else {}
            return SampleChunk(
                passes={"yield": np.ones(count, dtype=bool)}, values=values
            )

        with pytest.raises(ValueError, match="value streams changed mid-run"):
            adaptive_sample(
                draw, primary="yield", precision=0.0, chunk_size=8,
                max_samples=1024,
            )

    @pytest.mark.parametrize(
        "engine",
        [adaptive_sample, importance_sample, _one_stratum],
        ids=["adaptive", "importance", "stratified"],
    )
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"precision": -0.1},
            {"precision": math.nan},
            {"precision": math.inf},
            {"precision": 0.1, "max_samples": 0},
            {"precision": 0.1, "chunk_size": 0},
        ],
    )
    def test_rejects_bad_configuration(self, engine, kwargs):
        # Refused before the first draw: a NaN precision used to pass the
        # budget check and silently spend the whole cap.
        draw = _CountingDraw()
        with pytest.raises(ValueError):
            engine(draw, primary="yield", **kwargs)
        assert draw.calls == []


class _CountingDraw:
    """A chunk-invariant draw that records every ``(first, count)`` call.

    Instance ``i``'s flag, value and log-weight are closed-form functions
    of ``i`` alone, returned in fresh arrays like a real engine's, so any
    chunking sees the same stream.  ``pass_rate`` sets the share of
    passing instances; ``weight_spread`` the log-weight amplitude (a wide
    spread keeps the effective sample size low).
    """

    def __init__(self, pass_rate: float = 0.9, weight_spread: float = 0.5):
        self.pass_rate = pass_rate
        self.weight_spread = weight_spread
        self.calls: list[tuple[int, int]] = []

    def __call__(self, first_instance: int, count: int) -> WeightedSampleChunk:
        self.calls.append((first_instance, count))
        index = np.arange(first_instance, first_instance + count, dtype=float)
        uniform = (index * 0.6180339887498949) % 1.0
        return WeightedSampleChunk(
            passes={"yield": uniform < self.pass_rate, "odd": index % 2 == 1},
            log_weights=self.weight_spread * np.sin(index * 0.7),
            values={"uniform": uniform, "wave": np.cos(index * 0.31) + 2.0},
        )


def _run_both_ways(monkeypatch, engine, **kwargs):
    """``engine`` with one chunk per draw call, then with the wide draws."""
    narrow_draw = _CountingDraw(**kwargs.pop("draw_options", {}))
    wide_draw = _CountingDraw(
        narrow_draw.pass_rate, narrow_draw.weight_spread
    )
    with monkeypatch.context() as patch:
        patch.setattr(repro.mc, "_LANE_TARGET", 1)
        narrow = engine(narrow_draw, primary="yield", **kwargs)
    wide = engine(wide_draw, primary="yield", **kwargs)
    return narrow, wide, narrow_draw.calls, wide_draw.calls


def _state(result) -> dict:
    """Every field of an estimator result, accumulators by their state."""
    state = {}
    for name, value in vars(result).items():
        if isinstance(value, dict):
            value = {
                key: vars(item) if hasattr(item, "__dict__") else item
                for key, item in value.items()
            }
        elif isinstance(value, RunningMoments):
            value = vars(value)
        state[name] = value
    return state


def _assert_identical(narrow, wide) -> None:
    narrow_state, wide_state = _state(narrow), _state(wide)
    assert narrow_state.keys() == wide_state.keys()
    for name in narrow_state:
        # Exact equality: a float that moved by one ulp fails here.
        assert repr(narrow_state[name]) == repr(wide_state[name]), name


#: (engine, engine keywords, stop reason, trials, narrow calls, wide calls).
WIDE_DRAW_CASES = [
    pytest.param(
        adaptive_sample,
        {"precision": 0.012, "chunk_size": 64, "max_samples": 4096,
         "draw_options": {"pass_rate": 0.99}},
        "precision", 384, 6, 2,
        id="adaptive-precision-stop",
    ),
    pytest.param(
        adaptive_sample,
        {"precision": 0.001, "chunk_size": 24, "max_samples": 1000},
        "max_samples", 1000, 42, 5,
        id="adaptive-cap-stop-ragged",
    ),
    pytest.param(
        adaptive_sample,
        {"precision": 0.05, "chunk_size": 8, "max_samples": 512,
         "draw_options": {"pass_rate": 1.0}},
        "precision", 40, 5, 1,
        id="adaptive-stop-inside-one-wide-draw",
    ),
    pytest.param(
        adaptive_sample,
        {"precision": 0.0, "chunk_size": 300, "max_samples": 1000},
        "max_samples", 1000, 4, 4,
        id="adaptive-chunk-above-lane-target",
    ),
    pytest.param(
        importance_sample,
        {"precision": 0.02, "chunk_size": 64, "max_samples": 2048},
        "precision", 1152, 18, 5,
        id="importance-precision-stop",
    ),
    pytest.param(
        importance_sample,
        {"precision": 0.001, "chunk_size": 40, "max_samples": 1010},
        "max_samples", 1010, 26, 5,
        id="importance-cap-stop-ragged",
    ),
    pytest.param(
        importance_sample,
        {"precision": 0.2, "chunk_size": 16, "max_samples": 2048,
         "draw_options": {"weight_spread": 2.0}},
        "precision", 80, 5, 1,
        id="importance-ess-guard",
    ),
    pytest.param(
        importance_sample,
        {"precision": 0.2, "chunk_size": 32, "max_samples": 2048,
         "draw_options": {"weight_spread": 2.0}},
        "precision", 96, 3, 1,
        id="importance-ess-guard-at-floor-chunk",
    ),
    pytest.param(
        importance_sample,
        {"precision": 0.0, "chunk_size": 257, "max_samples": 600},
        "max_samples", 600, 3, 3,
        id="importance-chunk-above-lane-target",
    ),
]


class TestWideDraws:
    """Fetching several chunks per ``draw`` call changes no result."""

    @pytest.mark.parametrize(
        "engine, kwargs, stop_reason, trials, narrow_calls, wide_calls",
        WIDE_DRAW_CASES,
    )
    def test_wide_draws_match_one_chunk_per_call(
        self, monkeypatch, engine, kwargs, stop_reason, trials, narrow_calls,
        wide_calls,
    ):
        chunk_size = kwargs["chunk_size"]
        max_samples = kwargs["max_samples"]
        narrow, wide, narrow_log, wide_log = _run_both_ways(
            monkeypatch, engine, **kwargs
        )
        _assert_identical(narrow, wide)
        assert (wide.stop_reason, wide.trials) == (stop_reason, trials)
        assert wide.chunks == math.ceil(trials / chunk_size)
        if engine is importance_sample and stop_reason == "precision":
            # The precision stop waits for the effective-sample-size floor.
            assert wide.effective_sample_size >= repro.mc.MIN_ESS
        # One call per chunk at a lane target of one, on chunk boundaries
        # with the final chunk clipped to the cap ...
        assert narrow_log == [
            (first, min(chunk_size, max_samples - first))
            for first in range(0, trials, chunk_size)
        ]
        assert len(narrow_log) == narrow_calls
        # ... and whole multiples of the chunk per call by default.
        width = chunk_size * max(1, repro.mc._LANE_TARGET // chunk_size)
        assert wide_log == [
            (first, min(width, max_samples - first))
            for first in range(0, trials, width)
        ]
        assert len(wide_log) == wide_calls

    @given(
        chunk_size=st.integers(1, 300),
        max_samples=st.integers(1, 1200),
        precision=st.sampled_from([0.0, 0.01, 0.04, 0.15]),
        weighted=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_budget_matches_one_chunk_per_call(
        self, chunk_size, max_samples, precision, weighted
    ):
        kwargs = {
            "precision": precision,
            "chunk_size": chunk_size,
            "max_samples": max_samples,
        }
        engine = importance_sample if weighted else adaptive_sample
        with pytest.MonkeyPatch.context() as monkeypatch:
            narrow, wide, _, wide_log = _run_both_ways(
                monkeypatch, engine, **kwargs
            )
        _assert_identical(narrow, wide)
        width = chunk_size * max(1, repro.mc._LANE_TARGET // chunk_size)
        assert len(wide_log) == math.ceil(wide.trials / width)
