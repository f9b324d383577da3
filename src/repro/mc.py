"""Streaming Monte-Carlo engine with confidence-bounded adaptive stopping.

Every Monte-Carlo study in the repo used to burn a fixed instance count per
cell -- 128 or 1000 samples whether the yield was pinned at 100 % or
teetering at a corner.  This module turns those fixed budgets into
precision targets: draw variation batches in *chunks*, fold each chunk
through the vectorized engines, maintain running pass/fail statistics, and
stop as soon as the confidence interval on the primary yield is tight
enough (or a hard sample cap is hit).

The pieces are deliberately generic -- nothing here knows about delay
lines or buck converters:

* :func:`wilson_interval` -- the binomial confidence interval on a yield
  (tight, well behaved at the 0 %/100 % edges), implemented on the
  standard library alone.  Every engine reports its intervals at the
  two-sided level :data:`CONFIDENCE` (95 %).
* :class:`RunningMoments` -- streaming mean/variance via Welford's
  algorithm with Chan's parallel merge for whole-chunk updates, plus
  running min/max.  Continuous statistics (limit-cycle amplitude, INL)
  stream through these so no per-instance history is retained.
* :func:`adaptive_sample` -- the engine: repeatedly calls a chunk-drawing
  function with ``(first_instance, count)`` coordinates, folds the
  returned :class:`SampleChunk` into the running statistics, and stops on
  precision or on the cap, reporting an :class:`AdaptiveSampleResult`.

Chunked seeding is the caller's contract: the chunk function must derive
instance ``i``'s randomness from a per-instance stream (e.g.
``np.random.default_rng((seed, i))``), so the same seed yields the same
sample stream regardless of chunk size.  The repo's variation models
honour this (see :meth:`repro.technology.variation.VariationModel.sample`
and :meth:`repro.core.yield_analysis.ComponentVariation.sample_instances`),
which is what makes chunked and one-shot adaptive runs bit-identical --
hypothesis-tested in ``tests/test_mc.py``.  It is also what lets the
engine fetch several chunks with one wide ``draw`` call (vectorized
engines are cheaper per instance at a few hundred lanes) and still fold
them one chunk at a time, with every result unchanged.

Example -- a synthetic 97 %-yield process stops long before a 4096-sample
cap once the 95 % Wilson interval is +/- 2 % tight:

    >>> import numpy as np
    >>> from repro.mc import SampleChunk, adaptive_sample
    >>> def draw(first_instance, count):
    ...     passes = np.array([
    ...         np.random.default_rng((7, i)).uniform() < 0.97
    ...         for i in range(first_instance, first_instance + count)
    ...     ])
    ...     return SampleChunk(passes={"yield": passes},
    ...                        values={"score": passes.astype(float)})
    >>> result = adaptive_sample(draw, primary="yield", precision=0.02,
    ...                          chunk_size=64, max_samples=4096)
    >>> result.stop_reason
    'precision'
    >>> result.trials
    320
    >>> result.intervals["yield"].half_width <= 0.02
    True
    >>> round(result.estimates["yield"], 3)
    0.969

and the same seed gives the same stream at any chunk size:

    >>> chunked = adaptive_sample(draw, primary="yield", precision=0.0,
    ...                           chunk_size=17, max_samples=320)
    >>> chunked.successes["yield"] == result.successes["yield"]
    True
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np
import numpy.typing as npt

__all__ = [
    "CONFIDENCE",
    "MIN_ESS",
    "AdaptiveSampleResult",
    "ConfidenceInterval",
    "ImportanceSampleResult",
    "RunningMoments",
    "SampleChunk",
    "StratifiedSampleResult",
    "Stratum",
    "StratumResult",
    "WeightedRunningMoments",
    "WeightedSampleChunk",
    "adaptive_sample",
    "importance_sample",
    "normal_cdf",
    "normal_ppf",
    "stratified_sample",
    "wilson_interval",
]


# --------------------------------------------------------------------------
# Confidence intervals on a binomial proportion (standard library only).
# --------------------------------------------------------------------------

#: Two-sided confidence level of every interval the estimators report and
#: of the half-width their stopping rules compare with ``precision``.
CONFIDENCE = 0.95


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided confidence interval on a proportion.

    Attributes:
        lower / upper: interval bounds, clipped to ``[0, 1]``.
        confidence: the two-sided confidence level the bounds realize.
    """

    lower: float
    upper: float
    confidence: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.lower <= self.upper <= 1.0:
            raise ValueError(
                f"bounds must satisfy 0 <= lower <= upper <= 1; "
                f"got [{self.lower}, {self.upper}]"
            )

    @property
    def half_width(self) -> float:
        """Half the interval width -- the adaptive engine's precision measure."""
        return 0.5 * (self.upper - self.lower)

    def contains(self, proportion: float) -> bool:
        return self.lower <= proportion <= self.upper


def normal_ppf(quantile: float) -> float:
    """Inverse standard-normal CDF (Acklam's rational approximation).

    Refined with one Halley step against the exact :func:`math.erf` CDF, so
    the result is accurate to machine precision -- cross-checked against
    ``scipy.stats.norm.ppf`` in the tests.
    """
    if not 0.0 < quantile < 1.0:
        raise ValueError(f"quantile must be in (0, 1); got {quantile}")
    # Acklam's coefficients.
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    p_low = 0.02425
    if quantile < p_low:
        q = math.sqrt(-2.0 * math.log(quantile))
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    elif quantile <= 1.0 - p_low:
        q = quantile - 0.5
        r = q * q
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
            ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
        )
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - quantile))
        x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    # One Halley refinement step against the exact CDF.
    error = 0.5 * math.erfc(-x / math.sqrt(2.0)) - quantile
    u = error * math.sqrt(2.0 * math.pi) * math.exp(0.5 * x * x)
    return x - u / (1.0 + 0.5 * x * u)


def normal_cdf(x: float) -> float:
    """Standard normal CDF, exact via :func:`math.erfc`.

    The inverse of :func:`normal_ppf`; the stratified estimators use it to
    turn sigma-shell boundaries into exact stratum probability masses.
    """
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _validate_counts(successes: int, trials: int, confidence: float) -> None:
    if trials < 1:
        raise ValueError(f"trials must be >= 1; got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must be in [0, {trials}]; got {successes}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1); got {confidence}")


def wilson_interval(
    successes: int, trials: int, confidence: float = CONFIDENCE
) -> ConfidenceInterval:
    """Wilson score interval on a binomial proportion.

    The interval of the adaptive engine: unlike the normal
    (Wald) approximation it never collapses to zero width at 0 %/100 %
    observed yield, so "all passed so far" still carries honest
    uncertainty -- exactly the regime high-yield cells live in.
    """
    _validate_counts(successes, trials, confidence)
    z = normal_ppf(0.5 * (1.0 + confidence))
    phat = successes / trials
    z2_n = z * z / trials
    denominator = 1.0 + z2_n
    center = (phat + 0.5 * z2_n) / denominator
    margin = (
        z
        * math.sqrt(phat * (1.0 - phat) / trials + 0.25 * z2_n / trials)
        / denominator
    )
    # At the boundaries the closed form is exactly 0/1; pin it so float
    # round-off cannot leak an epsilon past the estimate.
    return ConfidenceInterval(
        lower=0.0 if successes == 0 else max(0.0, center - margin),
        upper=1.0 if successes == trials else min(1.0, center + margin),
        confidence=confidence,
    )


# --------------------------------------------------------------------------
# Streaming moments (Welford + Chan merge).
# --------------------------------------------------------------------------


class RunningMoments:
    """Streaming mean/variance/extrema of a value stream.

    Scalar updates use Welford's algorithm; whole-chunk updates
    (:meth:`extend`) compute the chunk's moments vectorized and fold them
    in with Chan et al.'s parallel-merge formula, so a chunked stream costs
    one numpy pass per chunk and the result is independent of how the
    stream was chunked (up to float round-off).

    Edge-case contract (tested in ``tests/test_mc_statistics.py``):

    * ``extend([])`` is a strict no-op -- the count, moments and min/max
      are untouched, so an empty chunk can never inject NaN extrema;
    * merging into an empty accumulator is *exact*: after ``extend(data)``
      on a fresh instance the moments equal the directly computed ones bit
      for bit (Chan's merge with one empty side degenerates to a copy);
    * :meth:`variance` with ``ddof`` >= ``count`` (notably the ``ddof=1``
      sample variance of a single observation) deliberately returns
      ``NaN`` rather than raising -- a streaming consumer polling after
      every chunk should see "not defined yet", not an exception.
    """

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def push(self, value: float) -> None:
        """Fold one scalar observation into the stream."""
        value = float(value)
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    def extend(self, values: npt.ArrayLike) -> None:
        """Fold a whole chunk of observations into the stream."""
        values = np.asarray(values, dtype=float).ravel()
        if values.size == 0:
            return
        chunk_count = int(values.size)
        chunk_mean = float(values.mean())
        chunk_m2 = float(((values - chunk_mean) ** 2).sum())
        delta = chunk_mean - self.mean
        total = self.count + chunk_count
        self._m2 += chunk_m2 + delta * delta * self.count * chunk_count / total
        self.mean += delta * chunk_count / total
        self.count = total
        self.minimum = min(self.minimum, float(values.min()))
        self.maximum = max(self.maximum, float(values.max()))

    def variance(self, ddof: int = 0) -> float:
        """Variance of the stream so far (``ddof=1`` for the sample variance).

        Returns ``NaN`` (never raises) while ``count <= ddof`` -- in
        particular the ``ddof=1`` sample variance of a single observation
        is undefined, and a streaming consumer polling after every chunk
        relies on reading "undefined" rather than catching an error.
        """
        if self.count <= ddof:
            return math.nan
        return self._m2 / (self.count - ddof)

    def std(self, ddof: int = 0) -> float:
        variance = self.variance(ddof)
        return math.sqrt(variance) if not math.isnan(variance) else math.nan

    def summary(self) -> dict[str, float]:
        """Mean/std/min/max/count as a plain JSON-able dict."""
        return {
            "count": self.count,
            "mean": self.mean if self.count else math.nan,
            "std": self.std(),
            "min": self.minimum if self.count else math.nan,
            "max": self.maximum if self.count else math.nan,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"RunningMoments(count={self.count}, mean={self.mean:.6g}, "
            f"std={self.std():.6g})"
        )


# --------------------------------------------------------------------------
# The adaptive sampling engine.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SampleChunk:
    """What one drawn chunk contributed to the running statistics.

    Attributes:
        passes: mapping of statistic name to a per-instance boolean array
            (one entry per instance of the chunk).  Every named statistic
            accumulates its own success count and confidence interval; the
            engine's stopping rule watches the *primary* one.
        values: mapping of metric name to a per-instance float array;
            each streams through a :class:`RunningMoments`.
    """

    passes: Mapping[str, npt.NDArray[np.bool_]]
    values: Mapping[str, npt.NDArray[np.float64]] = field(default_factory=dict)


@dataclass(frozen=True)
class AdaptiveSampleResult:
    """Outcome of one adaptive sampling run.

    Attributes:
        primary: name of the pass statistic that drove the stopping rule.
        trials: total instances drawn.
        chunks: number of chunks drawn.
        stop_reason: ``"precision"`` (the primary interval's half-width hit
            the target) or ``"max_samples"`` (the cap was exhausted first).
        successes: per-statistic success counts.
        estimates: per-statistic maximum-likelihood yields
            (``successes / trials``).
        intervals: per-statistic Wilson intervals at :data:`CONFIDENCE`.
        moments: per-metric streaming moments.
        precision / confidence / max_samples / chunk_size: the
            configuration the run used.
    """

    primary: str
    trials: int
    chunks: int
    stop_reason: str
    successes: dict[str, int]
    estimates: dict[str, float]
    intervals: dict[str, ConfidenceInterval]
    moments: dict[str, RunningMoments]
    precision: float
    confidence: float
    max_samples: int
    chunk_size: int

    @property
    def estimate(self) -> float:
        """The primary statistic's maximum-likelihood yield."""
        return self.estimates[self.primary]

    @property
    def interval(self) -> ConfidenceInterval:
        """The primary statistic's confidence interval."""
        return self.intervals[self.primary]

    def interval_summary(self) -> dict[str, object]:
        """The primary interval and the spent budget as JSON scalars."""
        return {
            "ci_lower": self.interval.lower,
            "ci_upper": self.interval.upper,
            "confidence": self.confidence,
            "samples": self.trials,
            "stop_reason": self.stop_reason,
        }


def _check_budget(precision: float, max_samples: int, chunk_size: int) -> None:
    """Validate the budget arguments every estimator shares."""
    if not 0.0 <= precision < math.inf:
        raise ValueError(
            f"precision must be non-negative and finite; got {precision}"
        )
    if max_samples < 1:
        raise ValueError(f"max_samples must be >= 1; got {max_samples}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1; got {chunk_size}")


def _checked_chunk(
    chunk: SampleChunk | WeightedSampleChunk,
    count: int,
    primary: str,
    seen: tuple[set[str], set[str]] | None,
    source: str = "chunk",
) -> tuple[dict[str, npt.NDArray[np.bool_]], dict[str, npt.NDArray[np.float64]]]:
    """Validate one drawn chunk and return its flag and value arrays.

    ``seen`` holds the pass-statistic and value-stream names of the
    chunks folded so far (``None`` before the first); a chunk must not
    change them, and every array must have shape ``(count,)``.
    ``source`` names the chunk in the errors.
    """
    if primary not in chunk.passes:
        raise ValueError(
            f"{source} has no primary pass statistic {primary!r}; "
            f"got {sorted(chunk.passes)}"
        )
    if seen is not None:
        pass_names, value_names = seen
        if set(chunk.passes) != pass_names:
            raise ValueError(
                f"{source} pass statistics changed mid-run: "
                f"{sorted(chunk.passes)} vs {sorted(pass_names)}"
            )
        if set(chunk.values) != value_names:
            raise ValueError(
                f"{source} value streams changed mid-run: "
                f"{sorted(chunk.values)} vs {sorted(value_names)}"
            )
    flags: dict[str, npt.NDArray[np.bool_]] = {}
    for name, raw_flags in chunk.passes.items():
        flags[name] = np.asarray(raw_flags, dtype=bool)
        if flags[name].shape != (count,):
            raise ValueError(
                f"pass statistic {name!r} has shape {flags[name].shape}; "
                f"expected ({count},)"
            )
    streams: dict[str, npt.NDArray[np.float64]] = {}
    for name, raw_stream in chunk.values.items():
        streams[name] = np.asarray(raw_stream, dtype=float)
        if streams[name].shape != (count,):
            raise ValueError(
                f"value stream {name!r} has shape {streams[name].shape}; "
                f"expected ({count},)"
            )
    return flags, streams


#: Instances :func:`adaptive_sample` and :func:`importance_sample` aim to
#: fetch per ``draw`` call.  The vectorized engines behind a draw cost
#: several times more per instance at 64 lanes than at a few hundred, so
#: the estimators draw whole multiples of ``chunk_size`` at once and fold
#: them back one chunk at a time (see :func:`_chunk_slices`).
_LANE_TARGET = 256


def _chunk_slices(
    draw: Callable[[int, int], SampleChunk | WeightedSampleChunk],
    *,
    primary: str,
    chunk_size: int,
    max_samples: int,
) -> Iterator[
    tuple[
        dict[str, npt.NDArray[np.bool_]],
        dict[str, npt.NDArray[np.float64]],
        npt.NDArray[np.float64] | None,
    ]
]:
    """The chunks of a run in fold order, fetched by speculative wide draws.

    Each ``draw`` call covers ``chunk_size * max(1, _LANE_TARGET //
    chunk_size)`` instances, clipped to the cap, and is validated once.
    Its arrays are then sliced back to the boundaries a one-chunk-per-call
    run draws, the clipped final chunk included, and yielded as
    ``(flags, streams, log_weights)`` one chunk at a time.  The
    chunk-invariance contract makes instance ``i``'s outputs a pure
    function of ``i``, so a consumer folding these slices gets the
    one-chunk-per-call result bit for bit; instances of a wide draw still
    unread when the consumer stops are discarded.  ``log_weights`` is the
    slice of a :class:`WeightedSampleChunk`'s per-instance log-weights,
    ``None`` for a plain :class:`SampleChunk`.
    """
    width = chunk_size * max(1, _LANE_TARGET // chunk_size)
    seen: tuple[set[str], set[str]] | None = None
    first = 0
    while first < max_samples:
        count = min(width, max_samples - first)
        chunk = draw(first, count)
        flags, streams = _checked_chunk(chunk, count, primary, seen)
        seen = (set(flags), set(streams))
        log_weights = None
        if isinstance(chunk, WeightedSampleChunk):
            log_weights = np.asarray(chunk.log_weights, dtype=float)
            if log_weights.shape != (count,):
                raise ValueError(
                    f"log_weights has shape {log_weights.shape}; "
                    f"expected ({count},)"
                )
        for start in range(0, count, chunk_size):
            part = slice(start, start + chunk_size)
            yield (
                {name: passed[part] for name, passed in flags.items()},
                {name: stream[part] for name, stream in streams.items()},
                None if log_weights is None else log_weights[part],
            )
        first += count


def adaptive_sample(
    draw: Callable[[int, int], SampleChunk],
    *,
    primary: str,
    precision: float,
    max_samples: int = 4096,
    chunk_size: int = 64,
) -> AdaptiveSampleResult:
    """Draw chunks until the primary yield's confidence interval is tight.

    Args:
        draw: chunk function mapping ``(first_instance, count)`` to a
            :class:`SampleChunk` covering instances ``first_instance ..
            first_instance + count - 1``.  It must derive instance ``i``'s
            randomness from a per-instance stream so the sample stream is
            independent of the chunking.  One call may cover several
            chunks (up to ``max(chunk_size, 256)`` instances); the chunks
            are still folded one at a time, and instances drawn past the
            stop are discarded.
        primary: name of the pass statistic the stopping rule watches.
        precision: target half-width of the primary Wilson interval at
            :data:`CONFIDENCE`; ``0.0`` disables early stopping (the run
            always exhausts the cap -- useful for chunk-invariance
            testing).
        max_samples: hard cap on total instances; the final chunk is
            clipped so the cap is met exactly.
        chunk_size: instances per chunk, the granularity of the stopping
            rule.

    Returns:
        an :class:`AdaptiveSampleResult`; ``result.trials`` is the spent
        sample budget, the quantity the adaptive engine exists to shrink.
    """
    _check_budget(precision, max_samples, chunk_size)
    successes: dict[str, int] = {}
    moments: dict[str, RunningMoments] = {}
    trials = 0
    chunks = 0
    stop_reason = "max_samples"
    for flags, streams, _ in _chunk_slices(
        draw, primary=primary, chunk_size=chunk_size, max_samples=max_samples
    ):
        for name, passed in flags.items():
            successes[name] = successes.get(name, 0) + int(passed.sum())
        for name, stream in streams.items():
            moments.setdefault(name, RunningMoments()).extend(stream)
        trials += len(flags[primary])
        chunks += 1
        if (
            precision > 0.0
            and wilson_interval(successes[primary], trials).half_width <= precision
        ):
            stop_reason = "precision"
            break

    return AdaptiveSampleResult(
        primary=primary,
        trials=trials,
        chunks=chunks,
        stop_reason=stop_reason,
        successes=dict(successes),
        estimates={name: count / trials for name, count in successes.items()},
        intervals={
            name: wilson_interval(count, trials)
            for name, count in successes.items()
        },
        moments=moments,
        precision=precision,
        confidence=CONFIDENCE,
        max_samples=max_samples,
        chunk_size=chunk_size,
    )


# --------------------------------------------------------------------------
# Weighted streaming moments (self-normalized importance sampling).
# --------------------------------------------------------------------------


class WeightedRunningMoments:
    """Streaming statistics of a weighted value stream.

    The importance-sampling engine reweights every observation by its
    likelihood ratio between the nominal and the tilted sampling
    distribution.  This accumulator streams the sums that the
    *self-normalized* estimator needs -- ``sum(w)``, ``sum(w^2)``,
    ``sum(w*x)`` and the second-order cross terms -- so an arbitrarily
    long run holds O(1) state, exactly like :class:`RunningMoments` does
    for the unweighted statistics.

    Weights arrive in *log* space and are stored relative to the largest
    log-weight seen so far: when a later chunk raises the maximum, the
    accumulated sums are rescaled once.  Likelihood ratios of strongly
    tilted draws span hundreds of nats, so exponentiating them naively
    would overflow long before the estimator itself is in trouble.

    The headline outputs:

    * :attr:`mean` -- the self-normalized estimate
      ``sum(w*x) / sum(w)`` (biased at finite n, consistent, and immune
      to an unknown normalizing constant in the weights);
    * :meth:`variance_of_mean` -- its delta-method variance
      ``sum(w^2 * (x - mean)^2) / sum(w)^2``;
    * :meth:`effective_sample_size` -- Kish's
      ``sum(w)^2 / sum(w^2)``, the equivalent number of unweighted
      samples; the stopping rule refuses to trust a tight-looking
      interval until this clears a floor (see :func:`importance_sample`).
    """

    def __init__(self) -> None:
        self.count = 0
        self._offset = -math.inf
        self._sum_w = 0.0
        self._sum_w2 = 0.0
        self._sum_wx = 0.0
        self._sum_w2x = 0.0
        self._sum_w2x2 = 0.0

    def push(self, value: float, log_weight: float) -> None:
        """Fold one weighted observation into the stream."""
        self.extend(np.array([float(value)]), np.array([float(log_weight)]))

    def extend(self, values: npt.ArrayLike, log_weights: npt.ArrayLike) -> None:
        """Fold a chunk of observations with per-observation log-weights.

        An empty chunk is a strict no-op, mirroring
        :meth:`RunningMoments.extend`.
        """
        data = np.asarray(values, dtype=float).ravel()
        logs = np.asarray(log_weights, dtype=float).ravel()
        if data.shape != logs.shape:
            raise ValueError(
                f"values and log_weights must align; got {data.shape} "
                f"vs {logs.shape}"
            )
        if data.size == 0:
            return
        if np.isnan(logs).any() or np.isposinf(logs).any():
            raise ValueError("log-weights must be finite or -inf")
        chunk_max = float(logs.max())
        if math.isinf(chunk_max):
            # Every weight in the chunk is exactly zero: the observations
            # count toward the budget but carry no estimator mass.
            self.count += int(data.size)
            return
        if chunk_max > self._offset:
            rescale = math.exp(self._offset - chunk_max) if self.count else 0.0
            self._sum_w *= rescale
            self._sum_wx *= rescale
            squared = rescale * rescale
            self._sum_w2 *= squared
            self._sum_w2x *= squared
            self._sum_w2x2 *= squared
            self._offset = chunk_max
        weights = np.exp(logs - self._offset)
        self._sum_w += float(weights.sum())
        self._sum_w2 += float((weights * weights).sum())
        self._sum_wx += float((weights * data).sum())
        self._sum_w2x += float((weights * weights * data).sum())
        self._sum_w2x2 += float((weights * weights * data * data).sum())
        self.count += int(data.size)

    @property
    def mean(self) -> float:
        """Self-normalized weighted mean (``NaN`` until a weight arrives)."""
        if self.count == 0 or self._sum_w <= 0.0:
            return math.nan
        return self._sum_wx / self._sum_w

    def effective_sample_size(self) -> float:
        """Kish effective sample size ``sum(w)^2 / sum(w^2)`` (0 when empty)."""
        if self.count == 0 or self._sum_w2 <= 0.0:
            return 0.0
        return self._sum_w * self._sum_w / self._sum_w2

    def variance_of_mean(self) -> float:
        """Delta-method variance of the self-normalized mean.

        ``sum(w^2 (x - mean)^2) / sum(w)^2``, expanded into the streamed
        second-order sums; clamped at zero against round-off.
        """
        if self.count == 0 or self._sum_w <= 0.0:
            return math.nan
        mean = self.mean
        quadratic = (
            self._sum_w2x2 - 2.0 * mean * self._sum_w2x + mean * mean * self._sum_w2
        )
        return max(0.0, quadratic) / (self._sum_w * self._sum_w)

    def standard_error(self) -> float:
        variance = self.variance_of_mean()
        return math.sqrt(variance) if not math.isnan(variance) else math.nan

    def interval(self, confidence: float = CONFIDENCE) -> ConfidenceInterval:
        """Normal-approximation interval on the weighted mean of pass flags.

        Meaningful when the values are 0/1 indicators (the mean is then a
        probability); the bounds are clipped to ``[0, 1]``.  Degenerates
        to the vacuous ``[0, 1]`` interval while no weight has arrived --
        honest "know nothing yet", the same spirit as Wilson never
        collapsing at the edges.
        """
        if not 0.0 < confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1); got {confidence}")
        half_width = normal_ppf(0.5 * (1.0 + confidence)) * self.standard_error()
        mean = self.mean
        if not math.isfinite(mean) or not math.isfinite(half_width):
            return ConfidenceInterval(lower=0.0, upper=1.0, confidence=confidence)
        mean = min(1.0, max(0.0, mean))
        return ConfidenceInterval(
            lower=max(0.0, mean - half_width),
            upper=min(1.0, mean + half_width),
            confidence=confidence,
        )

    def summary(self) -> dict[str, float]:
        """Count/mean/standard-error/ESS as a plain JSON-able dict."""
        return {
            "count": float(self.count),
            "mean": self.mean,
            "standard_error": self.standard_error(),
            "effective_sample_size": self.effective_sample_size(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"WeightedRunningMoments(count={self.count}, mean={self.mean:.6g}, "
            f"ess={self.effective_sample_size():.6g})"
        )


# --------------------------------------------------------------------------
# Importance sampling (tilted draws, self-normalized reweighting).
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightedSampleChunk:
    """One drawn chunk of tilted observations plus their log-likelihood ratios.

    Attributes:
        passes: mapping of statistic name to a per-instance boolean array,
            as in :class:`SampleChunk` -- but the flags were evaluated on
            *tilted* draws.
        log_weights: per-instance ``log p(x) - log q(x)`` where ``p`` is
            the nominal distribution and ``q`` the tilted one the chunk
            was actually drawn from.  One array per chunk: every statistic
            shares the instance draws, hence the weights.
        values: mapping of metric name to a per-instance float array;
            each streams through a :class:`WeightedRunningMoments`, so the
            reported summaries describe the *nominal* population.
    """

    passes: Mapping[str, npt.NDArray[np.bool_]]
    log_weights: npt.NDArray[np.float64]
    values: Mapping[str, npt.NDArray[np.float64]] = field(default_factory=dict)


@dataclass(frozen=True)
class ImportanceSampleResult:
    """Outcome of one self-normalized importance-sampling run.

    Attributes:
        primary: name of the pass statistic that drove the stopping rule.
        trials: total instances drawn (from the tilted distribution).
        chunks: number of chunks drawn.
        stop_reason: ``"precision"`` (interval tight enough *and* the
            effective sample size cleared :data:`MIN_ESS`) or
            ``"max_samples"``.
        estimates: per-statistic self-normalized probability estimates.
        intervals: per-statistic delta-method normal intervals.
        effective_sample_size: Kish ESS of the final weight stream.
        weighted: per-statistic weighted accumulators (full precision).
        value_moments: per-metric weighted accumulators.
        precision / confidence / max_samples / chunk_size: the
            configuration the run used.
    """

    primary: str
    trials: int
    chunks: int
    stop_reason: str
    estimates: dict[str, float]
    intervals: dict[str, ConfidenceInterval]
    effective_sample_size: float
    weighted: dict[str, WeightedRunningMoments]
    value_moments: dict[str, WeightedRunningMoments]
    precision: float
    confidence: float
    max_samples: int
    chunk_size: int

    @property
    def estimate(self) -> float:
        """The primary statistic's self-normalized estimate."""
        return self.estimates[self.primary]

    @property
    def interval(self) -> ConfidenceInterval:
        """The primary statistic's confidence interval."""
        return self.intervals[self.primary]


#: Kish effective-sample-size floor of :func:`importance_sample`'s stopping
#: rule: a tight-looking reweighted interval stops the run only once the
#: weights are worth at least this many unweighted samples.
MIN_ESS = 32.0


def importance_sample(
    draw: Callable[[int, int], WeightedSampleChunk],
    *,
    primary: str,
    precision: float,
    max_samples: int = 4096,
    chunk_size: int = 64,
) -> ImportanceSampleResult:
    """Draw tilted chunks until the reweighted interval is tight and trusted.

    The importance-sampling sibling of :func:`adaptive_sample`: the chunk
    function draws from a *tilted* distribution concentrated on the event
    of interest and reports per-instance log-likelihood ratios back to the
    nominal distribution; the engine folds the reweighted pass flags into
    :class:`WeightedRunningMoments` and stops once the delta-method
    interval on the primary estimate has half-width ``<= precision`` --
    but only after the effective sample size has cleared :data:`MIN_ESS`.
    The ESS guard is what makes the stopping rule honest: early in a
    strongly tilted run a handful of draws can carry nearly all the
    weight, the delta-method variance is then a wild underestimate, and
    without the guard the run would stop on a fictitiously tight
    interval.

    Args:
        draw: chunk function mapping ``(first_instance, count)`` to a
            :class:`WeightedSampleChunk`.  Same chunk-stable seeding
            contract and wide draws as :func:`adaptive_sample`: instance
            ``i``'s draw (and therefore its weight) must not depend on the
            chunking.
        primary: name of the pass statistic the stopping rule watches.
        precision: target half-width of the primary interval at
            :data:`CONFIDENCE`; ``0.0`` disables early stopping.
        max_samples: hard cap on total instances.
        chunk_size: instances per chunk, the granularity of the stopping
            rule.

    Returns:
        an :class:`ImportanceSampleResult`; ``result.trials`` is the spent
        (tilted) sample budget.
    """
    _check_budget(precision, max_samples, chunk_size)

    weighted: dict[str, WeightedRunningMoments] = {}
    value_moments: dict[str, WeightedRunningMoments] = {}
    trials = 0
    chunks = 0
    stop_reason = "max_samples"
    for flags, streams, log_weights in _chunk_slices(
        draw, primary=primary, chunk_size=chunk_size, max_samples=max_samples
    ):
        if log_weights is None:
            raise TypeError(
                "importance sampling needs WeightedSampleChunk draws "
                "carrying log_weights"
            )
        for name, passed in flags.items():
            weighted.setdefault(name, WeightedRunningMoments()).extend(
                passed.astype(float), log_weights
            )
        for name, stream in streams.items():
            value_moments.setdefault(name, WeightedRunningMoments()).extend(
                stream, log_weights
            )
        trials += len(flags[primary])
        chunks += 1
        stat = weighted[primary]
        if (
            precision > 0.0
            and stat.interval().half_width <= precision
            and stat.effective_sample_size() >= MIN_ESS
        ):
            stop_reason = "precision"
            break

    return ImportanceSampleResult(
        primary=primary,
        trials=trials,
        chunks=chunks,
        stop_reason=stop_reason,
        estimates={name: stat.mean for name, stat in weighted.items()},
        intervals={name: stat.interval() for name, stat in weighted.items()},
        effective_sample_size=weighted[primary].effective_sample_size(),
        weighted=weighted,
        value_moments=value_moments,
        precision=precision,
        confidence=CONFIDENCE,
        max_samples=max_samples,
        chunk_size=chunk_size,
    )


# --------------------------------------------------------------------------
# Stratified sampling (Neyman allocation, post-stratified estimate).
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Stratum:
    """One stratum of a stratified run: a probability mass plus a sampler.

    Attributes:
        name: stable identifier (reported per stratum in the result).
        weight: the stratum's exact probability mass under the nominal
            distribution; all weights of a run must sum to 1.
        draw: chunk function mapping ``(first_instance, count)`` to a
            :class:`SampleChunk` drawn *conditionally on the stratum*.
            Per-stratum chunk-stable seeding contract: instance ``i`` of
            this stratum must key its randomness on ``i`` (and the
            stratum), independent of the chunking and of how many samples
            other strata received.
    """

    name: str
    weight: float
    draw: Callable[[int, int], SampleChunk]

    def __post_init__(self) -> None:
        if not 0.0 < self.weight <= 1.0:
            raise ValueError(
                f"stratum weight must be in (0, 1]; got {self.weight}"
            )


@dataclass(frozen=True)
class StratumResult:
    """Per-stratum bookkeeping of one stratified run."""

    name: str
    weight: float
    trials: int
    successes: dict[str, int]

    def estimate(self, statistic: str) -> float:
        """Within-stratum success fraction of one pass statistic."""
        return self.successes[statistic] / self.trials if self.trials else math.nan


@dataclass(frozen=True)
class StratifiedSampleResult:
    """Outcome of one post-stratified adaptive run.

    Attributes:
        primary: name of the pass statistic that drove the stopping rule
            and the Neyman allocation.
        trials: total instances drawn across all strata.
        chunks: number of chunks drawn.
        stop_reason: ``"precision"`` or ``"max_samples"``.
        estimates: per-statistic post-stratified probability estimates
            (``sum_h W_h * p_h``).
        intervals: per-statistic normal intervals from the post-stratified
            variance ``sum_h W_h^2 p~_h (1 - p~_h) / n_h`` (Laplace-
            smoothed within-stratum variances, so an all-pass stratum
            still carries honest width).
        strata: per-stratum trials and success counts, in input order.
        value_means: per-metric post-stratified means
            (``sum_h W_h * mean_h``).
        precision / confidence / max_samples / chunk_size: configuration.
    """

    primary: str
    trials: int
    chunks: int
    stop_reason: str
    estimates: dict[str, float]
    intervals: dict[str, ConfidenceInterval]
    strata: tuple[StratumResult, ...]
    value_means: dict[str, float]
    precision: float
    confidence: float
    max_samples: int
    chunk_size: int

    @property
    def estimate(self) -> float:
        """The primary statistic's post-stratified estimate."""
        return self.estimates[self.primary]

    @property
    def interval(self) -> ConfidenceInterval:
        """The primary statistic's confidence interval."""
        return self.intervals[self.primary]


def _smoothed_stratum_variance(successes: int, trials: int) -> float:
    """Laplace-smoothed Bernoulli variance ``p~ (1 - p~)`` of one stratum.

    The smoothing keeps a stratum that has not failed (or not passed) yet
    from claiming zero variance, which would freeze both the Neyman
    allocation and the interval at a fiction.
    """
    smoothed = (successes + 1.0) / (trials + 2.0)
    return smoothed * (1.0 - smoothed)


def stratified_sample(
    strata: Sequence[Stratum],
    *,
    primary: str,
    precision: float,
    max_samples: int = 4096,
    chunk_size: int = 64,
) -> StratifiedSampleResult:
    """Allocate chunks across strata by Neyman allocation until the CI is tight.

    The stratified sibling of :func:`adaptive_sample`: the variation space
    is partitioned into caller-declared strata of known probability mass,
    each with its own conditional sampler.  After an exploration pass that
    gives every stratum one chunk of draws (clipped to an equal share of
    the cap), each subsequent chunk goes to the stratum where it buys the
    largest reduction of the post-stratified variance -- the greedy
    chunked form of Neyman's ``n_h proportional to W_h * s_h``
    allocation, driven by the running (Laplace-smoothed) per-stratum
    moments.  The run stops when the normal interval at
    :data:`CONFIDENCE` on the post-stratified primary estimate has
    half-width ``<= precision`` or the cap is spent.

    Args:
        strata: the partition; weights must sum to 1 (use
            :func:`normal_cdf` for sigma-shell masses).  Order is the
            tie-break order of the allocation, so it is part of the run's
            reproducible configuration.
        primary: name of the pass statistic the allocation and stopping
            rule watch.
        precision: target half-width of the primary interval; ``0.0``
            disables early stopping.
        max_samples: hard cap on total instances (must cover at least one
            draw per stratum).
        chunk_size: instances per chunk.

    Returns:
        a :class:`StratifiedSampleResult`; ``result.trials`` is the spent
        sample budget across all strata.
    """
    if not strata:
        raise ValueError("need at least one stratum")
    names = [stratum.name for stratum in strata]
    if len(set(names)) != len(names):
        raise ValueError(f"stratum names must be unique; got {names}")
    total_weight = sum(stratum.weight for stratum in strata)
    if abs(total_weight - 1.0) > 1e-9:
        raise ValueError(
            f"stratum weights must sum to 1; got {total_weight!r}"
        )
    if max_samples < len(strata):
        raise ValueError(
            f"max_samples must cover at least one draw per stratum; "
            f"got {max_samples} for {len(strata)} strata"
        )
    _check_budget(precision, max_samples, chunk_size)
    # The exploration floor every stratum reaches before the Neyman
    # allocation and the stopping rule take over; at least one draw.
    floor = min(chunk_size, max_samples // len(strata))

    z = normal_ppf(0.5 * (1.0 + CONFIDENCE))
    trials_h = [0 for _ in strata]
    successes_h: list[dict[str, int]] = [{} for _ in strata]
    moments_h: list[dict[str, RunningMoments]] = [{} for _ in strata]
    seen: tuple[set[str], set[str]] | None = None
    trials = 0
    chunks = 0
    stop_reason = "max_samples"

    def fold(index: int, count: int) -> None:
        nonlocal trials, chunks, seen
        flags, streams = _checked_chunk(
            strata[index].draw(trials_h[index], count),
            count,
            primary,
            seen,
            source=f"stratum {strata[index].name!r} chunk",
        )
        seen = (set(flags), set(streams))
        bucket = successes_h[index]
        for name, passed in flags.items():
            bucket[name] = bucket.get(name, 0) + int(passed.sum())
        for name, stream in streams.items():
            moments_h[index].setdefault(name, RunningMoments()).extend(stream)
        trials_h[index] += count
        trials += count
        chunks += 1

    def post_stratified(name: str) -> tuple[float, float]:
        """Estimate and interval half-width of one statistic (all explored)."""
        estimate = 0.0
        variance = 0.0
        for index, stratum in enumerate(strata):
            successes = successes_h[index].get(name, 0)
            estimate += stratum.weight * successes / trials_h[index]
            variance += (
                stratum.weight
                * stratum.weight
                * _smoothed_stratum_variance(successes, trials_h[index])
                / trials_h[index]
            )
        return estimate, z * math.sqrt(variance)

    explored = False
    while trials < max_samples:
        if explored:
            count = min(chunk_size, max_samples - trials)

            def variance_drop(h: int) -> float:
                spread = _smoothed_stratum_variance(
                    successes_h[h].get(primary, 0), trials_h[h]
                )
                n = trials_h[h]
                weight = strata[h].weight
                return weight * weight * spread * (1.0 / n - 1.0 / (n + count))

            index = max(range(len(strata)), key=variance_drop)
        else:
            index = min(range(len(strata)), key=lambda h: trials_h[h])
            count = min(chunk_size, max_samples - trials, floor - trials_h[index])
        fold(index, count)
        explored = explored or min(trials_h) >= floor
        if (
            explored
            and precision > 0.0
            and post_stratified(primary)[1] <= precision
        ):
            stop_reason = "precision"
            break

    stat_names, value_names = seen or ({primary}, set())
    estimates: dict[str, float] = {}
    intervals: dict[str, ConfidenceInterval] = {}
    for name in sorted(stat_names):
        estimate, half_width = post_stratified(name)
        estimates[name] = estimate
        intervals[name] = ConfidenceInterval(
            lower=max(0.0, estimate - half_width),
            upper=min(1.0, estimate + half_width),
            confidence=CONFIDENCE,
        )

    value_means: dict[str, float] = {}
    for name in sorted(value_names):
        value_means[name] = sum(
            stratum.weight * moments_h[index][name].mean
            for index, stratum in enumerate(strata)
        )

    return StratifiedSampleResult(
        primary=primary,
        trials=trials,
        chunks=chunks,
        stop_reason=stop_reason,
        estimates=estimates,
        intervals=intervals,
        strata=tuple(
            StratumResult(
                name=stratum.name,
                weight=stratum.weight,
                trials=trials_h[index],
                successes=dict(successes_h[index]),
            )
            for index, stratum in enumerate(strata)
        ),
        value_means=value_means,
        precision=precision,
        confidence=CONFIDENCE,
        max_samples=max_samples,
        chunk_size=chunk_size,
    )
