"""Linearity and regulation metrics.

The paper judges the delay-line schemes on *linearity*: how closely the
delay-versus-input-word transfer curve follows the ideal straight line
(Figures 42, 50 and 51).  The standard data-converter metrics are used here:

* **DNL** (differential nonlinearity): deviation of each step from the ideal
  LSB step, in LSB units.
* **INL** (integral nonlinearity): deviation of each point from the best-fit
  ideal line, in LSB units.
* **monotonicity**: whether the curve never decreases with the input word.

Regulation metrics (ripple, settling time, duty error) support the buck
converter substrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "BatchLinearityMetrics",
    "LinearityMetrics",
    "batch_linearity_metrics",
    "differential_nonlinearity",
    "distinct_level_counts",
    "integral_nonlinearity",
    "is_monotonic",
    "linearity_metrics",
    "duty_cycle_error",
    "peak_to_peak_ripple",
    "settling_time_s",
]


def _validate_curve(values: np.ndarray) -> np.ndarray:
    """Validate a transfer curve or a stack of them.

    Curves live along the *last* axis, so a 1-D array is one curve and a 2-D
    ``(instances, words)`` array is an ensemble of curves; every metric below
    operates along that axis and broadcasts over any leading axes.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim == 0 or values.shape[-1] < 2:
        raise ValueError("a transfer curve needs at least two points")
    return values


def _endpoint_lsb(values: np.ndarray, lsb: float | np.ndarray | None) -> np.ndarray:
    """The endpoint-fit LSB step, shaped to broadcast against ``values``."""
    if lsb is None:
        lsb = (values[..., -1] - values[..., 0]) / (values.shape[-1] - 1)
    lsb = np.asarray(lsb, dtype=float)
    if np.any(lsb == 0):
        raise ValueError("ideal LSB step is zero; curve is degenerate")
    return lsb


def differential_nonlinearity(
    values: np.ndarray, lsb: float | np.ndarray | None = None
) -> np.ndarray:
    """Per-code DNL in LSB units.

    Args:
        values: transfer-curve output (e.g. delay in ps) for consecutive
            input codes; a 2-D array is treated as a batch of curves (one per
            row).
        lsb: the ideal step size; defaults to the average step of each curve
            (endpoint-fit convention).
    """
    values = _validate_curve(values)
    steps = np.diff(values, axis=-1)
    lsb = _endpoint_lsb(values, lsb)
    return steps / lsb[..., np.newaxis] - 1.0


def integral_nonlinearity(
    values: np.ndarray, lsb: float | np.ndarray | None = None
) -> np.ndarray:
    """Per-code INL in LSB units (endpoint-fit); batches along leading axes."""
    values = _validate_curve(values)
    lsb = _endpoint_lsb(values, lsb)
    codes = np.arange(values.shape[-1])
    ideal = values[..., 0, np.newaxis] + codes * lsb[..., np.newaxis]
    return (values - ideal) / lsb[..., np.newaxis]


def is_monotonic(values: np.ndarray, strict: bool = False) -> bool | np.ndarray:
    """Whether the transfer curve never decreases (or strictly increases).

    Returns a plain bool for one curve, a boolean array (one entry per curve)
    for a batch.
    """
    values = _validate_curve(values)
    steps = np.diff(values, axis=-1)
    flags = np.all(steps > 0 if strict else steps >= 0, axis=-1)
    return bool(flags) if values.ndim == 1 else flags


def distinct_level_counts(values: np.ndarray) -> int | np.ndarray:
    """Number of distinct output values per curve (vectorized over batches)."""
    values = _validate_curve(values)
    ordered = np.sort(values, axis=-1)
    counts = 1 + np.count_nonzero(np.diff(ordered, axis=-1) != 0, axis=-1)
    return int(counts) if values.ndim == 1 else counts


@dataclass(frozen=True)
class LinearityMetrics:
    """Summary linearity metrics of one transfer curve.

    Attributes:
        max_dnl_lsb: worst-case |DNL|.
        max_inl_lsb: worst-case |INL|.
        rms_inl_lsb: RMS INL.
        monotonic: whether the curve is non-decreasing.
        distinct_levels: number of distinct output values (collapses at the
            slow corner of the proposed scheme, paper Figure 50).
    """

    max_dnl_lsb: float
    max_inl_lsb: float
    rms_inl_lsb: float
    monotonic: bool
    distinct_levels: int


def linearity_metrics(values: np.ndarray, lsb: float | None = None) -> LinearityMetrics:
    """Compute the summary linearity metrics of one transfer curve."""
    values = _validate_curve(values)
    if values.ndim != 1:
        raise ValueError(
            "linearity_metrics summarizes one curve; "
            "use batch_linearity_metrics for curve batches"
        )
    dnl = differential_nonlinearity(values, lsb)
    inl = integral_nonlinearity(values, lsb)
    return LinearityMetrics(
        max_dnl_lsb=float(np.max(np.abs(dnl))),
        max_inl_lsb=float(np.max(np.abs(inl))),
        rms_inl_lsb=float(np.sqrt(np.mean(inl**2))),
        monotonic=is_monotonic(values),
        distinct_levels=int(np.unique(values).size),
    )


class BatchLinearityMetrics:
    """Summary linearity metrics of a batch of transfer curves.

    Every attribute is an array with one entry per curve (instance), computed
    in one vectorized pass over the ``(instances, words)`` curve matrix the
    first time it is read, then kept.  A pass/fail rule that reads only
    monotonicity never pays for the INL matrix or the per-curve sort behind
    ``distinct_levels``.  The endpoint LSB is checked up front, so a
    degenerate (flat) curve raises at construction whichever metric is read.

    Example -- two five-word curves, the second with one backward step:

        >>> import numpy as np
        >>> metrics = BatchLinearityMetrics(
        ...     np.array([[0.0, 1.0, 2.0, 3.0, 4.0],
        ...               [0.0, 1.5, 1.0, 3.0, 4.0]]))
        >>> metrics.monotonic
        array([ True, False])
        >>> metrics.max_dnl_lsb
        array([0. , 1.5])
        >>> metrics.max_inl_lsb
        array([0., 1.])
        >>> metrics.distinct_levels
        array([5, 5])
        >>> metrics.instance(1).monotonic
        False
    """

    def __init__(
        self, values: np.ndarray, lsb: float | np.ndarray | None = None
    ) -> None:
        self._values = _validate_curve(np.atleast_2d(np.asarray(values, dtype=float)))
        self._lsb = _endpoint_lsb(self._values, lsb)

    @property
    def num_instances(self) -> int:
        return int(self._values.shape[0])

    @cached_property
    def max_dnl_lsb(self) -> np.ndarray:
        """Worst-case |DNL| per curve."""
        dnl = differential_nonlinearity(self._values, self._lsb)
        return np.max(np.abs(dnl), axis=-1)

    @cached_property
    def _inl_summary(self) -> tuple[np.ndarray, np.ndarray]:
        """Worst-case |INL| and RMS INL per curve, from one INL matrix."""
        inl = integral_nonlinearity(self._values, self._lsb)
        return np.max(np.abs(inl), axis=-1), np.sqrt(np.mean(inl**2, axis=-1))

    @property
    def max_inl_lsb(self) -> np.ndarray:
        """Worst-case |INL| per curve."""
        return self._inl_summary[0]

    @property
    def rms_inl_lsb(self) -> np.ndarray:
        """RMS INL per curve."""
        return self._inl_summary[1]

    @cached_property
    def monotonic(self) -> np.ndarray:
        """Whether each curve never decreases."""
        return np.asarray(is_monotonic(self._values))

    @cached_property
    def distinct_levels(self) -> np.ndarray:
        """Number of distinct output values per curve."""
        return np.asarray(distinct_level_counts(self._values))

    def instance(self, index: int) -> LinearityMetrics:
        """The scalar metrics of one curve of the batch."""
        return LinearityMetrics(
            max_dnl_lsb=float(self.max_dnl_lsb[index]),
            max_inl_lsb=float(self.max_inl_lsb[index]),
            rms_inl_lsb=float(self.rms_inl_lsb[index]),
            monotonic=bool(self.monotonic[index]),
            distinct_levels=int(self.distinct_levels[index]),
        )


def batch_linearity_metrics(
    values: np.ndarray, lsb: float | np.ndarray | None = None
) -> BatchLinearityMetrics:
    """Summary linearity metrics of an ``(instances, words)`` curve batch.

    Each metric is computed when it is first read (see
    :class:`BatchLinearityMetrics`).
    """
    return BatchLinearityMetrics(values, lsb)


def duty_cycle_error(achieved: float, requested: float) -> float:
    """Absolute duty-cycle error (fractions of the switching period)."""
    return abs(achieved - requested)


def peak_to_peak_ripple(samples: np.ndarray, settle_fraction: float = 0.5) -> float:
    """Peak-to-peak ripple of a steady-state waveform.

    Only the tail of the record (after ``settle_fraction`` of the samples) is
    used, so start-up transients do not inflate the ripple estimate.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size < 4:
        raise ValueError("need at least 4 samples to estimate ripple")
    start = int(samples.size * settle_fraction)
    tail = samples[start:]
    return float(tail.max() - tail.min())


def settling_time_s(
    times_s: np.ndarray,
    samples: np.ndarray,
    target: float,
    tolerance: float = 0.01,
) -> float:
    """Time after which the waveform stays within ``tolerance`` of ``target``.

    Returns ``inf`` when the waveform never settles inside the band.
    """
    times_s = np.asarray(times_s, dtype=float)
    samples = np.asarray(samples, dtype=float)
    if times_s.shape != samples.shape:
        raise ValueError("times and samples must have the same shape")
    if target == 0:
        raise ValueError("settling target must be nonzero")
    inside = np.abs(samples - target) <= abs(target) * tolerance
    if not inside[-1]:
        return float("inf")
    # Find the last sample that is outside the band; settling happens at the
    # following sample.
    outside_indices = np.nonzero(~inside)[0]
    if outside_indices.size == 0:
        return float(times_s[0])
    last_outside = outside_indices[-1]
    if last_outside + 1 >= times_s.size:
        return float("inf")
    return float(times_s[last_outside + 1])
