"""Load profiles and transient scenarios for regulation experiments.

The paper motivates precise regulation by the load transients a
microprocessor imposes on its regulator; these profiles express the load as a
resistance seen by the buck output as a function of the switching-period
index.  Beyond the constant and single-step loads, the module models the
realistic core workloads the closed loop has to survive -- current ramps
(DVFS-style activity ramps), periodic pulse trains (a duty-cycled
accelerator) and seeded random bursts (interrupt-driven activity).  The
load is the only scenario channel: the loops regulate a fixed reference
from a fixed input rail, as in the paper's Figure 15.

The scalar loop reads a profile with ``resistance_at`` once per period, the
batch engine with ``resistances`` once per run (see :class:`LoadProfile`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

__all__ = [
    "check_window",
    "LoadProfile",
    "ConstantLoad",
    "SteppedLoad",
    "RampLoad",
    "PulseTrainLoad",
    "RandomBurstLoad",
]


class LoadProfile(Protocol):
    """What the closed loops need from a load scenario.

    ``resistances(start, count)`` is the window ``[start, start + count)``
    at once; entry ``k`` equals ``resistance_at(start + k)`` bit for bit.
    """

    def resistance_at(self, period_index: int) -> float:  # pragma: no cover
        ...

    def resistances(self, start: int, count: int) -> np.ndarray:  # pragma: no cover
        ...


def check_window(start: int, count: int) -> None:
    """Reject a period window ``[start, start + count)`` no profile resolves."""
    if start < 0:
        raise ValueError(f"period index must be non-negative; got {start}")
    if count < 0:
        raise ValueError(f"count must be non-negative; got {count}")


def _period_indices(start: int, count: int) -> np.ndarray:
    """The int64 period indices ``start .. start + count``."""
    check_window(start, count)
    return np.arange(start, start + count, dtype=np.int64)


@dataclass(frozen=True)
class ConstantLoad:
    """A fixed resistive load."""

    resistance_ohm: float

    def __post_init__(self) -> None:
        if self.resistance_ohm <= 0:
            raise ValueError("load resistance must be positive")

    def resistance_at(self, period_index: int) -> float:
        """Load resistance during the given switching period."""
        return self.resistance_ohm

    def resistances(self, start: int, count: int) -> np.ndarray:
        """The window ``[start, start + count)`` at once."""
        check_window(start, count)
        return np.full(count, self.resistance_ohm, dtype=float)


@dataclass(frozen=True)
class SteppedLoad:
    """A load that steps between two resistances at given period indices.

    Attributes:
        light_ohm: resistance before ``step_up_period`` and after
            ``step_down_period``.
        heavy_ohm: resistance between the two step points.
        step_up_period: period index at which the heavy load is applied.
        step_down_period: period index at which the load is released
            (use a large value for a single step).
    """

    light_ohm: float
    heavy_ohm: float
    step_up_period: int
    step_down_period: int = 10**9

    def __post_init__(self) -> None:
        if self.light_ohm <= 0 or self.heavy_ohm <= 0:
            raise ValueError("load resistances must be positive")
        if self.step_up_period < 0:
            raise ValueError("step_up_period must be non-negative")
        if self.step_down_period <= self.step_up_period:
            raise ValueError("step_down_period must come after step_up_period")

    def resistance_at(self, period_index: int) -> float:
        """Load resistance during the given switching period."""
        if self.step_up_period <= period_index < self.step_down_period:
            return self.heavy_ohm
        return self.light_ohm

    def resistances(self, start: int, count: int) -> np.ndarray:
        """The window ``[start, start + count)`` at once."""
        index = _period_indices(start, count)
        heavy = (self.step_up_period <= index) & (index < self.step_down_period)
        return np.where(heavy, float(self.heavy_ohm), float(self.light_ohm))


@dataclass(frozen=True)
class RampLoad:
    """A load whose resistance ramps linearly between two values.

    Models a DVFS-style activity ramp: the load current rises (resistance
    falls) gradually instead of stepping, which exercises the loop's
    tracking rather than its transient recovery.

    Attributes:
        start_ohm: resistance before ``ramp_start_period``.
        end_ohm: resistance after ``ramp_end_period``.
        ramp_start_period: period index at which the ramp begins.
        ramp_end_period: period index at which the ramp completes.
    """

    start_ohm: float
    end_ohm: float
    ramp_start_period: int
    ramp_end_period: int

    def __post_init__(self) -> None:
        if self.start_ohm <= 0 or self.end_ohm <= 0:
            raise ValueError("load resistances must be positive")
        if self.ramp_start_period < 0:
            raise ValueError("ramp_start_period must be non-negative")
        if self.ramp_end_period <= self.ramp_start_period:
            raise ValueError("ramp_end_period must come after ramp_start_period")

    def resistance_at(self, period_index: int) -> float:
        """Load resistance during the given switching period."""
        if period_index <= self.ramp_start_period:
            return self.start_ohm
        if period_index >= self.ramp_end_period:
            return self.end_ohm
        progress = (period_index - self.ramp_start_period) / (
            self.ramp_end_period - self.ramp_start_period
        )
        return self.start_ohm + progress * (self.end_ohm - self.start_ohm)

    def resistances(self, start: int, count: int) -> np.ndarray:
        """The window ``[start, start + count)`` at once.

        The same IEEE operations as :meth:`resistance_at`: the integer
        offsets divide exactly as Python's true division does.
        """
        index = _period_indices(start, count)
        progress = (index - self.ramp_start_period) / (
            self.ramp_end_period - self.ramp_start_period
        )
        ramp = self.start_ohm + progress * (self.end_ohm - self.start_ohm)
        ramp[index <= self.ramp_start_period] = self.start_ohm
        ramp[index >= self.ramp_end_period] = self.end_ohm
        return ramp


@dataclass(frozen=True)
class PulseTrainLoad:
    """A load that pulses periodically between a light and a heavy value.

    Models a duty-cycled workload (e.g. an accelerator woken every scheduling
    quantum): starting at ``first_pulse_period``, the load is heavy for
    ``pulse_periods`` switching periods out of every ``train_period``.
    """

    light_ohm: float
    heavy_ohm: float
    pulse_periods: int
    train_period: int
    first_pulse_period: int = 0

    def __post_init__(self) -> None:
        if self.light_ohm <= 0 or self.heavy_ohm <= 0:
            raise ValueError("load resistances must be positive")
        if self.pulse_periods < 1:
            raise ValueError("pulse_periods must be positive")
        if self.train_period <= self.pulse_periods:
            raise ValueError("train_period must exceed pulse_periods")
        if self.first_pulse_period < 0:
            raise ValueError("first_pulse_period must be non-negative")

    def resistance_at(self, period_index: int) -> float:
        """Load resistance during the given switching period."""
        if period_index < self.first_pulse_period:
            return self.light_ohm
        phase = (period_index - self.first_pulse_period) % self.train_period
        return self.heavy_ohm if phase < self.pulse_periods else self.light_ohm

    def resistances(self, start: int, count: int) -> np.ndarray:
        """The window ``[start, start + count)`` at once."""
        index = _period_indices(start, count)
        phase = (index - self.first_pulse_period) % self.train_period
        heavy = (index >= self.first_pulse_period) & (phase < self.pulse_periods)
        return np.where(heavy, float(self.heavy_ohm), float(self.light_ohm))


@dataclass(frozen=True)
class RandomBurstLoad:
    """A load with random heavy bursts, reproducible from a seed.

    Models interrupt-driven activity: each switching period independently
    starts a burst with probability ``burst_probability``; a burst holds the
    heavy load for ``burst_periods`` periods.  The burst schedule is drawn
    once for ``horizon_periods`` periods and repeats beyond the horizon, so
    ``resistance_at`` is a pure function of the period index and two runs
    with the same seed see the same workload.

    Bursts that overlap merge: here bursts start in periods 2, 3, 11 and
    13, each holding the heavy load for three periods (``#``):

    >>> load = RandomBurstLoad(
    ...     light_ohm=2.0, heavy_ohm=0.5, burst_probability=0.15,
    ...     burst_periods=3, horizon_periods=16, seed=0)
    >>> "".join("#" if r == 0.5 else "." for r in load.resistances(0, 16))
    '..####.....#####'
    """

    light_ohm: float
    heavy_ohm: float
    burst_probability: float = 0.02
    burst_periods: int = 20
    horizon_periods: int = 4096
    seed: int = 0
    _heavy_mask: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.light_ohm <= 0 or self.heavy_ohm <= 0:
            raise ValueError("load resistances must be positive")
        if not 0.0 <= self.burst_probability <= 1.0:
            raise ValueError("burst_probability must be in [0, 1]")
        if self.burst_periods < 1 or self.horizon_periods < 1:
            raise ValueError("burst_periods and horizon_periods must be positive")
        rng = np.random.default_rng(self.seed)
        starts = rng.random(self.horizon_periods) < self.burst_probability
        # Period t is heavy when a burst started in its window of the last
        # burst_periods periods: a difference of running start counts.
        started = np.cumsum(starts, dtype=np.int64)
        in_window = started.copy()
        in_window[self.burst_periods :] -= started[: -self.burst_periods]
        object.__setattr__(self, "_heavy_mask", in_window > 0)

    def resistance_at(self, period_index: int) -> float:
        """Load resistance during the given switching period."""
        if period_index < 0:
            raise ValueError("period index must be non-negative")
        if self._heavy_mask[period_index % self.horizon_periods]:
            return self.heavy_ohm
        return self.light_ohm

    def resistances(self, start: int, count: int) -> np.ndarray:
        """The window ``[start, start + count)`` at once."""
        heavy = self._heavy_mask[_period_indices(start, count) % self.horizon_periods]
        return np.where(heavy, float(self.heavy_ohm), float(self.light_ohm))
