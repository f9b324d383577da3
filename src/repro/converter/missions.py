"""Mission profiles: composable long-horizon load scenarios.

The load primitives of :mod:`repro.converter.load` each model *one* workload
event -- a step, a ramp, a pulse train, a random burst.  Real regulators are
qualified over *missions*: hours of composed workload in which those events
follow each other in randomized order while the environment drifts.  This
module provides the composition layer:

* :class:`MissionSegment` -- one leg of a mission: a duration in switching
  periods plus the load active during it (every leg declares its load).
* :class:`MissionProfile` -- a chain of loads that itself implements the
  load protocol (``resistance_at`` / ``resistances``), so anything that
  accepts a :class:`~repro.converter.load.LoadProfile` accepts a mission.
  Each segment's load is evaluated with the *segment-local* period index,
  which makes composition exact: the composed mission is bit-identical to
  running its segments back-to-back (see :class:`OffsetLoad` for the
  back-to-back side of that equivalence).
* :class:`MissionGenerator` -- seeded, chunk-invariant per-instance mission
  draws.  Instance ``i``'s mission comes from its own RNG stream keyed on
  ``(seed, MISSION_STREAM_TAG, i)`` -- the same contract as the component
  and silicon draw streams of :mod:`repro.mc` -- so adaptive, stratified
  and importance-sampling estimators compose with missions unchanged, and
  any chunking of an instance range tiles the one-shot mission list bit
  for bit.

Example -- a composed mission delegates each period to the segment that
owns it, with the segment-local index:

    >>> from repro.converter.load import ConstantLoad, RampLoad
    >>> mission = MissionProfile(segments=(
    ...     MissionSegment(duration_periods=3, load=ConstantLoad(2.0)),
    ...     MissionSegment(duration_periods=4, load=RampLoad(
    ...         start_ohm=2.0, end_ohm=1.0,
    ...         ramp_start_period=0, ramp_end_period=3)),
    ... ))
    >>> mission.total_periods
    7
    >>> [round(mission.resistance_at(t), 3) for t in range(7)]
    [2.0, 2.0, 2.0, 2.0, 1.667, 1.333, 1.0]
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.converter.load import (
    ConstantLoad,
    LoadProfile,
    PulseTrainLoad,
    RampLoad,
    RandomBurstLoad,
    check_window,
)
from repro.streams import instance_streams

__all__ = [
    "MISSION_STREAM_TAG",
    "MissionGenerator",
    "MissionProfile",
    "MissionSegment",
    "OffsetLoad",
    "resolve_missions",
]

#: RNG stream tag separating :meth:`MissionGenerator.mission`'s per-instance
#: streams from the component draws (``(seed, "comp" tag, i)``) and the
#: silicon draws (``(seed, i)``), which frequently share the same seed.
MISSION_STREAM_TAG = 0x6D697373  # "miss"


@dataclass(frozen=True)
class MissionSegment:
    """One leg of a mission: a duration plus the load active during it.

    Attributes:
        duration_periods: length of the leg in switching periods (>= 1; a
            zero-duration segment has no period to own and is rejected).
        load: load scenario evaluated with the segment-local period index.
    """

    duration_periods: int
    load: LoadProfile

    def __post_init__(self) -> None:
        if self.duration_periods < 1:
            raise ValueError(
                "segment duration must be at least one switching period; "
                f"got {self.duration_periods}"
            )


@dataclass(frozen=True)
class MissionProfile:
    """A chain of mission segments, itself usable as a load profile.

    The profile implements ``resistance_at`` / ``resistances``, so a
    mission drops into every slot a single load primitive fits -- :class:`~repro.simulation.batch.BatchClosedLoop` loads,
    pipeline runs, yield estimators.  Period ``t`` belongs to the segment
    whose half-open window ``[start, start + duration)`` contains it, and
    the segment's load is evaluated at the *local* index
    ``t - start`` -- which is exactly what running the segments
    back-to-back would evaluate, making composition bit-exact.  Periods
    beyond the last segment's end keep evaluating the last segment with a
    growing local index (a mission tail behaves like its final leg held
    indefinitely).

    Attributes:
        segments: the legs, in order (must be non-empty).
    """

    segments: tuple[MissionSegment, ...]
    _starts: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.segments, tuple):
            object.__setattr__(self, "segments", tuple(self.segments))
        if not self.segments:
            raise ValueError(
                "empty mission schedule: a mission needs at least one segment"
            )
        starts = []
        total = 0
        for segment in self.segments:
            starts.append(total)
            total += segment.duration_periods
        object.__setattr__(self, "_starts", tuple(starts))

    @property
    def num_segments(self) -> int:
        return len(self.segments)

    @property
    def total_periods(self) -> int:
        """Sum of the segment durations."""
        return self._starts[-1] + self.segments[-1].duration_periods

    @property
    def segment_starts(self) -> tuple[int, ...]:
        """Global period index at which each segment begins."""
        return self._starts

    def segment_windows(self, periods: int) -> list[tuple[int, int]]:
        """Half-open ``[start, end)`` windows of the segments within a run.

        Windows are clipped to ``periods``; segments starting at or beyond
        the run length are dropped, and the final window extends to
        ``periods`` when the run outlives the mission (the last segment
        holds indefinitely, so the overhang is its window).
        """
        if periods < 1:
            raise ValueError(f"periods must be >= 1; got {periods}")
        windows: list[tuple[int, int]] = []
        for index, start in enumerate(self._starts):
            if start >= periods:
                break
            end = start + self.segments[index].duration_periods
            windows.append((start, min(end, periods)))
        if periods > self.total_periods:
            last_start, _ = windows[-1]
            windows[-1] = (last_start, periods)
        return windows

    def _locate(self, period_index: int) -> tuple[MissionSegment, int]:
        """The segment owning a period and the segment-local index."""
        if period_index < 0:
            raise ValueError(
                f"period index must be non-negative; got {period_index}"
            )
        position = bisect_right(self._starts, period_index) - 1
        return self.segments[position], period_index - self._starts[position]

    def resistance_at(self, period_index: int) -> float:
        """Load resistance during the given (mission-global) period."""
        segment, local = self._locate(period_index)
        return segment.load.resistance_at(local)

    def resistances(self, start: int, count: int) -> np.ndarray:
        """Resistances of periods ``start .. start + count``.

        Walks the segment windows the range overlaps and resolves each
        overlap with one ``resistances`` call of the segment's load at
        segment-local indices; the last segment's window is open-ended,
        so the tail overhang past :attr:`total_periods` is its final leg
        held, exactly as :meth:`resistance_at` evaluates it.
        """
        check_window(start, count)
        stop = start + count
        schedule = np.empty(count)
        last = len(self.segments) - 1
        for position, segment in enumerate(self.segments):
            segment_start = self._starts[position]
            segment_end = (
                stop if position == last else segment_start + segment.duration_periods
            )
            low, high = max(start, segment_start), min(stop, segment_end)
            if low >= high:
                continue
            schedule[low - start : high - start] = segment.load.resistances(
                low - segment_start, high - low
            )
        return schedule


@dataclass(frozen=True)
class OffsetLoad:
    """A load profile shifted to start ``offset_periods`` into another one.

    ``OffsetLoad(load, k).resistance_at(t) == load.resistance_at(k + t)`` --
    the building block of exact run splitting: running a profile for the
    window ``[k, k + n)`` in a fresh loop is the same sequence of
    resistances as periods ``k .. k + n`` of the unsplit run.  The
    pipeline's temperature-epoch splitting and the mission back-to-back
    equivalence tests are built on it.  :meth:`wrap` returns the profile
    itself for a zero offset so the unsplit path stays object-identical.
    """

    load: LoadProfile
    offset_periods: int

    def __post_init__(self) -> None:
        if self.offset_periods < 0:
            raise ValueError(
                f"offset_periods must be non-negative; got {self.offset_periods}"
            )

    @classmethod
    def wrap(cls, load: LoadProfile, offset_periods: int) -> LoadProfile:
        """Shift a profile, passing it through unchanged at offset zero."""
        if offset_periods == 0:
            return load
        return cls(load=load, offset_periods=offset_periods)

    def resistance_at(self, period_index: int) -> float:
        """Load resistance at the shifted period index."""
        if period_index < 0:
            raise ValueError(
                f"period index must be non-negative; got {period_index}"
            )
        return self.load.resistance_at(self.offset_periods + period_index)

    def resistances(self, start: int, count: int) -> np.ndarray:
        """Resistances of periods ``start .. start + count`` at the shifted index."""
        check_window(start, count)
        return self.load.resistances(self.offset_periods + start, count)


@dataclass(frozen=True)
class MissionGenerator:
    """Seeded, chunk-invariant randomized missions, one per instance.

    Each instance's mission is drawn from its own RNG stream keyed on
    ``(seed, MISSION_STREAM_TAG, instance)``: the total mission length is
    cut at ``num_segments - 1`` distinct random period boundaries, and each
    resulting segment draws its workload from a menu of the load
    primitives -- constant light / constant heavy, a ramp spanning the
    segment, a pulse train, a random burst (itself seeded from the same
    stream).  Because the stream is keyed on the instance index alone,
    ``mission(i)`` never depends on which chunk asked for it -- the same
    contract as :meth:`ComponentVariation.sample_instances
    <repro.core.yield_analysis.ComponentVariation.sample_instances>`, so
    mission-profile runs compose with the adaptive/stratified/importance
    estimators of :mod:`repro.mc` unchanged.

    Attributes:
        total_periods: mission length in switching periods.
        num_segments: legs per mission (``total_periods`` must cover them).
        seed: stream seed shared by all instances.
        light_ohm / heavy_ohm: the light and heavy load levels the menu
            draws between.
    """

    total_periods: int
    num_segments: int = 6
    seed: int = 2012
    light_ohm: float = 2.0
    heavy_ohm: float = 0.9

    #: Segments shorter than this hold a constant load: the ramp and pulse
    #: shapes need a few periods of room for their parameter validation.
    MIN_SHAPED_PERIODS = 8

    def __post_init__(self) -> None:
        if self.num_segments < 1:
            raise ValueError(
                f"num_segments must be >= 1; got {self.num_segments}"
            )
        if self.total_periods < self.num_segments:
            raise ValueError(
                f"total_periods ({self.total_periods}) must cover at least "
                f"one period per segment ({self.num_segments})"
            )
        if self.light_ohm <= 0 or self.heavy_ohm <= 0:
            raise ValueError("load resistances must be positive")

    def mission(self, instance: int) -> MissionProfile:
        """The mission of one instance (chunk-invariant in ``instance``)."""
        if instance < 0:
            raise ValueError(f"instance must be non-negative; got {instance}")
        return self.missions(1, first_instance=instance)[0]

    def missions(
        self, num_instances: int, first_instance: int = 0
    ) -> list[MissionProfile]:
        """Missions of ``[first_instance, first_instance + num_instances)``."""
        if num_instances < 1:
            raise ValueError("need at least one instance")
        streams = instance_streams(
            (self.seed, MISSION_STREAM_TAG), first_instance, num_instances
        )
        return [self._draw_mission(rng) for rng in streams]

    def _draw_mission(self, rng: np.random.Generator) -> MissionProfile:
        """One mission from its instance's stream."""
        if self.num_segments > 1:
            cuts = np.sort(
                rng.choice(
                    np.arange(1, self.total_periods),
                    size=self.num_segments - 1,
                    replace=False,
                )
            )
        else:
            cuts = np.empty(0, dtype=np.int64)
        bounds = [0, *(int(cut) for cut in cuts), self.total_periods]
        segments = tuple(
            MissionSegment(
                duration_periods=end - start,
                load=self._draw_load(rng, end - start),
            )
            for start, end in zip(bounds, bounds[1:])
        )
        return MissionProfile(segments=segments)

    def _draw_load(
        self, rng: np.random.Generator, duration: int
    ) -> LoadProfile:
        """One segment's workload from the shared per-instance stream."""
        if duration < self.MIN_SHAPED_PERIODS:
            kind = int(rng.integers(2))
        else:
            kind = int(rng.integers(5))
        if kind == 0:
            return ConstantLoad(resistance_ohm=self.light_ohm)
        if kind == 1:
            return ConstantLoad(resistance_ohm=self.heavy_ohm)
        if kind == 2:
            # A DVFS-style ramp across the middle half of the segment; the
            # direction is drawn so missions ramp both up and down.
            margin = duration // 4
            downward = bool(rng.random() < 0.5)
            start_ohm = self.light_ohm if downward else self.heavy_ohm
            return RampLoad(
                start_ohm=start_ohm,
                end_ohm=self.heavy_ohm if downward else self.light_ohm,
                ramp_start_period=margin,
                ramp_end_period=duration - margin,
            )
        if kind == 3:
            pulse = max(1, duration // 8)
            return PulseTrainLoad(
                light_ohm=self.light_ohm,
                heavy_ohm=self.heavy_ohm,
                pulse_periods=pulse,
                train_period=max(pulse + 1, duration // 3),
            )
        return RandomBurstLoad(
            light_ohm=self.light_ohm,
            heavy_ohm=self.heavy_ohm,
            burst_probability=0.05,
            burst_periods=max(1, duration // 10),
            seed=int(rng.integers(2**31)),
        )


def resolve_missions(
    missions: "MissionGenerator | Sequence[MissionProfile]",
    num_instances: int,
    first_instance: int = 0,
) -> list[MissionProfile]:
    """Per-instance mission list from a generator or an explicit sequence.

    A generator is sampled over ``[first_instance, first_instance +
    num_instances)`` (the chunk-invariant path); an explicit sequence must
    already hold exactly one mission per instance of the chunk.
    """
    if isinstance(missions, MissionGenerator):
        return missions.missions(num_instances, first_instance=first_instance)
    resolved = list(missions)
    if len(resolved) != num_instances:
        raise ValueError(
            f"need one mission per instance: got {len(resolved)} missions "
            f"for {num_instances} instances"
        )
    return resolved
