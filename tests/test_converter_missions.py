"""Property suite for mission profiles, thermal epochs and mission yield.

Three contracts, hypothesis-tested where the statement is universal:

* **Composition exactness** -- a composed mission evaluates each segment's
  load at the segment-local index, so the mission is bit-identical to
  running its segments back-to-back (the :class:`OffsetLoad` equivalence),
  and ``segment_windows`` tiles any run length exactly.
* **Chunk invariance** -- :class:`MissionGenerator` keys instance ``i``'s
  mission on ``(seed, MISSION_STREAM_TAG, i)``, so any chunking of an
  instance range tiles the one-shot mission list bit for bit, and the
  pipeline's mission/thermal path preserves its own bitwise identities
  (constant-25 degC trace == vanilla run; epoch splitting at constant
  temperature == the unsplit run; per-instance copies of one mission ==
  the shared-load path).
* **Scoring** -- :func:`mission_yield` attributes failures per segment and
  its summary stays JSON-serializable.
* **Vectorized schedules** -- every load primitive, :class:`MissionProfile`
  and :class:`OffsetLoad` resolve a window of periods with
  ``resistances(start, count)`` bit-identically to one ``resistance_at``
  per period, which is what lets the batch engine resolve a run's whole
  load schedule up front.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.converter.load import (
    ConstantLoad,
    PulseTrainLoad,
    RampLoad,
    RandomBurstLoad,
    SteppedLoad,
    load_schedule,
)
from repro.converter.missions import (
    MISSION_STREAM_TAG,
    MissionGenerator,
    MissionProfile,
    MissionSegment,
    OffsetLoad,
)
from repro.core.design import DesignSpec
from repro.core.yield_analysis import (
    ComponentVariation,
    MissionSpec,
    MissionYieldResult,
    component_correlation_preset,
    mission_yield,
)
from repro.pipeline import ChunkedSiliconToRegulation
from repro.technology.corners import OperatingConditions
from repro.technology.thermal import TemperatureTrace, ThermalDerating
from repro.technology.variation import VariationModel

GENERATOR = MissionGenerator(total_periods=96, num_segments=5, seed=11)


def _resistance_trace(mission: MissionProfile, periods: int) -> list[float]:
    return [mission.resistance_at(t) for t in range(periods)]


# ---------------------------------------------------------------------------
# Composition exactness.
# ---------------------------------------------------------------------------


class TestMissionComposition:
    @given(instance=st.integers(min_value=0, max_value=40))
    @settings(max_examples=30, deadline=None)
    def test_segments_evaluate_at_local_index(self, instance: int) -> None:
        """The composed mission == each segment's scenario run from zero."""
        mission = GENERATOR.mission(instance)
        for segment, start in zip(mission.segments, mission.segment_starts):
            assert segment.load is not None
            for local in range(segment.duration_periods):
                assert mission.resistance_at(start + local) == (
                    segment.load.resistance_at(local)
                )

    @given(
        instance=st.integers(min_value=0, max_value=40),
        offset=st.integers(min_value=0, max_value=95),
    )
    @settings(max_examples=30, deadline=None)
    def test_offset_load_equivalence(self, instance: int, offset: int) -> None:
        """``OffsetLoad(mission, k)`` replays the mission's ``[k, ...)`` tail."""
        mission = GENERATOR.mission(instance)
        shifted = OffsetLoad.wrap(mission, offset)
        for local in range(12):
            assert shifted.resistance_at(local) == (
                mission.resistance_at(offset + local)
            )

    @given(
        instance=st.integers(min_value=0, max_value=40),
        periods=st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=40, deadline=None)
    def test_segment_windows_tile_the_run_exactly(
        self, instance: int, periods: int
    ) -> None:
        mission = GENERATOR.mission(instance)
        windows = mission.segment_windows(periods)
        assert windows[0][0] == 0
        assert windows[-1][1] == periods
        for (_, end), (start, _) in zip(windows, windows[1:]):
            assert end == start
        assert all(start < end for start, end in windows)

    def test_tail_holds_the_final_segment(self) -> None:
        ramp = RampLoad(
            start_ohm=2.0, end_ohm=1.0, ramp_start_period=0, ramp_end_period=6
        )
        mission = MissionProfile(
            segments=(
                MissionSegment(duration_periods=5, load=ConstantLoad(2.0)),
                MissionSegment(duration_periods=4, load=ramp),
            )
        )
        assert mission.total_periods == 9
        for overhang in range(6):
            assert mission.resistance_at(9 + overhang) == (
                ramp.resistance_at(4 + overhang)
            )



# ---------------------------------------------------------------------------
# Vectorized schedules.
# ---------------------------------------------------------------------------

ohms = st.floats(
    min_value=0.05, max_value=50.0, allow_nan=False, allow_infinity=False
)
primitive_loads = st.one_of(
    st.builds(ConstantLoad, ohms),
    st.builds(
        lambda light, heavy, up, width: SteppedLoad(light, heavy, up, up + width),
        ohms,
        ohms,
        st.integers(0, 60),
        st.integers(1, 60),
    ),
    st.builds(
        lambda begin, end, start, width: RampLoad(begin, end, start, start + width),
        ohms,
        ohms,
        st.integers(0, 60),
        st.integers(1, 60),
    ),
    st.builds(
        lambda light, heavy, pulse, gap, first: PulseTrainLoad(
            light, heavy, pulse, pulse + gap, first
        ),
        ohms,
        ohms,
        st.integers(1, 10),
        st.integers(1, 10),
        st.integers(0, 30),
    ),
    st.builds(
        RandomBurstLoad,
        ohms,
        ohms,
        burst_probability=st.floats(0.0, 1.0),
        burst_periods=st.integers(1, 10),
        horizon_periods=st.integers(1, 40),
        seed=st.integers(0, 2**31 - 1),
    ),
)


class ScalarOnlyLoad:
    """A custom profile with ``resistance_at`` only (the fallback path)."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.calls = 0

    def resistance_at(self, period_index: int) -> float:
        self.calls += 1
        return self.inner.resistance_at(period_index)


mission_profiles = st.builds(
    lambda legs, default: MissionProfile(
        segments=tuple(MissionSegment(duration, load) for duration, load in legs),
        default_load=default,
    ),
    st.lists(
        st.tuples(
            st.integers(1, 40),
            st.one_of(
                st.none(), primitive_loads, primitive_loads.map(ScalarOnlyLoad)
            ),
        ),
        min_size=1,
        max_size=5,
    ),
    primitive_loads,
)
offset_loads = st.builds(
    OffsetLoad, st.one_of(primitive_loads, mission_profiles), st.integers(0, 100)
)


def _assert_schedule_matches_scalar(load, start: int, count: int) -> None:
    expected = np.array(
        [load.resistance_at(start + offset) for offset in range(count)], dtype=float
    )
    vectorized = load.resistances(start, count)
    assert vectorized.dtype == np.float64
    assert vectorized.shape == (count,)
    # Compare raw bits: -0.0 vs 0.0 or a one-ulp ramp drift would fail.
    assert vectorized.tobytes() == expected.tobytes()


_RAMP = RampLoad(start_ohm=2.0, end_ohm=0.7, ramp_start_period=5, ramp_end_period=12)
_EDGE_MISSION = MissionProfile(
    segments=(
        MissionSegment(duration_periods=5, load=ConstantLoad(2.0)),
        MissionSegment(duration_periods=4, load=_RAMP),
        MissionSegment(duration_periods=3),
    ),
    default_load=PulseTrainLoad(
        light_ohm=2.0, heavy_ohm=0.9, pulse_periods=2, train_period=5
    ),
)


class TestVectorizedSchedule:
    @given(
        load=st.one_of(primitive_loads, mission_profiles, offset_loads),
        start=st.integers(min_value=0, max_value=150),
        count=st.integers(min_value=0, max_value=120),
    )
    @settings(max_examples=200, deadline=None)
    def test_resistances_equal_per_period_evaluation(
        self, load, start: int, count: int
    ) -> None:
        _assert_schedule_matches_scalar(load, start, count)

    @pytest.mark.parametrize(
        "load, start, count",
        [
            pytest.param(_RAMP, 0, 20, id="ramp-endpoints"),
            pytest.param(_RAMP, 5, 8, id="ramp-exact-window"),
            pytest.param(
                PulseTrainLoad(
                    light_ohm=2.0,
                    heavy_ohm=0.9,
                    pulse_periods=3,
                    train_period=7,
                    first_pulse_period=4,
                ),
                0,
                40,
                id="pulse-phase-wrap",
            ),
            pytest.param(
                RandomBurstLoad(
                    light_ohm=2.0,
                    heavy_ohm=0.9,
                    burst_probability=0.3,
                    burst_periods=2,
                    horizon_periods=16,
                    seed=5,
                ),
                10,
                50,
                id="burst-horizon-wrap",
            ),
            pytest.param(_EDGE_MISSION, 3, 30, id="mission-tail-overhang"),
            pytest.param(_EDGE_MISSION, 40, 10, id="mission-beyond-the-end"),
            pytest.param(OffsetLoad(_EDGE_MISSION, 7), 3, 20, id="offset-mission"),
            pytest.param(
                OffsetLoad(OffsetLoad(_RAMP, 2), 3), 0, 15, id="nested-offsets"
            ),
        ],
    )
    def test_edges(self, load, start: int, count: int) -> None:
        _assert_schedule_matches_scalar(load, start, count)

    def test_fallback_calls_resistance_at_once_per_period(self) -> None:
        custom = ScalarOnlyLoad(_RAMP)
        schedule = load_schedule(custom, 3, 11)
        assert custom.calls == 11
        assert schedule.tobytes() == _RAMP.resistances(3, 11).tobytes()

    def test_negative_windows_are_rejected(self) -> None:
        burst = RandomBurstLoad(light_ohm=2.0, heavy_ohm=0.9)
        for load in (_EDGE_MISSION, OffsetLoad(_RAMP, 3), burst):
            with pytest.raises(ValueError, match="non-negative"):
                load.resistances(-1, 4)
        with pytest.raises(ValueError, match="non-negative"):
            _EDGE_MISSION.resistances(0, -1)


# ---------------------------------------------------------------------------
# Chunk invariance and determinism of the generator.
# ---------------------------------------------------------------------------


class TestMissionGenerator:
    @given(split=st.integers(min_value=1, max_value=11))
    @settings(max_examples=25, deadline=None)
    def test_mission_stream_is_chunk_invariant(self, split: int) -> None:
        whole = GENERATOR.missions(12)
        head = GENERATOR.missions(split)
        tail = GENERATOR.missions(12 - split, first_instance=split)
        for one, other in zip(whole, head + tail):
            assert one == other
            assert _resistance_trace(one, 96) == _resistance_trace(other, 96)

    @pytest.mark.parametrize("first", [0, 9, 2**32 - 2])
    def test_missions_follow_inline_default_rng_streams(self, first: int) -> None:
        # Instance i's mission is drawn from default_rng((seed, "miss", i)),
        # replayed here draw by draw: the cut points, then per segment its
        # load kind plus the ramp direction / burst seed it consumes.
        kinds = (ConstantLoad, ConstantLoad, RampLoad, PulseTrainLoad, RandomBurstLoad)
        missions = GENERATOR.missions(4, first_instance=first)
        for instance, mission in enumerate(missions, start=first):
            rng = np.random.default_rng((GENERATOR.seed, MISSION_STREAM_TAG, instance))
            cuts = np.sort(rng.choice(np.arange(1, 96), size=4, replace=False))
            assert mission.segment_starts == (0, *(int(cut) for cut in cuts))
            for segment in mission.segments:
                shaped = segment.duration_periods >= GENERATOR.MIN_SHAPED_PERIODS
                kind = int(rng.integers(5 if shaped else 2))
                assert type(segment.load) is kinds[kind]
                if kind == 2:
                    rng.random()
                elif kind == 4:
                    assert segment.load.seed == int(rng.integers(2**31))

    def test_missions_are_deterministic_across_generators(self) -> None:
        twin = MissionGenerator(total_periods=96, num_segments=5, seed=11)
        for instance in (0, 3, 17):
            assert GENERATOR.mission(instance) == twin.mission(instance)

    def test_instances_draw_distinct_missions(self) -> None:
        traces = {
            tuple(_resistance_trace(GENERATOR.mission(instance), 96))
            for instance in range(8)
        }
        assert len(traces) > 1

    @given(instance=st.integers(min_value=0, max_value=60))
    @settings(max_examples=40, deadline=None)
    def test_mission_structure_is_well_formed(self, instance: int) -> None:
        mission = GENERATOR.mission(instance)
        assert mission.num_segments == GENERATOR.num_segments
        assert mission.total_periods == GENERATOR.total_periods
        starts = mission.segment_starts
        assert starts[0] == 0
        assert all(a < b for a, b in zip(starts, starts[1:]))
        assert all(s.duration_periods >= 1 for s in mission.segments)
        levels = {GENERATOR.light_ohm, GENERATOR.heavy_ohm}
        for t in range(mission.total_periods):
            r = mission.resistance_at(t)
            assert min(levels) <= r <= max(levels)


# ---------------------------------------------------------------------------
# Temperature traces and thermal derating.
# ---------------------------------------------------------------------------


class TestThermal:
    @given(periods=st.integers(min_value=1, max_value=300))
    @settings(max_examples=40, deadline=None)
    def test_epochs_tile_any_run_length(self, periods: int) -> None:
        trace = TemperatureTrace(
            temperatures_c=(25.0, 85.0, 40.0),
            durations_periods=(7, 13, 5),
        )
        epochs = trace.epochs(periods)
        assert epochs[0][0] == 0
        assert epochs[-1][1] == periods
        for (_, end, _), (start, _, _) in zip(epochs, epochs[1:]):
            assert end == start
        for start, end, temperature in epochs:
            assert start < end
            for t in range(start, end):
                assert trace.temperature_at(t) == temperature

    def test_constant_trace_covers_everything(self) -> None:
        trace = TemperatureTrace.constant(85.0)
        assert trace.epochs(500) == [(0, 500, 85.0)]
        assert trace.temperature_at(10**6) == 85.0

    def test_trace_validation(self) -> None:
        with pytest.raises(ValueError):
            TemperatureTrace(temperatures_c=(), durations_periods=())
        with pytest.raises(ValueError):
            TemperatureTrace(temperatures_c=(25.0, 85.0), durations_periods=(5,))
        with pytest.raises(ValueError):
            TemperatureTrace(temperatures_c=(200.0,), durations_periods=(5,))
        with pytest.raises(ValueError):
            TemperatureTrace(temperatures_c=(25.0,), durations_periods=(0,))
        with pytest.raises(ValueError):
            TemperatureTrace(temperatures_c=(math.nan,), durations_periods=(5,))

    def test_derating_is_exact_identity_at_reference(self) -> None:
        derating = ThermalDerating()
        assert derating.resistance_factor(25.0) == 1.0
        assert derating.capacitance_factor(25.0) == 1.0
        variation = ComponentVariation(seed=5)
        from repro.converter.buck import BuckParameters

        fleet = variation.sample_batch(BuckParameters(), 8)
        derated = derating.derate(fleet, 25.0)
        for name in (
            "capacitance_f",
            "switch_resistance_ohm",
            "inductor_resistance_ohm",
            "inductance_h",
            "input_voltage_v",
        ):
            np.testing.assert_array_equal(
                getattr(fleet, name), getattr(derated, name)
            )

    def test_derating_moves_hot_electricals(self) -> None:
        derating = ThermalDerating()
        assert derating.resistance_factor(85.0) > 1.0
        assert derating.capacitance_factor(85.0) < 1.0
        with pytest.raises(ValueError):
            # A tempco large enough to drive the factor non-positive.
            ThermalDerating(capacitance_tempco_per_c=-0.05).capacitance_factor(
                85.0
            )


# ---------------------------------------------------------------------------
# The pipeline's mission/thermal path: bitwise identities.
# ---------------------------------------------------------------------------

PERIODS = 40
FLEET = 3


@pytest.fixture(scope="module")
def pipeline_factory():
    spec = DesignSpec(clock_frequency_mhz=100.0, resolution_bits=6)

    def build(**overrides):
        kwargs = dict(
            variation=VariationModel(seed=7),
            component_variation=ComponentVariation(seed=7),
            reference_v=0.9,
        )
        kwargs.update(overrides)
        return ChunkedSiliconToRegulation(
            "proposed", spec, OperatingConditions.typical(), **kwargs
        )

    return build


_RESULT_FIELDS = (
    "output_voltages_v",
    "inductor_currents_a",
    "duty_words",
    "duty_fractions",
    "error_codes",
    "load_resistances_ohm",
)


def _assert_bitwise_equal(one, other) -> None:
    for name in _RESULT_FIELDS:
        np.testing.assert_array_equal(getattr(one, name), getattr(other, name))
    np.testing.assert_array_equal(
        one.switching_period_s, other.switching_period_s
    )


class TestMissionPipeline:
    def test_cold_trace_reproduces_vanilla_bitwise(self, pipeline_factory):
        """A constant 25 degC trace with derating == the vanilla path."""
        pipe = pipeline_factory()
        vanilla = pipe.run_chunk(0, FLEET, periods=PERIODS)
        traced = pipe.run_chunk(
            0,
            FLEET,
            periods=PERIODS,
            temperature_trace=TemperatureTrace.constant(25.0),
            thermal=ThermalDerating(),
        )
        _assert_bitwise_equal(vanilla.regulation, traced.regulation)

    def test_epoch_split_at_constant_temperature_is_exact(
        self, pipeline_factory
    ):
        """Splitting the run into epochs must not disturb the trajectory."""
        mission = GENERATOR.mission(0)
        pipe = pipeline_factory(load=mission)
        unsplit = pipe.run_chunk(
            0,
            FLEET,
            periods=PERIODS,
            temperature_trace=TemperatureTrace.constant(40.0),
            thermal=ThermalDerating(),
        )
        split = pipe.run_chunk(
            0,
            FLEET,
            periods=PERIODS,
            temperature_trace=TemperatureTrace(
                temperatures_c=(40.0, 40.0, 40.0),
                durations_periods=(11, 17, PERIODS - 28),
            ),
            thermal=ThermalDerating(),
        )
        _assert_bitwise_equal(unsplit.regulation, split.regulation)

    def test_shared_mission_equals_per_instance_copies(self, pipeline_factory):
        mission = GENERATOR.mission(2)
        shared = pipeline_factory(load=mission).run_chunk(
            0, FLEET, periods=PERIODS
        )
        per_instance = pipeline_factory().run_chunk(
            0, FLEET, periods=PERIODS, missions=[mission] * FLEET
        )
        _assert_bitwise_equal(shared.regulation, per_instance.regulation)

    def test_mission_chunking_is_bitwise_stable(self, pipeline_factory):
        pipe = pipeline_factory()
        whole = pipe.run_chunk(0, FLEET, periods=PERIODS, missions=GENERATOR)
        pieces = [
            pipe.run_chunk(0, 1, periods=PERIODS, missions=GENERATOR),
            pipe.run_chunk(1, FLEET - 1, periods=PERIODS, missions=GENERATOR),
        ]
        for name in _RESULT_FIELDS:
            np.testing.assert_array_equal(
                getattr(whole.regulation, name),
                np.concatenate(
                    [getattr(p.regulation, name) for p in pieces], axis=1
                ),
            )

    def test_thermal_without_trace_raises(self, pipeline_factory):
        pipe = pipeline_factory()
        with pytest.raises(ValueError, match="temperature_trace"):
            pipe.run_chunk(
                0, FLEET, periods=PERIODS, thermal=ThermalDerating()
            )


# ---------------------------------------------------------------------------
# Mission scoring: the spec and the yield estimator.
# ---------------------------------------------------------------------------


class TestMissionSpec:
    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            MissionSpec(tolerance_v=0.0)
        with pytest.raises(ValueError):
            MissionSpec(tolerance_v=0.05, tail_fraction=0.0)
        with pytest.raises(ValueError):
            MissionSpec(tolerance_v=0.05, tail_fraction=1.5)
        with pytest.raises(ValueError):
            MissionSpec(tolerance_v=0.05, dip_limit_v=-0.1)
        with pytest.raises(ValueError):
            MissionSpec(tolerance_v=0.05, ripple_limit_v=0.0)

    def test_window_scoring(self) -> None:
        spec = MissionSpec(
            tolerance_v=0.05, dip_limit_v=0.2, ripple_limit_v=0.1
        )
        flat = np.full(16, 0.9)
        assert spec.window_passes(flat, 0.9)
        # Tail settles but the window dips below reference - dip_limit.
        dipped = flat.copy()
        dipped[2] = 0.6
        assert not spec.window_passes(dipped, 0.9)
        # Tail mean off by more than the tolerance.
        assert not spec.window_passes(np.full(16, 0.8), 0.9)
        # Tail ripple beyond the limit.
        rippled = flat.copy()
        rippled[-4:] = (0.84, 0.96, 0.84, 0.96)
        assert not spec.window_passes(rippled, 0.9)
        with pytest.raises(ValueError):
            spec.window_passes(np.empty(0), 0.9)


class TestMissionYield:
    @pytest.fixture(scope="class")
    def result(self) -> MissionYieldResult:
        return mission_yield(
            "proposed",
            DesignSpec(clock_frequency_mhz=100.0, resolution_bits=6),
            OperatingConditions.typical(),
            missions=MissionGenerator(
                total_periods=60, num_segments=4, seed=3, heavy_ohm=1.4
            ),
            mission_spec=MissionSpec(tolerance_v=0.10, dip_limit_v=0.20),
            variation=VariationModel(seed=3),
            component_variation=ComponentVariation(seed=3),
            correlation=component_correlation_preset("passives"),
            temperature_trace=TemperatureTrace(
                temperatures_c=(25.0, 85.0), durations_periods=(30, 30)
            ),
            thermal=ThermalDerating(),
            num_instances=6,
        )

    def test_yield_and_attribution_are_consistent(
        self, result: MissionYieldResult
    ) -> None:
        assert result.num_instances == 6
        assert 0.0 <= result.mission_yield <= 1.0
        assert result.mission_yield == sum(result.passes) / 6
        failing = 6 - sum(result.passes)
        assert sum(result.first_failure_counts) == failing
        # Every first failure is also counted as a segment failure.
        for first, total in zip(
            result.first_failure_counts, result.segment_failure_counts
        ):
            assert first <= total

    def test_summary_is_json_serializable(
        self, result: MissionYieldResult
    ) -> None:
        payload = json.loads(json.dumps(result.summary()))
        assert payload["num_instances"] == 6
        assert payload["mission_yield"] == result.mission_yield
        if any(result.segment_failure_counts):
            assert payload["worst_segment"] is not None

    def test_correlation_without_component_variation_is_rejected(self) -> None:
        # Without a component spread there are no component draws to
        # correlate; the run must refuse rather than fly uncorrelated.
        with pytest.raises(ValueError, match="no component_variation"):
            mission_yield(
                "proposed",
                DesignSpec(clock_frequency_mhz=100.0, resolution_bits=6),
                OperatingConditions.typical(),
                missions=MissionGenerator(
                    total_periods=20, num_segments=2, seed=3
                ),
                variation=VariationModel(seed=3),
                correlation=component_correlation_preset("passives"),
                num_instances=2,
            )


# ---------------------------------------------------------------------------
# The fig15_mission experiment end to end, through the sweep layer.
# ---------------------------------------------------------------------------


class TestFig15MissionExperiment:
    def test_runs_through_sweep_cache_with_warm_hits(self, tmp_path) -> None:
        from repro.experiments import run_experiment
        from repro.sweep import SweepConfig, SweepOrchestrator

        kwargs = dict(mission_length=60, mission_seed=5, correlation="passives")
        with SweepOrchestrator(SweepConfig(cache_dir=tmp_path)) as sweep:
            cold = run_experiment("fig15_mission", sweep=sweep, **kwargs)
            assert (sweep.hits, sweep.misses) == (0, 4)
            warm = run_experiment("fig15_mission", sweep=sweep, **kwargs)
            assert (sweep.hits, sweep.misses) == (4, 4)
        assert warm.data == cold.data
        for scheme in ("proposed", "conventional"):
            for corner in ("typical", "slow"):
                entry = cold.data[scheme][corner]
                assert 0.0 <= entry["mission_yield"] <= 1.0
                assert entry["correlation"] == "passives"
                assert entry["mission_length"] == 60

    def test_validation_of_mission_flags(self) -> None:
        from repro.experiments import run_experiment

        with pytest.raises(ValueError, match="mission_length"):
            run_experiment("fig15_mission", mission_length=2)
        with pytest.raises(ValueError, match="correlation preset"):
            run_experiment("fig15_mission", correlation="bogus")
