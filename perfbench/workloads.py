"""The benchmark's workloads, each driven through public entry points only.

Every workload has the same shape:

* the constructor is the set-up: it imports what the workload needs and
  builds the objects it reuses, up to the first instance drawn;
* :meth:`op` is one timed operation (a chunk, a mission fleet, or one
  cold-plus-warm sweep pass) and returns the raw program outputs;
* :meth:`outcome` digests and checks those outputs outside the timed
  region;
* :meth:`self_check` runs once per benchmark run, after the timed phase,
  and checks a contract the repeated operations cannot (chunk
  invariance).

Operation ``k`` of a run is a pure function of the seed and ``k``, so a
traced and an untraced execution of the same ``k`` must agree bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any


@dataclass
class Outcome:
    """What one operation produced, as the benchmark judges it.

    Attributes:
        digest: sha256 of the operation's simulated statistics.
        instance_periods: simulated instance x switching periods.
        units: operations in the contract's sense (chunks, mission fleets,
            or sweep cells) this operation stands for.
        failed_units: how many of them failed a check.
        problems: one line per failed check.
        counts: exact per-operation counts the program reports itself.
    """

    digest: str
    instance_periods: int
    units: int
    failed_units: int = 0
    problems: list[str] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)


def _array_digest(*arrays: Any) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(str(array.dtype).encode())
        digest.update(str(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


class FleetChunk:
    """One wide fleet per chunk, where the draws dominate.

    The proposed design at 100 MHz / 6 bits, typical corner, silicon and
    component variation, 4096 instances x 300 periods through
    ``ChunkedSiliconToRegulation.run_chunk``, scored with the linearity and
    regulation specs as the adaptive sampler's draw callback does.
    Operation ``k`` is the chunk of instances ``[4096 k, 4096 (k + 1))``.
    """

    name = "fleet_chunk"
    instances = 4096
    periods = 300
    reference_v = 0.9

    def __init__(self, seed: int, scratch: Path) -> None:
        from repro.core.design import DesignSpec
        from repro.core.yield_analysis import (
            ComponentVariation,
            LinearitySpec,
            RegulationSpec,
        )
        from repro.pipeline import ChunkedSiliconToRegulation
        from repro.technology.corners import OperatingConditions
        from repro.technology.variation import VariationModel

        self.linearity = LinearitySpec(error_limit_fraction=0.045)
        self.regulation = RegulationSpec(tolerance_v=0.02)
        self.runner = ChunkedSiliconToRegulation(
            "proposed",
            DesignSpec(clock_frequency_mhz=100.0, resolution_bits=6),
            OperatingConditions.typical(),
            variation=VariationModel(seed=seed),
            component_variation=ComponentVariation(seed=seed),
            reference_v=self.reference_v,
        )

    def _run(self, first: int, count: int) -> tuple[Any, Any]:
        result = self.runner.run_chunk(first, count, periods=self.periods)
        tail = self.regulation.tail_fraction
        passes = self.linearity.evaluate(
            result.calibration, result.curves
        ) & self.regulation.passes(
            result.regulation.steady_state_voltage_v(tail),
            result.regulation.steady_state_ripple_v(tail),
            self.reference_v,
        )
        return result, passes

    def op(self, index: int) -> tuple[Any, Any]:
        return self._run(index * self.instances, self.instances)

    def outcome(self, index: int, output: tuple[Any, Any]) -> Outcome:
        import numpy as np

        result, passes = output
        regulation = result.regulation
        voltages = regulation.output_voltages_v
        words = regulation.duty_words
        problems = []
        if voltages.shape != (self.periods, self.instances):
            problems.append(f"voltage history has shape {voltages.shape}")
        if not np.isfinite(voltages).all():
            problems.append("non-finite output voltage")
        if words.min() < 0:
            problems.append("negative duty word")
        steady = float(np.median(regulation.steady_state_voltage_v(0.25)))
        if abs(steady - self.reference_v) > 0.02:
            problems.append(f"median steady state {steady:.4f} V off reference")
        if not 0.5 <= float(passes.mean()) <= 1.0:
            problems.append(f"fleet yield {float(passes.mean()):.3f} implausible")
        return Outcome(
            digest=_array_digest(words, voltages, passes),
            instance_periods=int(voltages.size),
            units=1,
            failed_units=1 if problems else 0,
            problems=problems,
        )

    def self_check(self, first_output: tuple[Any, Any]) -> list[str]:
        """A sub-chunk must reproduce the matching columns of chunk 0."""
        import numpy as np

        start, count = 1000, 64
        sub, _ = self._run(start, count)
        full = first_output[0].regulation
        window = slice(start, start + count)
        if not (
            np.array_equal(sub.regulation.duty_words, full.duty_words[:, window])
            and np.array_equal(
                sub.regulation.output_voltages_v,
                full.output_voltages_v[:, window],
            )
        ):
            return ["run_chunk is not chunk-invariant"]
        return []


class MissionDrift:
    """A narrow, long fleet where per-period regulation dominates.

    64 instances x 3000 periods through ``mission_yield``: every instance
    flies its own 12-segment mission, the fleet rides a 25 -> 85 -> 25 degC
    trace with a re-lock per epoch, and the component draws use the
    ``passives`` correlation preset.  Operation ``k`` is the fleet of
    instances ``[64 k, 64 (k + 1))``.
    """

    name = "mission_drift"
    instances = 64
    periods = 3000
    segments = 12
    reference_v = 0.9

    def __init__(self, seed: int, scratch: Path) -> None:
        import repro.core.yield_analysis
        from repro.converter.missions import MissionGenerator
        from repro.core.design import DesignSpec
        from repro.core.yield_analysis import (
            ComponentVariation,
            MissionSpec,
            component_correlation_preset,
        )
        from repro.technology.corners import OperatingConditions
        from repro.technology.thermal import TemperatureTrace, ThermalDerating
        from repro.technology.variation import VariationModel

        third = self.periods // 3
        # Looked up per call, so a traced run sees the wrapped entry point.
        self.entry = repro.core.yield_analysis
        self.kwargs: dict[str, Any] = dict(
            missions=MissionGenerator(
                total_periods=self.periods,
                num_segments=self.segments,
                seed=seed,
                light_ohm=2.0,
                heavy_ohm=1.4,
            ),
            mission_spec=MissionSpec(tolerance_v=0.10, dip_limit_v=0.20),
            reference_v=self.reference_v,
            variation=VariationModel(seed=seed),
            component_variation=ComponentVariation(seed=seed),
            correlation=component_correlation_preset("passives"),
            temperature_trace=TemperatureTrace(
                temperatures_c=(25.0, 85.0, 25.0),
                durations_periods=(third, third, self.periods - 2 * third),
            ),
            thermal=ThermalDerating(),
        )
        self.spec = DesignSpec(clock_frequency_mhz=100.0, resolution_bits=6)
        self.conditions = OperatingConditions.typical()

    def _run(self, first: int, count: int) -> Any:
        return self.entry.mission_yield(
            "proposed",
            self.spec,
            self.conditions,
            num_instances=count,
            first_instance=first,
            **self.kwargs,
        )

    def op(self, index: int) -> Any:
        return self._run(index * self.instances, self.instances)

    def outcome(self, index: int, output: Any) -> Outcome:
        import numpy as np

        regulation = output.pipeline_result.regulation
        voltages = regulation.output_voltages_v
        words = regulation.duty_words
        failing = int((~output.passes).sum())
        problems = []
        if voltages.shape != (self.periods, self.instances):
            problems.append(f"voltage history has shape {voltages.shape}")
        if not np.isfinite(voltages).all():
            problems.append("non-finite output voltage")
        if sum(output.first_failure_counts) != failing:
            problems.append("first-failure attribution does not sum to failures")
        if max(output.segment_failure_counts, default=0) > failing:
            problems.append("a segment failed more instances than failed")
        if round(output.mission_yield * self.instances) != self.instances - failing:
            problems.append("mission yield disagrees with the pass flags")
        return Outcome(
            digest=_array_digest(words, voltages, output.passes),
            instance_periods=int(voltages.size),
            units=1,
            failed_units=1 if problems else 0,
            problems=problems,
        )

    def self_check(self, first_output: Any) -> list[str]:
        """A sub-fleet must reproduce the matching columns of fleet 0."""
        import numpy as np

        start, count = 10, 4
        sub = self._run(start, count).pipeline_result.regulation
        full = first_output.pipeline_result.regulation
        window = slice(start, start + count)
        if not (
            np.array_equal(sub.duty_words, full.duty_words[:, window])
            and np.array_equal(
                sub.output_voltages_v, full.output_voltages_v[:, window]
            )
        ):
            return ["mission_yield is not chunk-invariant"]
        return []


class McSweep:
    """Adaptive and rare-event Monte-Carlo cells through the sweep cache.

    One operation is a cold pass -- ``fig15_mc`` in adaptive mode
    (``precision=0.02``) plus ``fig15_rare`` (importance estimator) through
    a fresh ``ResultCache`` with the serial executor -- followed by a warm
    pass over the same grid, which must be all cache hits returning the
    cold payloads byte for byte.

    The adaptive stopping rules make the work of a pass depend on its seed.
    To keep that from swamping the timings, the sample caps are tight
    (256 instances per ``fig15_mc`` cell, one 2048-instance chunk per
    ``fig15_rare`` cell), and operation ``k`` runs the grid under its own
    seed derived from the run's seed and ``k``, so the operations of a run
    cover several populations.
    """

    name = "mc_sweep"
    experiments = ("fig15_mc", "fig15_rare")

    def __init__(self, seed: int, scratch: Path) -> None:
        import repro.experiments
        from repro.experiments import figure15_mc, figure15_rare
        from repro.sweep import SweepConfig, SweepOrchestrator
        from repro.sweep.cache import code_fingerprint

        self.seed = seed
        self.scratch = scratch
        # Looked up per call, so a traced run sees the wrapped entry point.
        self.entry = repro.experiments
        self.config = SweepConfig
        self.orchestrator = SweepOrchestrator
        self.periods = {
            "fig15_mc": figure15_mc.PERIODS,
            "fig15_rare": figure15_rare.PERIODS,
        }
        #: (precision, max_instances) per experiment.
        self.budget = {
            "fig15_mc": (0.02, 256),
            "fig15_rare": (figure15_rare.DEFAULT_PRECISION, figure15_rare.CHUNK_SIZE),
        }
        # The first cell key hashes the sources; a sweep pays it up front.
        code_fingerprint()

    def _pass(self, cache_dir: Path, seed: int) -> tuple[dict[str, Any], int, int]:
        payloads = {}
        config = self.config(cache_dir=cache_dir, executor="serial")
        with self.orchestrator(config) as sweep:
            for experiment in self.experiments:
                payloads[experiment] = self.entry.run_experiment(
                    experiment,
                    seed=seed,
                    sweep=sweep,
                    precision=self.budget[experiment][0],
                    max_instances=self.budget[experiment][1],
                ).data
            return payloads, sweep.hits, sweep.misses

    def op(self, index: int) -> dict[str, Any]:
        cache_dir = self.scratch / f"cache-{index}"
        shutil.rmtree(cache_dir, ignore_errors=True)
        seed = derived_seed(self.seed, index)
        cold = self._pass(cache_dir, seed)
        warm = self._pass(cache_dir, seed)
        return {"cache_dir": cache_dir, "cold": cold, "warm": warm}

    def outcome(self, index: int, output: dict[str, Any]) -> Outcome:
        shutil.rmtree(output["cache_dir"], ignore_errors=True)
        cold, cold_hits, cold_misses = output["cold"]
        warm, warm_hits, warm_misses = output["warm"]
        cold_cells = _cells(cold)
        warm_cells = _cells(warm)
        cells = len(cold_cells)
        problems = []
        failed = 0
        for (experiment, path, payload), (_, _, again) in zip(cold_cells, warm_cells):
            issue = _cell_problem(experiment, payload)
            if issue is None and _canonical(payload) != _canonical(again):
                issue = "warm payload differs from the cold one"
            if issue is not None:
                failed += 1
                problems.append(f"{experiment} {'/'.join(path)}: {issue}")
        if len(warm_cells) != cells:
            problems.append("warm pass returned a different grid")
            failed = 2 * cells
        if (cold_hits, cold_misses) != (0, cells):
            problems.append(f"cold pass: {cold_hits} hits, {cold_misses} misses")
            failed = 2 * cells
        if (warm_hits, warm_misses) != (cells, 0):
            problems.append(f"warm pass: {warm_hits} hits, {warm_misses} misses")
            failed = 2 * cells
        instance_periods = sum(
            int(payload["samples"]) * self.periods[experiment]
            for experiment, _, payload in cold_cells
        )
        return Outcome(
            digest=hashlib.sha256(_canonical(cold).encode()).hexdigest(),
            instance_periods=instance_periods,
            units=2 * cells,
            failed_units=min(failed, 2 * cells),
            problems=problems,
            counts={"sweep.hits": float(warm_hits), "sweep.misses": float(cold_misses)},
        )

    def self_check(self, first_output: dict[str, Any]) -> list[str]:
        return []


def derived_seed(seed: int, index: int) -> int:
    """A 32-bit seed for operation ``index`` of a run seeded with ``seed``."""
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _cells(
    data: dict[str, Any], path: tuple[str, ...] = ()
) -> list[tuple[str, tuple[str, ...], dict[str, Any]]]:
    """Flatten experiment data into (experiment, coordinates, payload) rows."""
    if "samples" in data:
        return [(path[0], path[1:], data)]
    rows = []
    for key in sorted(data, key=str):
        rows.extend(_cells(data[key], path + (str(key),)))
    return rows


def _cell_problem(experiment: str, payload: dict[str, Any]) -> str | None:
    """Why a cell's payload is implausible, or None."""
    if experiment == "fig15_mc":
        low, value, high = (
            payload["ci_lower"],
            payload["closed_loop_yield"],
            payload["ci_upper"],
        )
    else:
        low, value, high = (
            payload["lower"],
            payload["failure_probability"],
            payload["upper"],
        )
    if not 0.0 <= low <= value <= high <= 1.0:
        return f"estimate {value} outside its interval [{low}, {high}]"
    if payload["samples"] < 1:
        return "no samples drawn"
    return None


WORKLOADS = {
    FleetChunk.name: FleetChunk,
    MissionDrift.name: MissionDrift,
    McSweep.name: McSweep,
}
