"""In-memory span recorder and the wrappers that attribute time to layers.

A span is one call into a layer: its name, start and end on the
``perf_counter`` clock, the span that was open when it started (its
parent) and, for some layers, a work count taken from the call's result.
Spans live in a list while the workload runs and are written out as JSONL
when it ends.

The wrappers are installed around the package's public callables only for
the traced operations of a run and are removed afterwards, so untraced
operations run the unmodified code.  Nothing here is imported by the
package; the benchmark wraps the calls from the outside.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

# Per-layer work counts, read from each wrapped call's result.


def _instances(result: Any) -> dict[str, float]:
    batch = result[0] if isinstance(result, tuple) else result
    return {"instances": float(batch.num_instances)}


def _variants(result: Any) -> dict[str, float]:
    batch = result[0] if isinstance(result, tuple) else result
    return {"instances": float(batch.num_variants)}


def _instance_periods(result: Any) -> dict[str, float]:
    return {"instance_periods": float(result.output_voltages_v.size)}


def _mc_counts(result: Any) -> dict[str, float]:
    counts = {"chunks": float(result.chunks), "samples": float(result.trials)}
    ess = getattr(result, "effective_sample_size", None)
    if ess is not None:
        counts["ess"] = float(ess)
    return counts


class Recorder:
    """Spans of one benchmark run, kept in memory until the run ends."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: Label of the operation that new spans belong to.
        self.op = "setup"
        self.spans: list[dict[str, Any]] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[dict[str, Any]]:
        """Record the enclosed block as a span called ``name``."""
        record: dict[str, Any] = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "op": self.op,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = perf_counter()
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._open.pop()

    def call(
        self,
        name: str,
        func: Callable[..., Any],
        args: tuple[Any, ...],
        kwargs: dict[str, Any],
        counter: Callable[[Any], dict[str, float]] | None = None,
    ) -> Any:
        """Run ``func`` inside a span called ``name``."""
        with self.span(name) as record:
            result = func(*args, **kwargs)
        if counter is not None:
            record["counts"] = counter(result)
        return result

    def write_jsonl(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for record in self.spans:
                line = dict(record, run_id=self.run_id)
                handle.write(json.dumps(line, sort_keys=True) + "\n")


def layer_totals(spans: list[dict[str, Any]]) -> dict[str, float]:
    """Self seconds and work counts per layer over a slice of spans.

    A span's self time is its duration minus the durations of its direct
    children (calls are sequential, so children never overlap).  Keys are
    ``<layer>.self_s`` and ``<layer>.<count>``.
    """
    child_time: dict[int, float] = defaultdict(float)
    for record in spans:
        if record["parent"] is not None:
            child_time[record["parent"]] += record["end"] - record["start"]
    totals: dict[str, float] = defaultdict(float)
    for record in spans:
        name = record["name"]
        duration = record["end"] - record["start"]
        totals[f"{name}.self_s"] += duration - child_time[record["id"]]
        for key, value in record.get("counts", {}).items():
            totals[f"{name}.{key}"] += value
    return dict(totals)


# (module path, attribute path, layer, counter).  Functions imported by
# name into another module are wrapped where the caller looks them up.
TARGETS: tuple[tuple[str, str, str, Callable[[Any], dict[str, float]] | None], ...] = (
    ("repro.pipeline", "design_proposed", "core.design", None),
    ("repro.pipeline", "design_conventional", "core.design", None),
    ("repro.technology.variation", "VariationModel.sample_batch",
     "technology.silicon_draw", _instances),
    ("repro.technology.variation", "VariationModel.sample_batch_tilted",
     "technology.silicon_draw", _instances),
    ("repro.core.yield_analysis", "ComponentVariation.sample_batch",
     "core.component_draw", _variants),
    ("repro.core.yield_analysis", "ComponentVariation.sample_instances",
     "core.component_draw", _variants),
    ("repro.core.yield_analysis", "ComponentVariation.sample_instances_tilted",
     "core.component_draw", _variants),
    ("repro.core.yield_analysis", "ComponentVariation.sample_instances_stratum",
     "core.component_draw", _variants),
    ("repro.core.ensemble", "ProposedEnsemble.lock", "core.lock", None),
    ("repro.core.ensemble", "ConventionalEnsemble.lock", "core.lock", None),
    ("repro.core.ensemble", "ProposedEnsemble.transfer_curves", "core.curves", None),
    ("repro.core.ensemble", "ConventionalEnsemble.transfer_curves",
     "core.curves", None),
    ("repro.simulation.batch", "BatchQuantizer.from_ensemble",
     "simulation.duty_table", None),
    ("repro.simulation.batch", "BatchClosedLoop.run", "simulation.regulate",
     _instance_periods),
    ("repro.core.yield_analysis", "LinearitySpec.evaluate", "core.score", None),
    ("repro.core.yield_analysis", "RegulationSpec.passes", "core.score", None),
    ("repro.core.yield_analysis", "MissionSpec.window_passes", "core.score", None),
    ("repro.core.yield_analysis", "mission_yield", "core.yield", None),
    ("repro.pipeline", "resolve_missions", "converter.mission_draw", None),
    ("repro.core.yield_analysis", "resolve_missions",
     "converter.mission_draw", None),
    ("repro.pipeline", "ChunkedSiliconToRegulation.run_chunk", "pipeline", None),
    ("repro.sweep.cache", "ResultCache.store", "sweep.cache_store", None),
    ("repro.sweep.cache", "ResultCache.load", "sweep.cache_load", None),
    ("repro.sweep.cache", "code_fingerprint", "sweep.fingerprint", None),
    ("repro.experiments", "run_experiment", "experiments", None),
    ("repro.sweep.orchestrator", "SweepOrchestrator.map_cells", "sweep", None),
    ("repro.experiments.figure15_mc", "run_cell", "sweep.cell", None),
    ("repro.experiments.figure15_rare", "run_cell", "sweep.cell", None),
)

#: The Monte-Carlo engines: their draw callbacks get a span of their own,
#: so the engine's self time excludes the chunks it asked for.
MC_TARGETS = ("adaptive_sample", "importance_sample")


def _resolve(module_name: str, path: str) -> tuple[Any, str]:
    import importlib

    owner: Any = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute


def _wrap(
    recorder: Recorder,
    original: Any,
    name: str,
    counter: Callable[[Any], dict[str, float]] | None,
) -> Any:
    if isinstance(original, (classmethod, staticmethod)):
        inner = _wrap(recorder, original.__func__, name, counter)
        return type(original)(inner)

    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        return recorder.call(name, original, args, kwargs, counter)

    return wrapper


def _wrap_mc(recorder: Recorder, original: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(original)
    def wrapper(draw: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        def traced_draw(*draw_args: Any) -> Any:
            return recorder.call("mc.draw", draw, draw_args, {})

        return recorder.call(
            "mc", original, (traced_draw, *args), kwargs, _mc_counts
        )

    return wrapper


@contextlib.contextmanager
def installed(recorder: Recorder) -> Iterator[None]:
    """Wrap every layer entry point while the block runs, then restore."""
    import repro.mc

    saved: list[tuple[Any, str, Any]] = []
    try:
        for module_name, path, name, counter in TARGETS:
            owner, attribute = _resolve(module_name, path)
            original = owner.__dict__[attribute]
            saved.append((owner, attribute, original))
            setattr(owner, attribute, _wrap(recorder, original, name, counter))
        for attribute in MC_TARGETS:
            original = repro.mc.__dict__[attribute]
            saved.append((repro.mc, attribute, original))
            setattr(repro.mc, attribute, _wrap_mc(recorder, original))
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
