"""The benchmark's span targets still name live entry points.

``perfbench/spans.py`` wraps named package callables while a benchmark
runs, looking each one up in its owner's own ``__dict__``.  A refactor
that moves or renames one of them breaks every benchmark run; this test
names the missing entry instead; the result attributes the benchmark
reads are pinned the same way.  The module is loaded by file path, so
the benchmark's files stay untouched and unimported by the package.
"""

from __future__ import annotations

import dataclasses
import importlib.util
from pathlib import Path

import pytest

import repro.mc
from repro.core.yield_analysis import MissionYieldResult

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()


@pytest.mark.parametrize(
    "module_name, path",
    [(module_name, path) for module_name, path, _, _ in SPANS.TARGETS],
    ids=[f"{module_name}:{path}" for module_name, path, _, _ in SPANS.TARGETS],
)
def test_span_target_resolves(module_name, path):
    owner, attribute = SPANS._resolve(module_name, path)
    assert attribute in owner.__dict__, (
        f"{module_name}.{path} is not defined on {owner!r} itself"
    )


@pytest.mark.parametrize("attribute", SPANS.MC_TARGETS)
def test_mc_target_resolves(attribute):
    assert attribute in repro.mc.__dict__


def _attributes(cls) -> set[str]:
    """Dataclass fields plus class-level attributes (properties, methods)."""
    return {field.name for field in dataclasses.fields(cls)} | set(dir(cls))


@pytest.mark.parametrize(
    "cls, attribute",
    [
        (repro.mc.AdaptiveSampleResult, "chunks"),
        (repro.mc.AdaptiveSampleResult, "trials"),
        (repro.mc.ImportanceSampleResult, "chunks"),
        (repro.mc.ImportanceSampleResult, "trials"),
        # Read through ``getattr(..., None)``: a rename would silently drop
        # the benchmark's ``mc.ess`` counter instead of failing.
        (repro.mc.ImportanceSampleResult, "effective_sample_size"),
        (MissionYieldResult, "passes"),
        (MissionYieldResult, "mission_yield"),
        (MissionYieldResult, "segment_failure_counts"),
        (MissionYieldResult, "first_failure_counts"),
        (MissionYieldResult, "pipeline_result"),
    ],
    ids=lambda value: value if isinstance(value, str) else value.__name__,
)
def test_result_attribute_read_by_the_benchmark_exists(cls, attribute):
    assert attribute in _attributes(cls), (
        f"the benchmark reads {cls.__name__}.{attribute}"
    )
