"""Benchmark: the sweep orchestrator (worker fan-out + content-addressed cache).

The acceptance workload is the full set of Monte-Carlo grid experiments
(``fig15``, ``fig15_mc``, ``fig50_51_mc`` -- 30 sweep cells) run three
ways: serially with no orchestrator (the reference), cold through a worker
pool populating a fresh cache, and warm out of that cache.  All three must
produce **bit-identical** ``--json``-schema output; the warm run must
finish in under 10 % of the cold serial time.

The parallel cold-run speedup gate scales with the machine: the full >= 4x
target is enforced where the cells can actually land on four-plus cores
(``cpu count >= 8``, e.g. the CI benchmark runners); on smaller machines a
proportional floor of ``0.5 * cpus`` applies, and on a single-core box
(where a process pool cannot beat the serial loop) only the identity and
warm-cache gates run.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.experiments import run_experiment
from repro.sweep import SweepConfig, SweepOrchestrator, canonical_json

#: Wall-clock gated: out of tier-1, run by the CI benchmarks job.
pytestmark = pytest.mark.wallclock

#: The grid experiments: every Monte-Carlo sweep in the registry.
MC_EXPERIMENTS = ("fig15", "fig15_mc", "fig50_51_mc")


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-linux fallback
        return os.cpu_count() or 1


def _run_all(sweep=None) -> str:
    """Canonical JSON of every MC experiment's --json payload."""
    collected = {}
    for experiment_id in MC_EXPERIMENTS:
        result = run_experiment(experiment_id, sweep=sweep)
        collected[experiment_id] = {
            "title": result.title,
            "data": result.data,
            "paper_reference": result.paper_reference,
        }
    return canonical_json(collected)


def test_bench_sweep_speedup_identity_and_warm_cache(tmp_path):
    cpus = _cpu_count()
    cache_dir = tmp_path / "sweep-cache"

    # Reference: the plain serial path (no orchestrator, no cache).
    start = time.perf_counter()
    serial_json = _run_all()
    serial_seconds = time.perf_counter() - start

    # Cold orchestrated run: fan out across all cores, populate the cache.
    with SweepOrchestrator(
        SweepConfig(workers=cpus, cache_dir=cache_dir)
    ) as sweep:
        start = time.perf_counter()
        cold_json = _run_all(sweep)
        cold_seconds = time.perf_counter() - start
        assert sweep.misses > 0 and sweep.hits == 0

    # Warm run: every cell resolves from the content-addressed cache.
    with SweepOrchestrator(
        SweepConfig(workers=cpus, cache_dir=cache_dir)
    ) as warm_sweep:
        start = time.perf_counter()
        warm_json = _run_all(warm_sweep)
        warm_seconds = time.perf_counter() - start
        assert warm_sweep.misses == 0 and warm_sweep.hits > 0

    speedup = serial_seconds / cold_seconds
    warm_fraction = warm_seconds / serial_seconds

    # Acceptance 1: serial, cold-parallel and warm runs agree bit for bit.
    assert cold_json == serial_json, "parallel cold run diverged from serial"
    assert warm_json == serial_json, "warm cached run diverged from serial"

    # Acceptance 2: a warm re-run costs under 10 % of the cold time.
    assert warm_fraction < 0.10, (
        f"warm cache re-run took {warm_seconds:.2f}s "
        f"({100 * warm_fraction:.1f}% of the {serial_seconds:.2f}s cold run)"
    )

    # Acceptance 3: cold-run fan-out speedup, scaled to the machine
    # (>= 4x wherever four-plus cells can actually run concurrently).
    if cpus >= 2:
        required = min(4.0, 0.5 * cpus)
        assert speedup >= required, (
            f"sweep fan-out only {speedup:.2f}x on {cpus} cpus "
            f"(required {required:.2f}x; serial {serial_seconds:.2f}s, "
            f"cold parallel {cold_seconds:.2f}s)"
        )
