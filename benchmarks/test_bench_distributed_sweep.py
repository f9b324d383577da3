"""Benchmark: the pluggable sweep executors on a 10x-scale grid.

The workload is a synthetic 300-cell grid (ten times the 30 cells of the
real Monte-Carlo experiments) of deterministic numpy busy-work, sized so
the paper-scale grids of the roadmap ("10-100x of today's 30 cells") are
what is actually measured.  Four gates (see ``docs/sweeps.md``):

* **Unordered beats ordered under a straggler** -- one cell is injected
  with ~150x the work; the ``process-pool`` executor's
  ``imap_unordered`` drain must finish no later than an order-preserving
  ``imap``-with-``chunksize=1`` drain of the same grid, because the
  ordered consumer cannot normalize-and-store a single payload until the
  straggler (dispatched first) completes.
* **Cooperation scales** -- two independent ``shared-cache`` invocations
  pointed at one cache directory must drain the grid >= 1.5x faster than
  one invocation.
* **Resume is nearly free** -- a warm re-run against the populated cache
  must cost < 5 % of the cold run.
* **Bit-identity everywhere** -- serial, ordered-pool, unordered-pool
  and shared-cache payloads agree byte for byte on the synthetic grid,
  and all three named executors reproduce the plain-serial ``--json``
  payloads of the real ``fig15_mc`` / ``fig50_51_mc`` experiments.

The timing gates scale with the machine: straggler and cooperation need
real concurrency and only bind on >= 2 cpus (identity and the warm-resume
gate always bind).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.experiments import run_experiment
from repro.sweep import (
    ParameterGrid,
    ResultCache,
    SweepConfig,
    SweepOrchestrator,
    canonical_json,
    cell_key,
    sweep_map,
)
from repro.sweep.executors import _call_indexed

SRC_DIR = Path(__file__).resolve().parents[1] / "src"

#: Ten times the 30 cells of the real Monte-Carlo grid experiments.
N_CELLS = 300
GRID = ParameterGrid(x=tuple(range(N_CELLS)))

#: Busy-work iterations of a normal cell (~milliseconds of numpy work).
WORK = 350
#: The straggler's work multiplier.
STRAGGLER_FACTOR = 150

REAL_EXPERIMENTS = ("fig15_mc", "fig50_51_mc")


def bench_cell(params: dict) -> dict:
    """Deterministic numpy busy-work: pure function of the cell dict."""
    arr = np.linspace(0.0, 1.0, 4096) + (params["x"] % 97) / 97.0
    for _ in range(params["work"]):
        arr = np.sin(arr) + 0.1
    return {"x": params["x"], "series": arr[: params["series"]].tolist()}


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-linux fallback
        return os.cpu_count() or 1


def _fork_context() -> multiprocessing.context.BaseContext:
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()  # pragma: no cover - non-posix


def _straggler_cells() -> list[dict]:
    # Large payloads (the full 4096-sample series) make the consumer-side
    # normalize-and-store cost non-trivial -- which is exactly the work an
    # ordered drain serializes behind the straggler.
    cells = GRID.cells(seed=0, work=WORK, series=4096)
    cells[0] = dict(cells[0], work=WORK * STRAGGLER_FACTOR)
    return cells


def _ordered_pool_drain(cells, experiment_id, cache_dir, workers) -> list:
    """The pre-executor baseline: ordered ``imap`` with ``chunksize=1``.

    Same worker count, same per-result normalize-and-store consumer work
    as the orchestrator's process-pool path -- the only difference is
    that results come back in submission order, so everything queued
    behind the straggler waits for it.
    """
    cache = ResultCache(cache_dir)
    keys = [cell_key(experiment_id, cell) for cell in cells]
    work = [(bench_cell, index, dict(cell)) for index, cell in enumerate(cells)]
    payloads: list = [None] * len(cells)
    with _fork_context().Pool(processes=workers) as pool:
        for index, raw in pool.imap(_call_indexed, work, chunksize=1):
            payload = json.loads(canonical_json(raw))
            cache.store(experiment_id, keys[index], payload, params=cells[index])
            payloads[index] = payload
    return payloads


COOPERATION_SCRIPT = """
import sys

import numpy as np

from repro.sweep import ParameterGrid, SweepConfig, SweepOrchestrator

CACHE_DIR = sys.argv[1]
N_CELLS, WORK = int(sys.argv[2]), int(sys.argv[3])


def bench_cell(params):
    arr = np.linspace(0.0, 1.0, 4096) + (params["x"] % 97) / 97.0
    for _ in range(params["work"]):
        arr = np.sin(arr) + 0.1
    return {"x": params["x"], "series": arr[: params["series"]].tolist()}


cells = ParameterGrid(x=tuple(range(N_CELLS))).cells(seed=0, work=WORK, series=32)
config = SweepConfig(
    cache_dir=CACHE_DIR, executor="shared-cache", poll_interval_s=0.01
)
with SweepOrchestrator(config) as sweep:
    sweep.map_cells(bench_cell, cells, experiment_id="coop")
"""


def _cooperative_run(tmp_path, cache_dir, n_workers) -> float:
    """Wall seconds for ``n_workers`` invocations to drain one fresh grid."""
    script_path = tmp_path / "coop_worker.py"
    script_path.write_text(COOPERATION_SCRIPT)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    start = time.perf_counter()
    workers = [
        subprocess.Popen(
            [sys.executable, str(script_path), str(cache_dir), str(N_CELLS), "700"],
            env=env,
        )
        for _ in range(n_workers)
    ]
    for worker in workers:
        if worker.wait(timeout=600.0) != 0:
            raise RuntimeError("cooperative sweep worker failed")
    return time.perf_counter() - start


def _run_real_experiments(sweep=None) -> str:
    """Canonical JSON of the real MC grid experiments' --json payloads."""
    collected = {}
    for experiment_id in REAL_EXPERIMENTS:
        result = run_experiment(experiment_id, sweep=sweep)
        collected[experiment_id] = {
            "title": result.title,
            "data": result.data,
            "paper_reference": result.paper_reference,
        }
    return canonical_json(collected)


def test_bench_distributed_sweep(tmp_path):
    cpus = _cpu_count()
    pool_workers = max(2, min(4, cpus))

    # --- straggler: ordered baseline vs unordered process-pool ------------
    straggler_cells = _straggler_cells()
    serial_payloads = sweep_map(
        bench_cell, straggler_cells, experiment_id="straggler"
    )

    start = time.perf_counter()
    ordered_payloads = _ordered_pool_drain(
        straggler_cells, "straggler", tmp_path / "ordered", pool_workers
    )
    ordered_seconds = time.perf_counter() - start

    with SweepOrchestrator(
        SweepConfig(
            workers=pool_workers,
            cache_dir=tmp_path / "unordered",
            executor="process-pool",
        )
    ) as sweep:
        start = time.perf_counter()
        unordered_payloads = sweep.map_cells(
            bench_cell, straggler_cells, experiment_id="straggler"
        )
        unordered_seconds = time.perf_counter() - start

    # --- shared-cache: in-process identity + warm resume ------------------
    resume_cells = GRID.cells(seed=0, work=WORK, series=32)
    resume_reference = sweep_map(bench_cell, resume_cells, experiment_id="resume")
    resume_cache = tmp_path / "resume"
    with SweepOrchestrator(
        SweepConfig(cache_dir=resume_cache, executor="shared-cache")
    ) as sweep:
        start = time.perf_counter()
        shared_payloads = sweep.map_cells(
            bench_cell, resume_cells, experiment_id="resume"
        )
        cold_seconds = time.perf_counter() - start
    with SweepOrchestrator(
        SweepConfig(cache_dir=resume_cache, executor="shared-cache")
    ) as warm_sweep:
        start = time.perf_counter()
        warm_payloads = warm_sweep.map_cells(
            bench_cell, resume_cells, experiment_id="resume"
        )
        warm_seconds = time.perf_counter() - start
    warm_fraction = warm_seconds / cold_seconds

    # --- cooperation: one worker vs two against fresh caches --------------
    solo_seconds = _cooperative_run(tmp_path, tmp_path / "coop-solo", 1)
    duo_seconds = _cooperative_run(tmp_path, tmp_path / "coop-duo", 2)
    cooperation_speedup = solo_seconds / duo_seconds

    # --- real experiments: every executor vs the plain serial baseline ----
    real_baseline = _run_real_experiments()
    real_results = {}
    for executor in ("serial", "process-pool", "shared-cache"):
        with SweepOrchestrator(
            SweepConfig(
                workers=pool_workers,
                cache_dir=tmp_path / f"real-{executor}",
                executor=executor,
            )
        ) as sweep:
            real_results[executor] = _run_real_experiments(sweep)

    synthetic_identical = (
        canonical_json(serial_payloads)
        == canonical_json(ordered_payloads)
        == canonical_json(unordered_payloads)
    ) and (
        canonical_json(resume_reference)
        == canonical_json(shared_payloads)
        == canonical_json(warm_payloads)
    )
    real_identical = all(
        result == real_baseline for result in real_results.values()
    )

    # Acceptance 1: bit-identity across every execution strategy.
    assert synthetic_identical, "executors diverged on the synthetic grid"
    assert real_identical, (
        "an executor diverged from the serial baseline on "
        f"{'/'.join(REAL_EXPERIMENTS)}"
    )

    # Acceptance 2: a warm resume costs under 5 % of the cold run.
    assert warm_fraction < 0.05, (
        f"warm resume took {warm_seconds:.2f}s "
        f"({100 * warm_fraction:.1f}% of the {cold_seconds:.2f}s cold run)"
    )

    # Acceptance 3 (needs real concurrency): the unordered drain is never
    # slower than the ordered baseline under a straggler.
    if cpus >= 2:
        assert unordered_seconds <= ordered_seconds * 1.05, (
            f"unordered drain {unordered_seconds:.2f}s vs ordered "
            f"{ordered_seconds:.2f}s on {cpus} cpus"
        )

    # Acceptance 4 (needs real concurrency): two cooperating workers beat
    # one by >= 1.5x.
    if cpus >= 2:
        assert cooperation_speedup >= 1.5, (
            f"two shared-cache workers only {cooperation_speedup:.2f}x one "
            f"({solo_seconds:.2f}s solo, {duo_seconds:.2f}s duo) on "
            f"{cpus} cpus"
        )
