"""Declarative parameter sweeps: grids, orchestration and result caching.

The paper's headline numbers are statistics over parameter grids -- yield
per (scheme x corner x frequency x load) -- and the engines underneath
(:mod:`repro.core.ensemble`, :mod:`repro.simulation.batch`,
:mod:`repro.pipeline`) already vectorize *within* a cell.  This package
scales *across* cells:

* :class:`~repro.sweep.grid.ParameterGrid` -- named axes crossed into
  JSON-scalar cell dicts, in deterministic (nested-loop) order.
* :class:`~repro.sweep.cache.ResultCache` -- content-addressed on-disk
  memoization of cell payloads; keys cover the experiment id, the full
  parameter cell (seed included) and a fingerprint of the package sources,
  so code edits invalidate and warm re-runs are near-instant.
* :class:`~repro.sweep.orchestrator.SweepOrchestrator` -- scans the cache,
  hands the misses to a pluggable executor and re-assembles cell order;
  serial, parallel, cold and warm runs produce bit-identical payloads.
* :mod:`repro.sweep.executors` -- the pluggable execution strategies:
  ``serial`` (in-process loop), ``process-pool`` (one box, all cores, fed
  through ``imap_unordered`` so stragglers never head-of-line-block) and
  ``shared-cache`` (multi-process/multi-host: workers claim cells
  idempotently through atomic claim files in the result cache, so N
  independent invocations cooperatively drain one grid and a crash loses
  at most the in-flight cells).
* :class:`~repro.sweep.progress.ProgressReporter` -- the ``--progress``
  stderr stream: cells done/total, hit/computed split, cells/sec, ETA.

Experiments opt in by exposing a module-level cell function plus a grid and
routing through :func:`~repro.sweep.orchestrator.sweep_map`; the CLI flags
``--workers``, ``--cache-dir``, ``--executor`` and ``--progress`` (see
:mod:`repro.experiments.runner`) thread an orchestrator into every
sweep-enabled experiment of a run.  Resumability is a tested contract: a
killed sweep restarted against the same cache recomputes zero completed
cells (see ``docs/sweeps.md``).

Adaptive Monte-Carlo cells (:mod:`repro.mc`, the CLI's ``--precision``)
need no special handling here: the adaptive coordinates (``precision``,
``max_instances``) join the cell's parameter dict via
:meth:`ParameterGrid.cells`, so they are part of the content address --
fixed-budget and adaptive results never collide, a warm adaptive re-run with
the same ``(seed, precision, cap)`` triple is bit-identical, and changing
any of the three recomputes the cell.
"""

from repro.sweep.cache import (
    MISS,
    ResultCache,
    canonical_json,
    cell_key,
    code_fingerprint,
    jsonable,
)
from repro.sweep.executors import (
    EXECUTOR_NAMES,
    CellResult,
    Executor,
    ProcessPoolExecutor,
    SerialExecutor,
    SharedCacheExecutor,
    WorkItem,
    make_executor,
    pool_chunksize,
)
from repro.sweep.grid import ParameterGrid
from repro.sweep.orchestrator import SweepConfig, SweepOrchestrator, sweep_map
from repro.sweep.progress import ProgressReporter

__all__ = [
    "EXECUTOR_NAMES",
    "MISS",
    "CellResult",
    "Executor",
    "ParameterGrid",
    "ProcessPoolExecutor",
    "ProgressReporter",
    "ResultCache",
    "SerialExecutor",
    "SharedCacheExecutor",
    "SweepConfig",
    "SweepOrchestrator",
    "WorkItem",
    "canonical_json",
    "cell_key",
    "code_fingerprint",
    "jsonable",
    "make_executor",
    "pool_chunksize",
    "sweep_map",
]
