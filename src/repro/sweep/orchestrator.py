"""Orchestration of sweep cells: cache scan, executor dispatch, progress.

The orchestrator turns a list of sweep cells -- JSON-scalar parameter dicts
plus a module-level cell function -- into payloads, with three
accelerations layered transparently on top of the plain serial loop:

* **Memoization** -- when a :class:`~repro.sweep.cache.ResultCache` is
  configured, each cell is looked up by its content address first and only
  misses are computed (then stored for the next run).
* **Fan-out** -- cache misses are handed to a pluggable
  :class:`~repro.sweep.executors.Executor` (``serial`` or
  ``process-pool``; see :mod:`repro.sweep.executors`).  Cells are pure
  functions of their parameters (every RNG is seeded from the cell dict),
  so every executor is bit-deterministic: all of them produce identical
  payloads.
* **Progress** -- with ``SweepConfig(progress=True)`` (the CLI's
  ``--progress``), a :class:`~repro.sweep.progress.ProgressReporter`
  streams cells done/total, the hit/computed split, cells/sec and an ETA
  to stderr as results land.

Payload determinism is enforced structurally: every computed payload is
normalized through one canonical JSON round trip before it is returned or
stored, so a payload that came out of a worker, out of the serial loop or
out of the cache is byte-for-byte the same object tree.

Executors stream results **in completion order** (a straggler cell no
longer blocks collection of the cells behind it); the orchestrator slots
each result back by its index, so :meth:`SweepOrchestrator.map_cells`
still returns payloads in cell order.

Resumability is a contract, not an accident: a killed sweep restarted
against the same cache recomputes zero completed cells, because the
orchestrator stores every payload the moment it arrives from the
executor.  ``tests/test_sweep_executors.py`` kills a mid-grid sweep with
SIGKILL and asserts exactly this.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, TextIO

from repro.sweep.cache import MISS, ResultCache, canonical_json, cell_key
from repro.sweep.executors import EXECUTOR_NAMES, Executor, make_executor
from repro.sweep.progress import ProgressReporter

__all__ = ["SweepConfig", "SweepOrchestrator", "sweep_map"]

#: One sweep cell: a JSON-scalar parameter dict.
CellParams = dict[str, Any]
#: What a cell function returns: a JSON-serializable payload dict.
CellPayload = dict[str, Any]


@dataclass(frozen=True)
class SweepConfig:
    """How a sweep should execute.

    Attributes:
        workers: worker processes for the ``process-pool`` executor; 1
            computes in-process.
        cache_dir: root of the on-disk result cache; ``None`` disables
            memoization.
        executor: executor name (see
            :data:`~repro.sweep.executors.EXECUTOR_NAMES`); ``None``
            selects automatically -- ``process-pool`` when more than one
            worker is configured, ``serial`` otherwise -- preserving the
            pre-executor behavior of ``workers``/``cache_dir`` alone.
        progress: stream per-cell progress/ETA lines (see
            :mod:`repro.sweep.progress`).
        progress_interval_s: throttle between progress lines.
        progress_stream: where progress lines go; ``None`` means stderr
            (tests inject a buffer here).
    """

    workers: int = 1
    cache_dir: str | Path | None = None
    executor: str | None = None
    progress: bool = False
    progress_interval_s: float = 1.0
    progress_stream: TextIO | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.executor is not None and self.executor not in EXECUTOR_NAMES:
            raise ValueError(
                f"unknown executor {self.executor!r}; available: "
                f"{', '.join(EXECUTOR_NAMES)}"
            )
        if self.progress_interval_s < 0.0:
            raise ValueError("progress_interval_s must be >= 0")

    @property
    def executor_name(self) -> str:
        """The effective executor: explicit choice, or the workers-based auto."""
        if self.executor is not None:
            return self.executor
        return "process-pool" if self.workers > 1 else "serial"


class SweepOrchestrator:
    """Executes sweep cells through one shared executor and one shared cache.

    The executor is created lazily on the first dispatch and reused across
    :meth:`map_cells` calls (and therefore across experiments within one
    CLI invocation), so per-experiment grids do not pay repeated pool
    start-up costs.  Use as a context manager, or call :meth:`close`;
    :meth:`abort` is the hard stop that kills in-flight cells.
    """

    def __init__(self, config: SweepConfig | None = None) -> None:
        self.config = config or SweepConfig()
        self.cache = (
            ResultCache(self.config.cache_dir) if self.config.cache_dir else None
        )
        self.hits = 0
        self.misses = 0
        self._executor: Executor | None = None

    def map_cells(
        self,
        func: Callable[[CellParams], CellPayload],
        cells: Iterable[CellParams],
        *,
        experiment_id: str,
    ) -> list[CellPayload]:
        """Payloads for all cells, in cell order.

        Args:
            func: module-level (picklable) cell function mapping one
                parameter dict to a JSON-serializable payload.
            cells: parameter dicts; each must canonicalize to JSON (see
                :func:`~repro.sweep.cache.cell_key`).
            experiment_id: namespace for the cache keys.
        """
        cells = [dict(cell) for cell in cells]
        keys = [cell_key(experiment_id, cell) for cell in cells]
        payloads: list[Any] = [None] * len(cells)
        progress = (
            ProgressReporter(
                experiment_id,
                len(cells),
                stream=self.config.progress_stream,
                interval_s=self.config.progress_interval_s,
            )
            if self.config.progress
            else None
        )
        missing: list[tuple[int, CellParams]] = []
        for index, key in enumerate(keys):
            cached = (
                self.cache.load(experiment_id, key) if self.cache is not None else MISS
            )
            if cached is not MISS:
                payloads[index] = cached
                self.hits += 1
                if progress is not None:
                    progress.cell_done(hit=True)
            else:
                missing.append((index, cells[index]))
                self.misses += 1
        if missing:
            executor = self._executor_instance()
            for index, raw in executor.run_missing(func, missing):
                # One canonical round trip makes fresh payloads
                # indistinguishable from cached ones (bit-identical floats,
                # string keys, no numpy types).
                payload = json.loads(canonical_json(raw))
                if self.cache is not None:
                    self.cache.store(
                        experiment_id, keys[index], payload, params=cells[index]
                    )
                payloads[index] = payload
                if progress is not None:
                    progress.cell_done(hit=False)
        if progress is not None:
            progress.finish()
        return payloads

    def _executor_instance(self) -> Executor:
        if self._executor is None:
            self._executor = make_executor(
                self.config.executor_name, workers=self.config.workers
            )
        return self._executor

    def close(self) -> None:
        """Shut the executor down gracefully (idempotent).

        In-flight cells are allowed to finish -- this is the normal path
        (and the context-manager exit), so a sweep that stops early never
        truncates partial work mid-computation.  Use :meth:`abort` to kill
        in-flight cells instead.
        """
        if self._executor is not None:
            self._executor.close()
            self._executor = None

    def abort(self) -> None:
        """Tear the executor down immediately, killing in-flight cells."""
        if self._executor is not None:
            self._executor.abort()
            self._executor = None

    def __enter__(self) -> "SweepOrchestrator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def sweep_map(
    func: Callable[[CellParams], CellPayload],
    cells: Iterable[CellParams],
    *,
    experiment_id: str,
    sweep: SweepOrchestrator | None = None,
) -> list[CellPayload]:
    """Run cells through an orchestrator, or serially when none is given.

    This is the entry point the experiments call: with ``sweep=None`` (the
    plain ``run()`` path) the cells execute serially in-process with no
    cache, but still through the same normalization, so the payloads are
    bit-identical to an orchestrated run.
    """
    if sweep is not None:
        return sweep.map_cells(func, cells, experiment_id=experiment_id)
    with SweepOrchestrator() as transient:
        return transient.map_cells(func, cells, experiment_id=experiment_id)
