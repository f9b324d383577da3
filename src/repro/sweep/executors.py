"""Pluggable sweep executors: how cache-miss cells actually get computed.

The orchestrator (:mod:`repro.sweep.orchestrator`) decides *which* cells
need computing (everything the cache cannot answer) and *what* happens to
each payload (canonical-JSON normalization, cache stores, progress
accounting).  This module owns the *how*: an :class:`Executor` receives the
missing cells as index-tagged ``(index, params)`` pairs and streams back
``(index, payload)`` pairs **in completion order** -- the orchestrator
re-assembles cell order, so a slow cell never head-of-line-blocks the
bookkeeping (or the progress stream) of fast ones.

Two executors ship, selected by name through
``SweepConfig(executor=...)`` / the CLI's ``--executor``:

* ``serial`` -- the plain in-process loop.  No pool start-up cost, trivial
  to debug; what ``sweep=None`` experiment runs use.
* ``process-pool`` -- a ``multiprocessing`` pool fed through
  ``imap_unordered`` with a cost-aware chunk size
  (:func:`pool_chunksize`): one box, all cores, results surface the moment
  any worker finishes.

Every executor computes cells as pure functions of their parameter dicts,
so both produce bit-identical payloads (gated in
``benchmarks/test_bench_distributed_sweep.py``).

Worker entry points (the cell function handed to an executor) must be
module-level picklable, exactly as for :func:`~repro.sweep.orchestrator.sweep_map`
-- the ``cache-safety`` lint rule enforces this at rest.
"""

from __future__ import annotations

import multiprocessing
from multiprocessing import pool
from multiprocessing.context import BaseContext
from typing import Any, Callable, Iterator, Protocol, Sequence

__all__ = [
    "EXECUTOR_NAMES",
    "Executor",
    "ProcessPoolExecutor",
    "SerialExecutor",
    "make_executor",
    "pool_chunksize",
]

#: One sweep cell: a JSON-scalar parameter dict.
CellParams = dict[str, Any]
#: What a cell function returns: a JSON-serializable payload dict.
CellPayload = dict[str, Any]
#: The module-level picklable function computing one cell.
CellFunction = Callable[[CellParams], CellPayload]

#: The executor names ``SweepConfig`` / ``--executor`` accept.
EXECUTOR_NAMES = ("serial", "process-pool")


class Executor(Protocol):
    """The contract the orchestrator programs against.

    ``run_missing`` receives the cache-miss cells as ``(index, params)``
    pairs -- ``index`` is the cell's slot in the orchestrator's cell list
    -- and yields one raw ``(index, payload)`` pair per item **in
    completion order**; the caller owns re-ordering, normalization and
    storing.  ``close`` shuts resources down gracefully (in-flight work
    finishes); ``abort`` tears them down immediately (in-flight work is
    killed) -- the distinction the orchestrator's context-manager exit vs.
    explicit :meth:`~repro.sweep.orchestrator.SweepOrchestrator.abort`
    relies on.
    """

    name: str

    def run_missing(
        self,
        func: CellFunction,
        items: Sequence[tuple[int, CellParams]],
    ) -> Iterator[tuple[int, CellPayload]]: ...  # pragma: no cover - protocol

    def close(self) -> None: ...  # pragma: no cover - protocol

    def abort(self) -> None: ...  # pragma: no cover - protocol


def pool_chunksize(num_items: int, workers: int) -> int:
    """Cost-aware chunk size for pool dispatch (replaces ``chunksize=1``).

    The cost model: a sweep cell is an expensive vectorized computation
    (milliseconds to minutes), while dispatching one work item over the
    pool's pipe costs well under a millisecond.  Chunking therefore buys
    little until the grid dwarfs the worker count -- and it actively hurts
    balance near the end of a sweep, where a chunk holding a straggler
    pins its chunk-mates behind it.  So: chunks of 1 until there are more
    than four waves of work per worker, then grow proportionally, capped
    at 8 so the worst-case head-of-line blocking inside one chunk stays
    bounded regardless of grid size.
    """
    if num_items <= 0:
        return 1
    return max(1, min(num_items // (max(1, workers) * 4), 8))


def _call_indexed(
    item: tuple[CellFunction, int, CellParams],
) -> tuple[int, CellPayload]:
    """Top-level pool target: run one cell, echo its index back.

    Lives at module level so it pickles by reference into worker
    processes; the index tag is what lets ``imap_unordered`` return
    results in completion order without losing their cell slots.
    """
    func, index, params = item
    return index, func(params)


class SerialExecutor:
    """The in-process reference executor: one cell at a time, in order."""

    name = "serial"

    def run_missing(
        self,
        func: CellFunction,
        items: Sequence[tuple[int, CellParams]],
    ) -> Iterator[tuple[int, CellPayload]]:
        for index, params in items:
            yield index, func(params)

    def close(self) -> None:
        """Nothing to shut down."""

    def abort(self) -> None:
        """Nothing to tear down."""


class ProcessPoolExecutor:
    """One box, all cores: a ``multiprocessing`` pool fed unordered.

    Work items go out index-tagged through ``imap_unordered`` with the
    cost-aware :func:`pool_chunksize`, so results surface the moment any
    worker finishes and a straggler cell only ever delays itself (plus at
    most its chunk-mates) -- not the collection of every cell queued
    behind it.  The pool is created lazily on first dispatch and reused
    across calls (and therefore across experiments in one CLI run).
    """

    name = "process-pool"

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self._pool: pool.Pool | None = None

    def run_missing(
        self,
        func: CellFunction,
        items: Sequence[tuple[int, CellParams]],
    ) -> Iterator[tuple[int, CellPayload]]:
        if self.workers == 1 or len(items) == 1:
            # A pool cannot beat the in-process loop here; skip its
            # start-up cost (and keep single-cell dispatch debuggable).
            for index, params in items:
                yield index, func(params)
            return
        work = [(func, index, params) for index, params in items]
        chunksize = pool_chunksize(len(work), self.workers)
        yield from self._pool_instance().imap_unordered(
            _call_indexed, work, chunksize=chunksize
        )

    def _pool_instance(self) -> pool.Pool:
        if self._pool is None:
            # Prefer fork where available (instant start-up, inherits the
            # already-imported numpy/repro stack); fall back to the
            # platform default elsewhere -- cell functions are module-level
            # and cells are plain dicts, so both pickle fine.
            context: BaseContext
            if "fork" in multiprocessing.get_all_start_methods():
                context = multiprocessing.get_context("fork")
            else:
                context = multiprocessing.get_context()
            self._pool = context.Pool(processes=self.workers)
        return self._pool

    def close(self) -> None:
        """Graceful shutdown: outstanding work finishes, then workers exit."""
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def abort(self) -> None:
        """Immediate teardown: in-flight cells are killed mid-computation."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None


def make_executor(name: str, *, workers: int) -> Executor:
    """Construct a named executor (the ``SweepConfig`` -> executor factory).

    Args:
        name: one of :data:`EXECUTOR_NAMES`.
        workers: pool width for ``process-pool``; ``serial`` computes
            in-process.
    """
    if name == "serial":
        return SerialExecutor()
    if name == "process-pool":
        return ProcessPoolExecutor(workers)
    raise ValueError(
        f"unknown executor {name!r}; available: {', '.join(EXECUTOR_NAMES)}"
    )
