"""Progress/ETA streaming for long sweeps (the CLI's ``--progress``).

A hundred-fold grid that takes an hour is unusable without visibility:
which cells are done, how many came free from the cache, how fast the rest
are computing, and when the sweep will finish.  :class:`ProgressReporter`
answers all four on **stderr** (stdout stays reserved for reports and
``--json`` data), one line per update::

    sweep fig15_mc: 12/16 cells (3 hit, 9 computed), 1.8 cells/s, ETA 2.2s

Field semantics (this format is a documented contract, see
``docs/sweeps.md``):

* ``done/total`` -- cells resolved so far out of the sweep's cell count;
* ``hit`` -- cells answered by the orchestrator's cache scan;
* ``computed`` -- cells this process actually ran;
* ``cells/s`` -- completion rate over the sweep so far (hits included:
  the number answers "how fast is this grid draining", not "how fast is
  this CPU");
* ``ETA`` -- remaining cells over that rate, or ``?`` before the first
  cell lands.

Updates are throttled to one line per ``interval_s`` so a fast (or warm)
sweep cannot flood the terminal; the final line always prints, so the
last state on screen is the true total.  Timing uses the monotonic clock
-- progress is observability, and must never touch the wall-clock-free
determinism of the cells themselves.
"""

from __future__ import annotations

import sys
import time
from typing import TextIO

__all__ = ["ProgressReporter"]


class ProgressReporter:
    """Streams ``done/total`` + hit/miss split + rate + ETA for one sweep.

    Args:
        experiment_id: label prefixed to every line.
        total: number of cells in the sweep.
        stream: where lines go; defaults to ``sys.stderr``.
        interval_s: minimum seconds between lines (the final line is
            always emitted); 0 streams every cell.
    """

    def __init__(
        self,
        experiment_id: str,
        total: int,
        *,
        stream: TextIO | None = None,
        interval_s: float = 1.0,
    ) -> None:
        if total < 0:
            raise ValueError("total must be >= 0")
        if interval_s < 0.0:
            raise ValueError("interval_s must be >= 0")
        self.experiment_id = experiment_id
        self.total = total
        self.stream = stream if stream is not None else sys.stderr
        self.interval_s = interval_s
        self.done = 0
        self.hits = 0
        self.computed = 0
        self._start = time.monotonic()
        self._last_emit: float | None = None

    def cell_done(self, *, hit: bool) -> None:
        """Record one finished cell; emit a line if the throttle allows."""
        self.done += 1
        if hit:
            self.hits += 1
        else:
            self.computed += 1
        now = time.monotonic()
        if (
            self.done >= self.total
            or self._last_emit is None
            or now - self._last_emit >= self.interval_s
        ):
            self._emit(now)

    def finish(self) -> None:
        """Emit the final line unless the last cell already did."""
        if self._last_emit is None or self.done < self.total:
            self._emit(time.monotonic())

    def _emit(self, now: float) -> None:
        elapsed = now - self._start
        if self.done > 0 and elapsed > 0.0:
            rate = self.done / elapsed
            remaining = (self.total - self.done) / rate
            tail = f"{rate:.1f} cells/s, ETA {remaining:.1f}s"
        else:
            tail = "? cells/s, ETA ?"
        print(
            f"sweep {self.experiment_id}: {self.done}/{self.total} cells "
            f"({self.hits} hit, {self.computed} computed), {tail}",
            file=self.stream,
            flush=True,
        )
        self._last_emit = now
