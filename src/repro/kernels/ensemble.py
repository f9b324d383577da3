"""Delay-line ensemble kernels.

The closed-form batch calibration math of :mod:`repro.core.ensemble`: the
proposed scheme's tap-count fixed point, the conventional scheme's
first-crossing bisection over the tuning-level schedule, and the
``(instances, words)`` transfer-curve matrix build of the proposed
mapper.  Stateless, RNG-free, arrays in / arrays out -- the kernel
contract of :mod:`repro.kernels`, enforced by the ``kernel-purity`` lint
rule.

These implementations preserve the exact operation order the ensemble
engine used before the kernel split, so they stay bit-identical to the scalar cycle-accurate controllers (the property
``tests/test_core_ensemble.py`` asserts).
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from repro.kernels.fabrication import branch_delays_from_prefix

__all__ = [
    "conventional_lock",
    "proposed_lock",
    "proposed_transfer_delays",
]

FloatArray = npt.NDArray[np.float64]
IntArray = npt.NDArray[np.int64]
BoolArray = npt.NDArray[np.bool_]

#: Tap delays :func:`conventional_lock` evaluates at once when it scans a
#: non-monotone schedule: a block of consecutive steps for every instance
#: still searching, at least one step.
_SCAN_BLOCK_ELEMENTS = 16384


def proposed_lock(
    taps: FloatArray, half_period_ps: float, num_cells: int
) -> tuple[IntArray, BoolArray, FloatArray]:
    """Closed-form proposed-scheme lock: ``(control, locked, locked_delay)``.

    ``taps`` is the ``(instances, num_cells)`` cumulative tap-delay matrix.
    Tap delays increase strictly along the line, so the count of taps at or
    below the half period is the unique fixed point the scalar up/down walk
    dithers around; ``count = 0`` saturates at the bottom of the line,
    ``count = num_cells`` at the top (both unlocked).
    """
    count = np.count_nonzero(taps <= half_period_ps, axis=1)
    control = np.clip(count, 1, num_cells)
    locked = (count >= 1) & (count <= num_cells - 1)
    locked_delay = np.take_along_axis(
        taps, (control - 1)[:, np.newaxis], axis=1
    )[:, 0]
    return control, locked, locked_delay


def proposed_transfer_delays(
    taps: FloatArray,
    tap_sel: IntArray,
    words: IntArray,
    shift_amount: int,
    num_cells: int,
) -> FloatArray:
    """``(instances, words)`` proposed-scheme transfer-curve matrix.

    Applies the mapping block's eq.-18 multiply/shift/clamp as one
    vectorized integer expression over ``(instances, words)`` and gathers
    each selected tap's cumulative delay; a mapped selection of zero is
    the no-delay word, read from a leading zero column of the tap matrix.
    """
    cal_sel = np.minimum(
        (words[np.newaxis, :] * tap_sel[:, np.newaxis]) >> shift_amount,
        num_cells - 1,
    )
    padded = np.zeros((taps.shape[0], taps.shape[1] + 1), dtype=taps.dtype)
    padded[:, 1:] = taps
    return np.take_along_axis(padded, cal_sel, axis=1)


def _step_taps(
    prefix_sums: FloatArray,
    buffers_active: IntArray,
    steps: IntArray,
    unit_delay_ps: float,
) -> FloatArray:
    """``(instances, cells)`` tap delays of every instance at its own step.

    The active-branch delays of each instance's step of the schedule
    (:func:`repro.kernels.fabrication.branch_delays_from_prefix`, the
    gather the scalar line uses), then the cumulative sum along the cells
    -- the scalar tap accumulation.
    """
    delays = branch_delays_from_prefix(
        prefix_sums, buffers_active[steps], unit_delay_ps
    )
    return np.cumsum(delays, axis=1, out=delays)


def conventional_lock(
    prefix_sums: FloatArray,
    buffers_active: IntArray,
    unit_delay_ps: float,
    period_ps: float,
    max_steps: int,
) -> tuple[IntArray, BoolArray, FloatArray]:
    """First period-crossing of the conventional tuning-level schedule.

    ``prefix_sums`` is the ``(instances, cells, buffers)`` running sum of
    each cell's per-buffer multipliers along its longest branch and
    ``buffers_active`` the ``(max_steps + 1, cells)`` active-buffer count
    of every cell after each step, shared by all instances.  The
    controller halts at the first step whose total line delay reaches the
    clock period; when none does it saturates at ``max_steps`` (the scalar
    ``up_limit`` edge).  An instance locks validly when its stopping
    step's total reaches the period while the line minus its last cell
    stays below it.  Returns ``(steps, locked, total_at_stop)``.

    When no cell's count ever decreases along the schedule, a step's total
    never decreases either: the multipliers are positive, so the prefix
    sums grow along the branch, and IEEE rounding keeps the unit-delay
    multiply and the cumulative sum over the cells monotone.  The first
    crossing is then found by a per-instance bisection in
    ``ceil(log2(max_steps + 1))`` probes plus one evaluation at the stop,
    each probe one ``(instances, cells)`` tap matrix in the operation
    order of a full ``(instances, steps, cells)`` evaluation, so the
    result is bit-identical to that evaluation's first crossing.
    Schedules that lower some cell on the way (the distributed order's
    non-nested remainder placement) are scanned in order instead, one
    block of ``_SCAN_BLOCK_ELEMENTS // (instances * cells)`` consecutive
    steps (at least one) per evaluation, over the instances that have not
    crossed yet.  Either way the tap memory stays ``O(instances * cells)``
    plus that fixed-size block.

    Example -- two instances of a two-cell line with three buffers per
    branch; the second one is too fast to reach the period and saturates:

        >>> import numpy as np
        >>> multipliers = np.array([[[1.0] * 3] * 2, [[0.5] * 3] * 2])
        >>> schedule = np.array([[1, 1], [2, 1], [2, 2], [3, 2], [3, 3]])
        >>> steps, locked, total = conventional_lock(
        ...     np.cumsum(multipliers, axis=-1), schedule, 10.0, 45.0, 4)
        >>> steps
        array([3, 4])
        >>> locked
        array([ True, False])
        >>> total
        array([50., 30.])
    """
    instances = prefix_sums.shape[0]
    if np.all(buffers_active[1:] >= buffers_active[:-1]):
        low = np.zeros(instances, dtype=np.int64)
        high = np.full(instances, max_steps, dtype=np.int64)
        while True:
            searching = low < high
            if not searching.any():
                break
            middle = (low + high) // 2
            totals = _step_taps(prefix_sums, buffers_active, middle, unit_delay_ps)
            reaches = totals[:, -1] >= period_ps
            high = np.where(searching & reaches, middle, high)
            low = np.where(searching & ~reaches, middle + 1, low)
        steps = low
    else:
        steps = np.full(instances, max_steps, dtype=np.int64)
        rows = np.arange(instances)
        live = prefix_sums[:, np.newaxis]
        cells = buffers_active.shape[1]
        block = max(1, _SCAN_BLOCK_ELEMENTS // (instances * cells))
        for first in range(0, max_steps, block):
            schedule = buffers_active[first : min(first + block, max_steps)]
            delays = branch_delays_from_prefix(
                live, schedule[np.newaxis], unit_delay_ps
            )
            totals = np.cumsum(delays, axis=-1, out=delays)[..., -1]
            reaches = totals >= period_ps
            reached = reaches.any(axis=1)
            if reached.any():
                steps[rows[reached]] = first + np.argmax(reaches[reached], axis=1)
                if reached.all():
                    break
                rows = rows[~reached]
                live = live[~reached]
    taps = _step_taps(prefix_sums, buffers_active, steps, unit_delay_ps)
    total_at_stop = taps[:, -1]
    locked = (taps[:, -2] < period_ps) & (total_at_stop >= period_ps)
    return steps, locked, total_at_stop
