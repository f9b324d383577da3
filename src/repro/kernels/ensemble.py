"""Delay-line ensemble kernels.

The closed-form batch calibration math of :mod:`repro.core.ensemble`: the
proposed scheme's tap-count fixed point, the conventional scheme's
first-crossing search over the tuning-level schedule, and the
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

__all__ = [
    "conventional_crossing",
    "proposed_lock",
    "proposed_transfer_delays",
]

FloatArray = npt.NDArray[np.float64]
IntArray = npt.NDArray[np.int64]
BoolArray = npt.NDArray[np.bool_]


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
    the no-delay word.
    """
    cal_sel = np.minimum(
        (words[np.newaxis, :] * tap_sel[:, np.newaxis]) >> shift_amount,
        num_cells - 1,
    )
    delays = np.take_along_axis(taps, np.maximum(cal_sel - 1, 0), axis=1)
    return np.where(cal_sel == 0, 0.0, delays)


def conventional_crossing(
    totals: FloatArray,
    last_but_one: FloatArray,
    period_ps: float,
    max_steps: int,
) -> tuple[IntArray, BoolArray, FloatArray]:
    """First period-crossing of the conventional tuning-level schedule.

    ``totals`` holds every ``(instance, step)`` pair's total line delay,
    ``last_but_one`` the delay up to the next-to-last cell.  The controller
    halts at the first step whose total reaches the clock period; when none
    does it saturates at ``max_steps`` (the scalar ``up_limit`` edge).  An
    instance locks validly when its stopping step's total reaches the
    period while the line minus its last cell stays below it.  Returns
    ``(steps, locked, total_at_stop)``.
    """
    reaches = totals >= period_ps
    any_reach = reaches.any(axis=1)
    steps = np.where(any_reach, np.argmax(reaches, axis=1), max_steps)
    rows = np.arange(totals.shape[0])
    total_at_stop = totals[rows, steps]
    locked = (last_but_one[rows, steps] < period_ps) & (total_at_stop >= period_ps)
    return steps, locked, total_at_stop
