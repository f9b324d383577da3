"""Fabrication kernels.

The variation-draw-to-delay math of the silicon stages: turning a batch of
per-buffer mismatch multipliers into per-cell delay matrices (proposed
lines sum whole cells, conventional lines gather the active prefix of each
cell's longest branch) and turning calibrated reset-edge delay matrices
into per-instance DPWM duty tables.  The random *draw* itself stays in the
orchestration layer (:mod:`repro.technology.variation`); kernels only see
the drawn arrays -- stateless, RNG-free, arrays in / arrays out, enforced
by the ``kernel-purity`` lint rule.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

__all__ = [
    "active_branch_delays",
    "branch_delays_from_prefix",
    "branch_prefix_sums",
    "cell_delays_from_multipliers",
    "duty_tables_from_delays",
]

FloatArray = npt.NDArray[np.float64]
IntArray = npt.NDArray[np.int64]


def cell_delays_from_multipliers(
    multipliers: FloatArray, unit_delay_ps: float
) -> FloatArray:
    """Per-cell delays from a ``(..., cells, buffers)`` multiplier stack.

    A proposed-scheme cell chains all of its buffers, so its delay is the
    unit delay times the sum of the cell's multipliers along the buffer
    axis.  Below 8 buffers numpy's ``sum`` adds them in order, so adding
    the buffer columns in order is the same sum bit for bit, without the
    per-cell cost of reducing a short axis; from 8 on numpy sums pairwise,
    and that sum is kept.
    """
    buffers = multipliers.shape[-1]
    if not 2 <= buffers < 8:
        return multipliers.sum(axis=-1) * unit_delay_ps
    total = multipliers[..., 0] + multipliers[..., 1]
    for buffer in range(2, buffers):
        total += multipliers[..., buffer]
    return np.multiply(total, unit_delay_ps, out=total)


def active_branch_delays(
    multipliers: FloatArray, buffers_active: IntArray, unit_delay_ps: float
) -> FloatArray:
    """Delay of the active branch of every cell, from per-buffer multipliers.

    The active branch of a conventional cell uses the first
    ``buffers_active`` buffers of its longest branch, so its delay is the
    unit delay times the prefix sum of those multipliers -- one gather into
    the running cumulative sum along the buffer axis.  ``multipliers`` is
    ``(..., cells, buffers)`` and ``buffers_active`` ``(..., cells)``;
    leading batch axes broadcast, and the accumulation order is the same
    for every caller, so the scalar line and the ensemble engine are
    bit-identical by construction.
    """
    return branch_delays_from_prefix(
        branch_prefix_sums(multipliers), buffers_active, unit_delay_ps
    )


def branch_prefix_sums(multipliers: FloatArray) -> FloatArray:
    """Running sum of the per-buffer multipliers along every cell's branch.

    The unit-free ``(..., cells, buffers)`` reduction a conventional
    line's delays are gathered from: entry ``k`` of a cell is the summed
    mismatch of its first ``k + 1`` buffers.  It does not depend on the
    operating point, so one fleet builds it once and both its lock and
    its transfer curves gather from it.

    Example -- one cell of three buffers; its one-, two- and three-buffer
    branches:

        >>> import numpy as np
        >>> prefix_sums = branch_prefix_sums(np.array([[1.0, 0.5, 2.0]]))
        >>> prefix_sums
        array([[1. , 1.5, 3.5]])
        >>> branch_delays_from_prefix(prefix_sums, np.array([2]), 10.0)
        array([15.])
    """
    return np.cumsum(multipliers, axis=-1)


def branch_delays_from_prefix(
    prefix_sums: FloatArray, buffers_active: IntArray, unit_delay_ps: float
) -> FloatArray:
    """Active-branch delays from the multipliers' running sum along a branch.

    ``prefix_sums`` is the ``(..., cells, buffers)`` output of
    :func:`branch_prefix_sums`; one gather of each cell's
    ``buffers_active``-th entry, then the unit-delay multiply.  The one
    definition of that operation order, shared with the conventional
    lock's per-step tap evaluation.
    """
    indices = (buffers_active - 1)[..., np.newaxis]
    return unit_delay_ps * np.take_along_axis(prefix_sums, indices, axis=-1)[..., 0]


def duty_tables_from_delays(
    delays_ps: FloatArray, clock_period_ps: float, num_words: int
) -> FloatArray:
    """``(instances, num_words)`` duty tables from a reset-delay matrix.

    Word 0 is the no-pulse word (zero delay, zero duty); each further
    word's achieved duty is its reset delay as a fraction of the switching
    period, clamped to 100 % -- the scalar
    :meth:`~repro.dpwm.calibrated.CalibratedDelayLineDPWM.duty_fraction`
    arithmetic evaluated for a whole ensemble at once.
    """
    levels = np.empty((delays_ps.shape[0], num_words))
    levels[:, 0] = 0.0
    np.minimum(delays_ps[:, : num_words - 1] / clock_period_ps, 1.0, out=levels[:, 1:])
    return levels
