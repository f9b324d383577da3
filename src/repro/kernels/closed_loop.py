"""Closed-loop regulation kernels.

These are the per-period hot-path operations of
:class:`~repro.simulation.batch.BatchClosedLoop`: the exact 2x2
state-transition coefficient evaluation that fills the per-load coefficient
tables, the PID compensator law, the duty-word quantizer and the state
advance.  Every function is stateless and RNG-free, takes plain arrays
(plus scalar configuration) and returns plain arrays -- the kernel contract
of :mod:`repro.kernels`, enforced by the ``kernel-purity`` lint rule.
Each takes ``out`` buffers, so a loop that calls them every period
allocates its arrays once per run.

A period step is ten coefficients per variant: the on interval's ``Ad``
(4), its drive response ``M[:, 0] * Vg / L`` (2) and the off interval's
``Ad`` (4).  The off interval is drive-free, so its ``M`` is never read.

The implementations preserve the exact operation order of the pre-split
engine code, so they are bit-identical to the historical behaviour.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import numpy.typing as npt

from repro.converter.buck import PlantTerms, duration_coefficients

__all__ = [
    "apply_period_step",
    "period_coefficients",
    "pid_update",
    "quantize_duty",
]

FloatArray = npt.NDArray[np.float64]
IntArray = npt.NDArray[np.int64]


def period_coefficients(
    terms: PlantTerms,
    on_time_s: FloatArray,
    period_s: FloatArray,
    drive: FloatArray,
    out: FloatArray | None = None,
) -> FloatArray:
    """``(variants, 10)`` exact-stepper coefficients for one period.

    For per-variant plant terms (see :func:`~repro.converter.buck
    .plant_terms`), on-times and drives ``Vg / L``, evaluates the
    closed-form matrix exponential update of the on interval and the off
    interval.  Columns 0..3 are the on interval's ``(ad11, ad12, ad21,
    ad22)``, columns 4..5 its ``(m11, m21)`` times ``drive``, and columns
    6..9 the off interval's ``(ad11, ad12, ad21, ad22)``.

    The on and off durations are stacked into one ``(2, variants)`` array
    and evaluated in a single :func:`~repro.converter.buck
    .duration_coefficients` pass.  The evaluation is elementwise, so each
    ``Ad`` column is bit-equal to its
    :func:`~repro.converter.buck.exact_interval_coefficients` entry and
    each drive column to that entry times ``drive``.  ``out``, when given,
    is the ``(variants, 10)`` array to fill.
    """
    durations = np.empty((2, *np.broadcast(period_s, on_time_s).shape))
    durations[0] = on_time_s
    np.subtract(period_s, on_time_s, out=durations[1])
    # (interval, entry, variants): the on interval's six entries then the
    # off interval's, so the first ten rows are the step's ten columns.
    coefficients = np.empty((2, 6, *np.broadcast(durations, terms.q).shape[1:]))
    duration_coefficients(terms, durations, out=coefficients.transpose(1, 0, 2))
    coefficients[0, 4:] *= drive
    if out is None:
        out = np.empty((coefficients.shape[2], 10))
    out[...] = coefficients.reshape(12, -1)[:10].T
    return out


def pid_update(
    error: npt.NDArray[np.float64] | IntArray,
    integral: FloatArray,
    previous_error: npt.NDArray[np.float64] | IntArray | None,
    kp: FloatArray,
    ki: FloatArray,
    kd: FloatArray | None,
    min_duty: FloatArray,
    max_duty: FloatArray,
    out: tuple[FloatArray, FloatArray] | None = None,
) -> tuple[FloatArray, FloatArray]:
    """One PID period on arrays: ``(duty_commands, new_integral)``.

    The law of :class:`~repro.converter.compensator.PIDCompensator`:
    accumulate the clamped integral, add the proportional and derivative
    terms, clamp the command to the duty limits.  The caller keeps the
    state (integral, previous error); this function only computes.

    ``error`` may be the ADC's int64 codes: every product converts a code
    to float exactly, so the codes and their float copy give the same
    bits.  ``kd=None`` drops the derivative term (``previous_error`` is
    then not read).  With every ``kd`` zero that changes no duty word:
    ``kd * (error - previous)`` is a signed zero, which can at most flip
    the sign of a zero command, and both zeros round to word 0.  ``out``,
    when given, is the ``(duty, integral)`` pair to fill; its integral may
    be ``integral`` itself, which is then updated in place.

    The clamps are ``np.maximum`` then ``np.minimum`` rather than
    ``np.clip``: the same values, NaN included, without ``np.clip``'s
    Python-level argument handling.  The one difference is the sign of a
    zero -- ``np.clip(-0.0, 0.0, 1.0)`` keeps ``-0.0`` where
    ``np.maximum(-0.0, 0.0)`` gives ``+0.0`` -- which no duty word or
    achieved duty can see:

    >>> import numpy as np
    >>> duty, integral = pid_update(
    ...     error=np.array([4.0, -4.0, 0.0]), integral=np.full(3, 0.5),
    ...     previous_error=np.zeros(3), kp=np.full(3, 0.1),
    ...     ki=np.full(3, 0.01), kd=np.zeros(3),
    ...     min_duty=np.full(3, 0.2), max_duty=np.full(3, 0.8))
    >>> duty.tolist(), integral.tolist()
    ([0.8, 0.2, 0.5], [0.54, 0.46, 0.5])
    """
    duty, new_integral = (None, None) if out is None else out
    # The duty buffer holds ki * error until the integral has read it, so
    # the integral can be updated in place.
    duty = np.multiply(ki, error, out=duty)
    new_integral = np.add(integral, duty, out=new_integral)
    np.maximum(new_integral, min_duty, out=new_integral)
    np.minimum(new_integral, max_duty, out=new_integral)
    np.multiply(kp, error, out=duty)
    np.add(new_integral, duty, out=duty)
    if kd is not None:
        duty += kd * (error - previous_error)
    np.maximum(duty, min_duty, out=duty)
    np.minimum(duty, max_duty, out=duty)
    return duty, new_integral


def quantize_duty(
    commands: FloatArray,
    levels: FloatArray,
    offsets: IntArray,
    counts: FloatArray | IntArray,
    top_words: IntArray,
    out: tuple[IntArray, FloatArray] | None = None,
) -> tuple[IntArray, FloatArray]:
    """Duty commands in [0, 1] -> ``(duty words, achieved duty fractions)``.

    Matches the scalar ``duty_word_for`` of the ideal and calibrated DPWMs
    exactly for commands inside [0, 1]: round half to even to a word,
    clamp to the top word, then look the achieved duty up.  The caller
    clamps to [0, 1] (:meth:`~repro.simulation.batch.BatchQuantizer
    .quantize` does; a closed loop's PID limits already imply it).

    ``levels`` is the flat word -> duty table of every row, ``offsets``
    each command's row offset into it, ``counts`` its row's word count
    (floats, or ints that each call converts) and ``top_words`` its top
    word (``counts - 1``); a caller quantizing many periods resolves all
    four once.  ``out``, when given, is the ``(words, duties)`` pair of
    arrays to fill.  A NaN command casts to a negative word whose lookup
    raises ``IndexError``.
    """
    if out is None:
        out = (np.empty(np.shape(commands), dtype=np.int64), np.empty(np.shape(commands)))
    words, duties = out
    # The duties buffer holds the scaled commands until the lookup.
    np.multiply(commands, counts, out=duties)
    np.rint(duties, out=duties)
    np.copyto(words, duties, casting="unsafe")
    np.minimum(words, top_words, out=words)
    levels.take(words + offsets, out=duties)
    return words, duties


def apply_period_step(
    step: Sequence[FloatArray] | FloatArray,
    current: FloatArray,
    voltage: FloatArray,
    out: tuple[FloatArray, FloatArray] | None = None,
    scratch: tuple[FloatArray, FloatArray, FloatArray] | None = None,
) -> tuple[FloatArray, FloatArray]:
    """Advance the fleet state through one on+off switching period.

    ``step`` is the ten coefficient columns of :func:`period_coefficients`
    (``step.T`` of its ``(variants, 10)`` matrix, or the column views a
    loop makes once).  The on interval adds the drive columns (switch
    node at the source voltage); the off interval is drive-free (switch
    node grounded).  Returns the new ``(current, voltage)``, written into
    ``out`` when it is given; ``scratch`` is three arrays of the state's
    shape for the intermediate products.
    """
    on11, on12, on21, on22, drive1, drive2, off11, off12, off21, off22 = step
    if scratch is None:
        shape = np.broadcast(on11, current).shape
        scratch = (np.empty(shape), np.empty(shape), np.empty(shape))
    on_current, on_voltage, product = scratch
    np.multiply(on11, current, out=on_current)
    np.add(on_current, np.multiply(on12, voltage, out=on_voltage), out=on_current)
    np.add(on_current, drive1, out=on_current)
    np.multiply(on21, current, out=on_voltage)
    np.add(on_voltage, np.multiply(on22, voltage, out=product), out=on_voltage)
    np.add(on_voltage, drive2, out=on_voltage)
    new_current, new_voltage = (None, None) if out is None else out
    new_current = np.multiply(off11, on_current, out=new_current)
    np.add(new_current, np.multiply(off12, on_voltage, out=product), out=new_current)
    new_voltage = np.multiply(off21, on_current, out=new_voltage)
    np.add(new_voltage, np.multiply(off22, on_voltage, out=product), out=new_voltage)
    return new_current, new_voltage
