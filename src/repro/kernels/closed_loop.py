"""Closed-loop regulation kernels.

These are the per-period hot-path operations of
:class:`~repro.simulation.batch.BatchClosedLoop`: the exact 2x2
state-transition coefficient evaluation that fills the per-load coefficient
tables, the coefficient gather itself, the PID compensator law and the
duty-word quantizer.  Every function is stateless and RNG-free, takes plain
arrays (plus scalar configuration) and returns plain arrays -- the kernel
contract of :mod:`repro.kernels`, enforced by the ``kernel-purity`` lint
rule.

The implementations preserve the exact operation order of the pre-split
engine code, so they are bit-identical to the historical behaviour.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from repro.converter.buck import PlantTerms, duration_coefficients

__all__ = [
    "apply_period_step",
    "gather_coefficients",
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
    out: FloatArray | None = None,
) -> FloatArray:
    """``(variants, 12)`` on+off exact-stepper coefficients for one period.

    For per-variant plant terms (see :func:`~repro.converter.buck
    .plant_terms`) and per-variant on-times, evaluates the closed-form
    matrix exponential update of the on interval and the off interval and
    stacks both coefficient sets along the last axis: columns 0..5 are the
    on-interval ``(ad11, ad12, ad21, ad22, m11, m21)``, columns 6..11 the
    off-interval ones.

    The on and off durations are stacked into one ``(2, variants)`` array
    and evaluated in a single :func:`~repro.converter.buck
    .duration_coefficients` pass, which halves the per-call numpy overhead
    of evaluating the two intervals separately.  The evaluation is
    elementwise, so the result is bit-equal to two separate
    :func:`~repro.converter.buck.exact_interval_coefficients` calls.
    ``out``, when given, is the ``(variants, 12)`` array to fill.
    """
    durations = np.empty((2, *np.broadcast(period_s, on_time_s).shape))
    durations[0] = on_time_s
    np.subtract(period_s, on_time_s, out=durations[1])
    coefficients = np.empty((6, *np.broadcast(durations, terms.q).shape))
    duration_coefficients(terms, durations, out=coefficients)
    # (6, 2, variants) -> (variants, 2, 6) -> (variants, 12): the on
    # coefficients fill columns 0..5 and the off coefficients 6..11.
    if out is None:
        out = np.empty((coefficients.shape[2], 12))
    out.reshape(-1, 2, 6)[...] = coefficients.transpose(2, 1, 0)
    return out


def gather_coefficients(
    table: FloatArray, slots: IntArray, variant_rows: IntArray
) -> FloatArray:
    """``(variants, 12)`` coefficients gathered from a filled table.

    ``table`` is the ``(slots, variants, 12)`` per-duty-word coefficient
    memo of the batch engine's load tables; ``slots`` holds each variant's
    slot for this period's duty word.  One fancy-indexing gather, bit-equal
    to evaluating the coefficients fresh (the evaluation is elementwise per
    variant).
    """
    return table[slots, variant_rows, :]


def pid_update(
    error: FloatArray,
    integral: FloatArray,
    previous_error: FloatArray,
    kp: FloatArray,
    ki: FloatArray,
    kd: FloatArray,
    min_duty: FloatArray,
    max_duty: FloatArray,
) -> tuple[FloatArray, FloatArray]:
    """One PID period on arrays: ``(duty_commands, new_integral)``.

    The law of :class:`~repro.converter.compensator.PIDCompensator`:
    accumulate the clamped integral, add the proportional and derivative
    terms, clamp the command to the duty limits.  The caller keeps the
    state (integral, previous error); this function only computes.

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
    integral = np.add(integral, ki * error)
    np.maximum(integral, min_duty, out=integral)
    np.minimum(integral, max_duty, out=integral)
    duty = integral + kp * error
    duty += kd * (error - previous_error)
    np.maximum(duty, min_duty, out=duty)
    np.minimum(duty, max_duty, out=duty)
    return duty, integral


def quantize_duty(
    commands: FloatArray,
    levels: FloatArray,
    rows: IntArray,
    counts: IntArray,
    out: tuple[IntArray, FloatArray] | None = None,
) -> tuple[IntArray, FloatArray]:
    """Duty commands -> ``(duty words, achieved duty fractions)``.

    Matches the scalar ``duty_word_for`` of the ideal and calibrated DPWMs
    exactly: clamp the command to [0, 1], round half to even to a word,
    clamp to the top word, then look the achieved duty up in the
    per-variant ``levels`` table.  ``rows`` selects each command's table
    row (so a single shared row serves any fleet size); ``counts`` is
    that row's word count (``num_words[rows]``), which a caller
    quantizing many periods resolves once.  ``out``, when given, is the ``(words,
    duties)`` pair of arrays to fill.  The [0, 1] clamp is
    ``np.maximum``/``np.minimum`` (see :func:`pid_update`).
    """
    commands = np.minimum(np.maximum(commands, 0.0), 1.0)
    scaled = np.rint(commands * counts)
    if out is None:
        out = (np.empty(scaled.shape, dtype=np.int64), np.empty(scaled.shape))
    words, duties = out
    np.copyto(words, scaled, casting="unsafe")
    np.minimum(words, counts - 1, out=words)
    duties[...] = levels[rows, words]
    return words, duties


def apply_period_step(
    step: FloatArray,
    current: FloatArray,
    voltage: FloatArray,
    drive: FloatArray,
    out: tuple[FloatArray, FloatArray] | None = None,
) -> tuple[FloatArray, FloatArray]:
    """Advance the fleet state through one on+off switching period.

    ``step`` is the ``(variants, 12)`` coefficient matrix of
    :func:`period_coefficients`.  The on interval applies the drive term
    (switch node at the source voltage); the off interval is drive-free
    (switch node grounded).  Returns the new ``(current, voltage)``,
    written into ``out`` when it is given.
    """
    on_current = step[:, 0] * current + step[:, 1] * voltage + step[:, 4] * drive
    on_voltage = step[:, 2] * current + step[:, 3] * voltage + step[:, 5] * drive
    new_current, new_voltage = (None, None) if out is None else out
    return (
        np.add(step[:, 6] * on_current, step[:, 7] * on_voltage, out=new_current),
        np.add(step[:, 8] * on_current, step[:, 9] * on_voltage, out=new_voltage),
    )
