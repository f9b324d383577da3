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

from repro.converter.buck import (
    PlantTerms,
    duration_coefficients,
    plant_terms,
)

__all__ = [
    "apply_period_step",
    "gather_coefficients",
    "interval_coefficients",
    "period_coefficients",
    "pid_update",
    "quantize_duty",
]

FloatArray = npt.NDArray[np.float64]
IntArray = npt.NDArray[np.int64]


def interval_coefficients(
    a: FloatArray,
    b: FloatArray,
    c: FloatArray,
    d: FloatArray,
    on_time_s: FloatArray,
    period_s: FloatArray,
) -> FloatArray:
    """``(variants, 12)`` on+off exact-stepper coefficients for one period.

    For per-variant plant-matrix entries ``(a, b, c, d)`` (see
    :func:`~repro.converter.buck.plant_matrix_entries`) and per-variant
    on-times, evaluates the closed-form matrix exponential update of the
    on interval and the off interval and stacks both coefficient sets along
    the last axis: columns 0..5 are the on-interval ``(ad11, ad12, ad21,
    ad22, m11, m21)``, columns 6..11 the off-interval ones.  The plant
    terms are computed here; :func:`period_coefficients` does the rest.
    """
    return period_coefficients(plant_terms(a, b, c, d), on_time_s, period_s)


def period_coefficients(
    terms: PlantTerms, on_time_s: FloatArray, period_s: FloatArray
) -> FloatArray:
    """:func:`interval_coefficients` on precomputed plant terms.

    The on and off durations are stacked into one ``(2, variants)`` array
    and evaluated in a single :func:`~repro.converter.buck
    .duration_coefficients` pass, which halves the per-call numpy overhead
    of evaluating the two intervals separately.  The evaluation is
    elementwise, so the result is bit-equal to two separate
    :func:`~repro.converter.buck.exact_interval_coefficients` calls.
    """
    off_time_s = period_s - on_time_s
    durations = np.empty((2, *np.shape(off_time_s)))
    durations[0] = on_time_s
    durations[1] = off_time_s
    # (6, 2, variants) -> (variants, 2, 6) -> (variants, 12): the on
    # coefficients fill columns 0..5 and the off coefficients 6..11.
    coefficients = np.array(duration_coefficients(terms, durations))
    return coefficients.transpose(2, 1, 0).reshape(-1, 12)


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
    """
    integral = np.clip(integral + ki * error, min_duty, max_duty)
    duty = integral + kp * error + kd * (error - previous_error)
    return np.clip(duty, min_duty, max_duty), integral


def quantize_duty(
    commands: FloatArray,
    levels: FloatArray,
    num_words: IntArray,
    rows: IntArray,
) -> tuple[IntArray, FloatArray]:
    """Duty commands -> ``(duty words, achieved duty fractions)``.

    Matches the scalar ``duty_word_for`` of the ideal and calibrated DPWMs
    exactly: clip the command to [0, 1], round half to even to a word,
    clamp to the top word, then look the achieved duty up in the
    per-variant ``levels`` table (``rows`` selects each command's table
    row, so a single shared row serves any fleet size).
    """
    commands = np.clip(commands, 0.0, 1.0)
    counts = num_words[rows]
    words = np.minimum(np.rint(commands * counts).astype(np.int64), counts - 1)
    return words, levels[rows, words]


def apply_period_step(
    step: FloatArray,
    current: FloatArray,
    voltage: FloatArray,
    drive: FloatArray,
) -> tuple[FloatArray, FloatArray]:
    """Advance the fleet state through one on+off switching period.

    ``step`` is the ``(variants, 12)`` coefficient matrix of
    :func:`interval_coefficients`.  The on interval applies the drive term
    (switch node at the source voltage); the off interval is drive-free
    (switch node grounded).  Returns the new ``(current, voltage)``.
    """
    on_current = step[:, 0] * current + step[:, 1] * voltage + step[:, 4] * drive
    on_voltage = step[:, 2] * current + step[:, 3] * voltage + step[:, 5] * drive
    return (
        step[:, 6] * on_current + step[:, 7] * on_voltage,
        step[:, 8] * on_current + step[:, 9] * on_voltage,
    )
