"""Vectorized batch simulation engine for the digitally controlled buck.

The scalar closed loop (:class:`~repro.converter.closed_loop.DigitallyControlledBuck`)
advances one converter, one switching period at a time, in Python.  The
regulation experiments the paper builds on it -- Monte-Carlo yield sweeps,
DPWM-architecture comparisons, load-transient studies -- all run *fleets* of
independent converter variants through the same per-period control law, so
this module stacks N variants into numpy state arrays and advances all of
them simultaneously:

* :class:`BatchBuckParameters` -- stacked electrical parameters, one entry
  per variant (Monte-Carlo component draws, corner sweeps ...).
* :class:`BatchQuantizer` -- per-variant duty-word -> achieved-duty tables
  extracted from any scalar DPWM (ideal or calibrated delay line), applied
  with one fancy-indexing gather per period.
* :class:`BatchCompensator` -- the PID law of
  :class:`~repro.converter.compensator.PIDCompensator` on arrays.
* :class:`BatchClosedLoop` -- ADC + compensator + DPWM + power stage for all
  variants at once; each on/off interval uses the closed-form state-space
  update of :func:`~repro.converter.buck.exact_interval_coefficients`, so a
  whole switching period is a handful of vectorized operations instead of
  N x 128 Python iterations.
* :func:`from_closed_loops` -- lift a list of scalar loops into one batch
  run (the cross-validation path: the batch engine reproduces the scalar
  exact-stepper loop bit-for-bit on the control decisions).

The load resistance is the one per-period quantity: it follows the same
load profiles as the scalar loop (:mod:`repro.converter.load`), so steps,
ramps, pulse trains, random bursts and missions all work unchanged on whole
fleets, while the reference and the input rail are fixed for the run.

Example -- a three-variant fleet regulating 1.8 V down to 0.9 V behind an
ideal 6-bit DPWM, advanced 200 switching periods in one vectorized run:

    >>> import numpy as np
    >>> from repro.converter.buck import BuckParameters
    >>> from repro.simulation.batch import (
    ...     BatchBuckParameters, BatchClosedLoop, BatchQuantizer)
    >>> parameters = BatchBuckParameters.uniform(
    ...     BuckParameters(input_voltage_v=1.8), num_variants=3)
    >>> loop = BatchClosedLoop(
    ...     parameters, BatchQuantizer.ideal(bits=6, num_variants=3),
    ...     reference_v=0.9)
    >>> result = loop.run(200)
    >>> result.output_voltages_v.shape
    (200, 3)
    >>> bool(np.all(np.abs(result.steady_state_voltage_v() - 0.9) < 0.02))
    True
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Protocol, Sequence

import numpy as np
import numpy.typing as npt

from repro.converter.adc import WindowedADC
from repro.converter.buck import (
    BuckParameters,
    PlantTerms,
    plant_matrix_entries,
    plant_terms,
)
from repro.converter.closed_loop import (
    DigitallyControlledBuck,
    DutyQuantizer,
    RegulationTrace,
    steady_state_tail,
)
from repro.converter.load import (
    ConstantLoad,
    LoadProfile,
    load_schedule,
)
from repro.kernels.closed_loop import (
    apply_period_step,
    gather_coefficients,
    period_coefficients,
    pid_update,
    quantize_duty,
)
from repro.kernels.fabrication import duty_tables_from_delays

__all__ = [
    "BatchBuckParameters",
    "BatchQuantizer",
    "BatchCompensator",
    "BatchClosedLoop",
    "BatchRegulationResult",
    "from_closed_loops",
]


def _as_variant_array(
    value: npt.ArrayLike, num_variants: int, name: str
) -> np.ndarray:
    """Broadcast a scalar or (N,) sequence to a float array of length N."""
    array = np.asarray(value, dtype=float)
    if array.ndim == 0:
        array = np.full(num_variants, float(array))
    if array.shape != (num_variants,):
        raise ValueError(
            f"{name} must be a scalar or have shape ({num_variants},), "
            f"got shape {array.shape}"
        )
    return array


@dataclass
class BatchBuckParameters:
    """Electrical parameters of N independent buck converter variants.

    Every field is a float array of shape ``(num_variants,)``; scalars
    broadcast on construction.  Mirrors
    :class:`~repro.converter.buck.BuckParameters` field for field.
    """

    input_voltage_v: np.ndarray
    inductance_h: np.ndarray
    capacitance_f: np.ndarray
    switching_frequency_hz: np.ndarray
    switch_resistance_ohm: np.ndarray
    inductor_resistance_ohm: np.ndarray

    def __post_init__(self) -> None:
        arrays = [np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
                  for name in self._field_names()]
        num_variants = max(array.shape[0] for array in arrays)
        for name in self._field_names():
            setattr(
                self, name, _as_variant_array(getattr(self, name), num_variants, name)
            )
        if np.any(self.input_voltage_v <= 0):
            raise ValueError("input voltages must be positive")
        if np.any(self.inductance_h <= 0) or np.any(self.capacitance_f <= 0):
            raise ValueError("L and C must be positive")
        if np.any(self.switching_frequency_hz <= 0):
            raise ValueError("switching frequencies must be positive")
        if np.any(self.switch_resistance_ohm < 0) or np.any(
            self.inductor_resistance_ohm < 0
        ):
            raise ValueError("parasitic resistances must be non-negative")

    @staticmethod
    def _field_names() -> tuple[str, ...]:
        return (
            "input_voltage_v",
            "inductance_h",
            "capacitance_f",
            "switching_frequency_hz",
            "switch_resistance_ohm",
            "inductor_resistance_ohm",
        )

    @property
    def num_variants(self) -> int:
        return self.input_voltage_v.shape[0]

    @property
    def switching_period_s(self) -> np.ndarray:
        return 1.0 / self.switching_frequency_hz

    @classmethod
    def from_parameters(
        cls, parameters: Sequence[BuckParameters]
    ) -> "BatchBuckParameters":
        """Stack a sequence of scalar parameter sets into one batch."""
        if not parameters:
            raise ValueError("need at least one parameter set")
        return cls(
            **{
                name: np.array([getattr(p, name) for p in parameters])
                for name in cls._field_names()
            }
        )

    @classmethod
    def uniform(cls, nominal: BuckParameters, num_variants: int) -> "BatchBuckParameters":
        """N identical copies of one nominal parameter set."""
        if num_variants < 1:
            raise ValueError("need at least one variant")
        return cls(
            **{
                name: np.full(num_variants, getattr(nominal, name))
                for name in cls._field_names()
            }
        )

    def variant(self, index: int) -> BuckParameters:
        """The scalar parameter set of one variant (for cross-validation)."""
        return BuckParameters(
            **{name: float(getattr(self, name)[index]) for name in self._field_names()}
        )


class TransferCurveMatrix(Protocol):
    """What :meth:`BatchQuantizer.from_ensemble` reads off an ensemble's
    transfer curves (:class:`~repro.core.ensemble.EnsembleTransferCurves`
    in practice)."""

    @property
    def input_words(self) -> np.ndarray:  # pragma: no cover - protocol
        ...

    @property
    def delays_ps(self) -> np.ndarray:  # pragma: no cover - protocol
        ...

    @property
    def clock_period_ps(self) -> float:  # pragma: no cover - protocol
        ...


class BatchQuantizer:
    """Vectorized duty quantizer backed by per-variant word -> duty tables.

    Both the ideal DPWM and the calibrated delay-line DPWMs quantize a duty
    command the same way (``word = round(command * 2**bits)`` clamped to the
    word range) and differ only in the duty each word *achieves*, so any
    scalar quantizer reduces to a lookup table of its
    ``duty_fraction(word)`` values.  ``levels`` has shape
    ``(num_variants, max_num_words)`` (a single row is shared by all
    variants); variants may have *different* resolutions -- pass per-variant
    ``num_words`` and pad the shorter rows -- which lets one batch compare
    DPWM architectures of unequal word width.
    """

    def __init__(
        self,
        levels: np.ndarray,
        num_variants: int | None = None,
        num_words: np.ndarray | None = None,
    ) -> None:
        levels = np.atleast_2d(np.asarray(levels, dtype=float))
        if levels.shape[1] < 2:
            raise ValueError("need at least two duty words")
        if np.any(levels < 0.0) or np.any(levels > 1.0):
            raise ValueError("duty levels must lie in [0, 1]")
        if num_variants is None:
            num_variants = levels.shape[0]
        if levels.shape[0] == 1:
            levels = np.broadcast_to(levels, (num_variants, levels.shape[1]))
        if levels.shape[0] != num_variants:
            raise ValueError(
                f"levels rows ({levels.shape[0]}) do not match the "
                f"{num_variants} variants"
            )
        if num_words is None:
            num_words = np.full(levels.shape[0], levels.shape[1], dtype=np.int64)
        else:
            num_words = np.asarray(num_words, dtype=np.int64)
            if num_words.shape != (levels.shape[0],):
                raise ValueError("need one word count per levels row")
            if np.any(num_words < 2) or np.any(num_words > levels.shape[1]):
                raise ValueError("word counts must lie in [2, levels columns]")
        self.levels = levels
        self.num_variants = num_variants
        self.num_words = num_words

    @property
    def max_word(self) -> np.ndarray:
        """Per-variant top duty word."""
        return self.num_words - 1

    @classmethod
    def ideal(cls, bits: int, num_variants: int) -> "BatchQuantizer":
        """An ideal n-bit quantizer shared by all variants."""
        if bits < 1:
            raise ValueError("resolution must be at least 1 bit")
        levels = np.arange(1 << bits, dtype=float) / float(1 << bits)
        return cls(levels[np.newaxis, :], num_variants=num_variants)

    @classmethod
    def from_quantizers(cls, quantizers: Sequence[DutyQuantizer]) -> "BatchQuantizer":
        """Extract the word -> duty tables of scalar DPWM objects.

        Every quantizer must expose ``max_word`` / ``duty_fraction`` (the
        :class:`~repro.converter.closed_loop.DutyQuantizer` protocol); word
        widths may differ between quantizers.  Quantizers that expose their
        whole table in array form (a ``duty_table()`` method, as the ideal
        and calibrated delay-line DPWMs do) are copied in one vectorized
        assignment instead of one ``duty_fraction`` call per word.
        """
        if not quantizers:
            raise ValueError("need at least one quantizer")
        num_words = np.array([q.max_word + 1 for q in quantizers], dtype=np.int64)
        levels = np.zeros((len(quantizers), int(num_words.max())))
        for row, quantizer in enumerate(quantizers):
            count = int(num_words[row])
            table = getattr(quantizer, "duty_table", None)
            if table is not None:
                values = np.asarray(table(), dtype=float)
                if values.shape != (count,):
                    raise ValueError(
                        f"quantizer {row} reports max_word {count - 1} but "
                        f"its duty_table has shape {values.shape}"
                    )
                levels[row, :count] = values
            else:
                levels[row, :count] = [
                    quantizer.duty_fraction(word) for word in range(count)
                ]
        return cls(levels, num_words=num_words)

    @classmethod
    def from_ensemble(
        cls, curves: "TransferCurveMatrix", num_words: int | None = None
    ) -> "BatchQuantizer":
        """Per-instance duty tables straight from an ensemble's curve matrix.

        ``curves`` is any object exposing ``input_words`` (the contiguous
        duty words ``1..W`` the matrix covers), ``delays_ps`` (the
        ``(instances, W)`` reset-edge delay matrix) and ``clock_period_ps``
        -- :class:`~repro.core.ensemble.EnsembleTransferCurves` in practice.
        Word 0 is the no-pulse word (zero delay, zero duty) and each further
        word's achieved duty is its reset delay as a fraction of the period,
        clamped to 100 % -- exactly the scalar
        :meth:`~repro.dpwm.calibrated.CalibratedDelayLineDPWM.duty_fraction`
        arithmetic, evaluated for the whole ensemble in one vectorized pass.

        ``num_words`` defaults to the largest power of two that the curves
        cover (including word 0), which is the word range of the scheme's
        own duty register; pass it explicitly to model a narrower register.
        """
        delays = np.atleast_2d(np.asarray(curves.delays_ps, dtype=float))
        words = np.asarray(curves.input_words)
        if words.size == 0 or not np.array_equal(
            words, np.arange(1, words.size + 1)
        ):
            raise ValueError(
                "transfer curves must cover the contiguous duty words 1..W"
            )
        if delays.shape[1] != words.size:
            raise ValueError(
                f"curve matrix covers {delays.shape[1]} words, "
                f"input_words lists {words.size}"
            )
        available = words.size + 1  # word 0 is the zero-delay no-pulse word
        if num_words is None:
            num_words = 1 << (available.bit_length() - 1)
        if not 2 <= num_words <= available:
            raise ValueError(
                f"num_words must lie in [2, {available}], got {num_words}"
            )
        levels = duty_tables_from_delays(
            delays, float(curves.clock_period_ps), num_words
        )
        return cls(levels)

    def word_lookup(
        self, num_commands: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, counts)`` for a vector of ``num_commands``.

        Each command's table row and word count, as
        :func:`~repro.kernels.closed_loop.quantize_duty` takes them.  A
        single shared table serving a wider command vector gives every
        command row 0.  A closed loop resolves this once per run.
        """
        if num_commands == self.num_variants:
            rows = np.arange(num_commands, dtype=np.int64)
        else:
            rows = np.zeros(num_commands, dtype=np.int64)
        return rows, self.num_words[rows]

    def quantize(self, commands: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Duty commands -> (duty words, achieved duty fractions).

        Matches the scalar ``duty_word_for`` of the ideal and calibrated
        DPWMs exactly (clip to [0, 1], round half to even, clamp to the top
        word).
        """
        commands = np.atleast_1d(np.asarray(commands, dtype=float))
        if self.num_variants != 1 and commands.shape != (self.num_variants,):
            raise ValueError(
                f"need one duty command per variant ({self.num_variants}), "
                f"got shape {commands.shape}"
            )
        return quantize_duty(
            commands, self.levels, *self.word_lookup(commands.shape[0])
        )


class BatchCompensator:
    """The PID law of :class:`~repro.converter.compensator.PIDCompensator`
    applied to stacked error-code arrays (one entry per variant)."""

    def __init__(
        self,
        num_variants: int,
        kp: npt.ArrayLike = 0.001,
        ki: npt.ArrayLike = 5e-5,
        kd: npt.ArrayLike = 0.0,
        initial_duty: npt.ArrayLike = 0.5,
        min_duty: npt.ArrayLike = 0.0,
        max_duty: npt.ArrayLike = 1.0,
    ) -> None:
        self.kp = _as_variant_array(kp, num_variants, "kp")
        self.ki = _as_variant_array(ki, num_variants, "ki")
        self.kd = _as_variant_array(kd, num_variants, "kd")
        self.min_duty = _as_variant_array(min_duty, num_variants, "min_duty")
        self.max_duty = _as_variant_array(max_duty, num_variants, "max_duty")
        self.initial_duty = _as_variant_array(initial_duty, num_variants, "initial_duty")
        if np.any(self.min_duty < 0) or np.any(self.max_duty > 1) or np.any(
            self.min_duty >= self.max_duty
        ):
            raise ValueError("require 0 <= min_duty < max_duty <= 1 per variant")
        if np.any(self.initial_duty < self.min_duty) or np.any(
            self.initial_duty > self.max_duty
        ):
            raise ValueError("initial_duty must lie inside the duty limits")
        self.num_variants = num_variants
        self.reset()

    def reset(self) -> None:
        self.integral = self.initial_duty.copy()
        self.previous_error = np.zeros(self.num_variants)

    def update(self, error_codes: np.ndarray) -> np.ndarray:
        """Advance one switching period; returns the duty commands.

        The error is copied before it is kept as ``previous_error``, so a
        caller may reuse its error buffer without changing the next
        derivative term.
        """
        error = np.array(error_codes, dtype=float)
        duty, self.integral = pid_update(
            error,
            self.integral,
            self.previous_error,
            self.kp,
            self.ki,
            self.kd,
            self.min_duty,
            self.max_duty,
        )
        self.previous_error = error
        return duty


class _LoadCoefficientTable:
    """Per-(variant, duty word) transition coefficients for one load level.

    A Monte-Carlo fleet dithers its duty words independently, so whole
    duty-word *vectors* almost never repeat period to period -- but each
    variant only ever visits a handful of distinct words.  This table
    memoizes the exact-stepper coefficients per duty word: the first period
    a word value appears, its on/off coefficients are evaluated for every
    variant at once (one fused :func:`~repro.kernels.closed_loop
    .period_coefficients` call on the load level's precomputed
    :class:`~repro.converter.buck.PlantTerms`); afterwards a period costs
    one fancy-indexing gather no matter how the fleet dithers.  Gathered
    values are bit-identical to computing the coefficients fresh because
    the evaluation is elementwise per variant.
    """

    #: At most this many brand-new words are cached per period.  A settled
    #: fleet's whole word vocabulary fills within a few periods and gathers
    #: take over, while the premium a transient period pays over the plain
    #: mixed evaluation stays bounded.
    FILL_BUDGET_PER_PERIOD = 8

    def __init__(self, terms: PlantTerms, max_words: int) -> None:
        self.terms = terms
        self.slot_of_word = np.full(max_words, -1, dtype=np.int64)
        self.table: np.ndarray | None = None  # (slots, variants, 12)
        self.used = 0
        self.periods_seen = 0

    def _evaluate(self, on_time: np.ndarray, period_s: np.ndarray) -> np.ndarray:
        """``(variants, 12)`` on+off coefficients for per-variant on-times."""
        return period_coefficients(self.terms, on_time, period_s)

    def coefficients(
        self,
        words: np.ndarray,
        duties: np.ndarray,
        levels: np.ndarray,
        period_s: np.ndarray,
        variant_rows: np.ndarray,
    ) -> np.ndarray:
        """``(variants, 12)`` on+off coefficients for this period's words.

        Values are bit-identical whether gathered from the table or
        evaluated directly: :func:`~repro.kernels.closed_loop
        .period_coefficients` is elementwise per variant, so computing a
        word column for the whole fleet and gathering each variant's slot
        later reproduces the mixed evaluation float for float.
        """
        self.periods_seen += 1
        slots = self.slot_of_word[words]
        missing = slots < 0
        if missing.any():
            # A table's very first period is always evaluated directly: a
            # load level that never repeats (a ramp retires its table every
            # period) then costs exactly the plain mixed evaluation, and
            # caching starts only once the load level has proven it recurs.
            budget = self.FILL_BUDGET_PER_PERIOD if self.periods_seen > 1 else 0
            new_words = np.unique(words[missing])
            for word in new_words[:budget]:
                entry = self._evaluate(levels[:, word] * period_s, period_s)
                if self.table is None:
                    self.table = np.empty((8, *entry.shape))
                elif self.used == self.table.shape[0]:
                    grown = np.empty((2 * self.used, *entry.shape))
                    grown[: self.used] = self.table
                    self.table = grown
                self.table[self.used] = entry
                self.slot_of_word[word] = self.used
                self.used += 1
            if new_words.size > budget:
                # Some of this period's words are still uncached: evaluate
                # the mixed duty vector directly (one coefficient pair, the
                # pre-table cost) and let later periods fill the rest.
                return self._evaluate(duties * period_s, period_s)
            slots = self.slot_of_word[words]
        return gather_coefficients(self.table, slots, variant_rows)


@dataclass
class BatchRegulationResult:
    """Per-period history of a batch closed-loop run.

    All matrices have shape ``(periods, num_variants)``.
    """

    switching_period_s: np.ndarray
    output_voltages_v: np.ndarray
    inductor_currents_a: np.ndarray
    duty_words: np.ndarray
    duty_fractions: np.ndarray
    error_codes: np.ndarray
    load_resistances_ohm: np.ndarray

    @property
    def num_periods(self) -> int:
        return self.output_voltages_v.shape[0]

    @property
    def num_variants(self) -> int:
        return self.output_voltages_v.shape[1]

    def _tail(self, tail_fraction: float) -> np.ndarray:
        return steady_state_tail(self.output_voltages_v, tail_fraction)

    def steady_state_voltage_v(self, tail_fraction: float = 0.25) -> np.ndarray:
        """Per-variant mean output voltage over the run's tail; shape (N,)."""
        return self._tail(tail_fraction).mean(axis=0)

    def steady_state_ripple_v(self, tail_fraction: float = 0.25) -> np.ndarray:
        """Per-variant peak-to-peak tail voltage variation; shape (N,)."""
        tail = self._tail(tail_fraction)
        return tail.max(axis=0) - tail.min(axis=0)

    def trace(self, variant: int) -> RegulationTrace:
        """One variant's history as a scalar :class:`RegulationTrace`."""
        period = float(self.switching_period_s[variant])
        return RegulationTrace(
            times_s=[(index + 1) * period for index in range(self.num_periods)],
            output_voltages_v=list(self.output_voltages_v[:, variant]),
            inductor_currents_a=list(self.inductor_currents_a[:, variant]),
            duty_words=[int(word) for word in self.duty_words[:, variant]],
            duty_fractions=list(self.duty_fractions[:, variant]),
            error_codes=[int(code) for code in self.error_codes[:, variant]],
            load_resistances_ohm=list(self.load_resistances_ohm[:, variant]),
        )


class BatchClosedLoop:
    """N digitally controlled bucks advanced together, period by period.

    The control law, quantization and state update are element-for-element
    the same as the scalar :class:`DigitallyControlledBuck` with the exact
    stepper; only the bookkeeping is vectorized.
    """

    #: Bound on memoized per-load coefficient tables; regulation runs use a
    #: handful of load levels, continuously varying scenarios (ramps, random
    #: bursts) would otherwise grow one table per period.
    MAX_CACHED_LOADS = 64

    #: Cap on the plant terms of one block of one-shot load rows, in
    #: lane-periods: 64 rows of a 64-lane fleet, one row at 4096 lanes
    #: (where a row's element work already dwarfs the per-call cost).  A
    #: block never has fewer than one row, so each of its term arrays holds
    #: at most ``max(cap, lanes)`` elements: above 4096 lanes a block is one
    #: row, the size of the per-period evaluation it replaces.
    PLANT_TERMS_BLOCK_ELEMENTS = 4096

    def __init__(
        self,
        parameters: BatchBuckParameters,
        quantizer: BatchQuantizer,
        reference_v: npt.ArrayLike,
        adc: WindowedADC | None = None,
        compensator: BatchCompensator | None = None,
        load: LoadProfile | None = None,
        loads: Sequence[LoadProfile] | None = None,
        start_at_reference: bool = True,
    ) -> None:
        """Assemble the batch loop.

        Args:
            parameters: stacked electrical parameters (defines N).
            quantizer: vectorized DPWM (must cover the same N variants, or a
                single shared table).
            reference_v: regulation target, scalar or per-variant array.
            adc: shared windowed error ADC (configuration, not state).
            compensator: vectorized PID; defaults to the scalar loop's
                defaults with the integrator preloaded at ``Vref / Vg``.
            load: one load profile shared by every variant.
            loads: alternatively, one profile per variant.
            start_at_reference: start at the operating point (as the scalar
                loop does) rather than from a cold start.
        """
        num_variants = parameters.num_variants
        if quantizer.num_variants not in (1, num_variants):
            raise ValueError(
                f"quantizer covers {quantizer.num_variants} variants, "
                f"parameters define {num_variants}"
            )
        self.parameters = parameters
        self.quantizer = quantizer
        self.reference_v = _as_variant_array(reference_v, num_variants, "reference_v")
        if np.any(self.reference_v <= 0) or np.any(
            self.reference_v > parameters.input_voltage_v
        ):
            raise ValueError(
                "reference voltages must be positive and below the input voltage"
            )
        self.adc = adc or WindowedADC()
        if compensator is not None and compensator.num_variants != num_variants:
            raise ValueError(
                f"compensator covers {compensator.num_variants} variants, "
                f"parameters define {num_variants}"
            )
        self.compensator = compensator or BatchCompensator(
            num_variants,
            initial_duty=self.reference_v / parameters.input_voltage_v,
        )
        if load is not None and loads is not None:
            raise ValueError("pass either a shared load or per-variant loads")
        if loads is not None and len(loads) != num_variants:
            raise ValueError(f"need one load per variant ({num_variants})")
        self._shared_load = load or (ConstantLoad(resistance_ohm=1.0) if loads is None else None)
        self._variant_loads = list(loads) if loads is not None else None
        # Loads that declare themselves static (ConstantLoad sets is_static)
        # are evaluated once and the resistance vector is reused every
        # period; anything else is resolved once per run into the
        # (periods, variants) schedule (see _load_schedule).
        if self._variant_loads is not None:
            loads_static = all(
                getattr(variant_load, "is_static", False)
                for variant_load in self._variant_loads
            )
        else:
            loads_static = getattr(self._shared_load, "is_static", False)
        self._loads_static = bool(loads_static)
        self._static_resistances: np.ndarray | None = None
        if start_at_reference:
            initial_load = self._load_schedule(np.empty((1, num_variants)))[0]
            self.output_voltage_v = self.reference_v.copy()
            self.inductor_current_a = self.reference_v / initial_load
        else:
            self.output_voltage_v = np.zeros(num_variants)
            self.inductor_current_a = np.zeros(num_variants)

    @property
    def num_variants(self) -> int:
        return self.parameters.num_variants

    def _load_schedule(self, schedule: np.ndarray) -> np.ndarray:
        """Fill ``schedule`` with the loads of periods ``0 .. len(schedule)``.

        ``schedule`` has shape ``(periods, variants)`` (the run writes the
        result's ``load_resistances_ohm`` array in place).  Static loads are
        evaluated once per loop and broadcast; dynamic profiles are resolved
        with one :func:`~repro.converter.load.load_schedule` call each, which
        is vectorized for the library's profiles and one ``resistance_at``
        per period for any other.
        """
        if self._loads_static:
            if self._static_resistances is None:
                self._static_resistances = self._evaluate_loads(
                    np.empty((1, self.num_variants))
                )[0]
            schedule[...] = self._static_resistances
            return schedule
        return self._evaluate_loads(schedule)

    def _evaluate_loads(self, schedule: np.ndarray) -> np.ndarray:
        """Resolve the load profiles into ``schedule`` and check the values."""
        periods = schedule.shape[0]
        if self._variant_loads is not None:
            for column, variant_load in enumerate(self._variant_loads):
                schedule[:, column] = load_schedule(variant_load, 0, periods)
        else:
            schedule[...] = load_schedule(self._shared_load, 0, periods).reshape(
                periods, -1
            )
        nonpositive = np.flatnonzero(np.any(schedule <= 0, axis=1))
        if nonpositive.size:
            raise ValueError(
                f"load resistance must be positive in period {nonpositive[0]}"
            )
        return schedule

    def run(self, periods: int) -> BatchRegulationResult:
        """Run the closed loop for a number of switching periods.

        Everything fixed for the run -- the drive, the reference, the
        quantizer's rows and word counts, the variant rows -- is resolved
        before the first period, and each
        period's ADC codes, duty words, achieved duties and state are
        written straight into the result's arrays.
        """
        if periods < 1:
            raise ValueError("periods must be >= 1")
        params = self.parameters
        num_variants = self.num_variants
        series_resistance = params.switch_resistance_ohm + params.inductor_resistance_ohm
        period_s = params.switching_period_s

        loads_out = self._load_schedule(np.empty((periods, num_variants)))
        voltages = np.empty((periods, num_variants))
        currents = np.empty((periods, num_variants))
        words_out = np.empty((periods, num_variants), dtype=np.int64)
        duties_out = np.empty((periods, num_variants))
        codes_out = np.empty((periods, num_variants), dtype=np.int64)

        current = self.inductor_current_a
        voltage = self.output_voltage_v
        adc = self.adc
        compensator = self.compensator
        levels = self.quantizer.levels
        quantizer_rows, word_counts = self.quantizer.word_lookup(num_variants)
        reference = self.reference_v
        drive = params.input_voltage_v / params.inductance_h
        step_buffer = np.empty((num_variants, 12))
        # Transition coefficients are memoized per (load fingerprint, duty
        # word) in one table per load level (see _LoadCoefficientTable):
        # whole-fleet dithering costs one gather per period instead of two
        # vectorized matrix exponentials.  The drive term is applied outside
        # the cache.
        load_tables: dict[bytes, _LoadCoefficientTable] = {}
        max_words = int(self.quantizer.num_words.max())
        variant_rows = np.arange(num_variants)

        def terms_for(rload: np.ndarray) -> PlantTerms:
            return plant_terms(
                *plant_matrix_entries(
                    inductance_h=params.inductance_h,
                    capacitance_f=params.capacitance_f,
                    series_resistance_ohm=series_resistance,
                    load_resistance_ohm=rload,
                )
            )

        # A load row that occurs once in the run (a fleet with some instance
        # mid-ramp) would retire its table after one period, so it skips the
        # table and pays the table's first-period cost: one direct fused
        # evaluation.  Rows are told apart by the hash of their bytes; a
        # collision only makes a one-shot row look recurring, which costs a
        # table but never changes a value.  Static loads repeat one row.
        if self._loads_static:
            recurs = [True] * periods
        else:
            row_hashes = [hash(row.tobytes()) for row in loads_out]
            occurrences = Counter(row_hashes)
            recurs = [occurrences[row_hash] > 1 for row_hash in row_hashes]
        # The one-shot rows' plant terms are computed a block of rows at a
        # time (elementwise, so bit-equal to one row at a time); the block
        # is capped by element count, so a wide fleet keeps a short block.
        one_shot = np.flatnonzero(~np.asarray(recurs))
        block_rows = max(1, self.PLANT_TERMS_BLOCK_ELEMENTS // num_variants)

        def block_terms() -> Iterator[PlantTerms]:
            for first in range(0, one_shot.size, block_rows):
                rows = one_shot[first : first + block_rows]
                block = np.broadcast_arrays(*terms_for(loads_out[rows]))
                for row_terms in zip(*block):
                    yield PlantTerms._make(row_terms)

        one_shot_terms = block_terms()
        for index in range(periods):
            codes = adc.quantize_error_array(reference, voltage, out=codes_out[index])
            commands = compensator.update(codes)
            words, duties = quantize_duty(
                commands,
                levels,
                quantizer_rows,
                word_counts,
                out=(words_out[index], duties_out[index]),
            )
            if not recurs[index]:
                step = period_coefficients(
                    next(one_shot_terms),
                    duties * period_s,
                    period_s,
                    out=step_buffer,
                )
            else:
                rload = loads_out[index]
                rload_key = rload.tobytes()
                table = load_tables.get(rload_key)
                if table is None:
                    if len(load_tables) >= self.MAX_CACHED_LOADS:
                        load_tables.clear()
                    table = _LoadCoefficientTable(terms_for(rload), max_words)
                    load_tables[rload_key] = table
                step = table.coefficients(
                    words, duties, levels, period_s, variant_rows
                )
            # On interval with the switch node at the input voltage, then
            # the drive-free off interval, in one kernel call.
            current, voltage = apply_period_step(
                step, current, voltage, drive, out=(currents[index], voltages[index])
            )
        self.inductor_current_a = current.copy()
        self.output_voltage_v = voltage.copy()
        return BatchRegulationResult(
            switching_period_s=period_s,
            output_voltages_v=voltages,
            inductor_currents_a=currents,
            duty_words=words_out,
            duty_fractions=duties_out,
            error_codes=codes_out,
            load_resistances_ohm=loads_out,
        )


def from_closed_loops(loops: Sequence[DigitallyControlledBuck]) -> BatchClosedLoop:
    """Lift scalar :class:`DigitallyControlledBuck` loops into one batch.

    The loops must share the ADC configuration (their per-variant
    parameters, DPWMs, compensator gains, references, loads and current
    power-stage states all carry over).  The returned batch starts
    from the loops' present state, so ``from_closed_loops(loops).run(p)``
    parallels ``[loop.run(p) for loop in loops]``.
    """
    loops = list(loops)
    if not loops:
        raise ValueError("need at least one closed loop")
    euler_loops = [loop for loop in loops if loop.power_stage.method != "exact"]
    if euler_loops:
        raise ValueError(
            "the batch engine only reproduces exact-stepper loops; "
            f"{len(euler_loops)} loop(s) use the Euler integrator"
        )
    adcs = {loop.adc for loop in loops}
    if len(adcs) != 1:
        raise ValueError("all loops must share one ADC configuration")
    parameters = BatchBuckParameters.from_parameters([loop.parameters for loop in loops])
    quantizer = BatchQuantizer.from_quantizers([loop.dpwm for loop in loops])
    compensator = BatchCompensator(
        len(loops),
        kp=[loop.compensator.kp for loop in loops],
        ki=[loop.compensator.ki for loop in loops],
        kd=[loop.compensator.kd for loop in loops],
        initial_duty=[loop.compensator.integral for loop in loops],
        min_duty=[loop.compensator.min_duty for loop in loops],
        max_duty=[loop.compensator.max_duty for loop in loops],
    )
    shared_load = loops[0].load
    loads = None
    if any(loop.load != shared_load for loop in loops[1:]):
        shared_load, loads = None, [loop.load for loop in loops]
    batch = BatchClosedLoop(
        parameters,
        quantizer,
        reference_v=[loop.reference_v for loop in loops],
        adc=loops[0].adc,
        compensator=compensator,
        load=shared_load,
        loads=loads,
        start_at_reference=False,
    )
    batch.output_voltage_v = np.array(
        [loop.power_stage.state.output_voltage_v for loop in loops]
    )
    batch.inductor_current_a = np.array(
        [loop.power_stage.state.inductor_current_a for loop in loops]
    )
    batch.compensator.previous_error = np.array(
        [loop.compensator.previous_error for loop in loops]
    )
    return batch
