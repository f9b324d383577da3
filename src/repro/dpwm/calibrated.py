"""DPWM built on a calibrated delay line (the paper's contribution in use).

The background delay-line DPWM of :mod:`repro.dpwm.delay_line_dpwm` assumes
ideal cell delays.  In a real regulator the line must be calibrated against
PVT variation, which is exactly what the paper's two schemes provide.  This
module wraps either calibrated delay line behind the DPWM interface the
converter substrate consumes: request a duty word, get back the achieved duty
fraction (and optionally a waveform), with the calibration kept up to date as
operating conditions change.

The word -> achieved-duty mapping is computed *in array form* at calibration
time: the line is lifted into a single-instance
:mod:`repro.core.ensemble` run and the resulting transfer curve converted
with :meth:`~repro.simulation.batch.BatchQuantizer.from_ensemble` -- the
same code path the batch silicon-to-regulation pipeline uses for whole
Monte-Carlo populations.  Scalar ``duty_fraction`` calls are then table
lookups, and :meth:`duty_table` hands the whole mapping to the batch engine
without any per-word Python loop.
"""

from __future__ import annotations

import numpy as np

from repro.core.calibration import CalibrationResult
from repro.core.conventional import ConventionalDelayLine, ShiftRegisterController
from repro.core.ensemble import ConventionalEnsemble, ProposedEnsemble
from repro.core.proposed import ProposedController, ProposedDelayLine
from repro.dpwm.base import DPWMWaveform, DutyCycleRequest
from repro.simulation.batch import BatchQuantizer
from repro.simulation.signals import Signal
from repro.simulation.simulator import Simulator
from repro.technology.corners import OperatingConditions

__all__ = ["CalibratedDelayLineDPWM"]


class CalibratedDelayLineDPWM:
    """A trailing-edge DPWM driven by a calibrated delay line.

    Works with either the proposed or the conventional delay line.  The
    calibration is performed on construction (and can be re-run with
    :meth:`recalibrate` when the operating conditions drift); duty words then
    map to reset-edge delays through the scheme's own mechanism (mapping
    block for the proposed line, direct tap select for the conventional one).

    Duty-word convention: word ``w`` out of ``2**word_bits`` requests a duty
    of ``w / 2**word_bits`` (word 0 = no pulse), matching the calibrated
    schemes of chapter 3 rather than the background examples of chapter 2.
    """

    def __init__(
        self,
        line: ProposedDelayLine | ConventionalDelayLine,
        conditions: OperatingConditions | None = None,
    ) -> None:
        self.line = line
        self.conditions = conditions or OperatingConditions.typical()
        if isinstance(line, ProposedDelayLine):
            self._scheme = "proposed"
            self.word_bits = line.config.word_bits
        elif isinstance(line, ConventionalDelayLine):
            self._scheme = "conventional"
            self.word_bits = line.config.resolution_bits
        else:
            raise TypeError(f"unsupported delay-line type: {type(line)!r}")
        self._tap_sel: int | None = None
        self._levels: np.ndarray | None = None
        self._duty_table: np.ndarray
        self.calibration = self.recalibrate(self.conditions)

    @property
    def scheme(self) -> str:
        return self._scheme

    @property
    def switching_period_ps(self) -> float:
        return self.line.config.clock_period_ps

    @property
    def max_word(self) -> int:
        return (1 << self.word_bits) - 1

    def recalibrate(self, conditions: OperatingConditions) -> CalibrationResult:
        """Re-run the locking phase at new operating conditions."""
        self.conditions = conditions
        if self._scheme == "proposed":
            result = ProposedController(self.line).lock(conditions)
            self._tap_sel = result.control_state
        else:
            result = ShiftRegisterController(self.line).lock(conditions)
            self._levels = self.line.levels_for_steps(result.control_state)
        self.calibration = result
        self._duty_table = self._build_duty_table()
        return result

    def _build_duty_table(self) -> np.ndarray:
        """Word -> achieved-duty table via the vectorized ensemble path."""
        if self._scheme == "proposed":
            if self._tap_sel is None:
                raise RuntimeError("proposed scheme has no tap selection; lock first")
            curves = ProposedEnsemble.from_line(self.line).transfer_curves(
                self.conditions, tap_sel=np.array([self._tap_sel])
            )
        else:
            if self._levels is None:
                raise RuntimeError(
                    "conventional scheme has no level settings; lock first"
                )
            curves = ConventionalEnsemble.from_line(self.line).transfer_curves(
                self.conditions, levels=np.asarray(self._levels)
            )
        quantizer = BatchQuantizer.from_ensemble(curves, num_words=self.max_word + 1)
        return quantizer.levels[0]

    def duty_table(self) -> np.ndarray:
        """Achieved duty of every word ``0..max_word`` as one array.

        The batch engine copies this
        (:meth:`~repro.simulation.batch.BatchQuantizer.from_quantizers`);
        treat the returned array as read-only.
        """
        return self._duty_table

    def reset_delay_ps(self, duty_word: int) -> float:
        """Delay of the reset edge for a duty word at the current calibration."""
        if not 0 <= duty_word <= self.max_word:
            raise ValueError(
                f"duty word {duty_word} out of range [0, {self.max_word}]"
            )
        if self._scheme == "proposed":
            if self._tap_sel is None:
                raise RuntimeError("proposed scheme has no tap selection; lock first")
            return self.line.output_delay_ps(duty_word, self._tap_sel, self.conditions)
        if self._levels is None:
            raise RuntimeError("conventional scheme has no level settings; lock first")
        return self.line.output_delay_ps(duty_word, self._levels, self.conditions)

    def duty_fraction(self, duty_word: int) -> float:
        """Achieved duty-cycle fraction (0..1) for a duty word.

        A lookup into the calibration-time :meth:`duty_table` -- the scalar
        view of the same arithmetic the batch pipeline applies to whole
        ensembles.
        """
        if not 0 <= duty_word <= self.max_word:
            raise ValueError(
                f"duty word {duty_word} out of range [0, {self.max_word}]"
            )
        return float(self._duty_table[duty_word])

    def duty_word_for(self, duty_fraction: float) -> int:
        """Quantize a requested duty fraction to the nearest duty word."""
        duty_fraction = min(max(duty_fraction, 0.0), 1.0)
        word = int(round(duty_fraction * (1 << self.word_bits)))
        return min(word, self.max_word)

    def generate(self, duty_word: int, periods: int = 2) -> DPWMWaveform:
        """Produce a recorded waveform for a duty word over several periods."""
        request = DutyCycleRequest(word=min(duty_word, self.max_word), bits=self.word_bits)
        period = self.switching_period_ps
        delay = self.reset_delay_ps(duty_word)
        sim = Simulator()
        out = Signal(sim, "dpwm_out")
        for index in range(periods):
            start = index * period
            if delay > 0:
                sim.schedule_at(start, lambda: out.set(1))
                sim.schedule_at(min(start + delay, start + period), lambda: out.set(0))
        sim.run_until(period * periods)
        measured = out.trace.duty_cycle(period, start_ps=period) if periods > 1 else (
            out.trace.duty_cycle(period)
        )
        return DPWMWaveform(
            architecture=f"calibrated-{self._scheme}",
            request=request,
            switching_period_ps=period,
            trace=out.trace,
            measured_duty=measured,
            support_traces={},
        )
