"""The digitally controlled buck converter (paper Figure 15).

One object wires the full loop together: every switching period the output
voltage is compared against the reference and quantized by the windowed ADC,
the PID compensator turns the error code into a duty command, the DPWM
quantizes that command into a duty word and reports the duty it can actually
produce (including the delay line's calibration and non-linearity), and the
buck power stage is advanced one period at that duty.

The DPWM can be any :class:`DutyQuantizer` (``duty_word_for`` /
``duty_fraction`` / ``duty_table`` / ``max_word``), which lets the same loop
run with the calibrated proposed line, the calibrated conventional line, or
an ideal quantizer -- the basis of the regulation examples and of the
resolution experiments (paper eq. 12: output-voltage resolution =
Vg / 2**n_DPWM).

The loop regulates a fixed ``reference_v`` from the fixed input rail
``parameters.input_voltage_v``; the load profile is its only per-period
scenario.

Example -- a scalar loop regulating 1.8 V down to 0.9 V behind an ideal
8-bit DPWM, and the batch engine lifted from it (before either runs, so
both start from the same state) reproducing its duty words exactly:

    >>> from repro.converter.buck import BuckParameters
    >>> from repro.simulation.batch import from_closed_loops
    >>> loop = DigitallyControlledBuck(
    ...     BuckParameters(input_voltage_v=1.8), IdealDPWM(bits=8),
    ...     reference_v=0.9)
    >>> batch = from_closed_loops([loop])
    >>> trace = loop.run(300)
    >>> round(trace.steady_state_voltage_v(), 2)
    0.9
    >>> batch.run(300).duty_words[:, 0].tolist() == trace.duty_words
    True
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from repro.converter.adc import WindowedADC
from repro.converter.buck import BuckParameters, BuckPowerStage
from repro.converter.compensator import PIDCompensator
from repro.converter.load import ConstantLoad, LoadProfile

__all__ = ["DutyQuantizer", "IdealDPWM", "RegulationTrace", "DigitallyControlledBuck"]


def steady_state_tail(voltages: np.ndarray, tail_fraction: float) -> np.ndarray:
    """Validated tail slice (along axis 0) for steady-state statistics.

    Shared by the scalar :class:`RegulationTrace` and the batch engine's
    result container so the two can never diverge on validation or slicing.

    Raises:
        ValueError: if the history is empty or ``tail_fraction`` is outside
            ``(0, 1]``.
    """
    num_periods = voltages.shape[0]
    if num_periods == 0:
        raise ValueError(
            "cannot compute steady-state statistics of an empty trace; "
            "run the loop for at least one period first"
        )
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError("tail_fraction must be in (0, 1]")
    start = int(num_periods * (1.0 - tail_fraction))
    return voltages[min(start, num_periods - 1) :]


class DutyQuantizer(Protocol):
    """The interface the closed loop needs from a DPWM."""

    @property
    def max_word(self) -> int:  # pragma: no cover - protocol definition
        ...

    def duty_word_for(self, duty_fraction: float) -> int:  # pragma: no cover
        ...

    def duty_fraction(self, duty_word: int) -> float:  # pragma: no cover
        ...

    def duty_table(self) -> np.ndarray:  # pragma: no cover
        """``duty_fraction`` of every word ``0 .. max_word`` as one array."""
        ...


@dataclass(frozen=True)
class IdealDPWM:
    """An ideal n-bit DPWM: perfect quantization, no delay-line error.

    Used as the baseline the calibrated delay-line DPWMs are compared
    against in the regulation experiments.
    """

    bits: int

    def __post_init__(self) -> None:
        if self.bits < 1:
            raise ValueError("resolution must be at least 1 bit")

    @property
    def max_word(self) -> int:
        return (1 << self.bits) - 1

    def duty_word_for(self, duty_fraction: float) -> int:
        duty_fraction = min(max(duty_fraction, 0.0), 1.0)
        return min(int(round(duty_fraction * (1 << self.bits))), self.max_word)

    def duty_fraction(self, duty_word: int) -> float:
        if not 0 <= duty_word <= self.max_word:
            raise ValueError("duty word out of range")
        return duty_word / float(1 << self.bits)

    def duty_table(self) -> np.ndarray:
        """The whole word -> duty staircase as one array (what
        :meth:`~repro.simulation.batch.BatchQuantizer.from_quantizers`
        copies into the batch engine)."""
        return np.arange(1 << self.bits, dtype=float) / float(1 << self.bits)


@dataclass
class RegulationTrace:
    """Per-period history of a closed-loop run."""

    times_s: list[float] = field(default_factory=list)
    output_voltages_v: list[float] = field(default_factory=list)
    inductor_currents_a: list[float] = field(default_factory=list)
    duty_words: list[int] = field(default_factory=list)
    duty_fractions: list[float] = field(default_factory=list)
    error_codes: list[int] = field(default_factory=list)
    load_resistances_ohm: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.times_s)

    def as_arrays(self) -> dict[str, np.ndarray]:
        """All columns as numpy arrays (for analysis and plotting)."""
        return {
            "time_s": np.asarray(self.times_s),
            "vout_v": np.asarray(self.output_voltages_v),
            "il_a": np.asarray(self.inductor_currents_a),
            "duty_word": np.asarray(self.duty_words),
            "duty": np.asarray(self.duty_fractions),
            "error_code": np.asarray(self.error_codes),
            "rload_ohm": np.asarray(self.load_resistances_ohm),
        }

    def _tail(self, tail_fraction: float) -> np.ndarray:
        """Last ``tail_fraction`` of the voltage history, validated non-empty."""
        return steady_state_tail(np.asarray(self.output_voltages_v), tail_fraction)

    def steady_state_voltage_v(self, tail_fraction: float = 0.25) -> float:
        """Mean output voltage over the last ``tail_fraction`` of the run.

        Raises:
            ValueError: if the trace is empty.
        """
        return float(self._tail(tail_fraction).mean())

    def steady_state_ripple_v(self, tail_fraction: float = 0.25) -> float:
        """Peak-to-peak per-period voltage variation over the run's tail.

        Raises:
            ValueError: if the trace is empty.
        """
        tail = self._tail(tail_fraction)
        return float(tail.max() - tail.min())


class DigitallyControlledBuck:
    """ADC + compensator + DPWM + buck power stage, advanced period by period."""

    def __init__(
        self,
        parameters: BuckParameters,
        dpwm: DutyQuantizer,
        reference_v: float,
        adc: WindowedADC | None = None,
        compensator: PIDCompensator | None = None,
        load: LoadProfile | None = None,
        start_at_reference: bool = True,
        stepper: str = "exact",
    ) -> None:
        """Assemble the loop.

        Args:
            stepper: power-stage integration method, ``"exact"`` (default)
                or ``"euler"`` (the seed fixed-step integrator).
        """
        if reference_v <= 0 or reference_v > parameters.input_voltage_v:
            raise ValueError(
                "reference voltage must be positive and below the input voltage"
            )
        self.parameters = parameters
        self.dpwm = dpwm
        self.reference_v = reference_v
        self.adc = adc or WindowedADC()
        self.compensator = compensator or PIDCompensator(
            initial_duty=reference_v / parameters.input_voltage_v
        )
        self.load = load or ConstantLoad(resistance_ohm=1.0)
        self.power_stage = BuckPowerStage(parameters, method=stepper)
        if start_at_reference:
            # Start at the operating point so runs focus on regulation and
            # load transients rather than the cold-start charge-up; pass
            # ``start_at_reference=False`` to study the start-up itself.
            initial_load = self.load.resistance_at(0)
            if initial_load <= 0:
                raise ValueError("load resistance must be positive in period 0")
            self.power_stage.reset(
                output_voltage_v=reference_v,
                inductor_current_a=reference_v / initial_load,
            )
        else:
            self.power_stage.reset(output_voltage_v=0.0, inductor_current_a=0.0)

    def run(self, periods: int) -> RegulationTrace:
        """Run the closed loop for a number of switching periods."""
        if periods < 1:
            raise ValueError("periods must be >= 1")
        trace = RegulationTrace()
        period_s = self.parameters.switching_period_s
        reference = self.reference_v
        for index in range(periods):
            measured = self.power_stage.state.output_voltage_v
            error_code = self.adc.quantize_error(reference, measured)
            duty_command = self.compensator.update(error_code)
            duty_word = self.dpwm.duty_word_for(duty_command)
            duty = self.dpwm.duty_fraction(duty_word)
            load_resistance = self.load.resistance_at(index)
            state = self.power_stage.run_period(duty, load_resistance)
            trace.times_s.append((index + 1) * period_s)
            trace.output_voltages_v.append(state.output_voltage_v)
            trace.inductor_currents_a.append(state.inductor_current_a)
            trace.duty_words.append(duty_word)
            trace.duty_fractions.append(duty)
            trace.error_codes.append(error_code)
            trace.load_resistances_ohm.append(load_resistance)
        return trace

    def output_voltage_resolution_v(self) -> float:
        """Output-voltage resolution set by the DPWM resolution (paper eq. 12)."""
        return self.parameters.input_voltage_v / float(self.dpwm.max_word + 1)
