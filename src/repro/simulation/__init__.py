"""Discrete-event digital-logic simulator.

This package is the repository's substitute for the Verilog/QuestaSim flow the
paper uses for functional verification.  It provides:

* an event-driven :class:`~repro.simulation.simulator.Simulator` with
  picosecond time resolution,
* :class:`~repro.simulation.signals.Signal` objects with change notification
  and full waveform tracing,
* behavioural primitives (:mod:`repro.simulation.primitives`): buffers,
  multiplexers, D flip-flops with setup-time checking and an
  optional metastability model, set/reset flops, counters and comparators,
* clock and pulse generators (:mod:`repro.simulation.clocks`),
* waveform analysis helpers (:mod:`repro.simulation.waveform`) used to
  measure duty cycles and pulse widths for the DPWM timing figures, and
* the vectorized batch engine (:mod:`repro.simulation.batch`) that advances
  whole fleets of digitally controlled buck variants with exact
  state-space steps -- the workhorse of the Monte-Carlo regulation sweeps.
"""

from repro.simulation.batch import (
    BatchBuckParameters,
    BatchClosedLoop,
    BatchCompensator,
    BatchQuantizer,
    BatchRegulationResult,
    from_closed_loops,
)
from repro.simulation.clocks import ClockGenerator, PulseGenerator
from repro.simulation.primitives import (
    Buffer,
    Comparator,
    Counter,
    DFlipFlop,
    MuxN,
    SetResetFlop,
    TwoFlopSynchronizer,
)
from repro.simulation.signals import Signal
from repro.simulation.simulator import Simulator
from repro.simulation.waveform import WaveformTrace, duty_cycle_of, pulse_widths

__all__ = [
    "BatchBuckParameters",
    "BatchClosedLoop",
    "BatchCompensator",
    "BatchQuantizer",
    "BatchRegulationResult",
    "Buffer",
    "ClockGenerator",
    "from_closed_loops",
    "Comparator",
    "Counter",
    "DFlipFlop",
    "MuxN",
    "PulseGenerator",
    "SetResetFlop",
    "Signal",
    "Simulator",
    "TwoFlopSynchronizer",
    "WaveformTrace",
    "duty_cycle_of",
    "pulse_widths",
]
