"""Voltage-regulator substrate (paper chapters 1-2).

The DPWM exists to drive a digitally controlled buck converter (paper Figure
15).  This package provides behavioural models of that application so the
delay-line DPWM can be exercised end to end:

* :mod:`repro.converter.buck` -- synchronous buck power stage with exact
  piecewise-linear integration of the LC filter state.
* :mod:`repro.converter.adc` -- the windowed error ADC of the digital
  feedback loop.
* :mod:`repro.converter.compensator` -- discrete PID compensator producing
  the duty command.
* :mod:`repro.converter.load` -- load profiles (static, stepped, ramp,
  pulse-train, random-burst), the only scenario channel: the loops
  regulate a fixed reference from a fixed input rail.
* :mod:`repro.converter.missions` -- mission profiles: seeded,
  chunk-invariant composition of the load primitives into long randomized
  workload missions.
* :mod:`repro.converter.closed_loop` -- the digitally controlled buck: ADC +
  compensator + DPWM + power stage in a cycle-by-cycle loop.
"""

from repro.converter.adc import WindowedADC
from repro.converter.buck import BuckPowerStage, BuckParameters
from repro.converter.closed_loop import DigitallyControlledBuck, RegulationTrace
from repro.converter.compensator import PIDCompensator
from repro.converter.load import (
    ConstantLoad,
    PulseTrainLoad,
    RampLoad,
    RandomBurstLoad,
    SteppedLoad,
)
from repro.converter.missions import (
    MissionGenerator,
    MissionProfile,
    MissionSegment,
    OffsetLoad,
    resolve_missions,
)

__all__ = [
    "BuckParameters",
    "BuckPowerStage",
    "ConstantLoad",
    "DigitallyControlledBuck",
    "MissionGenerator",
    "MissionProfile",
    "MissionSegment",
    "OffsetLoad",
    "PIDCompensator",
    "PulseTrainLoad",
    "RampLoad",
    "RandomBurstLoad",
    "RegulationTrace",
    "SteppedLoad",
    "WindowedADC",
    "resolve_missions",
]
