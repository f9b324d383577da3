"""Voltage-regulator substrate (paper chapters 1-2).

The DPWM exists to drive a digitally controlled buck converter (paper Figure
15).  This package provides behavioural models of that application so the
delay-line DPWM can be exercised end to end, plus the background regulator
topologies the paper compares in chapter 2:

* :mod:`repro.converter.buck` -- synchronous buck power stage with exact
  piecewise-linear integration of the LC filter state.
* :mod:`repro.converter.adc` -- the windowed error ADC of the digital
  feedback loop.
* :mod:`repro.converter.delay_line_adc` -- the synthesizable delay-line
  implementation of that ADC (as in the cited digital PWM controller ICs)
  plus the no-limit-cycle DPWM/ADC resolution rule.
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
* :mod:`repro.converter.linear_regulator` -- standard / LDO / quasi-LDO
  linear regulators (paper eqs. 3-8).
* :mod:`repro.converter.switched_capacitor` -- the ideal switched-capacitor
  (charge-pump) converter of paper Figure 14.
"""

from repro.converter.adc import WindowedADC
from repro.converter.buck import BuckPowerStage, BuckParameters
from repro.converter.closed_loop import DigitallyControlledBuck, RegulationTrace
from repro.converter.compensator import PIDCompensator
from repro.converter.delay_line_adc import DelayLineADC, no_limit_cycle_condition
from repro.converter.linear_regulator import (
    LinearRegulator,
    LinearRegulatorType,
)
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
from repro.converter.switched_capacitor import SwitchedCapacitorConverter

__all__ = [
    "BuckParameters",
    "BuckPowerStage",
    "ConstantLoad",
    "DelayLineADC",
    "DigitallyControlledBuck",
    "LinearRegulator",
    "LinearRegulatorType",
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
    "SwitchedCapacitorConverter",
    "WindowedADC",
    "no_limit_cycle_condition",
    "resolve_missions",
]
