"""The paper's primary contribution: synthesizable delay-line architectures.

Two delay-line calibration architectures are implemented, matching chapter 3
of the paper:

* :mod:`repro.core.conventional` -- the conventional adjustable-cells delay
  line: a fixed number of tunable delay cells (each with ``m`` branches of
  1..m delay elements), tuned by a DLL-style controller built around a large
  shift register (paper Figures 32-42).
* :mod:`repro.core.proposed` -- the proposed delay line: a variable number of
  identical, untunable cells, locked to *half* the clock period by an up/down
  controller and combined with a mapping block that rescales the input duty
  word onto the locked cell count (paper Figures 43-49).

Supporting modules:

* :mod:`repro.core.delay_cells` -- delay element / fixed cell / tunable cell
  models shared by both schemes.
* :mod:`repro.core.calibration` -- cycle-accurate locking simulations and
  continuous-recalibration runs (temperature drift tracking).
* :mod:`repro.core.mapper` -- the proposed scheme's mapping block (eq. 18).
* :mod:`repro.core.design` -- the parameterized design procedure of section
  4.2 (how many cells, how many buffers per cell/element, multiplexer sizes).
* :mod:`repro.core.linearity` -- transfer-curve extraction (delay versus
  input word) used for Figures 41-42 and 50-51.
* :mod:`repro.core.ensemble` -- the vectorized ensemble engine: batch
  calibration (closed-form locks) and batch transfer curves over stacks of
  fabricated instances; the scalar linearity path is a thin view of it.
* :mod:`repro.core.comparison` -- the scheme-versus-scheme comparison harness
  behind Tables 4 and 5.
"""

from repro.core.calibration import (
    CalibrationResult,
    ContinuousCalibrationTrace,
    LockingStep,
    LockingTrace,
)
from repro.core.conventional import (
    ConventionalDelayLine,
    ConventionalDelayLineConfig,
    ShiftRegisterController,
    TuningOrder,
)
from repro.core.delay_cells import DelayElement, FixedDelayCell, TunableDelayCell
from repro.core.ensemble import (
    ConventionalEnsemble,
    DelayLineEnsemble,
    EnsembleCalibration,
    EnsembleTransferCurves,
    ProposedEnsemble,
)
from repro.core.design import (
    ConventionalDesign,
    DesignSpec,
    ProposedDesign,
    design_conventional,
    design_proposed,
)
from repro.core.linearity import TransferCurve, transfer_curve
from repro.core.mapper import MappingBlock
from repro.core.proposed import (
    ProposedController,
    ProposedDelayLine,
    ProposedDelayLineConfig,
)
from repro.core.structural import StructuralLockResult, StructuralProposedDelayLine
from repro.core.comparison import SchemeComparison, compare_schemes
from repro.core.yield_analysis import (
    LinearitySpec,
    RegulationSpec,
    YieldModel,
    YieldPoint,
    cells_for_yield,
    coverage_yield,
    yield_curve,
)

__all__ = [
    "CalibrationResult",
    "ContinuousCalibrationTrace",
    "ConventionalDelayLine",
    "ConventionalDelayLineConfig",
    "ConventionalDesign",
    "ConventionalEnsemble",
    "DelayElement",
    "DelayLineEnsemble",
    "DesignSpec",
    "EnsembleCalibration",
    "EnsembleTransferCurves",
    "FixedDelayCell",
    "LinearitySpec",
    "LockingStep",
    "LockingTrace",
    "MappingBlock",
    "ProposedController",
    "ProposedDelayLine",
    "ProposedDelayLineConfig",
    "ProposedDesign",
    "ProposedEnsemble",
    "RegulationSpec",
    "SchemeComparison",
    "ShiftRegisterController",
    "StructuralLockResult",
    "StructuralProposedDelayLine",
    "TransferCurve",
    "TunableDelayCell",
    "TuningOrder",
    "YieldModel",
    "YieldPoint",
    "cells_for_yield",
    "compare_schemes",
    "coverage_yield",
    "design_conventional",
    "design_proposed",
    "transfer_curve",
    "yield_curve",
]
