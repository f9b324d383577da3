"""repro -- synthesizable delay-line architectures for digitally controlled voltage regulators.

A reproduction of Haridy, "Synthesizable delay line architectures for
digitally controlled voltage regulators" (SOCC 2012 / AUC MSc thesis 2013).

Package map
-----------

* :mod:`repro.core` -- the paper's contribution: the conventional
  adjustable-cells delay line and the proposed variable-cell-count delay
  line, their controllers, the mapping block, the parameterized design
  procedure, linearity extraction and the scheme comparison harness.
* :mod:`repro.simulation` -- discrete-event digital-logic simulator
  (the QuestaSim substitute).
* :mod:`repro.technology` -- synthetic 32 nm-class standard-cell library,
  PVT corners, variation models and the structural synthesizer
  (the Design Compiler / Intel 32 nm substitute).
* :mod:`repro.dpwm` -- counter-based, delay-line and hybrid DPWM
  architectures, plus the calibrated delay-line DPWM built on the core.
* :mod:`repro.converter` -- digitally controlled buck converter, its
  control blocks, loads and missions.
* :mod:`repro.pipeline` -- the fused silicon-to-regulation Monte-Carlo
  pipeline: variation -> calibration -> DPWM duty tables -> batch
  closed-loop regulation, with no per-instance Python loops.
* :mod:`repro.mc` -- streaming adaptive Monte-Carlo: 95 % Wilson
  intervals on yields, Welford running moments, and a chunked sampler
  that stops when the interval is tight enough.
* :mod:`repro.analysis` -- linearity/power metrics and report rendering.
* :mod:`repro.experiments` -- one harness per paper table/figure plus a CLI
  (``repro-experiments``).

Quick start
-----------

>>> from repro.core import DesignSpec, design_proposed, ProposedController
>>> from repro.technology import OperatingConditions
>>> line = design_proposed(DesignSpec(clock_frequency_mhz=100, resolution_bits=6)).build_line()
>>> result = ProposedController(line).lock(OperatingConditions.slow())
>>> result.locked, result.control_state
(True, 31)
"""

__version__ = "1.0.0"

__all__ = [
    "analysis",
    "converter",
    "core",
    "dpwm",
    "experiments",
    "mc",
    "pipeline",
    "simulation",
    "technology",
]
