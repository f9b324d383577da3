"""Pure math kernels for the batch engines.

This package splits the pure array math out of the orchestration layers
(:mod:`repro.simulation.batch`, :mod:`repro.core.ensemble`,
:mod:`repro.pipeline`) into stateless, RNG-free functions -- arrays in,
arrays out -- grouped by stage:

* :mod:`repro.kernels.closed_loop` -- per-period regulation kernels
  (the ten exact-stepper step coefficients, PID update, duty quantizer,
  state advance);
* :mod:`repro.kernels.ensemble` -- calibration kernels (proposed lock
  fixed point, transfer-curve matrix build, conventional first-crossing
  bisection);
* :mod:`repro.kernels.fabrication` -- variation-draw-to-delay kernels.

The engines call these functions directly; there is one numpy
implementation of each.  The kernel contract is described in the
``repro.kernels`` section of ``docs/architecture.md`` and enforced by the
``kernel-purity`` lint rule.
"""

__all__ = ["active_backend_name"]


def active_backend_name() -> str:
    """Name of the array library the kernels run on, for provenance."""
    return "numpy"
