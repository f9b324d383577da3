"""The windowed error ADC of the digital feedback loop (paper Figure 15).

The digitally controlled buck compares the output voltage against the
reference and quantizes the *error* (not the absolute voltage): a small
window around zero error is digitized with a configurable LSB so the
compensator sees a signed integer error code.  Saturation at the window edges
is modelled, as is an optional zero-error dead band (the "zero-error bin"
used by real controllers to avoid limit cycling).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

__all__ = ["WindowedADC"]


@dataclass(frozen=True)
class WindowedADC:
    """Windowed, signed error quantizer.

    Attributes:
        lsb_v: voltage per code.
        bits: total resolution; codes span ``[-2**(bits-1), 2**(bits-1) - 1]``.
        dead_band_v: errors smaller than this report code 0.
    """

    lsb_v: float = 0.005
    bits: int = 5
    dead_band_v: float = 0.0

    def __post_init__(self) -> None:
        if self.lsb_v <= 0:
            raise ValueError("ADC LSB must be positive")
        if self.bits < 2:
            raise ValueError("ADC needs at least 2 bits")
        if self.dead_band_v < 0:
            raise ValueError("dead band must be non-negative")

    @property
    def max_code(self) -> int:
        return (1 << (self.bits - 1)) - 1

    @property
    def min_code(self) -> int:
        return -(1 << (self.bits - 1))

    @property
    def full_scale_v(self) -> float:
        """Largest positive error representable before saturation."""
        return self.max_code * self.lsb_v

    def _unclamped_code(self, reference_v: float, measured_v: float) -> int:
        """Signed code before window clamping (dead band already applied).

        Both :meth:`quantize_error` and :meth:`is_saturated` derive from this
        single quantization so the two can never disagree about dead band or
        rounding.
        """
        error = reference_v - measured_v
        if abs(error) <= self.dead_band_v:
            return 0
        return int(round(error / self.lsb_v))

    def quantize_error(self, reference_v: float, measured_v: float) -> int:
        """Quantize ``reference - measured`` into a signed error code."""
        code = self._unclamped_code(reference_v, measured_v)
        return max(self.min_code, min(self.max_code, code))

    def is_saturated(self, reference_v: float, measured_v: float) -> bool:
        """Whether the error falls outside the ADC window."""
        code = self._unclamped_code(reference_v, measured_v)
        return code > self.max_code or code < self.min_code

    def quantize_error_array(
        self,
        reference_v: npt.ArrayLike,
        measured_v: npt.ArrayLike,
        out: npt.NDArray[np.int64] | None = None,
    ) -> npt.NDArray[np.int64]:
        """Vectorized :meth:`quantize_error` over arrays of voltages.

        Used by the batch simulation engine; element-for-element identical to
        the scalar method (``np.rint`` and Python's ``round`` both round half
        to even).  ``out``, when given, is the int64 array to fill.  With no
        dead band the dead-band mask is skipped: an error of exactly zero
        rounds to code 0 anyway.
        """
        error = np.subtract(reference_v, measured_v, dtype=float)
        scaled = np.rint(error / self.lsb_v)
        if out is None:
            out = np.empty(np.shape(scaled), dtype=np.int64)
        np.copyto(out, scaled, casting="unsafe")
        np.maximum(out, self.min_code, out=out)
        np.minimum(out, self.max_code, out=out)
        if self.dead_band_v > 0:
            out[np.abs(error) <= self.dead_band_v] = 0
        return out
