"""Scheme-versus-scheme comparison harness (paper Tables 4 and 5).

For a given design specification the harness sizes both schemes with the
paper's design procedure, synthesizes both netlists with the structural
synthesizer, calibrates both lines at a chosen operating point, and collects
the qualitative and quantitative criteria the paper compares on: area and its
distribution, delay-cell complexity, extra blocks, calibration time and
linearity.

Calibration and linearity run on the vectorized ensemble engine
(:mod:`repro.core.ensemble`): each line is wrapped in a single-instance
ensemble, locked closed-form and swept as a batch, and the scalar comparison
numbers are thin views of those batch results (the closed-form lock is
provably identical to the cycle-accurate controllers' fixed points).  The
returned calibration results therefore carry *empty* locking traces; use
:class:`~repro.core.proposed.ProposedController` /
:class:`~repro.core.conventional.ShiftRegisterController` directly when the
cycle-by-cycle walk itself is needed (as the fig37/fig47_48 experiments do).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.metrics import LinearityMetrics
from repro.core.calibration import CalibrationResult
from repro.core.conventional import TuningOrder
from repro.core.design import (
    ConventionalDesign,
    DesignSpec,
    ProposedDesign,
    design_conventional,
    design_proposed,
)
from repro.core.ensemble import ConventionalEnsemble, ProposedEnsemble
from repro.technology.corners import OperatingConditions
from repro.technology.library import TechnologyLibrary, intel32_like_library
from repro.technology.synthesis import AreaReport, Synthesizer

__all__ = ["SchemeComparison", "compare_schemes"]


@dataclass(frozen=True)
class SchemeComparison:
    """Collected comparison data for one design specification.

    Attributes:
        spec: the shared design specification.
        proposed_design / conventional_design: sized parameters.
        proposed_area / conventional_area: post-synthesis area reports.
        proposed_calibration / conventional_calibration: locking results at
            the comparison operating point.
        proposed_linearity / conventional_linearity: linearity metrics of the
            post-calibration transfer curves.
        conditions: the operating point used for calibration and linearity.
    """

    spec: DesignSpec
    proposed_design: ProposedDesign
    conventional_design: ConventionalDesign
    proposed_area: AreaReport
    conventional_area: AreaReport
    proposed_calibration: CalibrationResult
    conventional_calibration: CalibrationResult
    proposed_linearity: LinearityMetrics
    conventional_linearity: LinearityMetrics
    proposed_max_error_fraction: float
    conventional_max_error_fraction: float
    conditions: OperatingConditions

    @property
    def area_ratio(self) -> float:
        """Conventional area divided by proposed area (> 1 when the proposed wins)."""
        return (
            self.conventional_area.total_area_um2
            / self.proposed_area.total_area_um2
        )

    @property
    def proposed_wins_area(self) -> bool:
        return self.proposed_area.total_area_um2 < self.conventional_area.total_area_um2

    @property
    def proposed_wins_linearity(self) -> bool:
        """Linearity is compared as worst-case deviation from the ideal line.

        The deviation is expressed as a fraction of the switching period,
        which is the quantity that translates into output-voltage error in
        the regulator (paper eq. 12); LSB-unit INL would compare the two
        schemes against different step sizes.
        """
        return (
            self.proposed_max_error_fraction <= self.conventional_max_error_fraction
        )

    @property
    def proposed_wins_calibration_time(self) -> bool:
        return (
            self.proposed_calibration.lock_cycles
            <= self.conventional_calibration.lock_cycles
        )

    def preliminary_rows(self) -> list[tuple[str, str, str]]:
        """Qualitative rows mirroring the paper's Table 4."""
        proposed_cell = "simple (single branch)"
        conventional_cell = (
            f"complex ({self.conventional_design.branches} branches, tunable)"
        )
        return [
            ("Delay cell", conventional_cell, proposed_cell),
            (
                "Linearity",
                "worse (max error "
                f"{100 * self.conventional_max_error_fraction:.2f} % of period)",
                "better (max error "
                f"{100 * self.proposed_max_error_fraction:.2f} % of period)",
            ),
            (
                "Mapper / extra MUX",
                "not required",
                "required (mapper + calibration MUX)",
            ),
            (
                "Calibration time",
                f"{self.conventional_calibration.lock_cycles} cycles",
                f"{self.proposed_calibration.lock_cycles} cycles",
            ),
        ]


def compare_schemes(
    spec: DesignSpec,
    conditions: OperatingConditions | None = None,
    library: TechnologyLibrary | None = None,
    tuning_order: TuningOrder = TuningOrder.ROUND_ROBIN,
) -> SchemeComparison:
    """Run the full comparison for a specification.

    Args:
        spec: clock frequency and resolution.
        conditions: operating point for calibration/linearity (typical corner
            by default, matching the paper's 100 MHz comparison).
        library: technology library (32 nm-class by default).
        tuning_order: control-bit ordering for the conventional scheme.
    """
    library = library or intel32_like_library()
    conditions = conditions or OperatingConditions.typical()
    synthesizer = Synthesizer(library=library)

    proposed_design = design_proposed(spec, library)
    conventional_design = design_conventional(spec, library)

    proposed_line = proposed_design.build_line(library=library)
    conventional_line = conventional_design.build_line(
        library=library, tuning_order=tuning_order
    )

    proposed_area = synthesizer.synthesize(proposed_line.netlist())
    conventional_area = synthesizer.synthesize(conventional_line.netlist())

    proposed_ensemble = ProposedEnsemble.from_line(proposed_line)
    conventional_ensemble = ConventionalEnsemble.from_line(conventional_line)

    proposed_lock, proposed_curves = proposed_ensemble.calibrate(conditions)
    conventional_lock, conventional_curves = conventional_ensemble.calibrate(
        conditions
    )
    proposed_calibration = proposed_lock.result(0)
    conventional_calibration = conventional_lock.result(0)
    proposed_curve = proposed_curves.curve(0)
    conventional_curve = conventional_curves.curve(0)

    return SchemeComparison(
        spec=spec,
        proposed_design=proposed_design,
        conventional_design=conventional_design,
        proposed_area=proposed_area,
        conventional_area=conventional_area,
        proposed_calibration=proposed_calibration,
        conventional_calibration=conventional_calibration,
        proposed_linearity=proposed_curve.metrics(),
        conventional_linearity=conventional_curve.metrics(),
        proposed_max_error_fraction=proposed_curve.max_error_fraction_of_period(),
        conventional_max_error_fraction=(
            conventional_curve.max_error_fraction_of_period()
        ),
        conditions=conditions,
    )
