"""Statistical sizing of the proposed delay line (the paper's future work).

The proposed scheme is sized for the worst case: the cell count is chosen so
that even at the fastest corner the full line covers one clock period, which
guarantees locking for 100 % of fabricated chips but carries extra cells that
most chips never use.  Section 5.2 of the paper proposes replacing this
worst-case methodology with a *statistical* one: characterize the technology,
compute the fraction of chips whose line covers the clock period as a
function of the cell count, and let the designer trade area against yield.

This module implements that analysis:

* :class:`YieldModel` describes the statistical spread of the per-chip delay
  (a global corner-like component plus per-buffer random mismatch).
* :func:`coverage_yield` Monte-Carlo-estimates the locking yield of a given
  cell count.
* :func:`yield_curve` sweeps the cell count and returns the yield/area
  trade-off, and :func:`cells_for_yield` picks the smallest cell count that
  meets a yield target.

It also carries the statistical treatment through to the closed loop the
DPWM ultimately serves:

* :class:`ComponentVariation` draws per-chip spreads of the buck's passives
  and parasitics, and
* :func:`regulation_yield` runs a whole fleet of varied converters through
  the vectorized batch engine and reports the fraction that regulate within
  a voltage tolerance -- the regulation-side analogue of the locking yield.

:func:`linearity_yield` is the delay-line analogue of
:func:`regulation_yield`: it fabricates an ensemble of post-APR instances of
either scheme, calibrates and extracts every transfer curve with the
vectorized :mod:`repro.core.ensemble` engine, and reports the fraction of
instances that meet a DNL/INL/monotonicity specification -- the
population-level question behind the paper's Figures 41-42 and 50-51.

Every estimator also has an *adaptive* sibling
(:func:`adaptive_linearity_yield` / :func:`adaptive_closed_loop_yield` /
:func:`adaptive_regulation_yield`) built on the streaming engine of
:mod:`repro.mc`: instead of a fixed instance count, the caller names a
precision (the target half-width of the confidence interval on the yield)
and a sample cap, and the estimator draws variation chunks until the
interval is tight enough, returning an :class:`AdaptiveYieldResult`
(estimate, CI, samples drawn, stop reason).  A pinned 100 %-yield cell then
costs a couple of hundred samples instead of a thousand, while a cell
teetering at a corner keeps drawing until the cap.

Both yields are scored against declarative specification objects
(:class:`LinearitySpec` / :class:`RegulationSpec`), and
:func:`closed_loop_yield` composes them: it drives the fused
silicon-to-regulation pipeline (:mod:`repro.pipeline`) -- every fabricated
delay line calibrated, turned into a DPWM duty table and closed around its
own buck converter -- and reports the fraction of chips that meet *both*
specs.  That is the paper's end-to-end claim as a single Monte-Carlo number:
a chip only ships when its delay line is linear enough *and* the loop it
serves regulates cleanly.

Example -- the declarative specs score plain arrays, and the Monte-Carlo
estimators run whole seeded fleets in one vectorized pass:

    >>> import numpy as np
    >>> from repro.converter.buck import BuckParameters
    >>> from repro.core.yield_analysis import (
    ...     ComponentVariation, RegulationSpec, YieldModel,
    ...     coverage_yield, regulation_yield)
    >>> spec = RegulationSpec(tolerance_v=0.02)
    >>> spec.passes(np.array([0.905, 0.95]), np.array([0.0, 0.0]), 0.9)
    array([ True, False])
    >>> coverage_yield(num_cells=16, buffers_per_cell=2,
    ...     clock_period_ps=1000.0, model=YieldModel(seed=1), num_chips=500)
    0.884
    >>> fleet = regulation_yield(BuckParameters(), reference_v=0.9,
    ...     variation=ComponentVariation(seed=3), num_variants=8, periods=200)
    >>> fleet.regulation_yield
    1.0
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np
import numpy.typing as npt

from repro.converter.buck import BuckParameters
from repro.converter.load import LoadProfile
from repro.converter.missions import (
    MissionGenerator,
    MissionProfile,
    resolve_missions,
)
from repro.core.design import DesignSpec
from repro.streams import instance_streams, standard_normals
from repro.technology.cells import CellKind
from repro.technology.corners import OperatingConditions
from repro.technology.library import TechnologyLibrary, intel32_like_library
from repro.technology.thermal import TemperatureTrace, ThermalDerating
from repro.technology.variation import CorrelatedVariationModel, VariationModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (pipeline imports us)
    from repro.analysis.metrics import BatchLinearityMetrics
    from repro.core.ensemble import EnsembleCalibration, EnsembleTransferCurves
    from repro.mc import AdaptiveSampleResult
    from repro.pipeline import PipelineResult
    from repro.simulation.batch import (
        BatchBuckParameters,
        BatchQuantizer,
        BatchRegulationResult,
    )

__all__ = [
    "YieldModel",
    "YieldPoint",
    "AdaptiveYieldResult",
    "CORRELATION_PRESETS",
    "ComponentStratification",
    "ComponentTilt",
    "ComponentVariation",
    "LinearitySpec",
    "MissionSpec",
    "MissionYieldResult",
    "RareEventYieldResult",
    "RegulationSpec",
    "ClosedLoopYieldResult",
    "LinearityYieldResult",
    "RegulationYieldResult",
    "adaptive_closed_loop_yield",
    "adaptive_linearity_yield",
    "adaptive_regulation_yield",
    "component_correlation_preset",
    "coverage_yield",
    "yield_curve",
    "cells_for_yield",
    "closed_loop_yield",
    "linearity_yield",
    "mission_yield",
    "rare_event_regulation_yield",
    "regulation_yield",
]


@dataclass(frozen=True)
class YieldModel:
    """Statistical model of per-chip buffer delay.

    The per-chip mean buffer delay is log-normally distributed around the
    typical value (capturing global process spread between the corners),
    and each buffer adds independent random mismatch on top.

    Attributes:
        global_sigma: sigma of the log-normal global (per-chip) delay spread,
            as a fraction of the typical delay.  The default 0.22 puts the
            paper's fast corner (0.5x) and slow corner (2x) at roughly
            +/- 3 sigma.
        mismatch_sigma: relative sigma of the per-buffer random mismatch.
        seed: RNG seed for reproducible Monte-Carlo runs.
    """

    global_sigma: float = 0.22
    mismatch_sigma: float = 0.04
    seed: int = 32

    def __post_init__(self) -> None:
        if self.global_sigma < 0 or self.mismatch_sigma < 0:
            raise ValueError("sigmas must be non-negative")

    def sample_chip_buffer_delays(
        self,
        typical_delay_ps: float,
        num_buffers: int,
        num_chips: int,
        rng: np.random.Generator | None = None,
    ) -> npt.NDArray[np.float64]:
        """Sample per-chip, per-buffer delays.

        Returns an array of shape ``(num_chips, num_buffers)``.
        """
        if typical_delay_ps <= 0:
            raise ValueError("typical delay must be positive")
        if num_buffers < 1 or num_chips < 1:
            raise ValueError("need at least one buffer and one chip")
        rng = rng or np.random.default_rng(self.seed)
        global_scale = np.exp(
            rng.normal(loc=0.0, scale=self.global_sigma, size=(num_chips, 1))
        )
        # The process corners bound the global spread: foundry corner models
        # are guard-banded so no shipped material is faster than the fast
        # corner or slower than the slow corner.  Clamp accordingly, which
        # also makes the paper's worst-case sizing yield exactly 100 %.
        np.clip(global_scale, 0.5, 2.0, out=global_scale)
        mismatch = 1.0 + rng.normal(
            loc=0.0, scale=self.mismatch_sigma, size=(num_chips, num_buffers)
        )
        np.clip(mismatch, 0.2, None, out=mismatch)
        return typical_delay_ps * global_scale * mismatch


@dataclass(frozen=True)
class YieldPoint:
    """One point of the cell-count versus yield trade-off."""

    num_cells: int
    locking_yield: float
    line_area_um2: float


def coverage_yield(
    num_cells: int,
    buffers_per_cell: int,
    clock_period_ps: float,
    model: YieldModel | None = None,
    library: TechnologyLibrary | None = None,
    num_chips: int = 2000,
) -> float:
    """Monte-Carlo estimate of the fraction of chips whose line covers the period.

    A chip "yields" when the total delay of its delay line (all cells) is at
    least one clock period, i.e. the proposed controller can lock.
    """
    if num_cells < 1 or buffers_per_cell < 1:
        raise ValueError("cell and buffer counts must be positive")
    if clock_period_ps <= 0:
        raise ValueError("clock period must be positive")
    model = model or YieldModel()
    library = library or intel32_like_library()
    typical = library.cell(CellKind.BUFFER).delay_ps
    delays = model.sample_chip_buffer_delays(
        typical_delay_ps=typical,
        num_buffers=num_cells * buffers_per_cell,
        num_chips=num_chips,
    )
    totals = delays.sum(axis=1)
    return float(np.mean(totals >= clock_period_ps))


def yield_curve(
    spec: DesignSpec,
    buffers_per_cell: int,
    cell_counts: list[int] | None = None,
    model: YieldModel | None = None,
    library: TechnologyLibrary | None = None,
    num_chips: int = 2000,
) -> list[YieldPoint]:
    """Sweep the cell count and report yield and delay-line area for each.

    The default sweep spans from the nominal (typical-corner) cell count up
    to the worst-case count of the paper's design procedure.
    """
    library = library or intel32_like_library()
    if cell_counts is None:
        nominal = max(2, int(round(spec.clock_period_ps / (buffers_per_cell * 40.0))))
        worst_case = nominal * 2
        step = max(1, nominal // 8)
        cell_counts = list(range(nominal, worst_case + step, step))
    buffer_area = library.area(CellKind.BUFFER)
    points: list[YieldPoint] = []
    for num_cells in cell_counts:
        locking_yield = coverage_yield(
            num_cells=num_cells,
            buffers_per_cell=buffers_per_cell,
            clock_period_ps=spec.clock_period_ps,
            model=model,
            library=library,
            num_chips=num_chips,
        )
        points.append(
            YieldPoint(
                num_cells=num_cells,
                locking_yield=locking_yield,
                line_area_um2=num_cells * buffers_per_cell * buffer_area,
            )
        )
    return points


def cells_for_yield(
    spec: DesignSpec,
    buffers_per_cell: int,
    target_yield: float,
    model: YieldModel | None = None,
    library: TechnologyLibrary | None = None,
    num_chips: int = 2000,
) -> YieldPoint:
    """Smallest cell count whose Monte-Carlo locking yield meets the target.

    Raises:
        ValueError: if the target is not reachable within twice the
            worst-case cell count (a sign of an inconsistent specification).
    """
    if not 0.0 < target_yield <= 1.0:
        raise ValueError("target yield must be in (0, 1]")
    library = library or intel32_like_library()
    nominal = max(2, int(round(spec.clock_period_ps / (buffers_per_cell * 40.0))))
    for num_cells in range(nominal, nominal * 4 + 1, max(1, nominal // 16)):
        locking_yield = coverage_yield(
            num_cells=num_cells,
            buffers_per_cell=buffers_per_cell,
            clock_period_ps=spec.clock_period_ps,
            model=model,
            library=library,
            num_chips=num_chips,
        )
        if locking_yield >= target_yield:
            return YieldPoint(
                num_cells=num_cells,
                locking_yield=locking_yield,
                line_area_um2=num_cells
                * buffers_per_cell
                * library.area(CellKind.BUFFER),
            )
    raise ValueError(
        f"target yield {target_yield} not reachable within 4x the nominal cell count"
    )


#: RNG stream tag separating :meth:`ComponentVariation.sample_instances`'s
#: per-instance streams from :class:`VariationModel`'s ``(seed, instance)``
#: streams, which frequently share the same seed.
_COMPONENT_STREAM_TAG = 0x636F6D70  # "comp"

#: RNG stream tag for the *stratified* component draws.  A stratum-conditioned
#: draw consumes its stream differently from the unconditional one (an extra
#: uniform for the truncated axis), so the streams must be disjoint families:
#: ``(seed, tag, stratum, i)`` here versus ``(seed, tag, i)`` above.
_STRATUM_STREAM_TAG = 0x73747261  # "stra"

#: Order of the per-instance component draws -- one standard normal each, in
#: this sequence.  Tilt shifts and stratification axes index into it.
_COMPONENT_AXES = (
    "input_voltage",
    "inductance",
    "capacitance",
    "switch_resistance",
    "inductor_resistance",
)


def _preset_matrix(pairs: dict[tuple[str, str], float]) -> npt.NDArray[np.float64]:
    """Correlation matrix over :data:`_COMPONENT_AXES` from named pairs."""
    matrix = np.eye(len(_COMPONENT_AXES))
    for (left, right), value in pairs.items():
        row = _COMPONENT_AXES.index(left)
        column = _COMPONENT_AXES.index(right)
        matrix[row, column] = matrix[column, row] = value
    return matrix


#: Named correlation structures over the component axes, addressable from
#: the CLI's ``--correlation`` flag (the *name* is the sweep-cache-key
#: coordinate; the matrix is rebuilt inside the worker).  ``"identity"``
#: reproduces the IID model bit for bit.  ``"passives"`` couples the LC
#: reel (inductance with capacitance) and the copper lot (the two
#: parasitic resistances).  ``"thermal"`` adds a common-factor coupling of
#: all four electrical axes, the signature of a shared thermal/lot drift.
CORRELATION_PRESETS: dict[str, npt.NDArray[np.float64]] = {
    "identity": np.eye(len(_COMPONENT_AXES)),
    "passives": _preset_matrix(
        {
            ("inductance", "capacitance"): 0.8,
            ("switch_resistance", "inductor_resistance"): 0.6,
        }
    ),
    "thermal": _preset_matrix(
        {
            ("inductance", "capacitance"): 0.3,
            ("inductance", "switch_resistance"): 0.3,
            ("inductance", "inductor_resistance"): 0.3,
            ("capacitance", "switch_resistance"): 0.3,
            ("capacitance", "inductor_resistance"): 0.3,
            ("switch_resistance", "inductor_resistance"): 0.3,
        }
    ),
}


def component_correlation_preset(name: str) -> CorrelatedVariationModel:
    """The :class:`CorrelatedVariationModel` of one named preset."""
    try:
        matrix = CORRELATION_PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown correlation preset {name!r}; available: "
            f"{', '.join(sorted(CORRELATION_PRESETS))}"
        ) from None
    return CorrelatedVariationModel(matrix=matrix)


@dataclass(frozen=True)
class ComponentTilt:
    """Mean-shift / sigma-scale tilt of the component draws, in z-space.

    Importance sampling draws components from a *tilted* distribution
    concentrated on the failure region and reweights the results back to
    the nominal population.  This dataclass declares the tilt: per-axis
    mean shifts of the underlying standard-normal draws (in sigma units of
    the respective spread, so ``capacitance_shift=-2.5`` centres the
    proposal at capacitors 2.5 sigma below nominal) plus one common
    ``sigma_scale`` that widens every axis.  A widened proposal
    (``sigma_scale > 1``) keeps the likelihood-ratio weights bounded on
    the shifted side and is the standard defence against weight
    degeneracy -- see ``docs/monte_carlo.md`` for tuning guidance.

    The identity tilt (all shifts 0, scale 1) reproduces
    :meth:`ComponentVariation.sample_instances` bit for bit.
    """

    input_voltage_shift: float = 0.0
    inductance_shift: float = 0.0
    capacitance_shift: float = 0.0
    switch_resistance_shift: float = 0.0
    inductor_resistance_shift: float = 0.0
    sigma_scale: float = 1.0

    def __post_init__(self) -> None:
        for axis in _COMPONENT_AXES:
            if not math.isfinite(getattr(self, f"{axis}_shift")):
                raise ValueError(f"{axis}_shift must be finite")
        if not self.sigma_scale > 0.0 or not math.isfinite(self.sigma_scale):
            raise ValueError(
                f"sigma_scale must be positive and finite; got {self.sigma_scale}"
            )

    def shifts(self) -> npt.NDArray[np.float64]:
        """Per-axis z-space mean shifts, in component draw order."""
        return np.array(
            [getattr(self, f"{axis}_shift") for axis in _COMPONENT_AXES]
        )

    def is_identity(self) -> bool:
        """True when the tilt leaves the nominal distribution untouched."""
        return not self.shifts().any() and math.isclose(self.sigma_scale, 1.0)

    def summary(self) -> dict[str, float]:
        """JSON-able record of the tilt configuration."""
        record = {
            f"{axis}_shift": float(getattr(self, f"{axis}_shift"))
            for axis in _COMPONENT_AXES
        }
        record["sigma_scale"] = float(self.sigma_scale)
        return record


@dataclass(frozen=True)
class ComponentStratification:
    """Partition of one component axis into sigma-shell strata.

    Stratified sampling conditions the component draws on which shell of
    the chosen axis they fall in, so the rare tail shell is sampled as
    densely as the estimator wants rather than at its natural (tiny)
    probability.  The partition lives in z-space: ``boundaries`` are
    strictly increasing standard-normal quantiles splitting the axis into
    ``len(boundaries) + 1`` intervals, whose exact probability masses come
    from the normal CDF.

    The default partitions the capacitance draw below -1.5 sigma -- the
    axis and direction that dominate the load-step dip failures of the
    ``fig15_rare`` experiment.
    """

    axis: str = "capacitance"
    boundaries: tuple[float, ...] = (-3.5, -2.5, -1.5)

    def __post_init__(self) -> None:
        if self.axis not in _COMPONENT_AXES:
            raise ValueError(
                f"axis must be one of {_COMPONENT_AXES}; got {self.axis!r}"
            )
        if not self.boundaries:
            raise ValueError("need at least one stratum boundary")
        for value in self.boundaries:
            if not math.isfinite(value):
                raise ValueError(f"boundaries must be finite; got {value}")
        for left, right in zip(self.boundaries, self.boundaries[1:]):
            if not left < right:
                raise ValueError(
                    f"boundaries must be strictly increasing; got {self.boundaries}"
                )

    @property
    def num_strata(self) -> int:
        return len(self.boundaries) + 1

    def axis_index(self) -> int:
        """Index of the stratified axis in the component draw order."""
        return _COMPONENT_AXES.index(self.axis)

    def bounds(self, stratum: int) -> tuple[float, float]:
        """Z-space ``(lower, upper)`` bounds of one stratum."""
        if not 0 <= stratum < self.num_strata:
            raise ValueError(
                f"stratum must be in [0, {self.num_strata}); got {stratum}"
            )
        edges = (-math.inf, *self.boundaries, math.inf)
        return edges[stratum], edges[stratum + 1]

    def weights(self) -> tuple[float, ...]:
        """Exact probability mass of each stratum (sums to 1)."""
        from repro.mc import normal_cdf

        edges = (-math.inf, *self.boundaries, math.inf)
        return tuple(
            normal_cdf(upper) - normal_cdf(lower)
            for lower, upper in zip(edges, edges[1:])
        )

    def names(self) -> tuple[str, ...]:
        """Stable per-stratum identifiers, e.g. ``"capacitance(-2.5,-1.5]"``."""
        return tuple(
            f"{self.axis}({self.bounds(h)[0]:g},{self.bounds(h)[1]:g}]"
            for h in range(self.num_strata)
        )


@dataclass(frozen=True)
class ComponentVariation:
    """Statistical spread of the buck converter's components.

    Passives are log-normally distributed around their nominal values (the
    usual manufacturing-tolerance model: spreads are relative and strictly
    positive); parasitic resistances get a relative normal spread clamped to
    stay non-negative.

    Attributes:
        inductance_sigma: relative sigma of the filter inductance.
        capacitance_sigma: relative sigma of the filter capacitance.
        resistance_sigma: relative sigma of switch / inductor resistances.
        input_voltage_sigma: relative sigma of the input rail.
        seed: RNG seed for reproducible Monte-Carlo runs.
    """

    inductance_sigma: float = 0.05
    capacitance_sigma: float = 0.05
    resistance_sigma: float = 0.10
    input_voltage_sigma: float = 0.01
    seed: int = 32

    def __post_init__(self) -> None:
        for name in (
            "inductance_sigma",
            "capacitance_sigma",
            "resistance_sigma",
            "input_voltage_sigma",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def sample_batch(
        self,
        nominal: BuckParameters,
        num_variants: int,
        rng: np.random.Generator | None = None,
        correlation: CorrelatedVariationModel | None = None,
    ) -> "BatchBuckParameters":
        """Draw a fleet of varied converters as stacked batch parameters.

        Returns a :class:`~repro.simulation.batch.BatchBuckParameters` of
        ``num_variants`` draws around ``nominal``.  ``correlation``
        declares cross-axis coupling of the underlying standard-normal
        draws (see :class:`~repro.technology.variation
        .CorrelatedVariationModel`); ``None`` or the identity matrix keeps
        the historical IID draw bit for bit.
        """
        from repro.simulation.batch import BatchBuckParameters

        if num_variants < 1:
            raise ValueError("need at least one variant")
        generator = rng if rng is not None else np.random.default_rng(self.seed)
        if correlation is not None and not correlation.is_identity():
            return self._sample_batch_correlated(
                nominal, num_variants, generator, correlation
            )

        def lognormal(sigma: float) -> npt.NDArray[np.float64]:
            return generator.lognormal(mean=0.0, sigma=sigma, size=num_variants)

        def clipped_normal(sigma: float) -> npt.NDArray[np.float64]:
            return np.clip(
                generator.normal(loc=1.0, scale=sigma, size=num_variants), 0.0, None
            )

        return BatchBuckParameters(
            input_voltage_v=nominal.input_voltage_v
            * lognormal(self.input_voltage_sigma),
            inductance_h=nominal.inductance_h * lognormal(self.inductance_sigma),
            capacitance_f=nominal.capacitance_f * lognormal(self.capacitance_sigma),
            switching_frequency_hz=np.full(
                num_variants, nominal.switching_frequency_hz
            ),
            switch_resistance_ohm=nominal.switch_resistance_ohm
            * clipped_normal(self.resistance_sigma),
            inductor_resistance_ohm=nominal.inductor_resistance_ohm
            * clipped_normal(self.resistance_sigma),
        )

    def _sample_batch_correlated(
        self,
        nominal: BuckParameters,
        num_variants: int,
        generator: np.random.Generator,
        correlation: CorrelatedVariationModel,
    ) -> "BatchBuckParameters":
        """One-generator fleet draw with cross-axis correlation.

        One standard-normal row per axis is drawn in the canonical axis
        order, the Cholesky factor mixes them, and the per-axis transforms
        of :meth:`_transform_draws` apply columnwise (vectorized over the
        fleet).  Marginals match the IID draw's distributions exactly; the
        joint picks up the declared correlations.
        """
        if correlation.dimension != len(_COMPONENT_AXES):
            raise ValueError(
                f"correlation matrix spans {correlation.dimension} axes; the "
                f"component draws span {len(_COMPONENT_AXES)} "
                f"({', '.join(_COMPONENT_AXES)})"
            )
        z = np.stack(
            [
                generator.standard_normal(num_variants)
                for _ in _COMPONENT_AXES
            ]
        )
        correlated = correlation.correlate(z)
        draws = np.empty((num_variants, len(_COMPONENT_AXES)))
        draws[:, 0] = np.exp(self.input_voltage_sigma * correlated[0])
        draws[:, 1] = np.exp(self.inductance_sigma * correlated[1])
        draws[:, 2] = np.exp(self.capacitance_sigma * correlated[2])
        draws[:, 3] = 1.0 + self.resistance_sigma * correlated[3]
        draws[:, 4] = 1.0 + self.resistance_sigma * correlated[4]
        np.clip(draws[:, 3:], 0.0, None, out=draws[:, 3:])
        return self._parameters_from_draws(nominal, draws)

    def sample_instances(
        self,
        nominal: BuckParameters,
        num_variants: int,
        first_instance: int = 0,
        correlation: CorrelatedVariationModel | None = None,
    ) -> "BatchBuckParameters":
        """Chunk-stable fleet draw: instance ``i`` owns its RNG stream.

        :meth:`sample_batch` draws the whole fleet from one generator, so
        the values instance ``i`` receives depend on the batch size -- fine
        for fixed-N runs, useless for streaming ones.  Here instance ``i``
        draws its spreads from its *own* stream keyed on
        ``(seed, stream tag, i)``, so sampling ``[first_instance,
        first_instance + num_variants)`` in any chunking produces the same
        fleet bit for bit (the contract of :mod:`repro.mc`).  The stream
        tag keeps the component draws decorrelated from
        :meth:`~repro.technology.variation.VariationModel.sample`, which
        keys per-instance silicon streams on ``(seed, i)`` -- often with
        the very same seed.

        The two methods draw *different* (equally valid) populations from
        the same seed; fixed-N experiments keep :meth:`sample_batch` so
        their baselines stay bit-identical.

        ``correlation`` couples the per-instance z-space draws across the
        component axes (Cholesky mixing, as in :meth:`sample_batch`);
        ``None`` or the identity matrix keeps the historical IID draw bit
        for bit.
        """
        z = self._instance_normals(num_variants, first_instance, correlation)
        return self._parameters_from_draws(nominal, self._transform_draws(z))

    def sample_instances_tilted(
        self,
        nominal: BuckParameters,
        num_variants: int,
        first_instance: int = 0,
        *,
        tilt: ComponentTilt,
    ) -> "tuple[BatchBuckParameters, npt.NDArray[np.float64]]":
        """Chunk-stable fleet draw from a tilted component distribution.

        The importance-sampling sibling of :meth:`sample_instances`: each
        instance's five standard-normal component draws ``z`` become
        ``shift + sigma_scale * z`` before the log-normal / clipped-normal
        transforms, pushing the fleet toward the declared failure
        direction.  The second return value holds each instance's
        log-likelihood ratio ``log p(z') - log q(z')`` between the nominal
        and the tilted z-space densities -- the weights that
        :func:`repro.mc.importance_sample` folds into its self-normalized
        estimate.  (The ratio is computed on the raw normal draws, so the
        deterministic clipping downstream cancels from both densities.)

        Stream contract: instance ``i`` consumes the *same*
        ``(seed, stream tag, i)`` stream as :meth:`sample_instances`, so
        the identity tilt reproduces the vanilla fleet bit for bit with
        all-zero log-weights -- hypothesis-tested in
        ``tests/test_mc_statistics.py``.
        """
        z = self._instance_normals(num_variants, first_instance)
        tilted = tilt.shifts() + tilt.sigma_scale * z
        log_scale = len(_COMPONENT_AXES) * math.log(tilt.sigma_scale)
        # One dot product per row, as a per-instance draw computes it (a
        # batched reduction may sum in another order).
        log_weights = np.array(
            [
                0.5 * float(row @ row) - 0.5 * float(moved @ moved) + log_scale
                for row, moved in zip(z, tilted)
            ]
        )
        draws = self._transform_draws(tilted)
        return self._parameters_from_draws(nominal, draws), log_weights

    def sample_instances_stratum(
        self,
        nominal: BuckParameters,
        num_variants: int,
        stratum: int,
        first_instance: int = 0,
        *,
        stratification: ComponentStratification,
    ) -> "BatchBuckParameters":
        """Chunk-stable fleet draw conditioned on one sigma-shell stratum.

        The stratified-sampling sibling of :meth:`sample_instances`: the
        stratified axis draws a *truncated* standard normal confined to
        the stratum's z-space shell (inverse-CDF on a uniform mapped into
        the shell's probability mass); all other axes draw
        unconditionally.  Streams are keyed on
        ``(seed, stratum stream tag, stratum, i)`` so each stratum owns an
        independent chunk-stable family -- instance ``i`` of a stratum is
        the same chip regardless of chunking *and* of how many samples the
        other strata received.
        """
        from repro.mc import normal_cdf, normal_ppf

        if num_variants < 1:
            raise ValueError("need at least one variant")
        axis = stratification.axis_index()
        lower_z, upper_z = stratification.bounds(stratum)
        cdf_lower = normal_cdf(lower_z)
        cdf_upper = normal_cdf(upper_z)
        z = np.empty((num_variants, len(_COMPONENT_AXES)))
        uniforms = np.empty(num_variants)
        streams = instance_streams(
            (self.seed, _STRATUM_STREAM_TAG, stratum), first_instance, num_variants
        )
        for row, rng in enumerate(streams):
            rng.standard_normal(out=z[row])
            uniforms[row] = rng.random()
        # The truncated axis maps a fresh uniform into the shell's CDF mass;
        # the clamp keeps normal_ppf away from its open-interval poles when
        # a boundary sits far in the tail.
        quantiles = np.clip(
            cdf_lower + uniforms * (cdf_upper - cdf_lower), 1e-12, 1.0 - 1e-12
        )
        z[:, axis] = [normal_ppf(quantile) for quantile in quantiles.tolist()]
        return self._parameters_from_draws(nominal, self._transform_draws(z))

    def _instance_normals(
        self,
        num_variants: int,
        first_instance: int,
        correlation: CorrelatedVariationModel | None = None,
    ) -> npt.NDArray[np.float64]:
        """Per-instance z-space draws, one ``(seed, tag, i)`` stream per row.

        ``correlation`` mixes each row by the Cholesky factor, one
        matrix-vector product per row (as a single instance's draw does;
        a batched product may round differently).
        """
        if num_variants < 1:
            raise ValueError("need at least one variant")
        if correlation is not None and correlation.is_identity():
            correlation = None
        dimensions = len(_COMPONENT_AXES)
        if correlation is not None and correlation.dimension != dimensions:
            raise ValueError(
                f"correlation matrix spans {correlation.dimension} axes; the "
                f"component draws span {dimensions} "
                f"({', '.join(_COMPONENT_AXES)})"
            )
        z = standard_normals(
            (self.seed, _COMPONENT_STREAM_TAG), first_instance, num_variants, dimensions
        )
        if correlation is not None:
            z = np.stack([correlation.correlate(row) for row in z])
        return z

    def _transform_draws(self, z: npt.NDArray[np.float64]) -> npt.NDArray[np.float64]:
        """Map ``(variants, 5)`` z-space draws to relative spreads.

        Log-normal for the passives and the input rail, relative normal
        clipped at zero for the resistances -- numpy's ``lognormal`` /
        ``normal`` applied to the same draws.  The exponential stays
        libm's ``math.exp``, the one numpy's ``lognormal`` calls, since
        ``np.exp`` may round differently.
        """
        draws = np.empty_like(z)
        passives = (
            self.input_voltage_sigma,
            self.inductance_sigma,
            self.capacitance_sigma,
        )
        for axis, sigma in enumerate(passives):
            exponents = (sigma * z[:, axis]).tolist()
            draws[:, axis] = [math.exp(value) for value in exponents]
        draws[:, 3:] = 1.0 + self.resistance_sigma * z[:, 3:]
        np.clip(draws[:, 3:], 0.0, None, out=draws[:, 3:])
        return draws

    def _parameters_from_draws(
        self, nominal: BuckParameters, draws: npt.NDArray[np.float64]
    ) -> "BatchBuckParameters":
        """Assemble batch parameters from a ``(variants, 5)`` spread matrix."""
        from repro.simulation.batch import BatchBuckParameters

        num_variants = draws.shape[0]
        return BatchBuckParameters(
            input_voltage_v=nominal.input_voltage_v * draws[:, 0],
            inductance_h=nominal.inductance_h * draws[:, 1],
            capacitance_f=nominal.capacitance_f * draws[:, 2],
            switching_frequency_hz=np.full(
                num_variants, nominal.switching_frequency_hz
            ),
            switch_resistance_ohm=nominal.switch_resistance_ohm * draws[:, 3],
            inductor_resistance_ohm=nominal.inductor_resistance_ohm * draws[:, 4],
        )


@dataclass(frozen=True)
class LinearitySpec:
    """Declarative pass/fail specification for a calibrated delay line.

    An instance passes when its controller locks (when ``require_lock``),
    its transfer curve is monotonic (when ``require_monotonic``) and its
    worst-case |DNL| / |INL| / ideal-line deviation stay within whichever of
    the three limits are given.  ``dnl_limit_lsb`` / ``inl_limit_lsb`` are in
    LSB units of the scheme's own step size; ``error_limit_fraction`` is
    referred to the switching period, the quantity that translates into
    output-voltage error (paper eq. 12) and therefore the right scale for
    cross-scheme comparisons.  ``None`` limits are not checked.
    """

    dnl_limit_lsb: float | None = None
    inl_limit_lsb: float | None = None
    error_limit_fraction: float | None = None
    require_monotonic: bool = True
    require_lock: bool = True

    def __post_init__(self) -> None:
        for name in ("dnl_limit_lsb", "inl_limit_lsb", "error_limit_fraction"):
            limit = getattr(self, name)
            if limit is not None and limit <= 0:
                raise ValueError(f"{name} must be positive")

    def passes(
        self,
        metrics: "BatchLinearityMetrics",
        locked: npt.ArrayLike,
        error_fractions: npt.ArrayLike,
    ) -> npt.NDArray[np.bool_]:
        """Per-instance pass flags from batch linearity metrics.

        Args:
            metrics: a :class:`~repro.analysis.metrics.BatchLinearityMetrics`.
            locked: per-instance lock flags from the calibration.
            error_fractions: per-instance worst-case ideal-line deviation as
                a fraction of the switching period.
        """
        passes = np.ones(np.asarray(locked).shape, dtype=bool)
        if self.dnl_limit_lsb is not None:
            passes &= metrics.max_dnl_lsb <= self.dnl_limit_lsb
        if self.inl_limit_lsb is not None:
            passes &= metrics.max_inl_lsb <= self.inl_limit_lsb
        if self.error_limit_fraction is not None:
            passes &= np.asarray(error_fractions) <= self.error_limit_fraction
        if self.require_monotonic:
            passes &= metrics.monotonic
        if self.require_lock:
            passes &= np.asarray(locked)
        return passes

    def evaluate(
        self,
        calibration: "EnsembleCalibration",
        curves: "EnsembleTransferCurves",
    ) -> npt.NDArray[np.bool_]:
        """Per-instance pass flags straight from an ensemble's outputs."""
        return self.passes(
            curves.metrics(),
            calibration.locked,
            curves.max_error_fraction_of_period(),
        )


@dataclass(frozen=True)
class RegulationSpec:
    """Declarative pass/fail specification for the closed regulation loop.

    A variant passes when its steady-state output voltage stays within
    ``tolerance_v`` of the reference and (when ``ripple_limit_v`` is given)
    its steady-state limit-cycle amplitude -- the peak-to-peak tail ripple --
    stays within the limit.  Steady state is the last ``tail_fraction`` of
    the run.
    """

    tolerance_v: float = 0.02
    ripple_limit_v: float | None = None
    tail_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.tolerance_v <= 0:
            raise ValueError("tolerance must be positive")
        if self.ripple_limit_v is not None and self.ripple_limit_v <= 0:
            raise ValueError("ripple_limit_v must be positive")
        if not 0.0 < self.tail_fraction <= 1.0:
            raise ValueError("tail_fraction must be in (0, 1]")

    def passes(
        self,
        steady_state_v: npt.ArrayLike,
        ripples_v: npt.ArrayLike,
        reference_v: npt.ArrayLike,
    ) -> npt.NDArray[np.bool_]:
        """Per-variant pass flags from steady-state statistics."""
        errors = np.abs(np.asarray(steady_state_v) - np.asarray(reference_v))
        passes = errors <= self.tolerance_v
        if self.ripple_limit_v is not None:
            passes &= np.asarray(ripples_v) <= self.ripple_limit_v
        return passes

    def evaluate(
        self, regulation: "BatchRegulationResult", reference_v: npt.ArrayLike
    ) -> npt.NDArray[np.bool_]:
        """Per-variant pass flags straight from a batch regulation run."""
        return self.passes(
            regulation.steady_state_voltage_v(self.tail_fraction),
            regulation.steady_state_ripple_v(self.tail_fraction),
            reference_v,
        )


@dataclass(frozen=True)
class RegulationYieldResult:
    """Outcome of a Monte-Carlo regulation sweep.

    Attributes:
        regulation_yield: fraction of variants whose steady-state output lies
            within the tolerance of the reference.
        steady_state_voltages_v: per-variant steady-state outputs.
        steady_state_ripples_v: per-variant peak-to-peak tail ripple.
        worst_error_v: largest steady-state deviation from the reference.
    """

    regulation_yield: float
    steady_state_voltages_v: npt.NDArray[np.float64]
    steady_state_ripples_v: npt.NDArray[np.float64]
    worst_error_v: float


def regulation_yield(
    nominal: BuckParameters,
    reference_v: float,
    variation: ComponentVariation | None = None,
    num_variants: int = 256,
    periods: int = 300,
    tolerance_v: float = 0.02,
    dpwm_bits: int = 6,
    quantizer: "BatchQuantizer | None" = None,
    load: LoadProfile | None = None,
) -> RegulationYieldResult:
    """Monte-Carlo estimate of the closed loop's regulation yield.

    A variant "yields" when it meets the :class:`RegulationSpec` built from
    ``tolerance_v`` (steady-state output within the tolerance of the
    reference) despite its component draws.  The whole fleet is advanced in
    one vectorized batch run, so 256 variants cost a couple of matrix-vector
    products per switching period rather than millions of Python iterations.
    """
    from repro.simulation.batch import BatchClosedLoop, BatchQuantizer

    spec = RegulationSpec(tolerance_v=tolerance_v)
    variation = variation or ComponentVariation()
    parameters = variation.sample_batch(nominal, num_variants)
    if quantizer is None:
        quantizer = BatchQuantizer.ideal(dpwm_bits, num_variants)
    loop = BatchClosedLoop(parameters, quantizer, reference_v=reference_v, load=load)
    result = loop.run(periods)
    steady_state = result.steady_state_voltage_v(spec.tail_fraction)
    ripple = result.steady_state_ripple_v(spec.tail_fraction)
    passes = spec.passes(steady_state, ripple, reference_v)
    return RegulationYieldResult(
        regulation_yield=float(np.mean(passes)),
        steady_state_voltages_v=steady_state,
        steady_state_ripples_v=ripple,
        worst_error_v=float(np.abs(steady_state - reference_v).max()),
    )


@dataclass(frozen=True)
class LinearityYieldResult:
    """Outcome of a Monte-Carlo linearity sweep over fabricated instances.

    Attributes:
        scheme: ``"proposed"`` or ``"conventional"``.
        linearity_yield: fraction of instances meeting the full specification
            (lock if required, DNL/INL limits, monotonicity if required).
        lock_yield: fraction of instances whose controller achieved a valid
            lock.
        passes: per-instance pass/fail flags.
        locked: per-instance lock flags.
        max_dnl_lsb / max_inl_lsb / rms_inl_lsb: per-instance metrics.
        monotonic: per-instance monotonicity flags.
        max_error_fraction_of_period: per-instance worst-case deviation from
            the ideal line as a fraction of the switching period.
    """

    scheme: str
    linearity_yield: float
    lock_yield: float
    passes: npt.NDArray[np.bool_]
    locked: npt.NDArray[np.bool_]
    max_dnl_lsb: npt.NDArray[np.float64]
    max_inl_lsb: npt.NDArray[np.float64]
    rms_inl_lsb: npt.NDArray[np.float64]
    monotonic: npt.NDArray[np.bool_]
    max_error_fraction_of_period: npt.NDArray[np.float64]

    @property
    def num_instances(self) -> int:
        return int(self.passes.shape[0])


def linearity_yield(
    scheme: str,
    spec: DesignSpec,
    conditions: OperatingConditions,
    variation: VariationModel | None = None,
    num_instances: int = 1000,
    dnl_limit_lsb: float | None = None,
    inl_limit_lsb: float | None = None,
    error_limit_fraction: float | None = None,
    require_monotonic: bool = True,
    require_lock: bool = True,
    library: TechnologyLibrary | None = None,
    first_instance: int = 0,
) -> LinearityYieldResult:
    """Monte-Carlo estimate of the fraction of instances meeting a linearity spec.

    The design procedure sizes the requested scheme for the specification,
    ``num_instances`` post-APR instances are drawn from the variation model,
    and the whole ensemble is calibrated and swept in one vectorized run of
    the :mod:`repro.core.ensemble` engine -- the delay-line analogue of
    :func:`regulation_yield`.

    An instance "yields" when it meets the :class:`LinearitySpec` built from
    the limit arguments (lock if required, DNL/INL/deviation limits,
    monotonicity if required); see that class for the unit conventions.
    """
    if num_instances < 1:
        raise ValueError("need at least one instance")
    from repro.pipeline import fabricate_ensemble

    linearity_spec = LinearitySpec(
        dnl_limit_lsb=dnl_limit_lsb,
        inl_limit_lsb=inl_limit_lsb,
        error_limit_fraction=error_limit_fraction,
        require_monotonic=require_monotonic,
        require_lock=require_lock,
    )
    library = library or intel32_like_library()
    variation = variation or VariationModel()
    ensemble = fabricate_ensemble(
        scheme,
        spec,
        variation=variation,
        num_instances=num_instances,
        library=library,
        first_instance=first_instance,
    )

    calibration = ensemble.lock(conditions)
    curves = ensemble.transfer_curves(conditions, calibration=calibration)
    metrics = curves.metrics()
    error_fractions = curves.max_error_fraction_of_period()

    passes = linearity_spec.passes(metrics, calibration.locked, error_fractions)
    return LinearityYieldResult(
        scheme=scheme,
        linearity_yield=float(np.mean(passes)),
        lock_yield=float(np.mean(calibration.locked)),
        passes=passes,
        locked=calibration.locked,
        max_dnl_lsb=metrics.max_dnl_lsb,
        max_inl_lsb=metrics.max_inl_lsb,
        rms_inl_lsb=metrics.rms_inl_lsb,
        monotonic=metrics.monotonic,
        max_error_fraction_of_period=error_fractions,
    )


@dataclass(frozen=True)
class ClosedLoopYieldResult:
    """Outcome of a fused silicon-to-regulation Monte-Carlo sweep.

    Attributes:
        scheme: ``"proposed"`` or ``"conventional"``.
        closed_loop_yield: fraction of fabricated instances meeting *both*
            the linearity and the regulation specification.
        linearity_yield / regulation_yield / lock_yield: the per-spec
            fractions (of the same instances).
        passes / linearity_passes / regulation_passes: per-instance flags.
        steady_state_voltages_v: per-instance steady-state outputs.
        limit_cycle_amplitudes_v: per-instance steady-state peak-to-peak
            output ripple (the limit-cycle amplitude the DPWM's finite,
            nonlinear resolution leaves behind).
        worst_error_v: largest steady-state deviation from the reference.
        pipeline_result: the full :class:`repro.pipeline.PipelineResult`
            (calibration, transfer curves, per-period regulation history).
    """

    scheme: str
    closed_loop_yield: float
    linearity_yield: float
    regulation_yield: float
    lock_yield: float
    passes: npt.NDArray[np.bool_]
    linearity_passes: npt.NDArray[np.bool_]
    regulation_passes: npt.NDArray[np.bool_]
    steady_state_voltages_v: npt.NDArray[np.float64]
    limit_cycle_amplitudes_v: npt.NDArray[np.float64]
    worst_error_v: float
    pipeline_result: "PipelineResult"

    @property
    def num_instances(self) -> int:
        return int(self.passes.shape[0])


def closed_loop_yield(
    scheme: str,
    spec: DesignSpec,
    conditions: OperatingConditions,
    nominal: BuckParameters | None = None,
    reference_v: float = 0.9,
    variation: VariationModel | None = None,
    component_variation: ComponentVariation | None = None,
    num_instances: int = 256,
    periods: int = 300,
    linearity_spec: LinearitySpec | None = None,
    regulation_spec: RegulationSpec | None = None,
    load: LoadProfile | None = None,
    library: TechnologyLibrary | None = None,
    first_instance: int = 0,
) -> ClosedLoopYieldResult:
    """Monte-Carlo estimate of the fused silicon-to-regulation yield.

    Every fabricated delay-line instance is calibrated, converted into a
    DPWM duty table and closed around its own buck converter in one
    vectorized :class:`repro.pipeline.SiliconToRegulationPipeline` run -- no
    per-instance Python loop anywhere in the hot path.  An instance "yields"
    when it meets both the :class:`LinearitySpec` (its silicon) and the
    :class:`RegulationSpec` (the loop it serves); the composition is the
    point: a chip with linear silicon that limit-cycles out of tolerance
    fails, as does a chip that regulates today on silicon that never locked.
    """
    from repro.pipeline import SiliconToRegulationPipeline

    linearity_spec = linearity_spec or LinearitySpec()
    regulation_spec = regulation_spec or RegulationSpec()
    pipeline = SiliconToRegulationPipeline(
        scheme,
        spec,
        conditions,
        variation=variation,
        num_instances=num_instances,
        nominal=nominal,
        reference_v=reference_v,
        component_variation=component_variation,
        load=load,
        library=library,
        first_instance=first_instance,
    )
    result = pipeline.run(periods)
    linearity_passes = linearity_spec.evaluate(result.calibration, result.curves)
    steady_state = result.regulation.steady_state_voltage_v(
        regulation_spec.tail_fraction
    )
    ripple = result.regulation.steady_state_ripple_v(regulation_spec.tail_fraction)
    regulation_passes = regulation_spec.passes(steady_state, ripple, reference_v)
    passes = linearity_passes & regulation_passes
    return ClosedLoopYieldResult(
        scheme=result.scheme,
        closed_loop_yield=float(np.mean(passes)),
        linearity_yield=float(np.mean(linearity_passes)),
        regulation_yield=float(np.mean(regulation_passes)),
        lock_yield=float(np.mean(result.calibration.locked)),
        passes=passes,
        linearity_passes=linearity_passes,
        regulation_passes=regulation_passes,
        steady_state_voltages_v=steady_state,
        limit_cycle_amplitudes_v=ripple,
        worst_error_v=float(np.abs(steady_state - reference_v).max()),
        pipeline_result=result,
    )


@dataclass(frozen=True)
class AdaptiveYieldResult:
    """Outcome of a confidence-bounded adaptive Monte-Carlo yield run.

    Where the fixed-N results report per-instance arrays, the adaptive
    result reports *streaming* statistics: the sampler only ever holds one
    chunk of instances in memory, so everything here is a scalar summary --
    which also makes the whole object JSON-able and therefore directly
    cacheable by the sweep layer.

    Attributes:
        scheme: ``"proposed"`` / ``"conventional"`` (``None`` for the
            component-only regulation sweep).
        yield_estimate: maximum-likelihood estimate of the primary yield
            (passes / samples).
        lower / upper: confidence-interval bounds on the primary yield.
        confidence: two-sided confidence level of all intervals.
        precision: the requested half-width target.
        samples: instances actually drawn -- the spent sample budget.
        max_samples: the hard cap the run was allowed.
        chunk_size: instances per drawn chunk.
        stop_reason: ``"precision"`` if the interval tightened to the
            target, ``"max_samples"`` if the cap ran out first.
        method: interval method used (``"wilson"`` / ``"clopper_pearson"``).
        spec_yields: per-statistic yield estimates (e.g. ``"linearity"``,
            ``"regulation"``, ``"lock"``); the primary statistic is
            included.
        spec_intervals: per-statistic ``(lower, upper)`` interval bounds.
        value_stats: per-metric streaming summaries (``mean`` / ``std`` /
            ``min`` / ``max`` / ``count``), e.g. the limit-cycle amplitude.
    """

    scheme: str | None
    yield_estimate: float
    lower: float
    upper: float
    confidence: float
    precision: float
    samples: int
    max_samples: int
    chunk_size: int
    stop_reason: str
    method: str
    spec_yields: dict[str, float]
    spec_intervals: dict[str, tuple[float, float]]
    value_stats: dict[str, dict[str, float]]

    @property
    def half_width(self) -> float:
        """Realized half-width of the primary confidence interval."""
        return 0.5 * (self.upper - self.lower)


def _adaptive_result(
    scheme: str | None, sample_result: "AdaptiveSampleResult", primary: str
) -> AdaptiveYieldResult:
    """Fold an :class:`repro.mc.AdaptiveSampleResult` into the domain shape."""
    interval = sample_result.intervals[primary]
    return AdaptiveYieldResult(
        scheme=scheme,
        yield_estimate=sample_result.estimates[primary],
        lower=interval.lower,
        upper=interval.upper,
        confidence=sample_result.confidence,
        precision=sample_result.precision,
        samples=sample_result.trials,
        max_samples=sample_result.max_samples,
        chunk_size=sample_result.chunk_size,
        stop_reason=sample_result.stop_reason,
        method=sample_result.method,
        spec_yields=dict(sample_result.estimates),
        spec_intervals={
            name: (ci.lower, ci.upper)
            for name, ci in sample_result.intervals.items()
        },
        value_stats={
            name: moments.summary()
            for name, moments in sample_result.moments.items()
        },
    )


def adaptive_linearity_yield(
    scheme: str,
    spec: DesignSpec,
    conditions: OperatingConditions,
    variation: VariationModel | None = None,
    precision: float = 0.02,
    confidence: float = 0.95,
    max_instances: int = 4096,
    chunk_size: int = 64,
    min_instances: int | None = None,
    method: str = "wilson",
    dnl_limit_lsb: float | None = None,
    inl_limit_lsb: float | None = None,
    error_limit_fraction: float | None = None,
    require_monotonic: bool = True,
    require_lock: bool = True,
    library: TechnologyLibrary | None = None,
) -> AdaptiveYieldResult:
    """Adaptive sibling of :func:`linearity_yield`: sample until the CI is tight.

    The scheme is designed once (:class:`repro.pipeline.ChunkedFabricator`),
    then post-APR chunks are fabricated, calibrated and scored until the
    confidence interval on the linearity yield has half-width
    ``<= precision`` or ``max_instances`` samples are spent.  Instance
    ``i``'s mismatch comes from the variation model's per-instance stream,
    so the sample stream -- and therefore the estimate -- is independent of
    the chunk size.
    """
    from repro.mc import SampleChunk, adaptive_sample
    from repro.pipeline import ChunkedFabricator

    resolved_spec = LinearitySpec(
        dnl_limit_lsb=dnl_limit_lsb,
        inl_limit_lsb=inl_limit_lsb,
        error_limit_fraction=error_limit_fraction,
        require_monotonic=require_monotonic,
        require_lock=require_lock,
    )
    fabricator = ChunkedFabricator(
        scheme, spec, variation=variation or VariationModel(), library=library
    )

    def draw(first_instance: int, count: int) -> SampleChunk:
        ensemble = fabricator.fabricate(count, first_instance=first_instance)
        calibration = ensemble.lock(conditions)
        curves = ensemble.transfer_curves(conditions, calibration=calibration)
        metrics = curves.metrics()
        error_fractions = curves.max_error_fraction_of_period()
        return SampleChunk(
            passes={
                "linearity": resolved_spec.passes(
                    metrics, calibration.locked, error_fractions
                ),
                "lock": np.asarray(calibration.locked, dtype=bool),
                "monotonic": np.asarray(metrics.monotonic, dtype=bool),
            },
            values={
                "max_dnl_lsb": metrics.max_dnl_lsb,
                "max_inl_lsb": metrics.max_inl_lsb,
                "rms_inl_lsb": metrics.rms_inl_lsb,
                "error_fraction": error_fractions,
            },
        )

    sample_result = adaptive_sample(
        draw,
        primary="linearity",
        precision=precision,
        confidence=confidence,
        max_samples=max_instances,
        chunk_size=chunk_size,
        min_samples=min_instances,
        method=method,
    )
    return _adaptive_result(scheme, sample_result, "linearity")


def adaptive_closed_loop_yield(
    scheme: str,
    spec: DesignSpec,
    conditions: OperatingConditions,
    nominal: BuckParameters | None = None,
    reference_v: float = 0.9,
    variation: VariationModel | None = None,
    component_variation: ComponentVariation | None = None,
    precision: float = 0.02,
    confidence: float = 0.95,
    max_instances: int = 4096,
    chunk_size: int = 64,
    min_instances: int | None = None,
    method: str = "wilson",
    periods: int = 300,
    linearity_spec: LinearitySpec | None = None,
    regulation_spec: RegulationSpec | None = None,
    load: LoadProfile | None = None,
    library: TechnologyLibrary | None = None,
) -> AdaptiveYieldResult:
    """Adaptive sibling of :func:`closed_loop_yield`.

    Runs the silicon-to-regulation pipeline per chunk through
    :class:`repro.pipeline.ChunkedSiliconToRegulation` -- the design
    procedure runs once, each chunk only fabricates, calibrates, converts
    and regulates its own instance range -- until the confidence interval
    on the *composed* yield (linearity AND regulation) is tight enough.
    The per-spec yields and the streaming limit-cycle-amplitude statistics
    ride along.  Note the electrical spread uses
    :meth:`ComponentVariation.sample_instances` (the chunk-stable stream),
    so the population differs from the fixed-N :func:`closed_loop_yield`
    draw -- by design; each path is internally reproducible.
    """
    from repro.mc import SampleChunk, adaptive_sample
    from repro.pipeline import ChunkedSiliconToRegulation

    resolved_linearity = linearity_spec or LinearitySpec()
    resolved_regulation = regulation_spec or RegulationSpec()
    runner = ChunkedSiliconToRegulation(
        scheme,
        spec,
        conditions,
        variation=variation,
        nominal=nominal,
        reference_v=reference_v,
        component_variation=component_variation,
        load=load,
        library=library,
    )

    def draw(first_instance: int, count: int) -> SampleChunk:
        result = runner.run_chunk(first_instance, count, periods=periods)
        linearity_passes = resolved_linearity.evaluate(
            result.calibration, result.curves
        )
        steady_state = result.regulation.steady_state_voltage_v(
            resolved_regulation.tail_fraction
        )
        ripple = result.regulation.steady_state_ripple_v(
            resolved_regulation.tail_fraction
        )
        regulation_passes = resolved_regulation.passes(
            steady_state, ripple, reference_v
        )
        return SampleChunk(
            passes={
                "closed_loop": linearity_passes & regulation_passes,
                "linearity": linearity_passes,
                "regulation": regulation_passes,
                "lock": np.asarray(result.calibration.locked, dtype=bool),
            },
            values={
                "limit_cycle_amplitude_v": ripple,
                "error_v": np.abs(steady_state - reference_v),
            },
        )

    sample_result = adaptive_sample(
        draw,
        primary="closed_loop",
        precision=precision,
        confidence=confidence,
        max_samples=max_instances,
        chunk_size=chunk_size,
        min_samples=min_instances,
        method=method,
    )
    return _adaptive_result(runner.scheme, sample_result, "closed_loop")


def adaptive_regulation_yield(
    nominal: BuckParameters,
    reference_v: float,
    variation: ComponentVariation | None = None,
    precision: float = 0.02,
    confidence: float = 0.95,
    max_instances: int = 4096,
    chunk_size: int = 64,
    min_instances: int | None = None,
    method: str = "wilson",
    periods: int = 300,
    tolerance_v: float = 0.02,
    dpwm_bits: int = 6,
    load: LoadProfile | None = None,
) -> AdaptiveYieldResult:
    """Adaptive sibling of :func:`regulation_yield` (component spread only).

    Each chunk draws its electrical spreads from
    :meth:`ComponentVariation.sample_instances` (the chunk-stable stream),
    closes an ideal-DPWM fleet around them and scores the
    :class:`RegulationSpec`, until the interval on the regulation yield is
    tight enough or the cap runs out.
    """
    from repro.mc import SampleChunk, adaptive_sample
    from repro.simulation.batch import BatchClosedLoop, BatchQuantizer

    spec = RegulationSpec(tolerance_v=tolerance_v)
    resolved_variation = variation or ComponentVariation()

    def draw(first_instance: int, count: int) -> SampleChunk:
        parameters = resolved_variation.sample_instances(
            nominal, count, first_instance=first_instance
        )
        loop = BatchClosedLoop(
            parameters,
            BatchQuantizer.ideal(dpwm_bits, count),
            reference_v=reference_v,
            load=load,
        )
        result = loop.run(periods)
        steady_state = result.steady_state_voltage_v(spec.tail_fraction)
        ripple = result.steady_state_ripple_v(spec.tail_fraction)
        return SampleChunk(
            passes={"regulation": spec.passes(steady_state, ripple, reference_v)},
            values={
                "steady_state_v": steady_state,
                "ripple_v": ripple,
                "error_v": np.abs(steady_state - reference_v),
            },
        )

    sample_result = adaptive_sample(
        draw,
        primary="regulation",
        precision=precision,
        confidence=confidence,
        max_samples=max_instances,
        chunk_size=chunk_size,
        min_samples=min_instances,
        method=method,
    )
    return _adaptive_result(None, sample_result, "regulation")


@dataclass(frozen=True)
class RareEventYieldResult:
    """Outcome of a rare-event (ppm-regime) regulation-failure estimate.

    Everything is a scalar (or a tuple of JSON-able dicts), so the result
    serializes straight into the sweep cache -- same design as
    :class:`AdaptiveYieldResult`, but framed around the *failure*
    probability: in the ppm regime the failure rate is the number with
    signal in it, and the yield is just its complement.

    Attributes:
        estimator: ``"vanilla"`` / ``"stratified"`` / ``"importance"``.
        failure_probability: estimated probability that the load-step dip
            undershoots the limit.
        lower / upper: confidence-interval bounds on the failure
            probability.
        confidence: two-sided confidence level.
        precision: the requested half-width target (0 = fixed budget).
        samples: instances actually drawn -- the spent sample budget.
        max_samples / chunk_size: the sampling configuration.
        stop_reason: ``"precision"`` or ``"max_samples"``.
        dip_limit_v: the undershoot threshold defining failure.
        mean_dip_v: estimated nominal-population mean of the worst dip
            (reweighted for the importance estimator, post-stratified for
            the stratified one).
        effective_sample_size: Kish ESS of the weight stream (importance
            estimator only).
        strata: per-stratum detail rows (stratified estimator only).
    """

    estimator: str
    failure_probability: float
    lower: float
    upper: float
    confidence: float
    precision: float
    samples: int
    max_samples: int
    chunk_size: int
    stop_reason: str
    dip_limit_v: float
    mean_dip_v: float
    effective_sample_size: float | None = None
    strata: tuple[dict[str, float | int | str], ...] | None = None

    @property
    def half_width(self) -> float:
        """Realized half-width of the failure-probability interval."""
        return 0.5 * (self.upper - self.lower)

    @property
    def yield_estimate(self) -> float:
        """The complementary yield, ``1 - failure_probability``."""
        return 1.0 - self.failure_probability

    def summary(self) -> dict[str, object]:
        """Flat JSON-able record of the run (cacheable by the sweep layer)."""
        record: dict[str, object] = {
            "estimator": self.estimator,
            "failure_probability": self.failure_probability,
            "lower": self.lower,
            "upper": self.upper,
            "half_width": self.half_width,
            "confidence": self.confidence,
            "precision": self.precision,
            "samples": self.samples,
            "max_samples": self.max_samples,
            "chunk_size": self.chunk_size,
            "stop_reason": self.stop_reason,
            "dip_limit_v": self.dip_limit_v,
            "mean_dip_v": self.mean_dip_v,
        }
        if self.effective_sample_size is not None:
            record["effective_sample_size"] = self.effective_sample_size
        if self.strata is not None:
            record["strata"] = [dict(row) for row in self.strata]
        return record


def rare_event_regulation_yield(
    nominal: BuckParameters,
    reference_v: float,
    *,
    dip_limit_v: float,
    variation: ComponentVariation | None = None,
    estimator: str = "importance",
    tilt: ComponentTilt | None = None,
    stratification: ComponentStratification | None = None,
    load: LoadProfile | None = None,
    quantizer_levels: npt.ArrayLike | None = None,
    dpwm_bits: int = 6,
    periods: int = 160,
    settle_periods: int = 60,
    precision: float = 0.0,
    confidence: float = 0.95,
    max_instances: int = 4096,
    chunk_size: int = 256,
    min_ess: float = 32.0,
) -> RareEventYieldResult:
    """Estimate a rare load-step undershoot probability of the closed loop.

    The rare-event sibling of :func:`adaptive_regulation_yield`.  A
    variant *fails* when its output voltage dips below ``dip_limit_v`` at
    any period after ``settle_periods`` -- the transient undershoot of a
    load step, which at a guard-banded limit is a ppm-regime event that
    vanilla adaptive sampling cannot resolve within any sane budget.
    Three estimators share the identical vectorized fleet simulation and
    differ only in how they draw the component spreads:

    * ``"vanilla"`` -- :meth:`ComponentVariation.sample_instances` +
      :func:`repro.mc.adaptive_sample` (Wilson stopping).  The honest
      brute-force baseline.
    * ``"stratified"`` -- sigma-shell strata on one component axis
      (:class:`ComponentStratification`), Neyman-allocated chunks via
      :func:`repro.mc.stratified_sample`.
    * ``"importance"`` -- mean-shift/sigma-scale tilted draws
      (:class:`ComponentTilt`), self-normalized reweighting with an
      ESS-guarded stopping rule via :func:`repro.mc.importance_sample`.

    Args:
        nominal: the nominal converter design.
        reference_v: regulation reference voltage.
        dip_limit_v: undershoot threshold defining failure (must sit
            below ``reference_v``).
        variation: component spread model (default spreads when omitted).
        estimator: which estimator to run (see above).
        tilt: tilt configuration; only meaningful for ``"importance"``
            (defaults to the identity tilt -- valid but variance-free of
            benefit, so callers normally pass a real tilt).
        stratification: shell partition; only meaningful for
            ``"stratified"`` (defaults to the capacitance shells).
        load: load profile the fleet is stepped with.
        quantizer_levels: one DPWM duty table shared by the whole fleet
            (e.g. from a calibrated fabricated instance); falls back to an
            ideal ``dpwm_bits``-bit quantizer.
        periods / settle_periods: run length and the periods excluded
            from the dip measurement while the loop settles.
        precision: target CI half-width on the failure probability
            (0 runs the full budget).
        confidence: two-sided confidence level.
        max_instances: hard sample cap.
        chunk_size: instances per vectorized chunk.
        min_ess: effective-sample-size floor of the importance
            estimator's stopping rule.

    Returns:
        a JSON/cache-able :class:`RareEventYieldResult`.
    """
    from repro.mc import (
        SampleChunk,
        Stratum,
        WeightedSampleChunk,
        adaptive_sample,
        importance_sample,
        stratified_sample,
    )
    from repro.simulation.batch import BatchClosedLoop, BatchQuantizer

    estimators = ("vanilla", "stratified", "importance")
    if estimator not in estimators:
        raise ValueError(
            f"estimator must be one of {estimators}; got {estimator!r}"
        )
    if not 0.0 < dip_limit_v < reference_v:
        raise ValueError(
            f"dip_limit_v must be in (0, reference_v); got {dip_limit_v}"
        )
    if not 0 <= settle_periods < periods:
        raise ValueError(
            f"settle_periods must be in [0, periods); got {settle_periods}"
        )
    if tilt is not None and estimator != "importance":
        raise ValueError("tilt only applies to the importance estimator")
    if stratification is not None and estimator != "stratified":
        raise ValueError(
            "stratification only applies to the stratified estimator"
        )
    resolved_variation = variation or ComponentVariation()
    levels_row = (
        None
        if quantizer_levels is None
        else np.atleast_2d(np.asarray(quantizer_levels, dtype=float))
    )

    def simulate(
        parameters: "BatchBuckParameters", count: int
    ) -> tuple[npt.NDArray[np.bool_], npt.NDArray[np.float64]]:
        """Run one fleet chunk and score per-instance dip failures."""
        if levels_row is None:
            quantizer = BatchQuantizer.ideal(dpwm_bits, count)
        else:
            quantizer = BatchQuantizer(levels_row, num_variants=count)
        loop = BatchClosedLoop(
            parameters, quantizer, reference_v=reference_v, load=load
        )
        outputs = loop.run(periods).output_voltages_v
        dips = outputs[settle_periods:].min(axis=0)
        return dips < dip_limit_v, dips

    if estimator == "vanilla":
        def draw_vanilla(first_instance: int, count: int) -> SampleChunk:
            parameters = resolved_variation.sample_instances(
                nominal, count, first_instance=first_instance
            )
            fails, dips = simulate(parameters, count)
            return SampleChunk(passes={"failure": fails}, values={"dip_v": dips})

        vanilla = adaptive_sample(
            draw_vanilla,
            primary="failure",
            precision=precision,
            confidence=confidence,
            max_samples=max_instances,
            chunk_size=chunk_size,
        )
        interval = vanilla.intervals["failure"]
        return RareEventYieldResult(
            estimator=estimator,
            failure_probability=vanilla.estimates["failure"],
            lower=interval.lower,
            upper=interval.upper,
            confidence=confidence,
            precision=precision,
            samples=vanilla.trials,
            max_samples=max_instances,
            chunk_size=chunk_size,
            stop_reason=vanilla.stop_reason,
            dip_limit_v=dip_limit_v,
            mean_dip_v=vanilla.moments["dip_v"].mean,
        )

    if estimator == "importance":
        resolved_tilt = tilt or ComponentTilt()

        def draw_tilted(first_instance: int, count: int) -> WeightedSampleChunk:
            parameters, log_weights = resolved_variation.sample_instances_tilted(
                nominal, count, first_instance=first_instance, tilt=resolved_tilt
            )
            fails, dips = simulate(parameters, count)
            return WeightedSampleChunk(
                passes={"failure": fails},
                log_weights=log_weights,
                values={"dip_v": dips},
            )

        weighted = importance_sample(
            draw_tilted,
            primary="failure",
            precision=precision,
            confidence=confidence,
            max_samples=max_instances,
            chunk_size=chunk_size,
            min_ess=min_ess,
        )
        interval = weighted.intervals["failure"]
        return RareEventYieldResult(
            estimator=estimator,
            failure_probability=weighted.estimates["failure"],
            lower=interval.lower,
            upper=interval.upper,
            confidence=confidence,
            precision=precision,
            samples=weighted.trials,
            max_samples=max_instances,
            chunk_size=chunk_size,
            stop_reason=weighted.stop_reason,
            dip_limit_v=dip_limit_v,
            mean_dip_v=weighted.value_moments["dip_v"].mean,
            effective_sample_size=weighted.effective_sample_size,
        )

    resolved_strat = stratification or ComponentStratification()
    weights = resolved_strat.weights()
    names = resolved_strat.names()

    def stratum_draw(index: int) -> "Callable[[int, int], SampleChunk]":
        def draw_stratum(first_instance: int, count: int) -> SampleChunk:
            parameters = resolved_variation.sample_instances_stratum(
                nominal,
                count,
                index,
                first_instance=first_instance,
                stratification=resolved_strat,
            )
            fails, dips = simulate(parameters, count)
            return SampleChunk(passes={"failure": fails}, values={"dip_v": dips})

        return draw_stratum

    strata = tuple(
        Stratum(name=names[h], weight=weights[h], draw=stratum_draw(h))
        for h in range(resolved_strat.num_strata)
    )
    stratified = stratified_sample(
        strata,
        primary="failure",
        precision=precision,
        confidence=confidence,
        max_samples=max_instances,
        chunk_size=chunk_size,
    )
    interval = stratified.intervals["failure"]
    return RareEventYieldResult(
        estimator=estimator,
        failure_probability=stratified.estimates["failure"],
        lower=interval.lower,
        upper=interval.upper,
        confidence=confidence,
        precision=precision,
        samples=stratified.trials,
        max_samples=max_instances,
        chunk_size=chunk_size,
        stop_reason=stratified.stop_reason,
        dip_limit_v=dip_limit_v,
        mean_dip_v=stratified.value_means["dip_v"],
        strata=tuple(
            {
                "name": row.name,
                "weight": row.weight,
                "trials": row.trials,
                "failures": row.successes.get("failure", 0),
                "failure_rate": row.estimate("failure"),
            }
            for row in stratified.strata
        ),
    )


@dataclass(frozen=True)
class MissionSpec:
    """Per-segment pass/fail specification for a mission-profile run.

    A mission passes only when *every* segment's window meets the spec --
    the loop has to hold regulation through the whole load history, not
    just at the end.  Within each segment window:

    * the mean of the window's tail (the last ``tail_fraction`` of its
      periods, the part the loop has had time to settle into) must sit
      within ``tolerance_v`` of the reference;
    * when ``ripple_limit_v`` is given, the tail's peak-to-peak ripple
      must stay at or below it;
    * when ``dip_limit_v`` is given, the *whole* window -- including the
      transient right after the segment boundary -- must stay at or above
      ``reference_v - dip_limit_v``.

    Attributes:
        tolerance_v: steady-state tolerance on the tail mean.
        dip_limit_v: maximum transient undershoot below the reference
            anywhere in a segment window (``None`` skips the check).
        ripple_limit_v: maximum tail peak-to-peak ripple (``None`` skips).
        tail_fraction: fraction of each segment window scored as "tail".
    """

    tolerance_v: float = 0.02
    dip_limit_v: float | None = None
    ripple_limit_v: float | None = None
    tail_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.tolerance_v <= 0:
            raise ValueError(f"tolerance_v must be positive; got {self.tolerance_v}")
        if not 0.0 < self.tail_fraction <= 1.0:
            raise ValueError(
                f"tail_fraction must lie in (0, 1]; got {self.tail_fraction}"
            )
        if self.dip_limit_v is not None and self.dip_limit_v <= 0:
            raise ValueError(
                f"dip_limit_v must be positive when given; got {self.dip_limit_v}"
            )
        if self.ripple_limit_v is not None and self.ripple_limit_v <= 0:
            raise ValueError(
                "ripple_limit_v must be positive when given; got "
                f"{self.ripple_limit_v}"
            )

    def window_passes(
        self, voltages: npt.NDArray[np.float64], reference_v: float
    ) -> bool:
        """Score one segment's output-voltage window against the spec."""
        if voltages.size < 1:
            raise ValueError("segment window must contain at least one period")
        tail_count = max(1, int(round(voltages.size * self.tail_fraction)))
        tail = voltages[-tail_count:]
        if abs(float(tail.mean()) - reference_v) > self.tolerance_v:
            return False
        if self.ripple_limit_v is not None:
            if float(tail.max() - tail.min()) > self.ripple_limit_v:
                return False
        if self.dip_limit_v is not None:
            if float(voltages.min()) < reference_v - self.dip_limit_v:
                return False
        return True

    def summary(self) -> dict[str, float | None]:
        """JSON-able view of the spec (cache-key / report material)."""
        return {
            "tolerance_v": self.tolerance_v,
            "dip_limit_v": self.dip_limit_v,
            "ripple_limit_v": self.ripple_limit_v,
            "tail_fraction": self.tail_fraction,
        }


@dataclass(frozen=True)
class MissionYieldResult:
    """Outcome of a mission-profile Monte-Carlo yield run.

    Attributes:
        scheme: ``"proposed"`` or ``"conventional"``.
        mission_yield: fraction of instances whose *every* segment window
            met the :class:`MissionSpec`.
        passes: per-instance pass flags.
        periods: switching periods each mission ran for.
        segment_failure_counts: per-segment-index count of instances that
            failed that segment (an instance can count in several).
        first_failure_counts: per-segment-index count of instances whose
            *first* failing segment it was (each failing instance counts
            exactly once) -- the attribution that says where missions die.
        spec: the scoring spec.
        pipeline_result: full pipeline output (calibration, curves,
            per-period regulation history).
    """

    scheme: str
    mission_yield: float
    passes: npt.NDArray[np.bool_]
    periods: int
    segment_failure_counts: tuple[int, ...]
    first_failure_counts: tuple[int, ...]
    spec: MissionSpec
    pipeline_result: "PipelineResult"

    @property
    def num_instances(self) -> int:
        return int(self.passes.shape[0])

    def summary(self) -> dict[str, object]:
        """JSON-able summary with per-segment failure attribution."""
        worst_segment: int | None = None
        if any(self.segment_failure_counts):
            worst_segment = int(np.argmax(self.segment_failure_counts))
        return {
            "scheme": self.scheme,
            "mission_yield": self.mission_yield,
            "num_instances": self.num_instances,
            "periods": self.periods,
            "segment_failure_counts": list(self.segment_failure_counts),
            "first_failure_counts": list(self.first_failure_counts),
            "worst_segment": worst_segment,
            "spec": self.spec.summary(),
        }


def mission_yield(
    scheme: str,
    spec: DesignSpec,
    conditions: OperatingConditions,
    *,
    missions: MissionGenerator | Sequence[MissionProfile],
    mission_spec: MissionSpec | None = None,
    nominal: BuckParameters | None = None,
    reference_v: float = 0.9,
    variation: VariationModel | None = None,
    component_variation: ComponentVariation | None = None,
    correlation: CorrelatedVariationModel | None = None,
    temperature_trace: TemperatureTrace | None = None,
    thermal: ThermalDerating | None = None,
    num_instances: int = 128,
    periods: int | None = None,
    library: TechnologyLibrary | None = None,
    first_instance: int = 0,
) -> MissionYieldResult:
    """Monte-Carlo estimate of the fleet's mission-survival yield.

    The mission-profile sibling of :func:`closed_loop_yield`: every
    fabricated delay line is calibrated, turned into a DPWM duty table and
    closed around its own buck converter, but instead of one static load
    each instance flies its *own* randomized mission (a chain of load
    primitives from :class:`~repro.converter.missions.MissionGenerator`,
    or an explicit list of :class:`~repro.converter.missions
    .MissionProfile`).  Optionally the whole fleet rides a shared
    :class:`~repro.technology.thermal.TemperatureTrace`: at each thermal
    epoch the silicon is re-locked through the corner model and the
    electricals re-derated, with exact state carry-over across epoch
    boundaries.  ``correlation`` couples the component draws
    (:class:`~repro.technology.variation.CorrelatedVariationModel`).

    An instance passes when **every** segment window of its mission meets
    the :class:`MissionSpec`; the result carries per-segment failure
    attribution (which leg of the mission kills chips).

    ``periods`` defaults to the longest mission's total length; shorter
    missions hold their final segment for the remainder of the run.
    """
    from repro.pipeline import ChunkedSiliconToRegulation

    if num_instances < 1:
        raise ValueError("need at least one instance")
    mission_list = resolve_missions(missions, num_instances, first_instance)
    resolved_periods = (
        periods
        if periods is not None
        else max(mission.total_periods for mission in mission_list)
    )
    if resolved_periods < 1:
        raise ValueError(f"periods must be >= 1; got {resolved_periods}")
    resolved_spec = mission_spec or MissionSpec()

    runner = ChunkedSiliconToRegulation(
        scheme,
        spec,
        conditions,
        variation=variation,
        nominal=nominal,
        reference_v=reference_v,
        component_variation=component_variation,
        correlation=correlation,
        library=library,
    )
    result = runner.run_chunk(
        first_instance,
        num_instances,
        periods=resolved_periods,
        missions=mission_list,
        temperature_trace=temperature_trace,
        thermal=thermal,
    )
    voltages = result.regulation.output_voltages_v

    max_segments = max(mission.num_segments for mission in mission_list)
    passes = np.empty(num_instances, dtype=bool)
    segment_failures = [0] * max_segments
    first_failures = [0] * max_segments
    for instance, mission in enumerate(mission_list):
        windows = mission.segment_windows(resolved_periods)
        instance_passed = True
        first_recorded = False
        for segment_index, (start, end) in enumerate(windows):
            window = voltages[start:end, instance]
            if resolved_spec.window_passes(window, reference_v):
                continue
            instance_passed = False
            segment_failures[segment_index] += 1
            if not first_recorded:
                first_failures[segment_index] += 1
                first_recorded = True
        passes[instance] = instance_passed

    return MissionYieldResult(
        scheme=result.scheme,
        mission_yield=float(np.mean(passes)),
        passes=passes,
        periods=resolved_periods,
        segment_failure_counts=tuple(segment_failures),
        first_failure_counts=tuple(first_failures),
        spec=resolved_spec,
        pipeline_result=result,
    )
