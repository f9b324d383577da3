"""The silicon-to-regulation Monte-Carlo stage function.

The paper's end-to-end claim is that delay-line DPWM nonlinearity under
process variation decides whether the closed-loop buck regulates cleanly or
limit-cycles.  :mod:`repro.core.ensemble` produces per-instance DPWM
transfer curves and :mod:`repro.simulation.batch` runs fleets of closed
loops; this module joins them in one vectorized stack, with no
per-instance Python loop:

1. **Fabricate** -- :class:`ChunkedFabricator` runs the paper's design
   procedure once and draws any range of post-APR instances from a
   :class:`~repro.technology.variation.VariationModel`.
2. **Regulate** -- :func:`regulate_ensemble`, the one stage function,
   locks every instance closed-form, extracts the ``(instances, words)``
   transfer-curve matrix, turns it into per-instance DPWM duty tables
   (:meth:`~repro.simulation.batch.BatchQuantizer.from_ensemble`) and
   advances a :class:`~repro.simulation.batch.BatchClosedLoop` fleet
   around them, one fleet variant per fabricated instance.  Under a
   :class:`~repro.technology.thermal.TemperatureTrace` it re-locks and
   re-derates at every epoch with exact state carry-over.

Each fleet variant's DPWM nonlinearity is its *own* fabricated instance's
calibrated curve, so steady-state limit-cycle amplitude and regulation
yield become per-chip Monte-Carlo statistics.  The run is bit-identical to
composing the two engines by hand (scalar ``CalibratedDelayLineDPWM`` plus
scalar ``DigitallyControlledBuck`` per instance) -- the property
``tests/test_pipeline.py`` asserts and ``benchmarks/test_bench_pipeline.py``
perf-gates (>= 10x at bit-exact steady-state agreement).

Every estimator reaches the stage function through
:meth:`ChunkedSiliconToRegulation.run_chunk`, which fabricates an instance
range and draws its spreads from the chunk-stable
:meth:`~repro.core.yield_analysis.ComponentVariation.sample_instances`
stream -- the closed-loop (:mod:`repro.mc`) and mission estimators alike.
Because every variation model keys instance ``i``'s randomness on ``i``
itself, chunked runs are bit-identical to slicing one big run, and a seed
names one population whatever the budget -- the contract the estimators'
reproducibility rests on.

Example -- design once, fabricate in chunks, and the chunks tile the same
population one run over the whole range regulates:

    >>> import numpy as np
    >>> from repro.core.design import DesignSpec
    >>> from repro.pipeline import ChunkedSiliconToRegulation
    >>> from repro.technology.variation import VariationModel
    >>> spec = DesignSpec(clock_frequency_mhz=100.0, resolution_bits=4)
    >>> chunked = ChunkedSiliconToRegulation(
    ...     "proposed", spec, variation=VariationModel(seed=5))
    >>> first = chunked.run_chunk(0, 2, periods=40)
    >>> second = chunked.run_chunk(2, 2, periods=40)
    >>> one_shot = chunked.run_chunk(0, 4, periods=40)
    >>> bool(np.array_equal(
    ...     np.concatenate([first.steady_state_voltages_v(),
    ...                     second.steady_state_voltages_v()]),
    ...     one_shot.steady_state_voltages_v()))
    True
    >>> one_shot.num_instances
    4
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from collections.abc import Sequence

import numpy as np
import numpy.typing as npt

from repro.converter.buck import BuckParameters
from repro.converter.load import LoadProfile
from repro.converter.missions import (
    MissionGenerator,
    MissionProfile,
    OffsetLoad,
    resolve_missions,
)
from repro.core.design import DesignSpec, design_conventional, design_proposed
from repro.core.ensemble import (
    ConventionalEnsemble,
    DelayLineEnsemble,
    EnsembleCalibration,
    EnsembleTransferCurves,
    ProposedEnsemble,
)
from repro.core.yield_analysis import ComponentVariation
from repro.simulation.batch import (
    BatchBuckParameters,
    BatchClosedLoop,
    BatchQuantizer,
    BatchRegulationResult,
)
from repro.technology.corners import OperatingConditions
from repro.technology.library import TechnologyLibrary, intel32_like_library
from repro.technology.thermal import TemperatureTrace, ThermalDerating
from repro.technology.variation import CorrelatedVariationModel, VariationModel

__all__ = [
    "ChunkedFabricator",
    "ChunkedSiliconToRegulation",
    "PipelineResult",
    "regulate_ensemble",
]


class ChunkedFabricator:
    """Design a scheme once, then fabricate instance ranges on demand.

    The paper's design procedure (:mod:`repro.core.design`) is deterministic
    in the specification, so a streaming Monte-Carlo run only needs it
    *once*; every subsequent chunk is just a variation draw over the stored
    line configuration.  Because :meth:`VariationModel.sample` keys instance
    ``i``'s randomness on ``i`` itself, :meth:`fabricate` over
    ``[first_instance, first_instance + count)`` is bit-identical to the
    matching slice of one big fabrication -- the chunking contract of
    :mod:`repro.mc`.
    """

    def __init__(
        self,
        scheme: str,
        spec: DesignSpec,
        variation: VariationModel | None = None,
        library: TechnologyLibrary | None = None,
    ) -> None:
        self.library = library or intel32_like_library()
        if scheme == "proposed":
            designed = design_proposed(spec, self.library)
            self._ensemble_cls = ProposedEnsemble
        elif scheme == "conventional":
            designed = design_conventional(spec, self.library)
            self._ensemble_cls = ConventionalEnsemble
        else:
            raise ValueError(f"unknown scheme {scheme!r}")
        self.config = designed.build_line(library=self.library).config
        self.scheme = scheme
        self.spec = spec
        self.variation = variation

    def fabricate(
        self, num_instances: int, first_instance: int = 0
    ) -> DelayLineEnsemble:
        """Draw the post-APR instances ``first_instance .. +num_instances``."""
        if num_instances < 1:
            raise ValueError("need at least one instance")
        if self.variation is None:
            return self._ensemble_cls(
                self.config,
                library=self.library,
                num_instances=num_instances,
            )
        return self._ensemble_cls.sample(
            self.config,
            num_instances,
            self.variation,
            library=self.library,
            first_instance=first_instance,
        )


def _resolve_nominal(
    nominal: BuckParameters | None, spec: DesignSpec
) -> BuckParameters:
    """Default the electrical nominals and enforce the shared clock."""
    if nominal is None:
        return BuckParameters(switching_frequency_hz=spec.clock_frequency_mhz * 1e6)
    if not np.isclose(
        nominal.switching_frequency_hz, spec.clock_frequency_mhz * 1e6
    ):
        raise ValueError(
            "the DPWM and the power stage share one switching clock: "
            f"spec says {spec.clock_frequency_mhz} MHz, nominal "
            f"parameters say {nominal.switching_frequency_hz / 1e6} MHz"
        )
    return nominal


@dataclass(frozen=True)
class PipelineResult:
    """Everything one :func:`regulate_ensemble` run produced.

    Attributes:
        scheme: ``"proposed"`` or ``"conventional"``.
        reference_v: the regulation target the fleet was closed on.
        calibration: per-instance lock outcomes.
        curves: per-instance post-calibration transfer curves.
        regulation: the fleet's per-period regulation history.
    """

    scheme: str
    reference_v: float
    calibration: EnsembleCalibration
    curves: EnsembleTransferCurves
    regulation: BatchRegulationResult

    @property
    def num_instances(self) -> int:
        return self.regulation.num_variants

    def steady_state_voltages_v(
        self, tail_fraction: float = 0.25
    ) -> npt.NDArray[np.float64]:
        """Per-instance steady-state output voltage."""
        return self.regulation.steady_state_voltage_v(tail_fraction)

    def limit_cycle_amplitudes_v(
        self, tail_fraction: float = 0.25
    ) -> npt.NDArray[np.float64]:
        """Per-instance steady-state peak-to-peak output ripple.

        This is the limit-cycle amplitude the DPWM's finite (and, after
        fabrication, nonlinear) resolution leaves behind once the loop has
        settled -- the regulation-side signature of the silicon.
        """
        return self.regulation.steady_state_ripple_v(tail_fraction)

    def regulation_errors_v(
        self, tail_fraction: float = 0.25
    ) -> npt.NDArray[np.float64]:
        """Per-instance |steady-state output - reference|."""
        return np.abs(self.steady_state_voltages_v(tail_fraction) - self.reference_v)


def regulate_ensemble(
    ensemble: DelayLineEnsemble,
    parameters: BatchBuckParameters,
    conditions: OperatingConditions,
    *,
    reference_v: float,
    periods: int,
    load: LoadProfile | None = None,
    missions: Sequence[MissionProfile] | None = None,
    temperature_trace: TemperatureTrace | None = None,
    thermal: ThermalDerating | None = None,
) -> PipelineResult:
    """Lock, convert and regulate a fabricated ensemble: the stage function.

    Every instance of ``ensemble`` is locked closed-form at ``conditions``,
    its transfer curve becomes that instance's DPWM duty table, and a
    :class:`~repro.simulation.batch.BatchClosedLoop` fleet -- variant ``i``
    is instance ``i`` on electricals ``parameters.variant(i)`` -- regulates
    to ``reference_v`` for ``periods`` switching periods.

    The fleet flies either one shared ``load`` or per-instance ``missions``
    (one :class:`~repro.converter.missions.MissionProfile` per instance);
    passing both raises a ``ValueError``.
    ``temperature_trace`` makes the run non-isothermal: the run is split at
    the trace's epoch boundaries, the ensemble is re-locked at each
    epoch's temperature through the corner model (so the DPWM duty tables
    drift exactly as a static run at that temperature would) and the
    electricals are re-derated through ``thermal`` (default
    :class:`~repro.technology.thermal.ThermalDerating`), with exact
    closed-loop state carry-over across the boundaries -- an
    all-nominal-temperature trace reproduces the unsplit run bit for bit.
    The result's calibration and curves are the first epoch's.
    """
    if thermal is not None and temperature_trace is None:
        raise ValueError("thermal derating requires a temperature_trace")
    if load is not None and missions is not None:
        raise ValueError(
            "got both a shared load and per-instance missions; the fleet "
            "flies one or the other, so drop the load or the missions"
        )
    if temperature_trace is not None:
        epochs: list[tuple[int, int, float | None]] = [
            (start, end, temperature)
            for start, end, temperature in temperature_trace.epochs(periods)
        ]
        derating = thermal or ThermalDerating()
    else:
        epochs = [(0, periods, None)]
        derating = None

    # Each epoch's loads are shifted to its start (OffsetLoad.wrap), and
    # the compensator and converter state carry across the boundary, so
    # the epochs concatenate to the trajectory of one unsplit run.
    locks: list[tuple[EnsembleCalibration, EnsembleTransferCurves]] = []
    pieces: list[BatchRegulationResult] = []
    loop: BatchClosedLoop | None = None
    for start, end, temperature in epochs:
        epoch_conditions = (
            conditions.with_temperature(temperature)
            if temperature is not None
            else conditions
        )
        epoch_calibration, epoch_curves = ensemble.calibrate(epoch_conditions)
        locks.append((epoch_calibration, epoch_curves))
        epoch_parameters = (
            derating.derate(parameters, temperature)
            if derating is not None and temperature is not None
            else parameters
        )
        previous = loop
        loop = BatchClosedLoop(
            epoch_parameters,
            BatchQuantizer.from_ensemble(epoch_curves),
            reference_v=reference_v,
            compensator=previous.compensator if previous is not None else None,
            load=OffsetLoad.wrap(load, start) if load is not None else None,
            loads=(
                [OffsetLoad.wrap(mission, start) for mission in missions]
                if missions is not None
                else None
            ),
            start_at_reference=previous is None,
        )
        if previous is not None:
            loop.output_voltage_v = previous.output_voltage_v
            loop.inductor_current_a = previous.inductor_current_a
        pieces.append(loop.run(end - start))

    if len(pieces) == 1:
        regulation = pieces[0]
    else:
        regulation = BatchRegulationResult(
            switching_period_s=pieces[0].switching_period_s,
            **{
                field.name: np.concatenate(
                    [getattr(piece, field.name) for piece in pieces]
                )
                for field in fields(BatchRegulationResult)
                if field.name != "switching_period_s"
            },
        )
    calibration, curves = locks[0]
    return PipelineResult(
        scheme=ensemble.scheme,
        reference_v=reference_v,
        calibration=calibration,
        curves=curves,
        regulation=regulation,
    )


class ChunkedSiliconToRegulation:
    """Design once, then fabricate and regulate any instance range.

    A streaming sampler (:mod:`repro.mc`) grows its population until a
    confidence target is met, so this runner runs the (deterministic)
    design procedure once and defers everything else to :meth:`run_chunk`:
    fabricate the chunk's instances, draw their electrical spreads, and
    hand both to :func:`regulate_ensemble`.  Chunk boundaries never change
    the sample stream:

    * the silicon mismatch of instance ``i`` comes from
      :meth:`VariationModel.sample`'s per-instance RNG stream, and
    * the electrical spread of instance ``i`` comes from
      :meth:`ComponentVariation.sample_instances`'s per-instance stream,

    so ``run_chunk(0, n)`` equals the concatenation of any chunking of
    ``[0, n)`` bit for bit -- hypothesis-tested in ``tests/test_pipeline.py``.

    ``correlation`` couples the component draws, so it needs a
    ``component_variation`` to act on; giving it alone raises a
    ``ValueError`` rather than running uncorrelated.
    """

    def __init__(
        self,
        scheme: str,
        spec: DesignSpec,
        conditions: OperatingConditions | None = None,
        *,
        variation: VariationModel | None = None,
        nominal: BuckParameters | None = None,
        reference_v: float = 0.9,
        component_variation: ComponentVariation | None = None,
        correlation: CorrelatedVariationModel | None = None,
        load: LoadProfile | None = None,
        library: TechnologyLibrary | None = None,
    ) -> None:
        if correlation is not None and component_variation is None:
            raise ValueError(
                "a correlation couples the component draws, but no "
                "component_variation was given to draw them; pass a "
                "ComponentVariation or drop the correlation"
            )
        self.fabricator = ChunkedFabricator(
            scheme, spec, variation=variation, library=library
        )
        self.library = self.fabricator.library
        self.conditions = conditions or OperatingConditions.typical()
        self.spec = spec
        self.scheme = scheme
        self.nominal = _resolve_nominal(nominal, spec)
        self.reference_v = reference_v
        self.component_variation = component_variation
        self.correlation = correlation
        self.load = load

    def run_chunk(
        self,
        first_instance: int,
        num_instances: int,
        periods: int = 300,
        *,
        missions: MissionGenerator | Sequence[MissionProfile] | None = None,
        temperature_trace: TemperatureTrace | None = None,
        thermal: ThermalDerating | None = None,
    ) -> PipelineResult:
        """Fabricate and regulate instances ``first_instance .. +num_instances``.

        ``missions`` gives every instance its own composed load history (a
        :class:`~repro.converter.missions.MissionGenerator` draws one per
        instance from its chunk-invariant stream; an explicit sequence
        supplies one :class:`~repro.converter.missions.MissionProfile` per
        instance) in place of the runner's shared ``load``; giving both
        raises a ``ValueError``.  ``temperature_trace`` / ``thermal`` make
        the run non-isothermal; see :func:`regulate_ensemble`.
        """
        mission_list = (
            resolve_missions(missions, num_instances, first_instance)
            if missions is not None
            else None
        )
        ensemble = self.fabricator.fabricate(
            num_instances, first_instance=first_instance
        )
        return regulate_ensemble(
            ensemble,
            self._chunk_parameters(num_instances, first_instance),
            self.conditions,
            reference_v=self.reference_v,
            periods=periods,
            load=self.load,
            missions=mission_list,
            temperature_trace=temperature_trace,
            thermal=thermal,
        )

    def _chunk_parameters(
        self, num_instances: int, first_instance: int
    ) -> BatchBuckParameters:
        """The chunk's per-instance electrical parameters (chunk-stable)."""
        if self.component_variation is None:
            return BatchBuckParameters.uniform(self.nominal, num_instances)
        return self.component_variation.sample_instances(
            self.nominal,
            num_instances,
            first_instance=first_instance,
            correlation=self.correlation,
        )

