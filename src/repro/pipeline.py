"""The fused silicon-to-regulation Monte-Carlo pipeline.

The paper's end-to-end claim is that delay-line DPWM nonlinearity under
process variation decides whether the closed-loop buck regulates cleanly or
limit-cycles.  Before this module the repo evaluated the two halves in
separate engines: :mod:`repro.core.ensemble` produced per-instance DPWM
transfer curves and :mod:`repro.simulation.batch` ran fleets of closed
loops, but connecting them meant constructing scalar
:class:`~repro.dpwm.calibrated.CalibratedDelayLineDPWM` objects one instance
at a time in Python.  :class:`SiliconToRegulationPipeline` fuses the stack:

1. **Fabricate** -- draw ``N`` post-APR instances of the designed delay line
   from a :class:`~repro.technology.variation.VariationModel`
   (:func:`fabricate_ensemble`).
2. **Calibrate** -- lock every instance closed-form and extract the full
   ``(instances, words)`` transfer-curve matrix in one vectorized ensemble
   pass.
3. **Convert** -- turn that matrix directly into per-instance DPWM duty
   tables with :meth:`~repro.simulation.batch.BatchQuantizer.from_ensemble`
   (no per-instance scalar DPWM construction, no Python loops).
4. **Regulate** -- close a :class:`~repro.simulation.batch.BatchClosedLoop`
   fleet around the fabricated DPWMs, optionally with per-chip electrical
   spreads from :class:`~repro.core.yield_analysis.ComponentVariation`, and
   advance all loops together period by period.

Each fleet variant's DPWM nonlinearity is its *own* fabricated instance's
calibrated curve, so steady-state limit-cycle amplitude and regulation yield
become per-chip Monte-Carlo statistics.  The fused run is bit-identical to
composing the two engines by hand (scalar ``CalibratedDelayLineDPWM`` plus
scalar ``DigitallyControlledBuck`` per instance) -- the property
``tests/test_pipeline.py`` asserts and ``benchmarks/test_bench_pipeline.py``
perf-gates (>= 10x at bit-exact steady-state agreement).

Scoring lives next door: :func:`repro.core.yield_analysis.closed_loop_yield`
runs this pipeline and composes the :class:`LinearitySpec` and
:class:`RegulationSpec` pass/fail frameworks into one fused yield number.

For adaptive Monte-Carlo (:mod:`repro.mc`) the pipeline also exposes a
*chunked* entry point: :class:`ChunkedSiliconToRegulation` runs the design
procedure once and then fabricates → calibrates → converts → regulates any
instance range on demand, so a streaming sampler can grow the population
chunk by chunk without re-running the design.  Because every variation
model keys instance ``i``'s randomness on ``i`` itself, chunked runs are
bit-identical to slicing one big run -- the contract the adaptive engine's
reproducibility rests on.

Example -- design once, fabricate in chunks, and the chunks tile the same
population a one-shot fabrication draws:

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

from dataclasses import dataclass
from collections.abc import Sequence
from typing import Any

import numpy as np
import numpy.typing as npt

from repro.converter.adc import WindowedADC
from repro.converter.buck import BuckParameters
from repro.converter.load import LoadProfile, ReferenceProfile, SourceProfile
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
from repro.core.yield_analysis import (
    ClosedLoopYieldResult,
    ComponentVariation,
    LinearitySpec,
    RegulationSpec,
)
from repro.kernels import KernelBackend, get_backend
from repro.simulation.batch import (
    BatchBuckParameters,
    BatchClosedLoop,
    BatchCompensator,
    BatchQuantizer,
    BatchRegulationResult,
)
from repro.technology.corners import OperatingConditions, ProcessCorner
from repro.technology.library import TechnologyLibrary, intel32_like_library
from repro.technology.thermal import TemperatureTrace, ThermalDerating
from repro.technology.variation import CorrelatedVariationModel, VariationModel

__all__ = [
    "ChunkedFabricator",
    "ChunkedSiliconToRegulation",
    "PipelineResult",
    "SiliconToRegulationPipeline",
    "closed_loop_cell",
    "fabricate_ensemble",
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
        backend: str | KernelBackend | None = None,
    ) -> None:
        self.library = library or intel32_like_library()
        self.kernels = (
            backend if isinstance(backend, KernelBackend) else get_backend(backend)
        )
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
                backend=self.kernels,
            )
        return self._ensemble_cls.sample(
            self.config,
            num_instances,
            self.variation,
            library=self.library,
            first_instance=first_instance,
            backend=self.kernels,
        )


def fabricate_ensemble(
    scheme: str,
    spec: DesignSpec,
    variation: VariationModel | None,
    num_instances: int,
    library: TechnologyLibrary | None = None,
    first_instance: int = 0,
    backend: str | KernelBackend | None = None,
) -> DelayLineEnsemble:
    """Design a scheme for a specification and draw fabricated instances.

    Runs the paper's design procedure (:mod:`repro.core.design`) for the
    requested scheme, then samples ``num_instances`` post-APR instances from
    the variation model as one batch.  ``variation=None`` fabricates ideal
    (mismatch-free) silicon: every instance is the nominal line.  (One-shot
    convenience over :class:`ChunkedFabricator`.)
    """
    fabricator = ChunkedFabricator(
        scheme, spec, variation=variation, library=library, backend=backend
    )
    return fabricator.fabricate(num_instances, first_instance=first_instance)


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
    """Everything one fused pipeline run produced, stage by stage.

    Attributes:
        scheme: ``"proposed"`` or ``"conventional"``.
        reference_v: the regulation target the fleet was closed on.
        calibration: per-instance lock outcomes (stage 2).
        curves: per-instance post-calibration transfer curves (stage 2).
        regulation: the fleet's per-period regulation history (stage 4).
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


class SiliconToRegulationPipeline:
    """Variation -> calibration -> DPWM -> regulation, one vectorized stack.

    Construction runs the silicon stages (fabricate, calibrate, convert);
    :meth:`run` closes the fleet and advances it.  All per-instance state
    lives in stacked arrays end to end: the variation batch, the closed-form
    ensemble lock, the ``(instances, words)`` duty-table matrix and the
    batch closed loop -- there is no per-instance Python loop anywhere.
    """

    def __init__(
        self,
        scheme: str,
        spec: DesignSpec,
        conditions: OperatingConditions | None = None,
        *,
        variation: VariationModel | None = None,
        num_instances: int = 256,
        nominal: BuckParameters | None = None,
        reference_v: float = 0.9,
        component_variation: ComponentVariation | None = None,
        load: LoadProfile | None = None,
        loads: Sequence[LoadProfile] | None = None,
        adc: WindowedADC | None = None,
        compensator: BatchCompensator | None = None,
        reference_profile: ReferenceProfile | None = None,
        source_profile: SourceProfile | None = None,
        library: TechnologyLibrary | None = None,
        first_instance: int = 0,
        backend: str | KernelBackend | None = None,
    ) -> None:
        """Fabricate, calibrate and convert the silicon for a fleet.

        Args:
            scheme: ``"proposed"`` or ``"conventional"``.
            spec: the delay-line design specification; its clock frequency is
                the fleet's switching frequency.
            conditions: PVT operating point of the silicon (typical corner by
                default).
            variation: post-APR mismatch model; ``None`` fabricates ideal
                silicon.
            num_instances: fabricated instances = fleet variants.
            nominal: nominal electrical parameters; defaults to the stock
                :class:`BuckParameters` switched at the spec's frequency.
            reference_v: regulation target.
            component_variation: optional per-chip spread of the electrical
                components (L, C, parasitics, input rail).
            load / loads / adc / compensator / reference_profile /
                source_profile: forwarded to :class:`BatchClosedLoop`.
            library: technology library shared by design and calibration.
            first_instance: index of the first fabricated instance (for
                sharding one Monte-Carlo population across runs).
            backend: kernel backend name or instance shared by every stage
                (``docs/backends.md``); defaults to the process-wide
                selection (:func:`repro.kernels.get_backend`).
        """
        self.library = library or intel32_like_library()
        self.kernels = (
            backend if isinstance(backend, KernelBackend) else get_backend(backend)
        )
        self.conditions = conditions or OperatingConditions.typical()
        self.spec = spec
        self.nominal = nominal = _resolve_nominal(nominal, spec)
        self.ensemble = fabricate_ensemble(
            scheme,
            spec,
            variation=variation,
            num_instances=num_instances,
            library=self.library,
            first_instance=first_instance,
            backend=self.kernels,
        )
        self.scheme = self.ensemble.scheme
        self.calibration = self.ensemble.lock(self.conditions)
        self.curves = self.ensemble.transfer_curves(
            self.conditions, calibration=self.calibration
        )
        self.quantizer = BatchQuantizer.from_ensemble(self.curves)
        if component_variation is None:
            self.parameters = BatchBuckParameters.uniform(nominal, num_instances)
        else:
            self.parameters = component_variation.sample_batch(
                nominal, num_instances
            )
        self.reference_v = reference_v
        self._loop_kwargs: dict[str, Any] = dict(
            adc=adc,
            compensator=compensator,
            load=load,
            loads=loads,
            reference_profile=reference_profile,
            source_profile=source_profile,
        )

    @property
    def num_instances(self) -> int:
        return self.ensemble.num_instances

    def build_loop(self) -> BatchClosedLoop:
        """A fresh fleet closed around the fabricated DPWMs."""
        return BatchClosedLoop(
            self.parameters,
            self.quantizer,
            reference_v=self.reference_v,
            backend=self.kernels,
            **self._loop_kwargs,
        )

    def run(self, periods: int = 300) -> PipelineResult:
        """Advance a fresh fleet and bundle all stages into one result."""
        regulation = self.build_loop().run(periods)
        return PipelineResult(
            scheme=self.scheme,
            reference_v=self.reference_v,
            calibration=self.calibration,
            curves=self.curves,
            regulation=regulation,
        )


class ChunkedSiliconToRegulation:
    """The pipeline's chunked entry point for streaming Monte-Carlo.

    :class:`SiliconToRegulationPipeline` fabricates its whole population in
    the constructor -- the right shape for a fixed-N run.  A streaming
    sampler (:mod:`repro.mc`) instead grows the population until a
    confidence target is met, so this variant runs the (deterministic)
    design procedure once and defers all fabrication to :meth:`run_chunk`,
    which takes an explicit instance range.  Chunk boundaries never change
    the sample stream:

    * the silicon mismatch of instance ``i`` comes from
      :meth:`VariationModel.sample`'s per-instance RNG stream, and
    * the electrical spread of instance ``i`` comes from
      :meth:`ComponentVariation.sample_instances`'s per-instance stream
      (*not* the one-shot :meth:`~ComponentVariation.sample_batch` stream
      the fixed-N pipeline draws -- the two paths are different, equally
      valid populations),

    so ``run_chunk(0, n)`` equals the concatenation of any chunking of
    ``[0, n)`` bit for bit -- hypothesis-tested in ``tests/test_pipeline.py``.
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
        backend: str | KernelBackend | None = None,
    ) -> None:
        self.fabricator = ChunkedFabricator(
            scheme, spec, variation=variation, library=library, backend=backend
        )
        self.kernels = self.fabricator.kernels
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
        instance).  ``temperature_trace`` makes the run non-isothermal: the
        run is split at the trace's epoch boundaries, the ensemble is
        re-locked at each epoch's temperature through the corner model (so
        the DPWM duty tables drift exactly as a static run at that
        temperature would) and the electricals are re-derated through
        ``thermal`` (default :class:`~repro.technology.thermal
        .ThermalDerating`), with exact closed-loop state carry-over across
        the boundaries -- an all-nominal-temperature trace reproduces the
        unsplit run bit for bit.
        """
        if thermal is not None and temperature_trace is None:
            raise ValueError("thermal derating requires a temperature_trace")
        if missions is None and temperature_trace is None:
            ensemble = self.fabricator.fabricate(
                num_instances, first_instance=first_instance
            )
            calibration = ensemble.lock(self.conditions)
            curves = ensemble.transfer_curves(
                self.conditions, calibration=calibration
            )
            quantizer = BatchQuantizer.from_ensemble(curves)
            parameters = self._chunk_parameters(num_instances, first_instance)
            loop = BatchClosedLoop(
                parameters,
                quantizer,
                reference_v=self.reference_v,
                load=self.load,
                backend=self.kernels,
            )
            return PipelineResult(
                scheme=ensemble.scheme,
                reference_v=self.reference_v,
                calibration=calibration,
                curves=curves,
                regulation=loop.run(periods),
            )
        return self._run_chunk_mission(
            first_instance,
            num_instances,
            periods,
            missions=missions,
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

    def _run_chunk_mission(
        self,
        first_instance: int,
        num_instances: int,
        periods: int,
        *,
        missions: MissionGenerator | Sequence[MissionProfile] | None,
        temperature_trace: TemperatureTrace | None,
        thermal: ThermalDerating | None,
    ) -> PipelineResult:
        """Mission / temperature-drift run: epoch-split with state carry-over.

        The run is cut at the temperature trace's epoch boundaries (one
        isothermal epoch when no trace is given).  Within each epoch the
        fleet advances under per-instance loads shifted to the epoch's
        start (:meth:`OffsetLoad.wrap <repro.converter.missions.OffsetLoad
        .wrap>`), so the concatenated history is the same sequence of load
        resistances -- and, with the compensator object and the converter
        state carried across the boundary, the same closed-loop trajectory
        -- as an unsplit run.
        """
        ensemble = self.fabricator.fabricate(
            num_instances, first_instance=first_instance
        )
        base_parameters = self._chunk_parameters(num_instances, first_instance)
        mission_list = (
            resolve_missions(missions, num_instances, first_instance)
            if missions is not None
            else None
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

        calibration: EnsembleCalibration | None = None
        curves: EnsembleTransferCurves | None = None
        pieces: list[BatchRegulationResult] = []
        compensator: BatchCompensator | None = None
        carried_voltage: npt.NDArray[np.float64] | None = None
        carried_current: npt.NDArray[np.float64] | None = None
        for start, end, temperature in epochs:
            conditions = (
                self.conditions.with_temperature(temperature)
                if temperature is not None
                else self.conditions
            )
            epoch_calibration = ensemble.lock(conditions)
            epoch_curves = ensemble.transfer_curves(
                conditions, calibration=epoch_calibration
            )
            quantizer = BatchQuantizer.from_ensemble(epoch_curves)
            if calibration is None or curves is None:
                calibration = epoch_calibration
                curves = epoch_curves
            parameters = (
                derating.derate(base_parameters, temperature)
                if derating is not None and temperature is not None
                else base_parameters
            )
            if mission_list is not None:
                loop = BatchClosedLoop(
                    parameters,
                    quantizer,
                    reference_v=self.reference_v,
                    compensator=compensator,
                    loads=[
                        OffsetLoad.wrap(mission, start)
                        for mission in mission_list
                    ],
                    start_at_reference=compensator is None,
                    backend=self.kernels,
                )
            else:
                loop = BatchClosedLoop(
                    parameters,
                    quantizer,
                    reference_v=self.reference_v,
                    compensator=compensator,
                    load=(
                        OffsetLoad.wrap(self.load, start)
                        if self.load is not None
                        else None
                    ),
                    start_at_reference=compensator is None,
                    backend=self.kernels,
                )
            if carried_voltage is not None and carried_current is not None:
                loop.output_voltage_v = carried_voltage
                loop.inductor_current_a = carried_current
            pieces.append(loop.run(end - start))
            compensator = loop.compensator
            carried_voltage = loop.output_voltage_v.copy()
            carried_current = loop.inductor_current_a.copy()

        if calibration is None or curves is None:  # pragma: no cover
            raise RuntimeError("temperature trace produced no epochs")
        regulation = BatchRegulationResult(
            switching_period_s=pieces[0].switching_period_s,
            output_voltages_v=np.concatenate(
                [piece.output_voltages_v for piece in pieces], axis=0
            ),
            inductor_currents_a=np.concatenate(
                [piece.inductor_currents_a for piece in pieces], axis=0
            ),
            duty_words=np.concatenate(
                [piece.duty_words for piece in pieces], axis=0
            ),
            duty_fractions=np.concatenate(
                [piece.duty_fractions for piece in pieces], axis=0
            ),
            error_codes=np.concatenate(
                [piece.error_codes for piece in pieces], axis=0
            ),
            load_resistances_ohm=np.concatenate(
                [piece.load_resistances_ohm for piece in pieces], axis=0
            ),
        )
        return PipelineResult(
            scheme=ensemble.scheme,
            reference_v=self.reference_v,
            calibration=calibration,
            curves=curves,
            regulation=regulation,
        )


def closed_loop_cell(
    scheme: str,
    *,
    frequency_mhz: float,
    seed: int,
    corner: str = "typical",
    resolution_bits: int = 6,
    reference_v: float = 0.9,
    num_instances: int = 256,
    periods: int = 300,
    linearity_spec: LinearitySpec | None = None,
    regulation_spec: RegulationSpec | None = None,
    load: LoadProfile | None = None,
    nominal: BuckParameters | None = None,
    library: TechnologyLibrary | None = None,
) -> ClosedLoopYieldResult:
    """One silicon-to-regulation sweep cell from scalar cell coordinates.

    This is the cell-sized entry point of the pipeline: everything that
    identifies the cell -- scheme, corner *name*, switching frequency, RNG
    seed -- is a JSON scalar, so a sweep grid can address, schedule and
    cache the cell, while the rich objects (operating conditions, seeded
    variation models, pass/fail specs) are reconstructed here, inside the
    worker.  Both the silicon mismatch draw and the per-chip component
    spread derive from ``seed``, making the cell a pure function of its
    arguments: serial, parallel and cached evaluations agree bit for bit.

    Returns the composed
    :class:`~repro.core.yield_analysis.ClosedLoopYieldResult`; callers
    flatten it into their payload schema.
    """
    from repro.core.yield_analysis import closed_loop_yield

    conditions = OperatingConditions(corner=ProcessCorner[corner.upper()])
    return closed_loop_yield(
        scheme,
        DesignSpec(
            clock_frequency_mhz=frequency_mhz, resolution_bits=resolution_bits
        ),
        conditions,
        nominal=nominal,
        reference_v=reference_v,
        variation=VariationModel(seed=seed),
        component_variation=ComponentVariation(seed=seed),
        num_instances=num_instances,
        periods=periods,
        linearity_spec=linearity_spec,
        regulation_spec=regulation_spec,
        load=load,
        library=library,
    )
