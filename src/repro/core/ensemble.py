"""Vectorized ensemble engine for the delay-line core.

The paper's linearity claims (Figures 41-42 and 50-51) are population
statements: how linear is a *fabricated* delay line, across corners and
post-APR mismatch?  The scalar models answer that one instance, one word and
one lock cycle at a time.  This module answers it for whole ensembles: a
:class:`DelayLineEnsemble` holds a stack of variation samples (one fabricated
instance per slice) and computes per-cell delay matrices, cumulative tap
delays, calibration locks and full ``(instances, words)`` transfer-curve
matrices in vectorized numpy, with no per-word, per-cell or per-instance
Python loops.

Batch calibration is **closed-form**, not simulated:

* Proposed scheme -- the cycle-accurate :class:`ProposedController` walks
  ``tap_sel`` one step per cycle and declares lock on the first up/down
  toggle.  Because the tap delays are a strictly increasing sequence (every
  cell delay is positive), that walk has a unique fixed point: the number of
  taps whose cumulative delay does not exceed half the clock period.  With
  ``count = #{k : tap_delay[k] <= T/2}`` the scalar run provably ends with
  ``control_state = clip(count, 1, N)``, ``locked = 1 <= count <= N - 1``
  (``count = 0`` saturates at the bottom of the line, ``count = N`` at the
  top) and ``lock_cycles = clip(count, 1, N) + synchronizer latency``.  The
  batch lock evaluates that closed form for every instance at once; the
  cycle-accurate loop is kept for the Figure 47-48 locking traces.
* Conventional scheme -- the shift-register controller raises the line's
  tuning level one step per update and stops at the first step whose total
  line delay reaches the clock period.  The tuning-level *schedule* (which
  cell is at which level after ``s`` steps) depends only on the
  configuration, so the ensemble evaluates a step's total delay for every
  instance with one gather into per-buffer prefix sums and bisects each
  instance's first crossing over the steps.  The bisection is exact
  because a step's total never decreases as the step grows: the schedule
  raises no cell's level back down (sequential and round-robin orders),
  the multipliers are clipped to at least 0.2 so a longer branch is never
  faster, and IEEE addition of non-negative terms is monotone.  It needs
  ``ceil(log2(steps + 1))`` probes of one ``(instances, cells)`` tap
  matrix each, never the whole ``(instances, steps, cells)`` tensor.  The
  distributed order places its remainder non-nested, so some cell drops
  a level on the way; its lock scans the steps in order instead.  Either
  way the result is the exact step the scalar
  :class:`ShiftRegisterController` halts on, including the
  saturated-at-maximum (``up_limit``) and already-over-long edge cases.

Both locks and the transfer curves are bit-identical to the scalar paths
because they share the same accumulation order (cumulative sums along the
same axes); ``tests/test_core_ensemble.py`` asserts the equivalence
property-based, and ``benchmarks/test_bench_linearity_engine.py`` gates the
speedup.

The lock and the curves read the same reduction of the multiplier stack
along its buffer axis: the proposed scheme's tap matrix, the conventional
scheme's branch prefix sums.  :meth:`DelayLineEnsemble.calibrate` -- the
calibration step of the pipeline and the yield estimators -- builds it
once and hands it to both, and drops it when they return; a bare
:meth:`~ProposedEnsemble.lock` or ``transfer_curves`` call builds its own.
The conventional tuning-level schedule depends only on the frozen
configuration, so every ensemble of one configuration shares one
read-only copy.

Example -- fabricate four post-APR instances of the designed 100 MHz
proposed line, lock them closed-form at the slow corner and extract every
transfer curve in one pass:

    >>> from repro.core.design import DesignSpec, design_proposed
    >>> from repro.core.ensemble import ProposedEnsemble
    >>> from repro.technology.corners import OperatingConditions
    >>> from repro.technology.variation import VariationModel
    >>> design = design_proposed(
    ...     DesignSpec(clock_frequency_mhz=100.0, resolution_bits=6))
    >>> ensemble = ProposedEnsemble.sample(
    ...     design.build_line().config, 4, VariationModel(seed=7))
    >>> calibration = ensemble.lock(OperatingConditions.slow())
    >>> calibration.locked
    array([ True,  True,  True,  True])
    >>> curves = ensemble.transfer_curves(
    ...     OperatingConditions.slow(), calibration=calibration)
    >>> curves.delays_ps.shape
    (4, 255)
    >>> curves.metrics().monotonic
    array([ True,  True,  True,  True])

``calibrate`` is the same lock and sweep from one shared tap matrix:

    >>> _, shared_curves = ensemble.calibrate(OperatingConditions.slow())
    >>> bool((shared_curves.delays_ps == curves.delays_ps).all())
    True
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.analysis.metrics import BatchLinearityMetrics, batch_linearity_metrics
from repro.core.calibration import CalibrationResult, LockingTrace
from repro.core.conventional import (
    ConventionalDelayLine,
    ConventionalDelayLineConfig,
)
from repro.core.mapper import MappingBlock
from repro.core.proposed import ProposedDelayLine, ProposedDelayLineConfig
from repro.kernels.ensemble import (
    conventional_lock,
    proposed_lock,
    proposed_transfer_delays,
)
from repro.kernels.fabrication import (
    branch_delays_from_prefix,
    branch_prefix_sums,
    cell_delays_from_multipliers,
)
from repro.technology.corners import OperatingConditions
from repro.technology.library import TechnologyLibrary, intel32_like_library
from repro.technology.variation import BatchVariationSample, VariationModel

if TYPE_CHECKING:  # pragma: no cover - runtime import stays lazy (cycle guard)
    from repro.core.linearity import TransferCurve

__all__ = [
    "ConventionalEnsemble",
    "DelayLineEnsemble",
    "EnsembleCalibration",
    "EnsembleTransferCurves",
    "ProposedEnsemble",
]


@dataclass(frozen=True)
class EnsembleCalibration:
    """Batch calibration outcome: one lock result per ensemble instance.

    Attributes:
        scheme: ``"proposed"`` or ``"conventional"``.
        control_state: per-instance locked controller state (``tap_sel`` for
            the proposed scheme, shifted-in ones for the conventional one).
        locked: per-instance valid-lock flags.
        lock_cycles: per-instance clock cycles from reset to lock (or to the
            end of the run when no lock was achieved).
        locked_delay_ps: per-instance delay of the locked tap / line.
        target_ps: the reference interval (clock period for the conventional
            scheme, half of it for the proposed scheme).
    """

    scheme: str
    control_state: np.ndarray
    locked: np.ndarray
    lock_cycles: np.ndarray
    locked_delay_ps: np.ndarray
    target_ps: float

    @property
    def num_instances(self) -> int:
        return int(self.control_state.shape[0])

    @property
    def residual_error_ps(self) -> np.ndarray:
        """Per-instance ``locked_delay - target`` (positive on overshoot)."""
        return self.locked_delay_ps - self.target_ps

    @property
    def clock_period_ps(self) -> float:
        """The switching period (the proposed scheme locks to half of it)."""
        return 2.0 * self.target_ps if self.scheme == "proposed" else self.target_ps

    def result(self, index: int) -> CalibrationResult:
        """One instance's outcome as a scalar :class:`CalibrationResult`.

        The trace is empty: the closed-form lock jumps straight to the fixed
        point instead of replaying the cycle-by-cycle walk (use the scalar
        controllers for Figure 47-48 style traces).
        """
        locked_delay = float(self.locked_delay_ps[index])
        return CalibrationResult(
            scheme=self.scheme,
            locked=bool(self.locked[index]),
            lock_cycles=int(self.lock_cycles[index]),
            control_state=int(self.control_state[index]),
            locked_delay_ps=locked_delay,
            target_ps=self.target_ps,
            residual_error_ps=locked_delay - self.target_ps,
            trace=LockingTrace(
                scheme=self.scheme, clock_period_ps=self.clock_period_ps
            ),
        )


@dataclass(frozen=True)
class EnsembleTransferCurves:
    """A stack of post-calibration transfer curves, one row per instance.

    Attributes:
        scheme: ``"proposed"`` or ``"conventional"``.
        input_words: the swept duty words (shared by all instances).
        delays_ps: ``(instances, words)`` reset-edge delay matrix.
        ideal_delays_ps: the ideal straight line (shared by all instances).
        clock_period_ps: switching period used for the ideal line.
    """

    scheme: str
    input_words: np.ndarray
    delays_ps: np.ndarray
    ideal_delays_ps: np.ndarray
    clock_period_ps: float

    @property
    def num_instances(self) -> int:
        return int(self.delays_ps.shape[0])

    def metrics(self) -> BatchLinearityMetrics:
        """Per-instance DNL/INL/monotonicity metrics, each computed when read."""
        return batch_linearity_metrics(self.delays_ps)

    def max_error_ps(self) -> np.ndarray:
        """Per-instance worst-case absolute deviation from the ideal line."""
        return np.max(np.abs(self.delays_ps - self.ideal_delays_ps), axis=1)

    def max_error_fraction_of_period(self) -> np.ndarray:
        """Per-instance worst-case deviation as a fraction of the period."""
        return self.max_error_ps() / self.clock_period_ps

    def curve(self, index: int) -> "TransferCurve":
        """One instance's row as a scalar :class:`TransferCurve` view."""
        from repro.core.linearity import TransferCurve

        return TransferCurve(
            scheme=self.scheme,
            input_words=self.input_words,
            delays_ps=self.delays_ps[index],
            ideal_delays_ps=self.ideal_delays_ps,
            clock_period_ps=self.clock_period_ps,
        )


class DelayLineEnsemble:
    """Shared machinery of the scheme-specific ensembles.

    An ensemble is a configuration plus a stack of variation samples; the
    ideal (no-mismatch) ensemble is represented by ``batch=None`` and a
    chosen instance count, in which case every instance is the nominal line.
    """

    scheme: str = ""

    def __init__(
        self,
        num_cells: int,
        buffers_per_cell: int,
        library: TechnologyLibrary | None,
        batch: BatchVariationSample | None,
        num_instances: int | None,
    ) -> None:
        self.library = library or intel32_like_library()
        if batch is not None:
            expected = (num_cells, buffers_per_cell)
            actual = (batch.num_cells, batch.buffers_per_cell)
            if actual != expected:
                raise ValueError(
                    f"variation batch shape {actual} does not match the "
                    f"line's (num_cells, buffers_per_cell) = {expected}"
                )
            if num_instances is not None and num_instances != batch.num_instances:
                raise ValueError(
                    f"num_instances={num_instances} conflicts with a batch of "
                    f"{batch.num_instances} instances"
                )
        self.batch = batch
        self._num_instances = (
            batch.num_instances if batch is not None else (num_instances or 1)
        )

    @property
    def num_instances(self) -> int:
        return self._num_instances

    def unit_delay_ps(self, conditions: OperatingConditions) -> float:
        """Nominal per-buffer delay at the operating point."""
        return self.library.buffer_delay_ps(conditions)

    def calibrate(
        self, conditions: OperatingConditions
    ) -> tuple[EnsembleCalibration, EnsembleTransferCurves]:
        """Lock every instance and sweep its transfer curve at ``conditions``.

        Equal to ``lock(conditions)`` followed by
        ``transfer_curves(conditions, calibration=...)``, but both read one
        reduction of the multipliers along the buffer axis, built here and
        released on return.
        """
        raise NotImplementedError


class ProposedEnsemble(DelayLineEnsemble):
    """Vectorized ensemble of proposed-scheme delay lines."""

    scheme = "proposed"

    #: Controller timing (matches ProposedController's default).
    synchronizer_latency_cycles = 2

    def __init__(
        self,
        config: ProposedDelayLineConfig,
        library: TechnologyLibrary | None = None,
        batch: BatchVariationSample | None = None,
        num_instances: int | None = None,
    ) -> None:
        super().__init__(
            config.num_cells,
            config.buffers_per_cell,
            library,
            batch,
            num_instances,
        )
        self.config = config
        # The transfer curves apply the mapper's eq.-18 multiply/shift/clamp
        # as one vectorized integer expression over (instances, words); its
        # constants come from the hardware model itself.
        self.mapper = MappingBlock(num_cells=config.num_cells)

    @classmethod
    def sample(
        cls,
        config: ProposedDelayLineConfig,
        num_instances: int,
        model: VariationModel,
        library: TechnologyLibrary | None = None,
        first_instance: int = 0,
    ) -> "ProposedEnsemble":
        """Draw an ensemble of fabricated instances from a variation model."""
        batch = model.sample_batch(
            num_instances,
            config.num_cells,
            config.buffers_per_cell,
            first_instance=first_instance,
        )
        return cls(config, library=library, batch=batch)

    @classmethod
    def from_line(cls, line: ProposedDelayLine) -> "ProposedEnsemble":
        """A single-instance ensemble sharing one scalar line's sample."""
        batch = None
        if line.variation is not None:
            batch = BatchVariationSample(
                multipliers=line.variation.multipliers[np.newaxis]
            )
        return cls(line.config, library=line.library, batch=batch)

    def line(self, index: int) -> ProposedDelayLine:
        """One instance as a scalar :class:`ProposedDelayLine` view."""
        variation = self.batch.instance(index) if self.batch is not None else None
        return ProposedDelayLine(self.config, library=self.library, variation=variation)

    def cell_delays_ps(self, conditions: OperatingConditions) -> np.ndarray:
        """``(instances, num_cells)`` per-cell delay matrix."""
        unit = self.unit_delay_ps(conditions)
        if self.batch is None:
            nominal = unit * self.config.buffers_per_cell
            return np.full((self.num_instances, self.config.num_cells), nominal)
        return cell_delays_from_multipliers(self.batch.multipliers, unit)

    def tap_delays_ps(self, conditions: OperatingConditions) -> np.ndarray:
        """``(instances, num_cells)`` cumulative tap-delay matrix."""
        return np.cumsum(self.cell_delays_ps(conditions), axis=1)

    def calibrate(
        self, conditions: OperatingConditions
    ) -> tuple[EnsembleCalibration, EnsembleTransferCurves]:
        """Lock and sweep every instance from one tap matrix (see the base)."""
        taps = self.tap_delays_ps(conditions)
        calibration = self.lock(conditions, taps=taps)
        curves = self.transfer_curves(conditions, calibration=calibration, taps=taps)
        return calibration, curves

    def lock(
        self, conditions: OperatingConditions, taps: np.ndarray | None = None
    ) -> EnsembleCalibration:
        """Closed-form batch lock of every instance (see the module docstring).

        ``taps`` is this ensemble's :meth:`tap_delays_ps` at ``conditions``
        when the caller already holds it; it is built here otherwise.
        """
        config = self.config
        if taps is None:
            taps = self.tap_delays_ps(conditions)
        half = config.clock_period_ps / 2.0
        # Tap delays increase strictly along the line, so the count of taps
        # at or below the half period is the fixed point the scalar up/down
        # walk dithers around (see repro.kernels.ensemble.proposed_lock).
        control, locked, locked_delay = proposed_lock(taps, half, config.num_cells)
        lock_cycles = control + self.synchronizer_latency_cycles
        return EnsembleCalibration(
            scheme=self.scheme,
            control_state=control,
            locked=locked,
            lock_cycles=lock_cycles,
            locked_delay_ps=locked_delay,
            target_ps=half,
        )

    def transfer_curves(
        self,
        conditions: OperatingConditions,
        calibration: EnsembleCalibration | None = None,
        tap_sel: np.ndarray | None = None,
        taps: np.ndarray | None = None,
    ) -> EnsembleTransferCurves:
        """``(instances, words)`` post-calibration transfer-curve matrix.

        Args:
            conditions: PVT operating point.
            calibration: a previous :meth:`lock` result to reuse.
            tap_sel: explicit per-instance locked cell counts (overrides
                ``calibration``); calibrated on the fly when both are omitted.
            taps: this ensemble's :meth:`tap_delays_ps` at ``conditions``,
                when the caller already holds it.
        """
        if taps is None:
            taps = self.tap_delays_ps(conditions)
        if tap_sel is None:
            if calibration is None:
                calibration = self.lock(conditions, taps=taps)
            tap_sel = calibration.control_state
        tap_sel = np.asarray(tap_sel, dtype=int)
        if tap_sel.shape != (self.num_instances,):
            raise ValueError(
                f"expected {self.num_instances} tap_sel values, got {tap_sel.shape}"
            )
        if np.any(tap_sel < 1) or np.any(tap_sel > self.config.num_cells):
            raise ValueError("tap_sel out of range [1, num_cells]")
        words = np.arange(1, self.mapper.max_word + 1)
        # The mapping block, vectorized over (instances, words): integer
        # multiply, right shift, clamp to the last tap.
        delays = proposed_transfer_delays(
            taps, tap_sel, words, self.mapper.shift_amount, self.config.num_cells
        )
        period = self.config.clock_period_ps
        ideal = words / float(self.mapper.max_word + 1) * period
        return EnsembleTransferCurves(
            scheme=self.scheme,
            input_words=words,
            delays_ps=delays,
            ideal_delays_ps=ideal,
            clock_period_ps=period,
        )


class ConventionalEnsemble(DelayLineEnsemble):
    """Vectorized ensemble of conventional adjustable-cells delay lines."""

    scheme = "conventional"

    #: Controller timing (matches ShiftRegisterController's defaults).
    cycles_per_update = 2
    synchronizer_latency_cycles = 2

    def __init__(
        self,
        config: ConventionalDelayLineConfig,
        library: TechnologyLibrary | None = None,
        batch: BatchVariationSample | None = None,
        num_instances: int | None = None,
    ) -> None:
        longest_branch = config.branches * config.buffers_per_element
        if batch is not None and batch.buffers_per_cell > longest_branch:
            # Like the scalar line, accept samples wider than the longest
            # branch: only the first ``longest_branch`` buffers of a cell are
            # ever active, so the extra columns are dead weight.
            batch = BatchVariationSample(
                multipliers=batch.multipliers[:, :, :longest_branch]
            )
        super().__init__(
            config.num_cells,
            longest_branch,
            library,
            batch,
            num_instances,
        )
        self.config = config

    @classmethod
    def sample(
        cls,
        config: ConventionalDelayLineConfig,
        num_instances: int,
        model: VariationModel,
        library: TechnologyLibrary | None = None,
        first_instance: int = 0,
    ) -> "ConventionalEnsemble":
        """Draw an ensemble of fabricated instances from a variation model.

        The sample spans the longest branch of every cell
        (``branches * buffers_per_element`` buffers), like the scalar
        experiments do.
        """
        batch = model.sample_batch(
            num_instances,
            config.num_cells,
            config.branches * config.buffers_per_element,
            first_instance=first_instance,
        )
        return cls(config, library=library, batch=batch)

    @classmethod
    def from_line(cls, line: ConventionalDelayLine) -> "ConventionalEnsemble":
        """A single-instance ensemble sharing one scalar line's sample."""
        batch = None
        if line.variation is not None:
            batch = BatchVariationSample(
                multipliers=line.variation.multipliers[np.newaxis]
            )
        return cls(line.config, library=line.library, batch=batch)

    def line(self, index: int) -> ConventionalDelayLine:
        """One instance as a scalar :class:`ConventionalDelayLine` view."""
        variation = self.batch.instance(index) if self.batch is not None else None
        return ConventionalDelayLine(
            self.config, library=self.library, variation=variation
        )

    def levels_schedule(self) -> np.ndarray:
        """Tuning levels after every step: ``(max_steps + 1, num_cells)``.

        The schedule depends only on the frozen configuration, never on the
        variation, so every ensemble of one configuration shares one
        read-only copy (see :func:`_tuning_schedule`).
        """
        return _tuning_schedule(self.config)[0]

    def prefix_sums(self) -> np.ndarray:
        """``(instances, num_cells, longest_branch)`` branch prefix sums.

        The unit-free running sum of every cell's multipliers along its
        longest branch (:func:`~repro.kernels.fabrication.branch_prefix_sums`;
        ``1, 2, 3, ...`` on the nominal line).  The lock and the transfer
        curves gather each active branch's delay from it at any operating
        point.
        """
        if self.batch is None:
            # The nominal line: every multiplier is one, so the prefix sum of
            # the first k buffers is exactly k.
            longest_branch = self.config.branches * self.config.buffers_per_element
            return np.broadcast_to(
                np.arange(1.0, longest_branch + 1.0),
                (self.num_instances, self.config.num_cells, longest_branch),
            )
        return branch_prefix_sums(self.batch.multipliers)

    def cell_delays_ps(
        self,
        levels: np.ndarray,
        conditions: OperatingConditions,
        prefix_sums: np.ndarray | None = None,
    ) -> np.ndarray:
        """Per-cell delay matrix for per-instance tuning levels.

        ``levels`` may be one shared ``(num_cells,)`` vector or a per-instance
        ``(instances, num_cells)`` matrix; the result is always
        ``(instances, num_cells)``.  ``prefix_sums`` is this ensemble's
        :meth:`prefix_sums` when the caller already holds it.
        """
        config = self.config
        levels = np.asarray(levels, dtype=int)
        if levels.ndim == 1:
            levels = np.broadcast_to(levels, (self.num_instances, config.num_cells))
        if levels.shape != (self.num_instances, config.num_cells):
            raise ValueError(
                f"expected levels of shape ({self.num_instances}, "
                f"{config.num_cells}), got {levels.shape}"
            )
        if np.any(levels < 0) or np.any(levels >= config.branches):
            raise ValueError("tuning level out of range")
        if prefix_sums is None:
            prefix_sums = self.prefix_sums()
        return branch_delays_from_prefix(
            prefix_sums,
            (levels + 1) * config.buffers_per_element,
            self.unit_delay_ps(conditions),
        )

    def tap_delays_ps(
        self,
        levels: np.ndarray,
        conditions: OperatingConditions,
        prefix_sums: np.ndarray | None = None,
    ) -> np.ndarray:
        """Cumulative tap-delay matrix for per-instance tuning levels."""
        delays = self.cell_delays_ps(levels, conditions, prefix_sums)
        return np.cumsum(delays, axis=1)

    def calibrate(
        self, conditions: OperatingConditions
    ) -> tuple[EnsembleCalibration, EnsembleTransferCurves]:
        """Lock and sweep every instance from one prefix-sum stack (see the base)."""
        prefix_sums = self.prefix_sums()
        calibration = self.lock(conditions, prefix_sums=prefix_sums)
        curves = self.transfer_curves(
            conditions, calibration=calibration, prefix_sums=prefix_sums
        )
        return calibration, curves

    def lock(
        self,
        conditions: OperatingConditions,
        prefix_sums: np.ndarray | None = None,
    ) -> EnsembleCalibration:
        """Batch first-crossing lock of every instance (see module docstring).

        ``prefix_sums`` is this ensemble's :meth:`prefix_sums` when the
        caller already holds it; it is built here otherwise.
        """
        config = self.config
        period = config.clock_period_ps
        unit = self.unit_delay_ps(conditions)
        if prefix_sums is None:
            prefix_sums = self.prefix_sums()
        # The controller halts at the first step whose total reaches the
        # period; when none does it saturates at the maximum step (up_limit).
        steps, locked, total_at_stop = conventional_lock(
            prefix_sums,
            _tuning_schedule(config)[1],
            unit,
            period,
            config.max_adjustment_steps,
        )
        lock_cycles = (
            self.synchronizer_latency_cycles + steps * self.cycles_per_update
        )
        return EnsembleCalibration(
            scheme=self.scheme,
            control_state=steps,
            locked=locked,
            lock_cycles=lock_cycles,
            locked_delay_ps=total_at_stop,
            target_ps=period,
        )

    def transfer_curves(
        self,
        conditions: OperatingConditions,
        calibration: EnsembleCalibration | None = None,
        levels: np.ndarray | None = None,
        prefix_sums: np.ndarray | None = None,
    ) -> EnsembleTransferCurves:
        """``(instances, words)`` post-calibration transfer-curve matrix.

        Args:
            conditions: PVT operating point.
            calibration: a previous :meth:`lock` result to reuse.
            levels: explicit tuning levels, shared ``(num_cells,)`` or
                per-instance ``(instances, num_cells)`` (overrides
                ``calibration``); calibrated on the fly when both are omitted.
            prefix_sums: this ensemble's :meth:`prefix_sums`, when the
                caller already holds it.
        """
        if prefix_sums is None:
            prefix_sums = self.prefix_sums()
        if levels is None:
            if calibration is None:
                calibration = self.lock(conditions, prefix_sums=prefix_sums)
            levels = self.levels_schedule()[calibration.control_state]
        taps = self.tap_delays_ps(levels, conditions, prefix_sums)
        words = np.arange(1, self.config.num_cells)
        delays = taps[:, words - 1]
        period = self.config.clock_period_ps
        ideal = words / float(self.config.num_cells) * period
        return EnsembleTransferCurves(
            scheme=self.scheme,
            input_words=words,
            delays_ps=delays,
            ideal_delays_ps=ideal,
            clock_period_ps=period,
        )


@functools.lru_cache(maxsize=8)
def _tuning_schedule(
    config: ConventionalDelayLineConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Read-only tuning levels and active buffers after every step.

    Both are ``(max_adjustment_steps + 1, num_cells)``.  The levels come
    from the scalar line's own bookkeeping,
    :meth:`~repro.core.conventional.ConventionalDelayLine.levels_for_steps`
    (including the distributed order's non-nested remainder placement),
    which reads nothing but the frozen configuration; so they are built
    once per configuration and shared by every ensemble of it.
    """
    line = ConventionalDelayLine(config)
    levels = np.stack(
        [line.levels_for_steps(s) for s in range(config.max_adjustment_steps + 1)]
    )
    buffers_active = (levels + 1) * config.buffers_per_element
    levels.setflags(write=False)
    buffers_active.setflags(write=False)
    return levels, buffers_active
