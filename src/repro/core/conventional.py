"""The conventional adjustable-cells delay line (paper section 3.2.1).

The conventional scheme keeps the *number* of delay cells fixed and tunes the
*delay of each cell*:

* every cell is a :class:`~repro.core.delay_cells.TunableDelayCell` with
  ``m`` branches of 1..m delay elements, selected through an internal
  multiplexer by a per-cell control word;
* a DLL-style controller (paper Figure 36) compares the clock edge against
  the last two taps and, while not locked, shifts a ``1`` into a large shift
  register; each shifted-in ``1`` raises the tuning level of exactly one cell
  by one element;
* the order in which cells receive the extra elements (the arrangement of
  control bits in the shift register, Figure 40) determines the linearity of
  the locked line (Figures 41-42): piling the extra delay onto the first
  cells is the worst case, spreading it across the line is the best.

The model mirrors the proposed scheme's API: analytical tap delays (with
optional post-APR mismatch), a cycle-accurate locking run producing
Figure-37-style traces, and a structural netlist for the area comparison of
Table 5.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.core.calibration import CalibrationResult, LockingStep, LockingTrace
from repro.core.delay_cells import TunableDelayCell
from repro.kernels import fabrication
from repro.technology.cells import CellKind
from repro.technology.corners import OperatingConditions
from repro.technology.library import TechnologyLibrary, intel32_like_library
from repro.technology.netlist import Netlist
from repro.technology.variation import VariationSample

__all__ = [
    "TuningOrder",
    "ConventionalDelayLineConfig",
    "ConventionalDelayLine",
    "ShiftRegisterController",
    "active_branch_delays_ps",
]


def active_branch_delays_ps(
    multipliers: np.ndarray, buffers_active: np.ndarray, unit_delay_ps: float
) -> np.ndarray:
    """Delay of the active branch of every cell, from per-buffer multipliers.

    The math lives in :func:`repro.kernels.fabrication.active_branch_delays`;
    the wrapper stays for the scalar line's callers and for backwards
    compatibility.
    ``multipliers`` is ``(..., cells, buffers)`` and ``buffers_active``
    ``(..., cells)``; leading batch axes broadcast, and the accumulation
    order is the same for every caller, so the scalar line and the ensemble
    engine are bit-identical by construction.
    """
    return fabrication.active_branch_delays(multipliers, buffers_active, unit_delay_ps)


class TuningOrder(enum.Enum):
    """Order in which shifted-in ones raise the cells' tuning levels.

    * ``SEQUENTIAL`` -- fill the first cell to its maximum, then the second,
      and so on (paper Figure 41, scenario 1: the worst case for linearity).
    * ``ROUND_ROBIN`` -- one extra element per cell across the whole line,
      then a second round, etc.; this is the ordering implied by the paper's
      shift-register arrangement (Figure 40: "the first bit for all cells
      followed by the second bit for all cells").
    * ``DISTRIBUTED`` -- spread the extra elements as evenly as possible over
      the line at every fill level (paper Figure 41, scenario 2 / the ideal
      half-low-half-high arrangement recommended in [30]).
    """

    SEQUENTIAL = "sequential"
    ROUND_ROBIN = "round_robin"
    DISTRIBUTED = "distributed"


@dataclass(frozen=True)
class ConventionalDelayLineConfig:
    """Parameters of a conventional adjustable-cells delay line.

    Attributes:
        num_cells: fixed number of tunable cells (= 2**resolution_bits).
        branches: branches per tunable cell (the adjustment ratio ``m``).
        buffers_per_element: buffers combined in one delay element.
        clock_period_ps: switching-clock period the line locks to.
        tuning_order: how shifted-in ones are distributed over the cells.
    """

    num_cells: int
    branches: int
    buffers_per_element: int
    clock_period_ps: float
    tuning_order: TuningOrder = TuningOrder.ROUND_ROBIN

    def __post_init__(self) -> None:
        if self.num_cells < 2:
            raise ValueError("num_cells must be >= 2")
        if self.branches < 2:
            raise ValueError("branches must be >= 2")
        if self.buffers_per_element < 1:
            raise ValueError("buffers_per_element must be >= 1")
        if self.clock_period_ps <= 0:
            raise ValueError("clock_period_ps must be positive")

    @property
    def resolution_bits(self) -> int:
        """Nominal resolution: log2(num_cells), rounded down."""
        return int(np.floor(np.log2(self.num_cells)))

    @property
    def control_bits_per_cell(self) -> int:
        """Control bits per cell (paper eq. 16: ceil(log2(m)))."""
        return int(np.ceil(np.log2(self.branches)))

    @property
    def shift_register_bits(self) -> int:
        """Size of the controller's shift register (paper eq. 17)."""
        return self.num_cells * self.control_bits_per_cell + 1

    @property
    def max_adjustment_steps(self) -> int:
        """Total tuning steps available (cells x (branches - 1))."""
        return self.num_cells * (self.branches - 1)

    @property
    def clock_frequency_mhz(self) -> float:
        return 1e6 / self.clock_period_ps


class ConventionalDelayLine:
    """Analytical + structural model of the conventional delay line."""

    def __init__(
        self,
        config: ConventionalDelayLineConfig,
        library: TechnologyLibrary | None = None,
        variation: VariationSample | None = None,
    ) -> None:
        self.config = config
        self.library = library or intel32_like_library()
        self.cell = TunableDelayCell(
            branches=config.branches,
            buffers_per_element=config.buffers_per_element,
        )
        if variation is not None:
            if variation.num_cells != config.num_cells:
                raise ValueError(
                    f"variation sample has {variation.num_cells} cells, "
                    f"line has {config.num_cells}"
                )
            longest_branch = config.branches * config.buffers_per_element
            if variation.buffers_per_cell < longest_branch:
                raise ValueError(
                    f"variation sample has {variation.buffers_per_cell} buffers "
                    f"per cell, the longest branch needs {longest_branch}"
                )
        self.variation = variation

    # ------------------------------------------------------------------ #
    # Tuning-level bookkeeping
    # ------------------------------------------------------------------ #
    def levels_for_steps(self, steps: int) -> np.ndarray:
        """Per-cell tuning levels after ``steps`` shifted-in ones.

        The distribution of the steps over the cells follows the configured
        :class:`TuningOrder`.  Levels are clamped to ``branches - 1``.
        """
        config = self.config
        steps = int(np.clip(steps, 0, config.max_adjustment_steps))
        levels = np.zeros(config.num_cells, dtype=int)
        if steps == 0:
            return levels
        if config.tuning_order is TuningOrder.SEQUENTIAL:
            full_cells, remainder = divmod(steps, config.branches - 1)
            levels[:full_cells] = config.branches - 1
            if full_cells < config.num_cells:
                levels[full_cells] = remainder
        elif config.tuning_order is TuningOrder.ROUND_ROBIN:
            rounds, remainder = divmod(steps, config.num_cells)
            levels[:] = rounds
            levels[:remainder] += 1
            np.clip(levels, 0, config.branches - 1, out=levels)
        else:  # DISTRIBUTED
            rounds, remainder = divmod(steps, config.num_cells)
            levels[:] = rounds
            if remainder:
                # Spread the remainder evenly over the line instead of
                # clustering it at the start.
                positions = np.linspace(
                    0, config.num_cells - 1, remainder, dtype=int
                )
                levels[positions] += 1
            np.clip(levels, 0, config.branches - 1, out=levels)
        return levels

    def cell_delays_ps(
        self, levels: np.ndarray, conditions: OperatingConditions
    ) -> np.ndarray:
        """Per-cell delay (ps) for a vector of tuning levels."""
        config = self.config
        levels = np.asarray(levels, dtype=int)
        if levels.shape != (config.num_cells,):
            raise ValueError(
                f"expected {config.num_cells} levels, got shape {levels.shape}"
            )
        if np.any(levels < 0) or np.any(levels >= config.branches):
            raise ValueError("tuning level out of range")
        unit = self.library.buffer_delay_ps(conditions)
        buffers_active = (levels + 1) * config.buffers_per_element
        if self.variation is None:
            return buffers_active.astype(float) * unit
        return active_branch_delays_ps(
            self.variation.multipliers, buffers_active, unit
        )

    def tap_delays_ps(
        self, levels: np.ndarray, conditions: OperatingConditions
    ) -> np.ndarray:
        """Cumulative tap delays for a vector of tuning levels."""
        return np.cumsum(self.cell_delays_ps(levels, conditions))

    def total_delay_ps(
        self, levels: np.ndarray, conditions: OperatingConditions
    ) -> float:
        return float(self.tap_delays_ps(levels, conditions)[-1])

    def min_total_delay_ps(self, conditions: OperatingConditions) -> float:
        """Line delay with every cell at its shortest branch."""
        levels = np.zeros(self.config.num_cells, dtype=int)
        return self.total_delay_ps(levels, conditions)

    def max_total_delay_ps(self, conditions: OperatingConditions) -> float:
        """Line delay with every cell at its longest branch."""
        levels = np.full(self.config.num_cells, self.config.branches - 1, dtype=int)
        return self.total_delay_ps(levels, conditions)

    def covers_clock_period(self, conditions: OperatingConditions) -> bool:
        """Whether the longest configuration reaches the clock period."""
        return self.max_total_delay_ps(conditions) >= self.config.clock_period_ps

    # ------------------------------------------------------------------ #
    # Duty-word to delay mapping (after calibration)
    # ------------------------------------------------------------------ #
    def output_delay_ps(
        self,
        duty_word: int,
        levels: np.ndarray,
        conditions: OperatingConditions,
    ) -> float:
        """Delay of the DPWM reset edge for a duty word.

        The conventional scheme selects tap ``duty_word`` directly (no
        mapping block); duty word 0 returns zero delay.
        """
        if not 0 <= duty_word <= self.config.num_cells - 1:
            raise ValueError(
                f"duty word {duty_word} out of range [0, {self.config.num_cells - 1}]"
            )
        if duty_word == 0:
            return 0.0
        taps = self.tap_delays_ps(levels, conditions)
        return float(taps[duty_word - 1])

    # ------------------------------------------------------------------ #
    # Structural view (synthesis substrate)
    # ------------------------------------------------------------------ #
    def netlist(self) -> Netlist:
        """Structural netlist of the whole scheme (paper Figure 32)."""
        config = self.config

        line = Netlist(name="Delay Line")
        per_cell_buffers = self.cell.buffer_count()
        line.add_cells(
            CellKind.BUFFER,
            config.num_cells * per_cell_buffers,
            purpose="delay elements (all branches)",
        )
        line.add_cells(
            CellKind.BUFFER, config.num_cells, purpose="tap output buffers"
        )
        line.add_cells(
            CellKind.MUX2,
            config.num_cells * (config.branches - 1),
            purpose="branch-select multiplexers",
        )
        line.add_cells(
            CellKind.AND2, config.num_cells * 3, purpose="branch decode / selector"
        )
        line.add_cells(CellKind.OR2, config.num_cells, purpose="branch decode")
        line.add_cells(CellKind.INVERTER, config.num_cells, purpose="branch decode")

        output_mux = Netlist(name="Output MUX")
        output_mux.add_cells(
            CellKind.MUX2, config.num_cells - 1, purpose="tap-select tree"
        )

        controller = Netlist(name="Controller")
        controller.add_cells(
            CellKind.DFF, config.shift_register_bits, purpose="control shift register"
        )
        controller.add_cells(CellKind.DFF, 2, purpose="metastability synchronizer")
        controller.add_cells(CellKind.XOR2, 2, purpose="lock detect (taps = 01)")
        controller.add_cells(CellKind.AND2, 2, purpose="shift enable")
        controller.add_cells(CellKind.INVERTER, 2, purpose="control glue")

        top = Netlist(name="Conventional delay line")
        for block in (line, output_mux, controller):
            top.add_child(block)
        return top


@dataclass
class ShiftRegisterController:
    """Cycle-accurate model of the conventional scheme's DLL controller.

    The controller starts with the shift register cleared (all cells at their
    shortest branch) and, while the clock edge does not fall between the last
    two taps, shifts a ``1`` into the register -- raising one cell's tuning
    level per update.  Updates happen every ``cycles_per_update`` clock
    cycles: the shift must propagate and the taps must be re-sampled through
    the two-flop synchronizer before the next comparison, which is why the
    conventional scheme calibrates more slowly than the proposed one (paper
    section 3.2.2 and Table 4 discussion).

    Attributes:
        line: the delay line under calibration.
        cycles_per_update: clock cycles per compare-and-shift step.
        synchronizer_latency_cycles: added once at the start of the run.
    """

    line: ConventionalDelayLine
    cycles_per_update: int = 2
    synchronizer_latency_cycles: int = 2

    def lock(self, conditions: OperatingConditions) -> CalibrationResult:
        """Run the locking phase from reset and return the calibration result."""
        config = self.line.config
        period = config.clock_period_ps
        trace = LockingTrace(scheme="conventional", clock_period_ps=period)

        steps = 0
        locked = False
        up_limit = False
        lock_cycle: int | None = None

        while True:
            levels = self.line.levels_for_steps(steps)
            taps = self.line.tap_delays_ps(levels, conditions)
            total = float(taps[-1])
            last_but_one = float(taps[-2]) if config.num_cells >= 2 else 0.0
            # Lock condition (paper Figure 37): the clock edge falls between
            # the last two taps, i.e. taps sample as "01".
            locked = last_but_one < period <= total
            cycle = (
                self.synchronizer_latency_cycles + steps * self.cycles_per_update
            )
            comparison = 1 if total >= period else 0
            trace.append(
                LockingStep(
                    cycle=cycle,
                    control_state=steps,
                    line_delay_ps=total,
                    comparison=comparison,
                    locked=locked,
                )
            )
            if locked:
                lock_cycle = cycle
                break
            if total >= period:
                # Over-long already (deep slow corner): increasing the delay
                # further cannot help; the controller stops at the current
                # setting and reports the residual error.
                break
            if steps >= config.max_adjustment_steps:
                up_limit = True
                break
            steps += 1

        levels = self.line.levels_for_steps(steps)
        total = self.line.total_delay_ps(levels, conditions)
        cycles = (
            lock_cycle
            if lock_cycle is not None
            else self.synchronizer_latency_cycles + steps * self.cycles_per_update
        )
        return CalibrationResult(
            scheme="conventional",
            locked=locked and not up_limit,
            lock_cycles=cycles,
            control_state=steps,
            locked_delay_ps=total,
            target_ps=period,
            residual_error_ps=total - period,
            trace=trace,
        )
