"""Behavioural logic primitives.

These components are the behavioural equivalents of the standard cells the
paper's RTL elaborates to.  Each component connects to
:class:`~repro.simulation.signals.Signal` objects and reacts to their changes
through the event kernel, so structural compositions (a chain of buffers, a
flip-flop sampling an asynchronous tap, ...) behave like their HDL
counterparts at the timing granularity the paper works at.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.simulation.signals import Signal
from repro.simulation.simulator import Simulator

__all__ = [
    "Buffer",
    "MuxN",
    "DFlipFlop",
    "SetResetFlop",
    "Counter",
    "Comparator",
    "TwoFlopSynchronizer",
]


class Buffer:
    """A non-inverting buffer with transport delay.

    This is the delay element of both delay-line schemes (the paper's delay
    element is two cascaded inverters, i.e. exactly a buffer).
    """

    def __init__(
        self, simulator: Simulator, input_signal: Signal, output_signal: Signal, delay_ps: float
    ) -> None:
        if delay_ps < 0:
            raise ValueError("buffer delay must be non-negative")
        self.simulator = simulator
        self.input_signal = input_signal
        self.output_signal = output_signal
        self.delay_ps = delay_ps
        input_signal.connect(self._on_input)

    def _on_input(self, signal: Signal) -> None:
        value = signal.value
        self.output_signal.schedule_set(value, self.delay_ps)


class MuxN:
    """An N:1 multiplexer whose select input is an integer bus signal.

    The tap-selection multiplexers of both delay-line schemes are modelled
    with this component; its area is accounted for structurally (as a tree of
    2:1 muxes) by the netlist builders, while the behavioural view here keeps
    a single lumped propagation delay.
    """

    def __init__(
        self,
        simulator: Simulator,
        inputs: Sequence[Signal],
        select: Signal,
        output_signal: Signal,
        delay_ps: float = 0.0,
    ) -> None:
        if not inputs:
            raise ValueError("MuxN requires at least one input")
        self.simulator = simulator
        self.inputs = list(inputs)
        self.select = select
        self.output_signal = output_signal
        self.delay_ps = delay_ps
        select.connect(self._update)
        for signal in self.inputs:
            signal.connect(self._update)
        self._update(select)

    def _selected(self) -> Signal:
        index = min(max(self.select.value, 0), len(self.inputs) - 1)
        return self.inputs[index]

    def _update(self, signal: Signal) -> None:
        source = self._selected()
        # Changes on non-selected inputs must not propagate.
        if signal is not self.select and signal is not source:
            return
        if self.delay_ps > 0:
            self.output_signal.schedule_set(source.value, self.delay_ps)
        else:
            self.output_signal.set(source.value)


class DFlipFlop:
    """A positive-edge-triggered D flip-flop with a setup-time check.

    The controllers in both schemes sample asynchronous delay-line taps with
    flip-flops, which is why the paper spends a section on metastability and
    adds two-flop synchronizers.  The behavioural model flags a *setup
    violation* whenever the D input changed within ``setup_ps`` before the
    sampling clock edge; if a ``metastability_rng`` is supplied the sampled
    value is then resolved randomly (modelling the unpredictable resolution),
    otherwise the newest value wins deterministically.
    """

    def __init__(
        self,
        simulator: Simulator,
        clock: Signal,
        data: Signal,
        output_signal: Signal,
        clk_to_q_ps: float = 0.0,
        setup_ps: float = 0.0,
        metastability_rng: random.Random | None = None,
    ) -> None:
        self.simulator = simulator
        self.clock = clock
        self.data = data
        self.output_signal = output_signal
        self.clk_to_q_ps = clk_to_q_ps
        self.setup_ps = setup_ps
        self.metastability_rng = metastability_rng
        self.setup_violations = 0
        self._last_data_change_ps = simulator.now_ps
        self._previous_clock = clock.value
        clock.connect(self._on_clock)
        data.connect(self._on_data)

    def _on_data(self, _signal: Signal) -> None:
        self._last_data_change_ps = self.simulator.now_ps

    def _on_clock(self, signal: Signal) -> None:
        rising = self._previous_clock == 0 and signal.value != 0
        self._previous_clock = signal.value
        if not rising:
            return
        sampled = self.data.value
        if (
            self.setup_ps > 0
            and self.simulator.now_ps - self._last_data_change_ps < self.setup_ps
        ):
            self.setup_violations += 1
            if self.metastability_rng is not None:
                sampled = self.metastability_rng.randint(0, 1)
        if self.clk_to_q_ps > 0:
            self.output_signal.schedule_set(sampled, self.clk_to_q_ps)
        else:
            self.output_signal.set(sampled)


class SetResetFlop:
    """The trailing-edge modulation flop (paper Figure 16).

    The output goes high on the rising edge of ``set_signal`` (the switching
    clock, since ``D`` is tied to Vdd) and low on the rising edge of
    ``reset_signal`` (the delayed/compared pulse).  Both inputs are treated
    edge-triggered, matching the paper's timing diagrams where the output is
    re-set at every period start even while the (delayed-clock) reset line is
    still high.
    """

    def __init__(
        self,
        simulator: Simulator,
        set_signal: Signal,
        reset_signal: Signal,
        output_signal: Signal,
        delay_ps: float = 0.0,
    ) -> None:
        self.simulator = simulator
        self.set_signal = set_signal
        self.reset_signal = reset_signal
        self.output_signal = output_signal
        self.delay_ps = delay_ps
        self._previous_set = set_signal.value
        self._previous_reset = reset_signal.value
        set_signal.connect(self._on_set)
        reset_signal.connect(self._on_reset)

    def _drive(self, value: int) -> None:
        if self.delay_ps > 0:
            self.output_signal.schedule_set(value, self.delay_ps)
        else:
            self.output_signal.set(value)

    def _on_set(self, signal: Signal) -> None:
        rising = self._previous_set == 0 and signal.value != 0
        self._previous_set = signal.value
        if rising:
            self._drive(1)

    def _on_reset(self, signal: Signal) -> None:
        rising = self._previous_reset == 0 and signal.value != 0
        self._previous_reset = signal.value
        if rising:
            self._drive(0)


class Counter:
    """An n-bit synchronous up-counter with wrap-around.

    Used by the counter-based and hybrid DPWM architectures (paper Figures
    18 and 22).
    """

    def __init__(
        self,
        simulator: Simulator,
        clock: Signal,
        output_signal: Signal,
        width: int,
        clk_to_q_ps: float = 0.0,
        initial: int = 0,
    ) -> None:
        if width < 1:
            raise ValueError("counter width must be >= 1")
        self.simulator = simulator
        self.clock = clock
        self.output_signal = output_signal
        self.width = width
        self.clk_to_q_ps = clk_to_q_ps
        self._count = initial % (1 << width)
        self._previous_clock = clock.value
        clock.connect(self._on_clock)
        output_signal.set(self._count)

    @property
    def modulus(self) -> int:
        return 1 << self.width

    def _on_clock(self, signal: Signal) -> None:
        rising = self._previous_clock == 0 and signal.value != 0
        self._previous_clock = signal.value
        if not rising:
            return
        self._count = (self._count + 1) % self.modulus
        if self.clk_to_q_ps > 0:
            self.output_signal.schedule_set(self._count, self.clk_to_q_ps)
        else:
            self.output_signal.set(self._count)


class Comparator:
    """A combinational equality comparator: ``out = (a == b)``."""

    def __init__(
        self,
        simulator: Simulator,
        input_a: Signal,
        input_b: Signal,
        output_signal: Signal,
        delay_ps: float = 0.0,
    ) -> None:
        self.simulator = simulator
        self.input_a = input_a
        self.input_b = input_b
        self.output_signal = output_signal
        self.delay_ps = delay_ps
        input_a.connect(self._update)
        input_b.connect(self._update)
        self._update(input_a)

    def _update(self, _signal: Signal) -> None:
        value = 1 if self.input_a.value == self.input_b.value else 0
        if self.delay_ps > 0:
            self.output_signal.schedule_set(value, self.delay_ps)
        else:
            self.output_signal.set(value)


class TwoFlopSynchronizer:
    """The two-flip-flop synchronizer of paper Figure 38.

    Samples an asynchronous input into the clock domain; the first stage may
    go metastable (flagged as a setup violation), the second stage gives the
    downstream logic a full cycle of resolution time.
    """

    def __init__(
        self,
        simulator: Simulator,
        clock: Signal,
        async_input: Signal,
        output_signal: Signal,
        clk_to_q_ps: float = 0.0,
        setup_ps: float = 30.0,
        metastability_rng: random.Random | None = None,
    ) -> None:
        self.intermediate = Signal(simulator, f"{output_signal.name}_meta")
        # The second stage is constructed (and therefore connected to the
        # clock) first so that, on a shared clock edge with zero clock-to-q
        # delay, it samples the *previous* value of the intermediate signal
        # -- the behaviour of a real two-stage shift register.
        self.second_stage = DFlipFlop(
            simulator,
            clock=clock,
            data=self.intermediate,
            output_signal=output_signal,
            clk_to_q_ps=clk_to_q_ps,
            setup_ps=0.0,
        )
        self.first_stage = DFlipFlop(
            simulator,
            clock=clock,
            data=async_input,
            output_signal=self.intermediate,
            clk_to_q_ps=clk_to_q_ps,
            setup_ps=setup_ps,
            metastability_rng=metastability_rng,
        )

    @property
    def setup_violations(self) -> int:
        """Setup violations observed on the first (metastability-prone) stage."""
        return self.first_stage.setup_violations
