"""Tests for the behavioural logic primitives."""

from __future__ import annotations

import random

import pytest

from repro.simulation.clocks import ClockGenerator, PulseGenerator
from repro.simulation.primitives import (
    Buffer,
    Comparator,
    Counter,
    DFlipFlop,
    MuxN,
    SetResetFlop,
    TwoFlopSynchronizer,
)
from repro.simulation.signals import Signal
from repro.simulation.simulator import Simulator


class TestBuffer:
    def test_buffer_delays_both_edges(self):
        sim = Simulator()
        a = Signal(sim, "a")
        y = Signal(sim, "y")
        Buffer(sim, a, y, delay_ps=40.0)
        sim.schedule(0.0, lambda: a.set(1))
        sim.schedule(100.0, lambda: a.set(0))
        sim.run()
        assert y.trace.edges(rising=True) == [40.0]
        assert y.trace.edges(rising=False) == [140.0]

    def test_buffer_chain_accumulates_delay(self):
        sim = Simulator()
        stages = [Signal(sim, f"n{i}") for i in range(5)]
        for a, b in zip(stages, stages[1:]):
            Buffer(sim, a, b, delay_ps=10.0)
        sim.schedule(0.0, lambda: stages[0].set(1))
        sim.run()
        assert stages[-1].trace.edges(rising=True) == [40.0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        a, y = Signal(sim, "a"), Signal(sim, "y")
        with pytest.raises(ValueError):
            Buffer(sim, a, y, delay_ps=-1.0)


class TestMuxes:
    def test_muxn_only_selected_input_propagates(self):
        sim = Simulator()
        inputs = [Signal(sim, f"i{k}") for k in range(4)]
        sel = Signal(sim, "sel", width=2, initial=2)
        y = Signal(sim, "y")
        MuxN(sim, inputs, sel, y)
        inputs[0].set(1)
        assert y.value == 0
        inputs[2].set(1)
        assert y.value == 1

    def test_muxn_select_change_updates_output(self):
        sim = Simulator()
        inputs = [Signal(sim, f"i{k}", initial=k % 2) for k in range(4)]
        sel = Signal(sim, "sel", width=2, initial=0)
        y = Signal(sim, "y")
        MuxN(sim, inputs, sel, y)
        assert y.value == 0
        sel.set(1)
        assert y.value == 1

    def test_muxn_requires_inputs(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            MuxN(sim, [], Signal(sim, "sel"), Signal(sim, "y"))

    def test_muxn_select_out_of_range_clamps(self):
        sim = Simulator()
        inputs = [Signal(sim, "i0", initial=0), Signal(sim, "i1", initial=1)]
        sel = Signal(sim, "sel", width=4, initial=9)
        y = Signal(sim, "y")
        MuxN(sim, inputs, sel, y)
        assert y.value == 1  # clamped to the last input

    def test_muxn_delay_postpones_output(self):
        sim = Simulator()
        inputs = [Signal(sim, "i0"), Signal(sim, "i1")]
        sel = Signal(sim, "sel", initial=1)
        y = Signal(sim, "y")
        MuxN(sim, inputs, sel, y, delay_ps=15.0)
        sim.schedule(100.0, lambda: inputs[1].set(1))
        sim.schedule(200.0, lambda: sel.set(0))
        sim.run()
        assert y.trace.edges(rising=True) == [115.0]
        assert y.trace.edges(rising=False) == [215.0]


class TestDFlipFlop:
    def test_samples_on_rising_edge_only(self):
        sim = Simulator()
        clk = Signal(sim, "clk")
        d = Signal(sim, "d")
        q = Signal(sim, "q")
        DFlipFlop(sim, clk, d, q)
        d.set(1)
        clk.set(1)
        assert q.value == 1
        d.set(0)
        clk.set(0)  # falling edge: no sample
        assert q.value == 1
        clk.set(1)
        assert q.value == 0

    def test_clk_to_q_delay(self):
        sim = Simulator()
        clk = Signal(sim, "clk")
        d = Signal(sim, "d", initial=1)
        q = Signal(sim, "q")
        DFlipFlop(sim, clk, d, q, clk_to_q_ps=30.0)
        sim.schedule(100.0, lambda: clk.set(1))
        sim.run()
        assert q.trace.edges(rising=True) == [130.0]

    def test_setup_violation_detected(self):
        sim = Simulator()
        clk = Signal(sim, "clk")
        d = Signal(sim, "d")
        q = Signal(sim, "q")
        flop = DFlipFlop(sim, clk, d, q, setup_ps=50.0)
        sim.schedule(90.0, lambda: d.set(1))
        sim.schedule(100.0, lambda: clk.set(1))
        sim.run()
        assert flop.setup_violations == 1

    def test_no_violation_when_data_is_stable(self):
        sim = Simulator()
        clk = Signal(sim, "clk")
        d = Signal(sim, "d")
        q = Signal(sim, "q")
        flop = DFlipFlop(sim, clk, d, q, setup_ps=50.0)
        sim.schedule(10.0, lambda: d.set(1))
        sim.schedule(100.0, lambda: clk.set(1))
        sim.run()
        assert flop.setup_violations == 0

    def test_metastability_resolution_uses_rng(self):
        rng = random.Random(1234)
        sim = Simulator()
        clk = Signal(sim, "clk")
        d = Signal(sim, "d")
        q = Signal(sim, "q")
        flop = DFlipFlop(
            sim, clk, d, q, setup_ps=50.0, metastability_rng=rng
        )
        sim.schedule(95.0, lambda: d.set(1))
        sim.schedule(100.0, lambda: clk.set(1))
        sim.run()
        assert flop.setup_violations == 1
        assert q.value in (0, 1)


class TestSetResetFlop:
    def test_set_then_reset(self):
        sim = Simulator()
        s = Signal(sim, "s")
        r = Signal(sim, "r")
        q = Signal(sim, "q")
        SetResetFlop(sim, s, r, q)
        sim.schedule(10.0, lambda: s.set(1))
        sim.schedule(60.0, lambda: r.set(1))
        sim.run()
        assert q.trace.edges(rising=True) == [10.0]
        assert q.trace.edges(rising=False) == [60.0]

    def test_set_works_while_reset_level_high(self):
        # The delay-line DPWM's reset tap is a delayed clock that may still
        # be high when the next period starts; the output must still set.
        sim = Simulator()
        s = Signal(sim, "s")
        r = Signal(sim, "r", initial=1)
        q = Signal(sim, "q")
        SetResetFlop(sim, s, r, q)
        sim.schedule(10.0, lambda: s.set(1))
        sim.run()
        assert q.value == 1

    def test_output_delay_applies_to_set_and_reset(self):
        sim = Simulator()
        s = Signal(sim, "s")
        r = Signal(sim, "r")
        q = Signal(sim, "q")
        SetResetFlop(sim, s, r, q, delay_ps=5.0)
        sim.schedule(10.0, lambda: s.set(1))
        sim.schedule(60.0, lambda: r.set(1))
        sim.run()
        assert q.trace.edges(rising=True) == [15.0]
        assert q.trace.edges(rising=False) == [65.0]


class TestCounterAndComparator:
    def test_counter_wraps_at_modulus(self):
        sim = Simulator()
        clk = Signal(sim, "clk")
        out = Signal(sim, "cnt", width=2)
        Counter(sim, clk, out, width=2)
        values = []
        for _ in range(5):
            clk.set(1)
            values.append(out.value)
            clk.set(0)
        assert values == [1, 2, 3, 0, 1]

    def test_counter_initial_value(self):
        sim = Simulator()
        clk = Signal(sim, "clk")
        out = Signal(sim, "cnt", width=3)
        Counter(sim, clk, out, width=3, initial=7)
        assert out.value == 7
        clk.set(1)
        assert out.value == 0

    def test_counter_rejects_bad_width(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Counter(sim, Signal(sim, "clk"), Signal(sim, "o"), width=0)

    def test_comparator_tracks_equality(self):
        sim = Simulator()
        a = Signal(sim, "a", width=4, initial=3)
        b = Signal(sim, "b", width=4, initial=3)
        y = Signal(sim, "y")
        Comparator(sim, a, b, y)
        assert y.value == 1
        a.set(5)
        assert y.value == 0
        b.set(5)
        assert y.value == 1

    def test_comparator_delay_postpones_output(self):
        sim = Simulator()
        a = Signal(sim, "a", width=4, initial=3)
        b = Signal(sim, "b", width=4)
        y = Signal(sim, "y")
        Comparator(sim, a, b, y, delay_ps=20.0)
        sim.schedule(100.0, lambda: b.set(3))
        sim.run()
        assert y.trace.edges(rising=True) == [120.0]


class TestSynchronizerAndClocks:
    def test_two_flop_synchronizer_delays_by_two_edges(self):
        sim = Simulator()
        clk = Signal(sim, "clk")
        ClockGenerator(sim, clk, period_ps=100.0)
        async_in = Signal(sim, "async")
        synced = Signal(sim, "synced")
        TwoFlopSynchronizer(sim, clk, async_in, synced, setup_ps=0.0)
        sim.schedule(130.0, lambda: async_in.set(1))
        sim.run_until(450.0)
        # Sampled by the first flop at 200 ps, reaches the output at 300 ps.
        assert synced.trace.edges(rising=True) == [300.0]

    def test_synchronizer_reports_first_stage_setup_violations(self):
        sim = Simulator()
        clk = Signal(sim, "clk")
        # The first edge comes a full period after construction, so only
        # the late input change below can violate the setup window.
        ClockGenerator(sim, clk, period_ps=100.0, start_ps=100.0)
        async_in = Signal(sim, "async")
        synced = Signal(sim, "synced")
        sync = TwoFlopSynchronizer(
            sim, clk, async_in, synced, setup_ps=30.0,
            metastability_rng=random.Random(7),
        )
        # 190 ps is inside the 30 ps setup window of the 200 ps edge.
        sim.schedule(190.0, lambda: async_in.set(1))
        sim.run_until(450.0)
        assert sync.setup_violations == 1
        assert sync.first_stage.setup_violations == 1
        assert sync.second_stage.setup_violations == 0
        # Whatever the 200 ps edge resolved to, the 300 ps edge samples a
        # stable 1, so the output is high after the second stage passes it.
        assert synced.value == 1

    def test_clock_generator_period_and_duty(self):
        sim = Simulator()
        clk = Signal(sim, "clk")
        generator = ClockGenerator(sim, clk, period_ps=200.0, duty=0.25)
        sim.run_until(999.0)
        assert clk.trace.edges(rising=True) == [0.0, 200.0, 400.0, 600.0, 800.0]
        assert clk.trace.duty_cycle(200.0, start_ps=200.0) == pytest.approx(0.25)
        assert generator.frequency_mhz == pytest.approx(1e6 / 200.0)

    def test_clock_generator_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            ClockGenerator(sim, Signal(sim, "c"), period_ps=0.0)
        with pytest.raises(ValueError):
            ClockGenerator(sim, Signal(sim, "c"), period_ps=10.0, duty=1.0)

    def test_pulse_generator(self):
        sim = Simulator()
        pulse = Signal(sim, "p")
        PulseGenerator(sim, pulse, start_ps=50.0, width_ps=25.0)
        sim.run()
        assert pulse.trace.edges(rising=True) == [50.0]
        assert pulse.trace.edges(rising=False) == [75.0]

    def test_pulse_generator_rejects_zero_width(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            PulseGenerator(sim, Signal(sim, "p"), start_ps=0.0, width_ps=0.0)
