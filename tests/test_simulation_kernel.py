"""Tests for the event kernel, signals and waveform traces."""

from __future__ import annotations

import pytest

from repro.simulation.signals import Signal
from repro.simulation.simulator import SimulationError, Simulator
from repro.simulation.waveform import WaveformTrace, duty_cycle_of, pulse_widths


class TestSimulator:
    def test_time_starts_at_zero(self):
        assert Simulator().now_ps == 0.0

    def test_events_execute_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(30.0, lambda: order.append("c"))
        sim.schedule(10.0, lambda: order.append("a"))
        sim.schedule(20.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_execute_fifo(self):
        sim = Simulator()
        order = []
        for label in "abc":
            sim.schedule(5.0, lambda label=label: order.append(label))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_run_until_stops_at_requested_time(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, lambda: fired.append(10))
        sim.schedule(50.0, lambda: fired.append(50))
        sim.run_until(20.0)
        assert fired == [10]
        assert sim.now_ps == 20.0
        assert sim.pending_events == 1

    def test_run_until_includes_boundary_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(20.0, lambda: fired.append(20))
        sim.run_until(20.0)
        assert fired == [20]

    def test_events_can_schedule_more_events(self):
        sim = Simulator()
        results = []

        def first():
            results.append(sim.now_ps)
            sim.schedule(5.0, lambda: results.append(sim.now_ps))

        sim.schedule(10.0, first)
        sim.run()
        assert results == [10.0, 15.0]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_scheduling_in_the_past_rejected(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(5.0, lambda: None)

    def test_run_backwards_rejected(self):
        sim = Simulator()
        sim.run_until(100.0)
        with pytest.raises(SimulationError):
            sim.run_until(50.0)

    def test_runaway_loop_detected(self):
        sim = Simulator()

        def reschedule():
            sim.schedule(0.0, reschedule)

        sim.schedule(0.0, reschedule)
        with pytest.raises(SimulationError, match="combinational loop"):
            sim.run(max_events=100)

    def test_run_budget_is_exact(self):
        # Regression: the budget check used to run after incrementing, so
        # max_events + 1 events executed before the error fired.
        sim = Simulator()

        def reschedule():
            sim.schedule(0.0, reschedule)

        sim.schedule(0.0, reschedule)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)
        assert sim.events_executed == 100

    def test_run_exactly_at_budget_succeeds(self):
        sim = Simulator()
        for _ in range(100):
            sim.schedule(1.0, lambda: None)
        sim.run(max_events=100)
        assert sim.events_executed == 100

    def test_run_until_budget_is_exact(self):
        sim = Simulator()

        def reschedule():
            sim.schedule(0.0, reschedule)

        sim.schedule(0.0, reschedule)
        with pytest.raises(SimulationError, match="exceeded 50 events"):
            sim.run_until(10.0, max_events=50)
        assert sim.events_executed == 50

    def test_run_until_exactly_at_budget_succeeds(self):
        sim = Simulator()
        for _ in range(50):
            sim.schedule(1.0, lambda: None)
        sim.run_until(10.0, max_events=50)
        assert sim.events_executed == 50
        assert sim.now_ps == 10.0

    def test_event_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_executed == 5

    def test_step_runs_one_event_and_reports_an_empty_queue(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, lambda: fired.append("a"))
        sim.schedule(20.0, lambda: fired.append("b"))
        assert sim.step() is True
        assert (fired, sim.now_ps) == (["a"], 10.0)
        assert sim.step() is True
        assert (fired, sim.now_ps) == (["a", "b"], 20.0)
        assert sim.step() is False
        assert sim.now_ps == 20.0
        assert sim.events_executed == 2


class TestSignal:
    def test_set_records_trace_and_notifies(self):
        sim = Simulator()
        signal = Signal(sim, "s")
        seen = []
        signal.connect(lambda s: seen.append(s.value))
        sim.schedule(10.0, lambda: signal.set(1))
        sim.run()
        assert seen == [1]
        assert signal.trace.transitions()[-1] == (10.0, 1)

    def test_setting_same_value_is_a_noop(self):
        sim = Simulator()
        signal = Signal(sim, "s", initial=1)
        count = []
        signal.connect(lambda s: count.append(1))
        signal.set(1)
        assert count == []

    def test_schedule_set_applies_transport_delay(self):
        sim = Simulator()
        signal = Signal(sim, "s")
        signal.schedule_set(1, 25.0)
        sim.run()
        assert signal.value == 1
        assert signal.trace.times_ps[-1] == 25.0

    def test_width_masks_value(self):
        sim = Simulator()
        bus = Signal(sim, "bus", width=4)
        bus.set(0x1F)
        assert bus.value == 0x0F
        assert bus.max_value == 15

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            Signal(Simulator(), "bad", width=0)

    def test_is_high(self):
        sim = Simulator()
        signal = Signal(sim, "s")
        assert not signal.is_high()
        signal.set(1)
        assert signal.is_high()


class TestWaveformTrace:
    def _square_wave(self) -> WaveformTrace:
        trace = WaveformTrace(name="sq")
        for period in range(3):
            trace.record(period * 100.0, 1)
            trace.record(period * 100.0 + 40.0, 0)
        return trace

    def test_value_at_interpolates_piecewise_constant(self):
        trace = self._square_wave()
        assert trace.value_at(10.0) == 1
        assert trace.value_at(50.0) == 0
        assert trace.value_at(139.9) == 1
        assert trace.value_at(-5.0) == 0

    def test_edges(self):
        trace = self._square_wave()
        assert trace.edges(rising=True) == [0.0, 100.0, 200.0]
        assert trace.edges(rising=False) == [40.0, 140.0, 240.0]

    def test_duty_cycle_over_one_period(self):
        trace = self._square_wave()
        assert trace.duty_cycle(100.0, start_ps=0.0) == pytest.approx(0.4)
        assert duty_cycle_of(trace, 100.0, period_index=1) == pytest.approx(0.4)

    def test_high_time_handles_partial_windows(self):
        trace = self._square_wave()
        assert trace.high_time_ps(20.0, 60.0) == pytest.approx(20.0)

    def test_pulse_widths(self):
        widths = pulse_widths(self._square_wave())
        assert widths == pytest.approx([40.0, 40.0, 40.0])

    def test_out_of_order_record_rejected(self):
        trace = WaveformTrace(name="t")
        trace.record(10.0, 1)
        with pytest.raises(ValueError):
            trace.record(5.0, 0)

    def test_same_time_record_overwrites(self):
        trace = WaveformTrace(name="t")
        trace.record(10.0, 1)
        trace.record(10.0, 0)
        assert trace.transitions() == [(10.0, 0)]

    def test_to_ascii_produces_one_char_per_step(self):
        trace = self._square_wave()
        art = trace.to_ascii(stop_ps=100.0, step_ps=10.0)
        assert art.endswith("####______")

    def test_invalid_duty_period_rejected(self):
        with pytest.raises(ValueError):
            self._square_wave().duty_cycle(0.0)

    def test_high_time_of_an_empty_window_is_zero(self):
        trace = self._square_wave()
        assert trace.high_time_ps(20.0, 20.0) == 0.0
        assert trace.high_time_ps(60.0, 20.0) == 0.0

    def test_invalid_ascii_step_rejected(self):
        with pytest.raises(ValueError):
            self._square_wave().to_ascii(stop_ps=100.0, step_ps=0.0)

    def test_pulse_widths_drop_an_unfinished_pulse(self):
        trace = self._square_wave()
        trace.record(300.0, 1)  # rises and never falls
        assert pulse_widths(trace) == pytest.approx([40.0, 40.0, 40.0])
