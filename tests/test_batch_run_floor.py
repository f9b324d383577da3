"""The per-period floor of ``BatchClosedLoop.run``: state and work counts.

Deterministic guards for the run-level hoists -- no wall-clock asserts.
The run differentiates each period's codes against the previous period's
(never against an aliased buffer) and hands back a copy of the last codes,
the plant terms of one-shot load rows are computed once per block of rows
(never once per period), a block stays under its element cap up to the
cap's width and is a single row beyond it, and the block size never
changes a value.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest

import repro.simulation.batch as batch_module
from repro.converter.buck import BuckParameters
from repro.converter.load import RampLoad
from repro.converter.missions import MissionGenerator, resolve_missions
from repro.simulation.batch import (
    BatchBuckParameters,
    BatchClosedLoop,
    BatchCompensator,
    BatchQuantizer,
)


class TestRunDerivativeMemory:
    @staticmethod
    def kd_only_loop() -> BatchClosedLoop:
        """A fleet whose duty is ``0.5 + kd * (code - previous code)``."""
        return BatchClosedLoop(
            BatchBuckParameters.uniform(BuckParameters(input_voltage_v=1.8), 2),
            BatchQuantizer.ideal(bits=6, num_variants=2),
            reference_v=0.9,
            compensator=BatchCompensator(
                2, kp=0.0, ki=0.0, kd=[0.02, 0.05], initial_duty=0.5
            ),
            start_at_reference=False,
        )

    def test_kd_only_fleet_differentiates_successive_codes(self):
        loop = self.kd_only_loop()
        result = loop.run(120)
        codes = result.error_codes
        previous = np.vstack([np.zeros((1, 2)), codes[:-1]])
        commands = np.clip(0.5 + loop.compensator.kd * (codes - previous), 0.0, 1.0)
        expected = np.minimum(np.rint(commands * 64), 63).astype(np.int64)
        np.testing.assert_array_equal(result.duty_words, expected)
        # Codes aliased to one buffer would difference to zero: every word
        # would be the 0.5 command's 32.
        assert np.count_nonzero(result.duty_words != 32) > 10

    def test_last_codes_are_handed_back_as_a_copy(self):
        loop = self.kd_only_loop()
        result = loop.run(50)
        np.testing.assert_array_equal(
            loop.compensator.previous_error, result.error_codes[-1]
        )
        assert loop.compensator.previous_error.dtype == np.float64
        assert not np.shares_memory(loop.compensator.previous_error, result.error_codes)


def mission_loop(lanes: int, periods: int) -> BatchClosedLoop:
    rng = np.random.default_rng(11)
    nominal = BuckParameters(input_voltage_v=1.8)
    parameters = BatchBuckParameters.uniform(nominal, lanes)
    parameters.inductance_h = parameters.inductance_h * (
        1.0 + 0.05 * rng.standard_normal(lanes)
    )
    missions = resolve_missions(
        MissionGenerator(total_periods=periods, num_segments=6, seed=5), lanes
    )
    return BatchClosedLoop(
        parameters,
        BatchQuantizer.ideal(bits=6, num_variants=lanes),
        reference_v=0.9,
        loads=missions,
    )


def ramp_loop(lanes: int, periods: int) -> BatchClosedLoop:
    """A fleet whose every load row is one-shot: per-lane ramps."""
    loads = [
        RampLoad(2.0, 1.0 + 1e-4 * lane, 0, periods + lane) for lane in range(lanes)
    ]
    return BatchClosedLoop(
        BatchBuckParameters.uniform(BuckParameters(input_voltage_v=1.8), lanes),
        BatchQuantizer.ideal(bits=6, num_variants=lanes),
        reference_v=0.9,
        loads=loads,
    )


@pytest.fixture
def count_plant_work(monkeypatch):
    """Count ``plant_terms`` calls (and their sizes) and coefficient tables."""
    calls: list[int] = []
    tables: list[int] = []
    plant_terms = batch_module.plant_terms
    table_init = batch_module._LoadCoefficientTable.__init__

    def counting_plant_terms(a, b, c, d):
        calls.append(int(np.size(d)))
        return plant_terms(a, b, c, d)

    def counting_table_init(self, *args):
        tables.append(1)
        table_init(self, *args)

    monkeypatch.setattr(batch_module, "plant_terms", counting_plant_terms)
    monkeypatch.setattr(
        batch_module._LoadCoefficientTable, "__init__", counting_table_init
    )
    return calls, tables


def one_shot_rows(loads: np.ndarray) -> int:
    occurrences = Counter(row.tobytes() for row in loads)
    return sum(1 for row in loads if occurrences[row.tobytes()] == 1)


class TestBlockPlantTerms:
    def test_plant_terms_once_per_block_of_one_shot_rows(self, count_plant_work):
        calls, tables = count_plant_work
        loop = mission_loop(lanes=64, periods=2500)
        result = loop.run(2500)
        one_shot = one_shot_rows(result.load_resistances_ohm)
        block_rows = BatchClosedLoop.PLANT_TERMS_BLOCK_ELEMENTS // 64
        # Missions ramp, so most rows occur once and fill several blocks.
        assert one_shot > block_rows
        assert len(calls) <= math.ceil(one_shot / block_rows) + len(tables)
        assert len(calls) < one_shot / 10

    def test_block_stays_under_the_element_cap_at_4096_lanes(
        self, count_plant_work
    ):
        calls, _ = count_plant_work
        lanes, periods = 4096, 10
        ramp_loop(lanes, periods).run(periods)
        cap = BatchClosedLoop.PLANT_TERMS_BLOCK_ELEMENTS
        block_rows = max(1, cap // lanes)
        assert block_rows < periods
        assert max(calls) <= cap
        # Every row is one-shot: full blocks, then one block of the rest.
        full, rest = divmod(periods, block_rows)
        expected = [block_rows * lanes] * full + ([rest * lanes] if rest else [])
        assert calls == expected

    def test_block_is_one_row_above_the_cap(self, count_plant_work):
        calls, _ = count_plant_work
        lanes, periods = 2 * BatchClosedLoop.PLANT_TERMS_BLOCK_ELEMENTS, 3
        ramp_loop(lanes, periods).run(periods)
        # Wider than the cap, a block is a single row: one plant_terms call
        # per one-shot period, each of one row of lanes.
        assert calls == [lanes] * periods

    def test_block_size_changes_no_value(self, monkeypatch):
        reference = mission_loop(lanes=8, periods=400).run(400)
        monkeypatch.setattr(BatchClosedLoop, "PLANT_TERMS_BLOCK_ELEMENTS", 1)
        rowwise = mission_loop(lanes=8, periods=400).run(400)
        for name in ("output_voltages_v", "inductor_currents_a", "duty_fractions"):
            np.testing.assert_array_equal(
                getattr(rowwise, name).view(np.int64),
                getattr(reference, name).view(np.int64),
            )
        np.testing.assert_array_equal(rowwise.duty_words, reference.duty_words)
        np.testing.assert_array_equal(rowwise.error_codes, reference.error_codes)


class TestRunState:
    def test_state_does_not_alias_the_result(self):
        loop = mission_loop(lanes=4, periods=50)
        result = loop.run(50)
        assert not np.shares_memory(loop.output_voltage_v, result.output_voltages_v)
        assert not np.shares_memory(
            loop.inductor_current_a, result.inductor_currents_a
        )
        np.testing.assert_array_equal(
            loop.output_voltage_v, result.output_voltages_v[-1]
        )
