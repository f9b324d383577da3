"""Tests for the kernel layer: kernel equivalence.

Every kernel is property-tested against an independent straightforward
reference (python loops over instances); the kernels preserve the
reference operation order, so every comparison demands bit-identity.
The fused on/off coefficient kernel is also checked branch by branch
(oscillatory, overdamped-grouped, degenerate) against the separate
per-interval evaluation, and through the batch engine's coefficient table.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.converter.buck import exact_interval_coefficients, plant_terms
from repro.kernels import closed_loop, ensemble, fabrication
from repro.simulation.batch import _LoadCoefficientTable

# --- per-kernel equivalence properties ------------------------------------

#: Moderate example counts keep the eleven properties quick.
KERNEL_SETTINGS = settings(max_examples=25, deadline=None)

finite = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)
positive = st.floats(
    min_value=1e-3, max_value=100.0, allow_nan=False, allow_infinity=False
)


@st.composite
def float_matrix(draw, rows, cols, elements=finite):
    data = draw(
        st.lists(
            st.lists(elements, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return np.asarray(data, dtype=float)


@st.composite
def increasing_taps(draw):
    """(instances, cells) strictly increasing cumulative tap delays."""
    instances = draw(st.integers(1, 5))
    cells = draw(st.integers(2, 8))
    increments = draw(float_matrix(instances, cells, elements=positive))
    return np.cumsum(increments, axis=1)


def assert_bit_identical(result, expected) -> None:
    """Compare each output array of a kernel with its reference, exactly."""
    for got, want in zip(np.atleast_1d(result), np.atleast_1d(expected)):
        np.testing.assert_array_equal(got, want)


class TestKernelEquivalence:
    @KERNEL_SETTINGS
    @given(data=st.data())
    def test_interval_coefficients(self, data):
        n = data.draw(st.integers(1, 5))
        draw_row = lambda elems: np.asarray(  # noqa: E731
            data.draw(st.lists(elems, min_size=n, max_size=n)), dtype=float
        )
        bounded = st.floats(
            min_value=-20.0, max_value=-1e-3, allow_nan=False, allow_infinity=False
        )
        a, d = draw_row(bounded), draw_row(bounded)
        b, c = draw_row(finite), draw_row(finite)
        # Periods capped at 1: with |entries| <= 100 the exponent q*t stays
        # far from overflow, so the property never wanders into inf/nan.
        period = draw_row(
            st.floats(min_value=1e-3, max_value=1.0, allow_nan=False)
        )
        on_time = period * draw_row(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
        )
        result = closed_loop.interval_coefficients(a, b, c, d, on_time, period)
        expected = np.stack(
            np.broadcast_arrays(
                *exact_interval_coefficients(a, b, c, d, on_time),
                *exact_interval_coefficients(a, b, c, d, period - on_time),
            ),
            axis=-1,
        )
        assert result.shape == (n, 12)
        assert_bit_identical((result,), (expected,))

    @KERNEL_SETTINGS
    @given(data=st.data())
    def test_gather_coefficients(self, data):
        slots_count = data.draw(st.integers(1, 4))
        variants = data.draw(st.integers(1, 5))
        table = np.stack(
            [data.draw(float_matrix(variants, 12)) for _ in range(slots_count)]
        )
        slots = np.asarray(
            data.draw(
                st.lists(
                    st.integers(0, slots_count - 1),
                    min_size=variants,
                    max_size=variants,
                )
            ),
            dtype=np.int64,
        )
        rows = np.arange(variants, dtype=np.int64)
        result = closed_loop.gather_coefficients(table, slots, rows)
        expected = np.stack([table[slots[i], i] for i in range(variants)])
        assert_bit_identical((result,), (expected,))

    @KERNEL_SETTINGS
    @given(data=st.data())
    def test_pid_update(self, data):
        n = data.draw(st.integers(1, 5))
        draw_row = lambda elems: np.asarray(  # noqa: E731
            data.draw(st.lists(elems, min_size=n, max_size=n)), dtype=float
        )
        unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
        error, previous = draw_row(finite), draw_row(finite)
        integral = draw_row(unit)
        kp, ki, kd = draw_row(unit), draw_row(unit), draw_row(unit)
        min_duty = draw_row(st.floats(min_value=0.0, max_value=0.4, allow_nan=False))
        max_duty = draw_row(st.floats(min_value=0.5, max_value=1.0, allow_nan=False))
        result = closed_loop.pid_update(
            error, integral, previous, kp, ki, kd, min_duty, max_duty
        )
        new_integral = np.clip(integral + ki * error, min_duty, max_duty)
        expected_duty = np.clip(
            new_integral + kp * error + kd * (error - previous), min_duty, max_duty
        )
        assert_bit_identical(result, (expected_duty, new_integral))

    @KERNEL_SETTINGS
    @given(data=st.data())
    def test_quantize_duty(self, data):
        variants = data.draw(st.integers(1, 5))
        words = data.draw(st.integers(2, 16))
        levels = data.draw(
            float_matrix(
                variants,
                words,
                elements=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            )
        )
        commands = np.asarray(
            data.draw(
                st.lists(
                    st.floats(
                        min_value=-0.5,
                        max_value=1.5,
                        allow_nan=False,
                        allow_infinity=False,
                    ),
                    min_size=variants,
                    max_size=variants,
                )
            ),
            dtype=float,
        )
        num_words = np.full(variants, words, dtype=np.int64)
        rows = np.arange(variants, dtype=np.int64)
        got_words, got_duties = closed_loop.quantize_duty(
            commands, levels, num_words, rows
        )
        clipped = np.clip(commands, 0.0, 1.0)
        expected_words = np.minimum(
            np.rint(clipped * words).astype(np.int64), words - 1
        )
        expected_duties = levels[rows, expected_words]
        assert_bit_identical(
            (got_words, got_duties), (expected_words, expected_duties)
        )

    @KERNEL_SETTINGS
    @given(data=st.data())
    def test_apply_period_step(self, data):
        n = data.draw(st.integers(1, 5))
        step = data.draw(float_matrix(n, 12))
        draw_row = lambda: np.asarray(  # noqa: E731
            data.draw(st.lists(finite, min_size=n, max_size=n)), dtype=float
        )
        current, voltage, drive = draw_row(), draw_row(), draw_row()
        result = closed_loop.apply_period_step(step, current, voltage, drive)
        on_i = step[:, 0] * current + step[:, 1] * voltage + step[:, 4] * drive
        on_v = step[:, 2] * current + step[:, 3] * voltage + step[:, 5] * drive
        expected = (
            step[:, 6] * on_i + step[:, 7] * on_v,
            step[:, 8] * on_i + step[:, 9] * on_v,
        )
        assert_bit_identical(result, expected)

    @KERNEL_SETTINGS
    @given(data=st.data())
    def test_proposed_lock(self, data):
        taps = data.draw(increasing_taps())
        num_cells = taps.shape[1]
        half_period = data.draw(
            st.floats(min_value=0.0, max_value=float(taps.max()) * 1.5)
        )
        control, locked, locked_delay = ensemble.proposed_lock(
            taps, half_period, num_cells
        )
        for i, row in enumerate(taps):
            count = int(np.count_nonzero(row <= half_period))
            expected_control = min(max(count, 1), num_cells)
            assert control[i] == expected_control
            assert locked[i] == (1 <= count <= num_cells - 1)
            assert locked_delay[i] == row[expected_control - 1]

    @KERNEL_SETTINGS
    @given(data=st.data())
    def test_proposed_transfer_delays(self, data):
        taps = data.draw(increasing_taps())
        instances, num_cells = taps.shape
        max_word = data.draw(st.integers(1, 12))
        shift = data.draw(st.integers(0, 6))
        words = np.arange(1, max_word + 1, dtype=np.int64)
        tap_sel = np.asarray(
            data.draw(
                st.lists(
                    st.integers(1, num_cells), min_size=instances, max_size=instances
                )
            ),
            dtype=np.int64,
        )
        result = ensemble.proposed_transfer_delays(
            taps, tap_sel, words, shift, num_cells
        )
        assert result.shape == (instances, max_word)
        for i in range(instances):
            for j, word in enumerate(words):
                sel = min((int(word) * int(tap_sel[i])) >> shift, num_cells - 1)
                expected = 0.0 if sel == 0 else taps[i, sel - 1]
                assert result[i, j] == expected

    @KERNEL_SETTINGS
    @given(data=st.data())
    def test_conventional_crossing(self, data):
        totals = data.draw(increasing_taps())
        instances, steps_plus_one = totals.shape
        max_steps = steps_plus_one - 1
        margin = data.draw(
            float_matrix(instances, steps_plus_one, elements=positive)
        )
        last_but_one = totals - margin
        period = data.draw(
            st.floats(min_value=float(totals.min()) * 0.5,
                      max_value=float(totals.max()) * 1.5)
        )
        steps, locked, total_at_stop = ensemble.conventional_crossing(
            totals, last_but_one, period, max_steps
        )
        for i in range(instances):
            reaching = [j for j in range(steps_plus_one) if totals[i, j] >= period]
            expected_step = reaching[0] if reaching else max_steps
            assert steps[i] == expected_step
            assert total_at_stop[i] == totals[i, expected_step]
            assert locked[i] == (
                last_but_one[i, expected_step] < period
                and totals[i, expected_step] >= period
            )

    @KERNEL_SETTINGS
    @given(data=st.data())
    def test_cell_delays_from_multipliers(self, data):
        instances = data.draw(st.integers(1, 4))
        cells = data.draw(st.integers(1, 5))
        buffers = data.draw(st.integers(1, 6))
        multipliers = np.stack(
            [
                data.draw(float_matrix(cells, buffers, elements=positive))
                for _ in range(instances)
            ]
        )
        unit = data.draw(positive)
        result = fabrication.cell_delays_from_multipliers(multipliers, unit)
        # Under 8 elements numpy sums sequentially, so the loop reference
        # is bit-identical (pairwise summation never kicks in).
        expected = np.empty((instances, cells))
        for i in range(instances):
            for j in range(cells):
                total = 0.0
                for k in range(buffers):
                    total += multipliers[i, j, k]
                expected[i, j] = total * unit
        assert_bit_identical((result,), (expected,))

    @KERNEL_SETTINGS
    @given(data=st.data())
    def test_active_branch_delays(self, data):
        instances = data.draw(st.integers(1, 4))
        cells = data.draw(st.integers(1, 5))
        buffers = data.draw(st.integers(1, 6))
        multipliers = np.stack(
            [
                data.draw(float_matrix(cells, buffers, elements=positive))
                for _ in range(instances)
            ]
        )
        active = np.asarray(
            data.draw(
                st.lists(
                    st.lists(
                        st.integers(1, buffers), min_size=cells, max_size=cells
                    ),
                    min_size=instances,
                    max_size=instances,
                )
            ),
            dtype=np.int64,
        )
        unit = data.draw(positive)
        result = fabrication.active_branch_delays(multipliers, active, unit)
        expected = np.empty((instances, cells))
        for i in range(instances):
            for j in range(cells):
                total = 0.0
                for k in range(int(active[i, j])):
                    total += multipliers[i, j, k]
                expected[i, j] = unit * total
        assert_bit_identical((result,), (expected,))

    @KERNEL_SETTINGS
    @given(data=st.data())
    def test_duty_tables_from_delays(self, data):
        instances = data.draw(st.integers(1, 4))
        num_words = data.draw(st.integers(2, 10))
        delays = data.draw(
            float_matrix(instances, num_words - 1, elements=positive)
        )
        clock_period = data.draw(positive)
        result = fabrication.duty_tables_from_delays(delays, clock_period, num_words)
        assert result.shape == (instances, num_words)
        for i in range(instances):
            assert result[i, 0] == 0.0
            for w in range(1, num_words):
                assert result[i, w] == min(delays[i, w - 1] / clock_period, 1.0)


# --- the fused on/off coefficient kernel ------------------------------------


def bit_pattern(array) -> np.ndarray:
    """The raw float64 bits, so -0.0 != 0.0 and every ulp counts."""
    return np.ascontiguousarray(array, dtype=np.float64).view(np.int64)


@st.composite
def branch_plant(draw, branch):
    """One ``(a, b, c, d)`` plant whose closed form takes ``branch``.

    * ``oscillatory`` -- ``q**2 < 0`` (the underdamped buck);
    * ``grouped`` -- overdamped with a large eigenvalue split, so durations
      near 1 push ``q t`` past 30 and the exp((mu +/- q) t) grouping runs;
    * ``degenerate`` -- ``q**2 == 0`` exactly (critically damped).

    Every plant has ``det(A) > 0``, as a physical buck does.
    """
    negative = lambda lo, hi: st.floats(  # noqa: E731
        min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False
    )
    if branch == "oscillatory":
        a, d = draw(negative(-20.0, -1e-3)), draw(negative(-20.0, -1e-3))
        delta = 0.5 * (a - d)
        return a, -1.0, delta * delta + draw(negative(0.5, 100.0)), d
    if branch == "grouped":
        return draw(negative(-200.0, -100.0)), -1.0, draw(negative(0.1, 1.0)), (
            draw(negative(-2.0, -0.5))
        )
    diagonal = draw(negative(-20.0, -0.1))
    return diagonal, -1.0, 0.0, diagonal


BRANCHES = ("oscillatory", "grouped", "degenerate")


@st.composite
def mixed_plants(draw):
    """Per-variant plant entries drawn over all three branches, plus times."""
    n = draw(st.integers(1, 6))
    rows = [
        draw(branch_plant(draw(st.sampled_from(BRANCHES)))) for _ in range(n)
    ]
    a, b, c, d = (np.array(column, dtype=float) for column in zip(*rows))
    unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
    period = np.asarray(
        draw(
            st.lists(
                st.floats(min_value=0.5, max_value=2.0, allow_nan=False),
                min_size=n,
                max_size=n,
            )
        )
    )
    on_time = period * np.asarray(draw(st.lists(unit, min_size=n, max_size=n)))
    return a, b, c, d, on_time, period


def separate_evaluation(a, b, c, d, on_time, period):
    """The pre-fusion reference: two per-interval calls, stacked."""
    return np.stack(
        np.broadcast_arrays(
            *exact_interval_coefficients(a, b, c, d, on_time),
            *exact_interval_coefficients(a, b, c, d, period - on_time),
        ),
        axis=-1,
    )


class TestFusedIntervalCoefficients:
    def test_branch_examples_take_their_branch(self):
        """The branch strategies really reach the three closed-form branches."""
        a = np.array([-0.3, -150.0, -4.0])
        b = np.array([-1.0, -1.0, -1.0])
        c = np.array([25.0, 0.5, 0.0])
        d = np.array([-0.7, -1.0, -4.0])
        terms = plant_terms(a, b, c, d)
        assert list(terms.oscillatory) == [True, False, False]
        assert list(terms.degenerate) == [False, False, True]
        assert terms.q[1] * 1.0 > 30.0  # grouped at a unit duration
        period = np.ones(3)
        on_time = np.array([0.25, 0.9, 0.5])
        np.testing.assert_array_equal(
            bit_pattern(closed_loop.interval_coefficients(a, b, c, d, on_time, period)),
            bit_pattern(separate_evaluation(a, b, c, d, on_time, period)),
        )

    @settings(max_examples=60, deadline=None)
    @given(plants=mixed_plants())
    def test_fused_equals_separate_calls(self, plants):
        a, b, c, d, on_time, period = plants
        expected = separate_evaluation(a, b, c, d, on_time, period)
        fused = closed_loop.interval_coefficients(a, b, c, d, on_time, period)
        on_terms = closed_loop.period_coefficients(
            plant_terms(a, b, c, d), on_time, period
        )
        assert fused.shape == (a.size, 12)
        assert np.all(np.isfinite(expected))
        np.testing.assert_array_equal(bit_pattern(fused), bit_pattern(expected))
        np.testing.assert_array_equal(bit_pattern(on_terms), bit_pattern(expected))

    @settings(max_examples=30, deadline=None)
    @given(plants=mixed_plants(), data=st.data())
    def test_table_gather_equals_fresh_evaluation(self, plants, data):
        """The per-duty-word table returns the fresh evaluation bit for bit.

        Enough periods run for the table to pass through all of its modes:
        the direct first period, budgeted fills, mixed fallbacks and pure
        gathers.
        """
        a, b, c, d, _, period = plants
        n = a.size
        num_words = data.draw(st.integers(2, 24))
        levels = np.asarray(
            data.draw(float_matrix(n, num_words, elements=st.floats(0.0, 1.0)))
        )
        terms = plant_terms(a, b, c, d)
        table = _LoadCoefficientTable(terms, num_words)
        rows = np.arange(n)
        for _ in range(data.draw(st.integers(1, 12))):
            words = np.asarray(
                data.draw(
                    st.lists(st.integers(0, num_words - 1), min_size=n, max_size=n)
                ),
                dtype=np.int64,
            )
            duties = levels[rows, words]
            got = table.coefficients(words, duties, levels, period, rows)
            fresh = closed_loop.period_coefficients(terms, duties * period, period)
            np.testing.assert_array_equal(bit_pattern(got), bit_pattern(fresh))
