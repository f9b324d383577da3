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
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.converter.adc import WindowedADC
from repro.converter.buck import (
    duration_coefficients,
    exact_interval_coefficients,
    plant_terms,
)
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
        counts = num_words[rows]
        got_words, got_duties = closed_loop.quantize_duty(
            commands, levels, rows, counts
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
    @given(data=st.data(), monotone=st.booleans())
    def test_conventional_crossing(self, data, monotone):
        instances = data.draw(st.integers(1, 4))
        cells = data.draw(st.integers(2, 5))
        buffers = data.draw(st.integers(1, 6))
        multipliers = np.stack(
            [
                data.draw(float_matrix(cells, buffers, elements=positive))
                for _ in range(instances)
            ]
        )
        steps_plus_one = data.draw(st.integers(1, 12))
        schedule = np.asarray(
            data.draw(
                st.lists(
                    st.lists(
                        st.integers(1, buffers), min_size=cells, max_size=cells
                    ),
                    min_size=steps_plus_one,
                    max_size=steps_plus_one,
                )
            ),
            dtype=np.int64,
        )
        if monotone:
            # Non-decreasing per cell: the bisection branch.
            schedule = np.maximum.accumulate(schedule, axis=0)
        max_steps = steps_plus_one - 1
        unit = data.draw(positive)
        prefix_sums = np.cumsum(multipliers, axis=-1)
        totals = np.empty((instances, steps_plus_one))
        last_but_one = np.empty((instances, steps_plus_one))
        for i in range(instances):
            for step in range(steps_plus_one):
                tap = 0.0
                for j in range(cells):
                    if j == cells - 1:
                        last_but_one[i, step] = tap
                    tap += unit * prefix_sums[i, j, schedule[step, j] - 1]
                totals[i, step] = tap
        period = data.draw(
            st.floats(min_value=float(totals.min()) * 0.5,
                      max_value=float(totals.max()) * 1.5)
        )
        # Small scan blocks split a non-monotone schedule's scan over
        # several evaluations, with instances leaving it as they cross.
        scan_block = data.draw(st.sampled_from([1, 7, 40, 16384]))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ensemble, "_SCAN_BLOCK_ELEMENTS", scan_block)
            steps, locked, total_at_stop = ensemble.conventional_lock(
                prefix_sums, schedule, unit, period, max_steps
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


# --- branch skipping ---------------------------------------------------------


def all_branches_reference(terms, duration):
    """The closed form with every branch evaluated and picked by ``np.where``.

    This is :func:`~repro.converter.buck.duration_coefficients` before it
    learned to skip the branches no plant of the batch takes; the kernel
    must reproduce it bit for bit.
    """
    a, b, c, d, mu, delta, q, degenerate, oscillatory, det = terms
    duration = np.asarray(duration, dtype=float)
    qt = q * duration
    envelope = np.exp(mu * duration)
    grouped = (~oscillatory) & (qt > 30.0)
    qt_direct = np.where(grouped, 0.0, qt)
    cosh_env = envelope * np.where(oscillatory, np.cos(qt), np.cosh(qt_direct))
    sinh_env = envelope * np.where(oscillatory, np.sin(qt), np.sinh(qt_direct)) / q
    q_grouped = np.where(grouped, q, 0.0)
    exp_plus = np.exp((mu + q_grouped) * duration)
    exp_minus = np.exp((mu - q_grouped) * duration)
    cosh_env = np.where(grouped, 0.5 * (exp_plus + exp_minus), cosh_env)
    sinh_env = np.where(grouped, (exp_plus - exp_minus) / (2.0 * q), sinh_env)
    cosh_env = np.where(degenerate, envelope, cosh_env)
    sinh_env = np.where(degenerate, duration * envelope, sinh_env)
    ad11 = cosh_env + sinh_env * delta
    ad12 = sinh_env * b
    ad21 = sinh_env * c
    ad22 = cosh_env - sinh_env * delta
    m11 = (d * (ad11 - 1.0) - b * ad21) / det
    m21 = (a * ad21 - c * (ad11 - 1.0)) / det
    return ad11, ad12, ad21, ad22, m11, m21


BATCH_KINDS = (*BRANCHES, "mixed")


@st.composite
def branch_batch(draw, kind):
    """Plants that all take one branch (or a mix), with on-times and periods."""
    n = draw(st.integers(1, 6))
    rows = [
        draw(
            branch_plant(
                draw(st.sampled_from(BRANCHES)) if kind == "mixed" else kind
            )
        )
        for _ in range(n)
    ]
    a, b, c, d = (np.array(column, dtype=float) for column in zip(*rows))
    period = np.asarray(
        draw(
            st.lists(
                st.floats(min_value=0.5, max_value=2.0, allow_nan=False),
                min_size=n,
                max_size=n,
            )
        )
    )
    fractions = draw(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=n, max_size=n)
    )
    return a, b, c, d, period * np.asarray(fractions), period


def assert_same_bits(got, want) -> None:
    for got_entry, want_entry in zip(got, want, strict=True):
        np.testing.assert_array_equal(
            bit_pattern(got_entry), bit_pattern(want_entry)
        )


class TestBranchSkipping:
    """``duration_coefficients`` skips branches without moving a bit."""

    @pytest.mark.parametrize("kind", BATCH_KINDS)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_matches_all_branch_reference(self, kind, data):
        a, b, c, d, on_time, period = data.draw(branch_batch(kind))
        terms = plant_terms(a, b, c, d)
        if kind == "oscillatory":
            assert terms.oscillatory.all()
        elif kind == "degenerate":
            assert terms.degenerate.all()
        elif kind == "grouped":
            assert not (terms.oscillatory.any() or terms.degenerate.any())
        for duration in (on_time, np.stack([on_time, period - on_time])):
            assert_same_bits(
                duration_coefficients(terms, duration),
                all_branches_reference(terms, duration),
            )

    @pytest.mark.parametrize("kind", BATCH_KINDS)
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_out_buffer_and_period_kernel(self, kind, data):
        a, b, c, d, on_time, period = data.draw(branch_batch(kind))
        terms = plant_terms(a, b, c, d)
        stacked = np.stack([on_time, period - on_time])
        out = np.full((6, *stacked.shape), np.nan)
        returned = duration_coefficients(terms, stacked, out=out)
        reference = all_branches_reference(terms, stacked)
        assert_same_bits(out, reference)
        assert all(np.shares_memory(entry, out) for entry in returned)
        step = np.full((a.size, 12), np.nan)
        filled = closed_loop.period_coefficients(terms, on_time, period, out=step)
        assert filled is step
        np.testing.assert_array_equal(
            bit_pattern(step),
            bit_pattern(separate_evaluation(a, b, c, d, on_time, period)),
        )

    def test_scalar_plants_match_reference(self):
        """0-d plants (the scalar exact stepper) take every branch too."""
        plants = (
            (-0.3, -1.0, 25.0, -0.7),
            (-150.0, -1.0, 0.5, -1.0),
            (-4.0, -1.0, 0.0, -4.0),
        )
        for a, b, c, d in plants:
            terms = plant_terms(a, b, c, d)
            for duration in (0.25, 0.9):
                assert_same_bits(
                    duration_coefficients(terms, duration),
                    all_branches_reference(terms, duration),
                )

# --- the np.clip replacement -------------------------------------------------

SPECIAL = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 0.2, 0.8, 1.0, 0.5, -3.0])


def assert_equal_values(got, want) -> None:
    """Equal values (NaN equals NaN); bit-equal wherever the value is not zero.

    ``np.clip(-0.0, 0.0, 1.0)`` keeps ``-0.0`` where ``np.maximum`` gives
    ``+0.0``; every other value keeps its bits.
    """
    np.testing.assert_array_equal(got, want)
    nonzero = np.asarray(want) != 0
    np.testing.assert_array_equal(
        bit_pattern(np.asarray(got)[nonzero]), bit_pattern(np.asarray(want)[nonzero])
    )


class TestClipReplacement:
    """``np.minimum``/``np.maximum`` clamps against an ``np.clip`` reference."""

    @pytest.mark.parametrize("per_variant", [False, True])
    def test_pid_update(self, per_variant):
        n = SPECIAL.size
        if per_variant:
            min_duty, max_duty = np.full(n, 0.2), np.full(n, 0.8)
        else:
            min_duty, max_duty = 0.2, 0.8
        for integral in (SPECIAL, np.full(n, 0.5)):
            for error in (SPECIAL, np.zeros(n), -SPECIAL):
                kp, ki, kd = 0.1, 1.0, 0.5
                previous = np.linspace(-1.0, 1.0, n)
                duty, new_integral = closed_loop.pid_update(
                    error, integral, previous, kp, ki, kd, min_duty, max_duty
                )
                want_integral = np.clip(integral + ki * error, min_duty, max_duty)
                want_duty = np.clip(
                    want_integral + kp * error + kd * (error - previous),
                    min_duty,
                    max_duty,
                )
                assert_equal_values(new_integral, want_integral)
                assert_equal_values(duty, want_duty)

    def test_pid_update_unit_bounds_keep_the_signed_zero_difference_harmless(self):
        """At bounds [0, 1] a -0.0 command clamps to +0.0, and still words 0."""
        error = np.array([-0.0, 0.0, 1.0, -1.0])
        duty, _ = closed_loop.pid_update(
            error, np.array([-0.0, -0.0, 1.0, 0.0]), np.zeros(4),
            0.0, 0.0, 0.0, 0.0, 1.0,
        )
        reference = np.clip(np.array([-0.0, -0.0, 1.0, 0.0]), 0.0, 1.0)
        assert_equal_values(duty, reference)
        levels = np.linspace(0.0, 1.0, 8)[np.newaxis, :]
        rows = np.zeros(4, dtype=np.int64)
        counts = np.full(4, 8)
        got = closed_loop.quantize_duty(duty, levels, rows, counts)
        want = closed_loop.quantize_duty(reference, levels, rows, counts)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(bit_pattern(got[1]), bit_pattern(want[1]))

    @pytest.mark.parametrize("shared_row", [False, True])
    def test_quantize_duty(self, shared_row):
        finite = SPECIAL[~np.isnan(SPECIAL)]
        n = finite.size
        words = 16
        levels = np.sort(
            np.random.default_rng(5).random((1 if shared_row else n, words))
        )
        rows = np.zeros(n, dtype=np.int64) if shared_row else np.arange(n)
        counts = np.full(n, words)
        got_words, got_duties = closed_loop.quantize_duty(
            finite, levels, rows, counts
        )
        want_words = np.minimum(
            np.rint(np.clip(finite, 0.0, 1.0) * counts).astype(np.int64), counts - 1
        )
        np.testing.assert_array_equal(got_words, want_words)
        np.testing.assert_array_equal(
            bit_pattern(got_duties), bit_pattern(levels[rows, want_words])
        )
        out = (np.empty(n, dtype=np.int64), np.empty(n))
        filled = closed_loop.quantize_duty(
            finite, levels, rows, counts, out=out
        )
        assert filled[0] is out[0] and filled[1] is out[1]
        np.testing.assert_array_equal(out[0], want_words)

    @pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
    def test_quantize_duty_nan_fails_like_the_clip_version(self):
        levels = np.linspace(0.0, 1.0, 8)[np.newaxis, :]
        rows, counts = np.zeros(1, dtype=np.int64), np.full(1, 8)
        with pytest.raises(IndexError):
            closed_loop.quantize_duty(
                np.array([np.nan]), levels, rows, counts
            )

    @pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
    @pytest.mark.parametrize("dead_band_v", [0.0, 0.004])
    def test_adc_codes(self, dead_band_v):
        adc = WindowedADC(lsb_v=0.005, bits=5, dead_band_v=dead_band_v)
        limits = np.array([adc.min_code, adc.max_code]) * adc.lsb_v
        measured = 0.9 - np.concatenate(
            [SPECIAL, limits, limits * 1.001, [0.003, -0.003, 0.0025, -0.0075]]
        )
        error = 0.9 - measured
        want = np.clip(
            np.rint(error / adc.lsb_v).astype(np.int64), adc.min_code, adc.max_code
        )
        want = np.where(np.abs(error) <= adc.dead_band_v, 0, want)
        np.testing.assert_array_equal(adc.quantize_error_array(0.9, measured), want)
        out = np.full(measured.size, 99, dtype=np.int64)
        assert adc.quantize_error_array(0.9, measured, out=out) is out
        np.testing.assert_array_equal(out, want)
        # Scalars in, a 0-d code out, as before.
        assert adc.quantize_error_array(0.9, 0.9).shape == ()
