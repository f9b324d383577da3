"""Tests for the analysis package (metrics, power, reports)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.metrics import (
    differential_nonlinearity,
    integral_nonlinearity,
    is_monotonic,
    linearity_metrics,
)
from repro.analysis.power import dynamic_power_w, leakage_power_w, netlist_dynamic_power_w
from repro.analysis.reports import format_series, format_table
from repro.technology.cells import CellKind
from repro.technology.netlist import Netlist


class TestLinearityMetrics:
    def test_perfect_ramp_has_zero_dnl_inl(self):
        ramp = np.arange(16, dtype=float)
        assert np.allclose(differential_nonlinearity(ramp), 0.0)
        assert np.allclose(integral_nonlinearity(ramp), 0.0)
        metrics = linearity_metrics(ramp)
        assert metrics.max_dnl_lsb == 0.0
        assert metrics.max_inl_lsb == 0.0
        assert metrics.monotonic
        assert metrics.distinct_levels == 16

    def test_missing_code_shows_as_dnl(self):
        curve = np.array([0.0, 1.0, 1.0, 3.0])  # repeated value then a jump
        dnl = differential_nonlinearity(curve, lsb=1.0)
        assert dnl[1] == pytest.approx(-1.0)
        assert dnl[2] == pytest.approx(1.0)

    def test_bowed_curve_shows_as_inl(self):
        codes = np.arange(32, dtype=float)
        bowed = codes + 2.0 * np.sin(np.pi * codes / 31)
        inl = integral_nonlinearity(bowed, lsb=1.0)
        assert np.max(np.abs(inl)) == pytest.approx(2.0, abs=0.1)

    def test_monotonicity(self):
        assert is_monotonic(np.array([0.0, 1.0, 1.0, 2.0]))
        assert not is_monotonic(np.array([0.0, 1.0, 0.5, 2.0]))
        assert not is_monotonic(np.array([0.0, 1.0, 1.0, 2.0]), strict=True)

    def test_degenerate_curves_rejected(self):
        with pytest.raises(ValueError):
            differential_nonlinearity(np.array([1.0]))
        with pytest.raises(ValueError):
            integral_nonlinearity(np.array([1.0, 1.0]))


class TestPowerModels:
    def test_dynamic_power_formula(self):
        # P = alpha * C * V^2 * f  (paper eq. 14)
        assert dynamic_power_w(1e-12, 1.0, 1e9, activity=1.0) == pytest.approx(1e-3)
        assert dynamic_power_w(1e-12, 2.0, 1e9, activity=0.5) == pytest.approx(2e-3)

    def test_dynamic_power_validation(self):
        with pytest.raises(ValueError):
            dynamic_power_w(-1.0, 1.0, 1e6)
        with pytest.raises(ValueError):
            dynamic_power_w(1e-12, 1.0, 1e6, activity=2.0)

    @pytest.mark.parametrize("vdd_v", [0.0, -1.0])
    def test_dynamic_power_rejects_nonpositive_supply(self, vdd_v):
        with pytest.raises(ValueError, match="supply voltage"):
            dynamic_power_w(1e-12, vdd_v, 1e6)

    def test_dynamic_power_rejects_negative_frequency(self):
        with pytest.raises(ValueError, match="frequency"):
            dynamic_power_w(1e-12, 1.0, -1.0)
        assert dynamic_power_w(1e-12, 1.0, 0.0) == 0.0

    def test_netlist_power_scales_with_frequency(self, library):
        netlist = Netlist(name="block").add_cells(CellKind.DFF, 10)
        slow = netlist_dynamic_power_w(netlist, library, 1.0, 1e6)
        fast = netlist_dynamic_power_w(netlist, library, 1.0, 1e9)
        assert fast == pytest.approx(1000 * slow)

    def test_leakage_power(self, library):
        netlist = Netlist(name="block").add_cells(CellKind.BUFFER, 1000)
        expected = 1000 * library.leakage_nw(CellKind.BUFFER) * 1e-9
        assert leakage_power_w(netlist, library) == pytest.approx(expected)


class TestReports:
    def test_format_table_aligns_columns(self):
        text = format_table(["a", "bbb"], [[1, 2], [33, 4]], title="t")
        lines = text.splitlines()
        assert lines[0] == "t"
        assert "a" in lines[1] and "bbb" in lines[1]
        assert len(lines) == 5

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_format_series_subsamples(self):
        x = list(range(100))
        series = {"y": [float(v) for v in x]}
        text = format_series("x", x, series, max_rows=10)
        assert len(text.splitlines()) < 20
        assert text.splitlines()[-1].startswith("99")

    def test_format_series_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_series("x", [1, 2, 3], {"y": [1.0, 2.0]})
