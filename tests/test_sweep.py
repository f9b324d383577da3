"""Tests for the sweep subsystem: grids, content-addressed cache, orchestration.

The cache-correctness properties the orchestrator's contract rests on are
covered here: corrupted or partial entries are discarded and transparently
recomputed, and any change to the seed, the parameter cell or the code
fingerprint misses the cache (hypothesis property tests).
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.base import accepts_parameter
from repro.sweep import (
    MISS,
    ParameterGrid,
    ResultCache,
    SweepConfig,
    SweepOrchestrator,
    canonical_json,
    cell_key,
    code_fingerprint,
    jsonable,
    sweep_map,
)

# --- module-level cell functions (picklable into pool workers) -------------

#: In-process invocation counter for the serial cache tests.
CALLS = {"count": 0}


def counting_cell(params: dict) -> dict:
    CALLS["count"] += 1
    return {"x": params["x"], "computed": True}


def double_cell(params: dict) -> dict:
    return {"doubled": params["x"] * 2}


def numpy_cell(params: dict) -> dict:
    return {
        "scalar": np.float64(params["x"]),
        "array": np.arange(3) * params["x"],
        "nested": {"flag": np.bool_(True)},
    }


#: JSON scalars usable as axis values / cell parameters.
scalars = st.one_of(
    st.integers(min_value=-(10**9), max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=12),
    st.booleans(),
    st.none(),
)

param_dicts = st.dictionaries(
    st.text(min_size=1, max_size=8), scalars, min_size=1, max_size=5
)


class TestParameterGrid:
    def test_iterates_in_nested_loop_order(self):
        grid = ParameterGrid(a=("x", "y"), b=(1, 2))
        assert list(grid) == [
            {"a": "x", "b": 1},
            {"a": "x", "b": 2},
            {"a": "y", "b": 1},
            {"a": "y", "b": 2},
        ]

    def test_len_is_cross_product_size(self):
        assert len(ParameterGrid(a=(1, 2), b=(1, 2, 3), c=("u",))) == 6

    def test_cells_adds_shared_extras(self):
        cells = ParameterGrid(a=(1, 2)).cells(seed=7)
        assert cells == [{"a": 1, "seed": 7}, {"a": 2, "seed": 7}]

    def test_rejects_no_axes(self):
        with pytest.raises(ValueError, match="at least one axis"):
            ParameterGrid()

    def test_rejects_empty_axis(self):
        with pytest.raises(ValueError, match="no values"):
            ParameterGrid(a=())

    def test_rejects_duplicate_values(self):
        with pytest.raises(ValueError, match="duplicate"):
            ParameterGrid(a=(1, 1))

    def test_rejects_non_scalar_values(self):
        with pytest.raises(TypeError, match="JSON scalar"):
            ParameterGrid(a=((1, 2),))


class TestCellKey:
    def test_deterministic(self):
        params = {"scheme": "proposed", "frequency_mhz": 100.0, "seed": 7}
        assert cell_key("fig", params) == cell_key("fig", params)

    def test_independent_of_dict_order(self):
        assert cell_key("fig", {"a": 1, "b": 2}) == cell_key("fig", {"b": 2, "a": 1})

    def test_experiment_id_enters_the_key(self):
        assert cell_key("fig_a", {"x": 1}) != cell_key("fig_b", {"x": 1})

    def test_fingerprint_enters_the_key(self):
        params = {"x": 1}
        assert cell_key("fig", params, fingerprint="aaa") != cell_key(
            "fig", params, fingerprint="bbb"
        )

    def test_code_fingerprint_is_stable_hex(self):
        first, second = code_fingerprint(), code_fingerprint()
        assert first == second
        assert len(first) == 64
        int(first, 16)

    @given(params=param_dicts, seeds=st.tuples(st.integers(), st.integers()))
    def test_changed_seed_misses(self, params, seeds):
        seed_a, seed_b = seeds
        key_a = cell_key("fig", {**params, "seed": seed_a})
        key_b = cell_key("fig", {**params, "seed": seed_b})
        assert (key_a == key_b) == (seed_a == seed_b)

    @given(
        params=param_dicts,
        name=st.text(min_size=1, max_size=8),
        values=st.tuples(scalars, scalars),
    )
    def test_changed_parameter_cell_misses(self, params, name, values):
        value_a, value_b = values
        key_a = cell_key("fig", {**params, name: value_a})
        key_b = cell_key("fig", {**params, name: value_b})
        # Canonical JSON equality is the cache's notion of "same cell":
        # distinct values must produce distinct keys.
        same = canonical_json(value_a) == canonical_json(value_b)
        assert (key_a == key_b) == same


class TestResultCache:
    def test_store_then_load_roundtrips(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cell_key("fig", {"x": 1})
        cache.store("fig", key, {"value": 1.5}, params={"x": 1})
        assert cache.load("fig", key) == {"value": 1.5}

    def test_absent_entry_is_a_miss(self, tmp_path):
        assert ResultCache(tmp_path).load("fig", "0" * 64) is MISS

    def test_null_payload_is_a_hit(self, tmp_path):
        # A legitimately-null payload must not read back as a miss.
        cache = ResultCache(tmp_path)
        key = cell_key("fig", {"x": 1})
        cache.store("fig", key, None)
        assert cache.load("fig", key) is None
        assert cache.load("fig", key) is not MISS

    def test_store_leaves_no_temporaries(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store("fig", "a" * 64, {"v": 1})
        assert [p.name for p in (tmp_path / "fig").iterdir()] == [f"{'a' * 64}.json"]

    @given(garbage=st.binary(max_size=200))
    @settings(max_examples=25)
    def test_corrupted_entry_discarded(self, tmp_path_factory, garbage):
        # Whatever bytes land in an entry file -- truncation, partial
        # writes, random corruption -- an invalid entry reads as a miss and
        # is deleted so the recompute can replace it.
        tmp_path = tmp_path_factory.mktemp("cache")
        cache = ResultCache(tmp_path)
        key = cell_key("fig", {"x": 1})
        path = cache.entry_path("fig", key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(garbage)
        assert cache.load("fig", key) is MISS
        assert not path.exists()

    def test_partial_entry_discarded(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cell_key("fig", {"x": 1})
        cache.store("fig", key, {"value": 1})
        path = cache.entry_path("fig", key)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        assert cache.load("fig", key) is MISS
        assert not path.exists()

    def test_tampered_key_echo_discarded(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cell_key("fig", {"x": 1})
        cache.store("fig", key, {"value": 1})
        path = cache.entry_path("fig", key)
        entry = json.loads(path.read_text())
        entry["key"] = "f" * 64
        path.write_text(json.dumps(entry))
        assert cache.load("fig", key) is MISS
        assert not path.exists()

    def test_prune_reclaims_stale_fingerprint_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        current_key = cell_key("fig", {"x": 1})
        cache.store("fig", current_key, {"value": 1})
        # Simulate an entry written by an older version of the sources.
        stale_key = cell_key("fig", {"x": 2}, fingerprint="old" * 16)
        cache.store("fig", stale_key, {"value": 2})
        stale_path = cache.entry_path("fig", stale_key)
        entry = json.loads(stale_path.read_text())
        entry["fingerprint"] = "old" * 16
        stale_path.write_text(json.dumps(entry))

        assert cache.prune() == 1
        assert not stale_path.exists()
        assert cache.load("fig", current_key) == {"value": 1}
        # Idempotent: nothing left to reclaim.
        assert cache.prune() == 0

    def test_prune_also_reclaims_unreadable_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.entry_path("fig", "0" * 64)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{ corrupted")
        assert cache.prune() == 1
        assert not path.exists()

    def test_unknown_format_version_discarded(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cell_key("fig", {"x": 1})
        cache.store("fig", key, {"value": 1})
        path = cache.entry_path("fig", key)
        entry = json.loads(path.read_text())
        entry["format"] = 999
        path.write_text(json.dumps(entry))
        assert cache.load("fig", key) is MISS

    def test_tampered_payload_discarded(self, tmp_path):
        # A tampered payload inside an otherwise-valid wrapper fails the
        # checksum and reads as a miss (then recomputes).
        cache = ResultCache(tmp_path)
        key = cell_key("fig", {"x": 1})
        cache.store("fig", key, {"value": 1.0})
        path = cache.entry_path("fig", key)
        entry = json.loads(path.read_text())
        entry["payload"] = {"value": 99.0}
        path.write_text(json.dumps(entry))
        assert cache.load("fig", key) is MISS
        assert not path.exists()


class TestOrchestrator:
    def test_serial_map_without_orchestrator(self):
        payloads = sweep_map(
            double_cell, [{"x": 1}, {"x": 4}], experiment_id="fig"
        )
        assert payloads == [{"doubled": 2}, {"doubled": 8}]

    def test_payloads_are_normalized_json(self):
        [payload] = sweep_map(numpy_cell, [{"x": 2}], experiment_id="fig")
        assert payload == {
            "scalar": 2.0,
            "array": [0, 2, 4],
            "nested": {"flag": True},
        }
        assert type(payload["scalar"]) is float
        assert type(payload["array"]) is list

    def test_warm_cache_skips_recompute(self, tmp_path):
        cells = [{"x": 1, "seed": 7}, {"x": 2, "seed": 7}]
        CALLS["count"] = 0
        with SweepOrchestrator(SweepConfig(cache_dir=tmp_path)) as sweep:
            cold = sweep.map_cells(counting_cell, cells, experiment_id="fig")
            assert CALLS["count"] == 2
            assert (sweep.hits, sweep.misses) == (0, 2)
            warm = sweep.map_cells(counting_cell, cells, experiment_id="fig")
        assert CALLS["count"] == 2
        assert (sweep.hits, sweep.misses) == (2, 2)
        assert warm == cold

    def test_changed_seed_recomputes(self, tmp_path):
        CALLS["count"] = 0
        with SweepOrchestrator(SweepConfig(cache_dir=tmp_path)) as sweep:
            sweep.map_cells(counting_cell, [{"x": 1, "seed": 1}], experiment_id="fig")
            sweep.map_cells(counting_cell, [{"x": 1, "seed": 2}], experiment_id="fig")
        assert CALLS["count"] == 2

    def test_corrupted_entry_recomputed_and_repaired(self, tmp_path):
        cells = [{"x": 5, "seed": 7}]
        CALLS["count"] = 0
        with SweepOrchestrator(SweepConfig(cache_dir=tmp_path)) as sweep:
            [payload] = sweep.map_cells(counting_cell, cells, experiment_id="fig")
            key = cell_key("fig", cells[0])
            path = sweep.cache.entry_path("fig", key)
            path.write_text("{ corrupted")
            [recomputed] = sweep.map_cells(counting_cell, cells, experiment_id="fig")
            assert recomputed == payload
            assert CALLS["count"] == 2
            # The repaired entry is valid again and hits on the next pass.
            [warm] = sweep.map_cells(counting_cell, cells, experiment_id="fig")
            assert warm == payload
            assert CALLS["count"] == 2

    def test_parallel_matches_serial(self, tmp_path):
        cells = [{"x": value} for value in range(5)]
        serial = sweep_map(double_cell, cells, experiment_id="fig")
        with SweepOrchestrator(SweepConfig(workers=2)) as sweep:
            parallel = sweep.map_cells(double_cell, cells, experiment_id="fig")
        assert parallel == serial

    def test_parallel_populates_cache_for_warm_serial_run(self, tmp_path):
        cells = [{"x": value} for value in range(4)]
        with SweepOrchestrator(
            SweepConfig(workers=2, cache_dir=tmp_path)
        ) as sweep:
            cold = sweep.map_cells(double_cell, cells, experiment_id="fig")
        with SweepOrchestrator(SweepConfig(cache_dir=tmp_path)) as warm_sweep:
            warm = warm_sweep.map_cells(double_cell, cells, experiment_id="fig")
        assert warm == cold
        assert warm_sweep.hits == len(cells)

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="workers"):
            SweepConfig(workers=0)

    def test_jsonable_handles_numpy_trees(self):
        converted = jsonable(
            {"a": np.float32(1.5), "b": np.array([[1, 2]]), 3: "x"}
        )
        assert converted == {"a": 1.5, "b": [[1, 2]], "3": "x"}


class TestExperimentIntegration:
    def test_grid_experiments_declare_sweep(self):
        for experiment_id in ("fig15", "fig15_mc", "fig50_51_mc"):
            assert accepts_parameter(experiment_id, "sweep"), experiment_id
        for experiment_id in ("table5", "design_example", "fig19"):
            assert not accepts_parameter(experiment_id, "sweep"), experiment_id

    def test_run_experiment_threads_orchestrator(self, monkeypatch):
        from repro.experiments import registry, run_experiment
        from repro.experiments.base import ExperimentResult

        received = {}

        def fake_grid(seed=None, sweep=None):
            received["sweep"] = sweep
            return ExperimentResult("fake_grid", "t", {"ok": True}, "r" * 50)

        monkeypatch.setitem(registry, "fake_grid", fake_grid)
        with SweepOrchestrator() as sweep:
            run_experiment("fake_grid", sweep=sweep)
            assert received["sweep"] is sweep
        run_experiment("fake_grid")
        assert received["sweep"] is None

    def test_grid_cells_cover_the_original_loops(self):
        from repro.experiments.figure15_mc import GRID as fig15_mc_grid
        from repro.experiments.figure50_51_mc import GRID as fig50_51_mc_grid

        assert len(fig50_51_mc_grid) == 12
        assert len(fig15_mc_grid) == 16
        first = next(iter(fig15_mc_grid))
        assert first == {
            "scheme": "proposed",
            "corner": "slow",
            "frequency_mhz": 100.0,
            "load": "constant",
        }
