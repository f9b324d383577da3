"""Tests for the experiment harnesses: every table/figure regenerates and the
paper's qualitative claims hold."""

from __future__ import annotations

import pytest

from repro.experiments import registry, run_experiment
from repro.experiments.base import ExperimentResult, register
from repro.experiments.runner import main as runner_main
from repro.experiments.table5 import PAPER_TABLE5
from repro.experiments.table6 import FREQUENCIES_MHZ, PAPER_TABLE6

EXPECTED_EXPERIMENTS = {
    "table2",
    "table4",
    "table5",
    "table6",
    "fig15",
    "fig15_mc",
    "fig19",
    "fig21",
    "fig23",
    "fig28",
    "fig37",
    "fig41_42",
    "fig47_48",
    "fig50_51",
    "fig50_51_mc",
    "design_example",
}


class TestRegistry:
    def test_every_paper_artifact_has_an_experiment(self):
        assert EXPECTED_EXPERIMENTS <= set(registry)

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            run_experiment("table99")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register("table5")(lambda: None)

    @pytest.mark.parametrize("experiment_id", sorted(EXPECTED_EXPERIMENTS))
    def test_experiment_runs_and_reports(self, experiment_id):
        result = run_experiment(experiment_id)
        assert isinstance(result, ExperimentResult)
        assert result.experiment_id == experiment_id
        assert result.data
        assert len(result.report) > 40


class TestTable2Claims:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("table2")

    def test_counter_needs_much_higher_clock(self, result):
        for row in result.data["rows"]:
            assert row["counter_clock_mhz"] > row["delay_line_clock_mhz"]
            assert row["counter_clock_mhz"] == 2 ** row["bits"]

    def test_delay_line_area_larger_at_high_resolution(self, result):
        high_res = [row for row in result.data["rows"] if row["bits"] >= 8]
        for row in high_res:
            assert row["delay_line_area_um2"] > row["counter_area_um2"]

    def test_hybrid_is_the_compromise(self, result):
        for row in result.data["rows"]:
            assert row["hybrid_clock_mhz"] < row["counter_clock_mhz"]
            if row["bits"] >= 8:
                assert row["hybrid_area_um2"] < row["delay_line_area_um2"]

    def test_13_bit_counter_clock_is_multi_ghz(self, result):
        row = next(r for r in result.data["rows"] if r["bits"] == 13)
        # Paper section 2.2.1: "a clock frequency in the range of multiple GHz".
        assert row["counter_clock_mhz"] > 2000.0


class TestTable4Claims:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("table4")

    def test_proposed_wins_linearity_and_calibration(self, result):
        assert result.data["proposed_wins_linearity"]
        assert result.data["proposed_wins_calibration_time"]

    def test_conventional_cell_is_multibranch(self, result):
        assert result.data["conventional_branches"] >= 4


class TestTable5Claims:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("table5")

    def test_tap_counts_match_paper(self, result):
        assert result.data["proposed"]["taps"] == PAPER_TABLE5["proposed"]["taps"]
        assert (
            result.data["conventional"]["taps"]
            == PAPER_TABLE5["conventional"]["taps"]
        )

    def test_total_areas_within_five_percent_of_paper(self, result):
        for scheme in ("proposed", "conventional"):
            measured = result.data[scheme]["total_area_um2"]
            reported = PAPER_TABLE5[scheme]["total_area_um2"]
            assert measured == pytest.approx(reported, rel=0.05)

    def test_proposed_smaller_by_similar_factor(self, result):
        paper_ratio = (
            PAPER_TABLE5["conventional"]["total_area_um2"]
            / PAPER_TABLE5["proposed"]["total_area_um2"]
        )
        assert result.data["area_ratio"] == pytest.approx(paper_ratio, rel=0.1)

    def test_area_distribution_close_to_paper(self, result):
        for scheme in ("proposed", "conventional"):
            for block, paper_pct in PAPER_TABLE5[scheme]["distribution"].items():
                measured_pct = result.data[scheme]["distribution"][block]
                assert measured_pct == pytest.approx(paper_pct, abs=2.0), (
                    scheme,
                    block,
                )

    def test_conventional_dominated_by_line_and_controller(self, result):
        distribution = result.data["conventional"]["distribution"]
        assert distribution["Delay Line"] > 45.0
        assert distribution["Controller"] > 40.0
        assert distribution["Output MUX"] < 5.0


class TestTable6Claims:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("table6")

    def test_buffers_per_cell_match_paper(self, result):
        for frequency in FREQUENCIES_MHZ:
            assert (
                result.data["per_frequency"][frequency]["buffers_per_cell"]
                == PAPER_TABLE6[frequency]["buffers_per_cell"]
            )

    def test_total_area_within_five_percent_of_paper(self, result):
        for frequency in FREQUENCIES_MHZ:
            measured = result.data["per_frequency"][frequency]["total_area_um2"]
            assert measured == pytest.approx(
                PAPER_TABLE6[frequency]["total_area_um2"], rel=0.05
            )

    def test_area_decreases_with_frequency(self, result):
        areas = [
            result.data["per_frequency"][frequency]["total_area_um2"]
            for frequency in FREQUENCIES_MHZ
        ]
        assert areas == sorted(areas, reverse=True)

    def test_delay_line_share_shrinks_with_frequency(self, result):
        shares = [
            result.data["per_frequency"][frequency]["distribution"]["Delay Line"]
            for frequency in FREQUENCIES_MHZ
        ]
        assert shares == sorted(shares, reverse=True)
        for frequency in FREQUENCIES_MHZ:
            assert result.data["per_frequency"][frequency]["distribution"][
                "Delay Line"
            ] == pytest.approx(PAPER_TABLE6[frequency]["delay_line_pct"], abs=2.0)


class TestTimingFigures:
    def test_fig19_duties(self):
        result = run_experiment("fig19")
        for word, duty in result.data["measured_duties"].items():
            assert duty == pytest.approx((word + 1) / 4, abs=0.01)

    def test_fig21_duties(self):
        result = run_experiment("fig21")
        for word, duty in result.data["measured_duties"].items():
            assert duty == pytest.approx((word + 1) / 4, abs=0.01)

    def test_fig23_featured_word(self):
        result = run_experiment("fig23")
        assert result.data["featured_duty"] == pytest.approx(23 / 32, abs=0.005)
        assert result.data["counter_clock_mhz"] == pytest.approx(8.0)
        assert result.data["num_cells"] == 4

    def test_fig28_corner_spread(self):
        result = run_experiment("fig28")
        per_corner = result.data["per_corner"]
        assert per_corner["fast"]["buffer_delay_ps"] == pytest.approx(20.0)
        assert per_corner["slow"]["buffer_delay_ps"] == pytest.approx(80.0)
        # The uncalibrated mid-scale tap drifts from 25 % to ~100 % duty.
        assert per_corner["fast"]["uncalibrated_duty_at_mid_tap"] < 0.3
        assert per_corner["slow"]["uncalibrated_duty_at_mid_tap"] > 0.95


class TestLockingFigures:
    def test_fig37_locks_at_fast_and_typical(self):
        result = run_experiment("fig37")
        assert result.data["per_corner"]["fast"]["locked"]
        assert result.data["per_corner"]["typical"]["locked"]

    def test_fig41_42_sequential_is_worst(self):
        result = run_experiment("fig41_42")
        scenarios = result.data["scenarios"]
        assert (
            scenarios["sequential"]["max_error_fraction_of_period"]
            > scenarios["distributed"]["max_error_fraction_of_period"]
        )
        assert (
            scenarios["sequential"]["max_inl_lsb"]
            > scenarios["round_robin"]["max_inl_lsb"]
        )

    def test_fig47_48_proposed_locks_everywhere_and_faster(self):
        result = run_experiment("fig47_48")
        for corner, record in result.data["per_corner"].items():
            assert record["proposed_locked"], corner
        # Calibration-time comparison is meaningful at the corners where the
        # conventional DLL achieves a true lock (it saturates immediately at
        # the slow corner, see the fig37 experiment).
        for corner in ("fast", "typical"):
            record = result.data["per_corner"][corner]
            assert record["proposed_lock_cycles"] < record["conventional_lock_cycles"]

    def test_fig47_48_tap_sel_scales_with_corner(self):
        result = run_experiment("fig47_48")
        per_corner = result.data["per_corner"]
        assert (
            per_corner["fast"]["proposed_tap_sel"]
            > per_corner["typical"]["proposed_tap_sel"]
            > per_corner["slow"]["proposed_tap_sel"]
        )


class TestLinearityFigures:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("fig50_51")

    def test_all_curves_are_monotonic(self, result):
        for corner in ("slow", "fast"):
            for frequency, record in result.data[corner].items():
                assert record["monotonic"], (corner, frequency)

    def test_slow_corner_has_plateaus(self, result):
        for frequency in result.data["slow"]:
            slow_levels = result.data["slow"][frequency]["distinct_levels"]
            fast_levels = result.data["fast"][frequency]["distinct_levels"]
            assert slow_levels < fast_levels

    def test_fast_corner_linearity_improves_at_lower_frequency(self, result):
        fast = result.data["fast"]
        assert fast[50.0]["rms_inl_lsb"] < fast[200.0]["rms_inl_lsb"]

    def test_curves_overlay_on_common_full_scale(self, result):
        # After the x1 / x2 / x4 scaling all three frequency curves should
        # end near the same 20 ns full scale.
        for corner in ("slow", "fast"):
            finals = [
                record["scaled_delay_ns"][-1]
                for record in result.data[corner].values()
            ]
            assert max(finals) - min(finals) < 1.5

    def test_max_error_stays_within_a_few_percent(self, result):
        for corner in ("slow", "fast"):
            for record in result.data[corner].values():
                assert record["max_error_fraction"] < 0.06


class TestMonteCarloLinearityClaims:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("fig50_51_mc")

    def test_proposed_locks_at_every_corner_and_frequency(self, result):
        for corner in ("slow", "fast"):
            for record in result.data["proposed"][corner].values():
                assert record["lock_yield"] == 1.0

    def test_conventional_fails_to_lock_at_slow_corner(self, result):
        # Paper fig37: the conventional DLL saturates at the slow corner, so
        # its population lock yield (and hence linearity yield) collapses.
        for frequency, record in result.data["conventional"]["slow"].items():
            assert record["lock_yield"] < 0.1, frequency
            assert record["linearity_yield"] < 0.1, frequency

    def test_proposed_yield_improves_at_lower_frequency(self, result):
        # Paper section 4.3: more buffers per cell average out mismatch.
        yields = [
            result.data["proposed"]["slow"][frequency]["linearity_yield"]
            for frequency in (50.0, 100.0, 200.0)
        ]
        assert yields[0] >= yields[1] >= yields[2]
        assert yields[0] > yields[2]

    def test_fast_corner_yields_are_high_for_both_schemes(self, result):
        for scheme in ("proposed", "conventional"):
            for record in result.data[scheme]["fast"].values():
                assert record["linearity_yield"] > 0.95

    def test_curves_stay_monotonic(self, result):
        for scheme in ("proposed", "conventional"):
            for corner in ("slow", "fast"):
                for record in result.data[scheme][corner].values():
                    assert record["monotonic_fraction"] == 1.0


class TestSiliconToRegulationClaims:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("fig15_mc")

    def test_proposed_population_locks_and_regulates_everywhere(self, result):
        for corner in ("slow", "fast"):
            for per_load in result.data["proposed"][corner].values():
                for record in per_load.values():
                    assert record["lock_yield"] == 1.0
                    assert record["regulation_yield"] > 0.95

    def test_conventional_slow_corner_lock_collapse_survives_the_loop(self, result):
        # The unlocked chips still regulate (the loop servos the duty word
        # around the mis-scaled table), so a regulation-only screen would
        # pass silicon whose DPWM never calibrated -- the composed
        # closed-loop yield catches it.
        for per_load in result.data["conventional"]["slow"].values():
            for record in per_load.values():
                assert record["lock_yield"] < 0.1
                assert record["closed_loop_yield"] < 0.1
                assert record["regulation_yield"] > 0.9

    def test_fast_corner_yields_are_high_for_both_schemes(self, result):
        for scheme in ("proposed", "conventional"):
            for per_load in result.data[scheme]["fast"].values():
                for record in per_load.values():
                    assert record["closed_loop_yield"] > 0.95

    def test_limit_cycle_amplitude_is_millivolt_scale_at_constant_load(
        self, result
    ):
        for scheme in ("proposed", "conventional"):
            for corner in ("slow", "fast"):
                for per_load in result.data[scheme][corner].values():
                    record = per_load["constant"]
                    assert record["mean_limit_cycle_amplitude_v"] < 0.025

    def test_closed_loop_yield_never_exceeds_its_factors(self, result):
        for scheme in ("proposed", "conventional"):
            for corner in ("slow", "fast"):
                for per_load in result.data[scheme][corner].values():
                    for record in per_load.values():
                        assert record["closed_loop_yield"] <= min(
                            record["linearity_yield"], record["regulation_yield"]
                        ) + 1e-12


class TestDesignExampleClaims:
    def test_matches_paper_section_4_2(self):
        result = run_experiment("design_example")
        conventional = result.data["conventional"]
        proposed = result.data["proposed"]
        assert conventional["num_cells"] == 64
        assert conventional["branches"] == 4
        assert conventional["buffers_per_element"] == 2
        assert proposed["num_cells"] == 256
        assert proposed["buffers_per_cell"] == 2
        assert conventional["worst_case_total_delay_ps"] == pytest.approx(10_240.0)
        assert proposed["worst_case_total_delay_ps"] == pytest.approx(10_240.0)
        assert conventional["guarantees_locking"]
        assert proposed["guarantees_locking"]


class TestRunnerCLI:
    def test_list(self, capsys):
        assert runner_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "table5" in out
        assert "fig50_51_mc" in out

    def test_run_single_experiment(self, capsys):
        assert runner_main(["design_example"]) == 0
        out = capsys.readouterr().out
        assert "design_example" in out

    def test_unknown_experiment_fails(self, capsys):
        assert runner_main(["table99"]) == 2

    def test_no_arguments_prints_help(self, capsys):
        assert runner_main([]) == 1

    def test_all_with_explicit_ids_is_an_error(self, capsys):
        assert runner_main(["--all", "table4"]) == 2
        err = capsys.readouterr().err
        assert "cannot be combined" in err

    def test_json_dump(self, capsys, tmp_path):
        path = tmp_path / "results.json"
        assert runner_main(["fig41_42", "--json", str(path)]) == 0
        import json

        dumped = json.loads(path.read_text())
        assert set(dumped) == {"fig41_42"}
        scenarios = dumped["fig41_42"]["data"]["scenarios"]
        assert set(scenarios) == {"sequential", "round_robin", "distributed"}
        # Everything in the dump must be plain JSON types (no numpy left).
        assert isinstance(scenarios["sequential"]["max_inl_lsb"], float)
        assert isinstance(scenarios["sequential"]["levels"], list)

    def test_seed_threads_into_monte_carlo_experiments(self, capsys, monkeypatch):
        from repro.experiments import registry as live_registry
        from repro.experiments.base import ExperimentResult as Result

        received = {}

        def fake_mc(seed=None):
            received["seed"] = seed
            return Result("fake_mc", "t", {"seed": seed}, "report " + "x" * 40)

        monkeypatch.setitem(live_registry, "fake_mc", fake_mc)
        assert runner_main(["fake_mc", "--seed", "123"]) == 0
        assert received["seed"] == 123
        # Without the flag the experiment keeps its built-in default.
        assert runner_main(["fake_mc"]) == 0
        assert received["seed"] is None

    def test_seed_ignored_by_deterministic_experiments_with_a_note(self, capsys):
        assert runner_main(["design_example", "--seed", "9"]) == 0
        captured = capsys.readouterr()
        assert "ignored by: design_example" in captured.err
        assert "design_example" in captured.out

    def test_monte_carlo_experiments_declare_a_seed(self):
        from repro.experiments.base import accepts_parameter

        for experiment_id in ("fig15", "fig15_mc", "fig50_51_mc"):
            assert accepts_parameter(experiment_id, "seed"), experiment_id
        for experiment_id in ("table5", "design_example", "fig19"):
            assert not accepts_parameter(experiment_id, "seed"), experiment_id

    def test_failing_experiment_reports_nonzero_without_traceback(
        self, capsys, monkeypatch
    ):
        from repro.experiments import registry as live_registry

        def boom():
            raise RuntimeError("exploded mid-run")

        monkeypatch.setitem(live_registry, "boom", boom)
        assert runner_main(["boom", "design_example"]) == 1
        captured = capsys.readouterr()
        assert "exploded mid-run" in captured.err
        assert "failed experiments: boom" in captured.err
        # The healthy experiment still ran and reported.
        assert "design_example" in captured.out

    def test_json_refuses_to_overwrite_without_force(self, capsys, tmp_path):
        path = tmp_path / "results.json"
        path.write_text('{"precious": true}')
        assert runner_main(["design_example", "--json", str(path)]) == 2
        captured = capsys.readouterr()
        assert "refusing to overwrite" in captured.err
        assert "--force" in captured.err
        # Nothing ran and the existing file is untouched.
        assert "design_example" not in captured.out
        assert path.read_text() == '{"precious": true}'

    def test_json_force_overwrites(self, capsys, tmp_path):
        path = tmp_path / "results.json"
        path.write_text('{"stale": true}')
        assert runner_main(["design_example", "--json", str(path), "--force"]) == 0
        import json

        assert set(json.loads(path.read_text())) == {"design_example"}

    def test_workers_below_one_rejected(self, capsys):
        assert runner_main(["design_example", "--workers", "0"]) == 2
        assert "--workers must be >= 1" in capsys.readouterr().err

    def test_workers_ignored_by_non_grid_experiments_with_a_note(self, capsys):
        assert runner_main(["design_example", "--workers", "2"]) == 0
        captured = capsys.readouterr()
        assert "ignored by: design_example" in captured.err
        assert "design_example" in captured.out

    def test_cache_dir_threads_an_orchestrator_and_reports_stats(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.experiments import registry as live_registry
        from repro.experiments.base import ExperimentResult as Result
        from repro.sweep import sweep_map

        def fake_grid(seed=None, sweep=None):
            assert sweep is not None
            assert sweep.config.workers == 1
            [payload] = sweep_map(
                lambda params: {"value": params["x"]},
                [{"x": 3, "seed": seed}],
                experiment_id="fake_grid",
                sweep=sweep,
            )
            return Result("fake_grid", "t", payload, "report " + "x" * 40)

        monkeypatch.setitem(live_registry, "fake_grid", fake_grid)
        cache_dir = tmp_path / "cache"
        argv = ["fake_grid", "--cache-dir", str(cache_dir)]
        assert runner_main(argv) == 0
        assert "sweep cache: 0 hit(s), 1 miss(es)" in capsys.readouterr().err
        assert list((cache_dir / "fake_grid").glob("*.json"))
        # The second invocation resolves every cell from the cache.
        assert runner_main(argv) == 0
        assert "sweep cache: 1 hit(s), 0 miss(es)" in capsys.readouterr().err
        # --prune-cache reports (nothing is stale here) and still runs.
        assert runner_main(argv + ["--prune-cache"]) == 0
        assert "pruned 0 stale entries" in capsys.readouterr().err

    def test_prune_cache_requires_cache_dir(self, capsys):
        assert runner_main(["design_example", "--prune-cache"]) == 2
        assert "--prune-cache requires --cache-dir" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-0.1", "0.5", "1.0"])
    def test_precision_out_of_range_rejected(self, capsys, value):
        assert runner_main(["fig50_51_mc", "--precision", value]) == 2
        assert "--precision must be in (0, 0.5)" in capsys.readouterr().err

    def test_max_instances_requires_precision(self, capsys):
        assert runner_main(["fig50_51_mc", "--max-instances", "100"]) == 2
        assert "--max-instances requires --precision" in capsys.readouterr().err

    def test_max_instances_below_one_rejected(self, capsys):
        argv = ["fig50_51_mc", "--precision", "0.02", "--max-instances", "0"]
        assert runner_main(argv) == 2
        assert "--max-instances must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["fig15_rare", "--estimator", "vanilla", "--tilt-shift", "0.5"],
                "cannot be combined with --estimator vanilla",
            ),
            (
                ["fig15_rare", "--estimator", "stratified", "--tilt-scale", "2"],
                "cannot be combined with --estimator stratified",
            ),
            (["fig15_rare", "--tilt-scale", "0"], "--tilt-scale must be > 0"),
            (
                ["fig15_mission", "--mission-length", "0"],
                "--mission-length must be >= 1",
            ),
            (
                ["fig15_mission", "--correlation", "bogus"],
                "unknown --correlation 'bogus'; available: ",
            ),
        ],
        ids=[
            "tilt-shift-vanilla",
            "tilt-scale-stratified",
            "tilt-scale-zero",
            "mission-length-zero",
            "unknown-correlation",
        ],
    )
    def test_invalid_rare_event_and_mission_options_rejected(
        self, capsys, argv, message
    ):
        assert runner_main(argv) == 2
        assert message in capsys.readouterr().err

    def test_precision_threads_into_adaptive_experiments(self, capsys, monkeypatch):
        from repro.experiments import registry as live_registry
        from repro.experiments.base import ExperimentResult as Result

        received = {}

        def fake_adaptive(seed=None, precision=None, max_instances=None):
            received["precision"] = precision
            received["max_instances"] = max_instances
            return Result("fake_adaptive", "t", {"p": precision}, "report " + "x" * 40)

        monkeypatch.setitem(live_registry, "fake_adaptive", fake_adaptive)
        argv = ["fake_adaptive", "--precision", "0.05", "--max-instances", "256"]
        assert runner_main(argv) == 0
        assert received == {"precision": 0.05, "max_instances": 256}

    def test_precision_ignored_by_fixed_experiments_with_a_note(self, capsys):
        assert runner_main(["design_example", "--precision", "0.02"]) == 0
        captured = capsys.readouterr()
        assert "--precision only reaches the Monte-Carlo experiments" in captured.err
        assert "ignored by: design_example" in captured.err

    def test_monte_carlo_experiments_declare_adaptive_support(self):
        from repro.experiments.base import accepts_parameter

        for experiment_id in ("fig15", "fig15_mc", "fig50_51_mc"):
            assert accepts_parameter(experiment_id, "precision"), experiment_id
        for experiment_id in ("table5", "design_example", "fig19"):
            assert not accepts_parameter(experiment_id, "precision"), experiment_id


#: Every runner option: the ``run_experiment`` keyword, a valid value, the
#: CLI arguments that set it and the ``run`` keyword it reaches.
RUNNER_OPTIONS = [
    ("seed", 5, ["--seed", "5"]),
    ("sweep", None, ["--workers", "2"]),
    ("sweep", None, ["--cache-dir", "{tmp}"]),
    ("sweep", None, ["--executor", "serial"]),
    ("sweep", None, ["--progress"]),
    ("precision", 0.05, ["--precision", "0.05"]),
    ("max_instances", 64, ["--precision", "0.05", "--max-instances", "64"]),
    ("estimator", "vanilla", ["--estimator", "vanilla"]),
    ("tilt_shift", 0.5, ["--tilt-shift", "0.5"]),
    ("tilt_scale", 1.5, ["--tilt-scale", "1.5"]),
    ("mission_length", 64, ["--mission-length", "64"]),
    ("mission_seed", 3, ["--mission-seed", "3"]),
    ("correlation", "passives", ["--correlation", "passives"]),
]


def _declares(experiment_id: str, name: str) -> bool:
    import inspect

    return name in inspect.signature(registry[experiment_id]).parameters


class TestOptionForwarding:
    """One path per runner option: forwarded exactly where ``run`` declares it."""

    @pytest.mark.parametrize("experiment_id", sorted(registry))
    @pytest.mark.parametrize(
        "name, value", sorted({(name, value) for name, value, _ in RUNNER_OPTIONS})
    )
    def test_run_experiment_forwards_declared_options_only(
        self, monkeypatch, experiment_id, name, value
    ):
        import inspect

        from repro.sweep import SweepOrchestrator

        received = {}

        def recorder(**kwargs):
            received.update(kwargs)
            return ExperimentResult(experiment_id, "t", {}, "report")

        recorder.__signature__ = inspect.signature(registry[experiment_id])
        monkeypatch.setitem(registry, experiment_id, recorder)
        given = {name: SweepOrchestrator() if name == "sweep" else value}
        if name == "max_instances":
            given["precision"] = 0.05
        run_experiment(experiment_id, **given)
        assert received == {
            key: option
            for key, option in given.items()
            if _declares(experiment_id, key)
        }

    @pytest.mark.parametrize("name, value, argv", RUNNER_OPTIONS)
    def test_cli_note_names_exactly_the_experiments_not_declaring_it(
        self, capsys, monkeypatch, tmp_path, name, value, argv
    ):
        import repro.experiments.runner as runner

        monkeypatch.setattr(
            runner,
            "run_experiment",
            lambda experiment_id, **_: ExperimentResult(
                experiment_id, "t", {}, "report"
            ),
        )
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        assert runner_main(["--all", *argv]) == 0
        [note] = [
            line
            for line in capsys.readouterr().err.splitlines()
            if "ignored by: " in line
        ]
        ignoring = note.split("ignored by: ")[1].split(", ")
        assert ignoring == [
            experiment_id
            for experiment_id in sorted(registry)
            if not _declares(experiment_id, name)
        ]


class TestBudgetCoordinates:
    def test_fixed_budget_round_trips_to_one_full_chunk(self):
        from repro.experiments.base import adaptive_coordinates, monte_carlo_budget

        cell = adaptive_coordinates(None, None, default_max_instances=512)
        assert cell == {}
        assert monte_carlo_budget(cell, fixed_instances=128) == {
            "precision": 0.0,
            "max_instances": 128,
            "chunk_size": 128,
        }

    @pytest.mark.parametrize("max_instances, expected", [(None, 512), (300, 300)])
    def test_adaptive_budget_round_trips_its_coordinates(
        self, max_instances, expected
    ):
        from repro.experiments.base import adaptive_coordinates, monte_carlo_budget

        cell = adaptive_coordinates(0.02, max_instances, default_max_instances=512)
        assert cell == {"precision": 0.02, "max_instances": expected}
        assert monte_carlo_budget(cell, fixed_instances=128) == cell

    def test_max_instances_without_precision_is_rejected(self):
        from repro.experiments.base import adaptive_coordinates

        with pytest.raises(ValueError, match="only meaningful with a precision"):
            adaptive_coordinates(None, 300, default_max_instances=512)


class TestAdaptiveExperiments:
    """The --precision mode of the three Monte-Carlo experiments."""

    def test_fig50_51_mc_adaptive_reports_confidence_columns(self):
        result = run_experiment(
            "fig50_51_mc", precision=0.05, max_instances=192
        )
        assert "95 % CI" in result.report
        assert "adaptive to +/- 0.05" in result.report
        entry = result.data["proposed"]["fast"][200.0]
        assert entry["samples"] <= 192
        assert entry["stop_reason"] in {"precision", "max_samples"}
        assert entry["ci_lower"] <= entry["linearity_yield"] <= entry["ci_upper"]

    def test_fig50_51_mc_rejects_cap_without_precision(self):
        with pytest.raises(ValueError, match="only meaningful with a precision"):
            run_experiment("fig50_51_mc", max_instances=100)
        from repro.experiments import figure15, figure15_mc

        with pytest.raises(ValueError, match="only meaningful with a precision"):
            figure15.run(max_instances=100)
        with pytest.raises(ValueError, match="only meaningful with a precision"):
            figure15_mc.run(max_instances=100)

    def test_fig15_mc_adaptive_cell_payload(self):
        from repro.experiments import figure15_mc

        payload = figure15_mc.run_cell(
            {
                "scheme": "proposed",
                "corner": "fast",
                "frequency_mhz": 100.0,
                "load": "constant",
                "seed": 2012,
                "precision": 0.05,
                "max_instances": 128,
            }
        )
        assert payload["samples"] <= 128
        assert payload["ci_lower"] <= payload["closed_loop_yield"]
        assert payload["closed_loop_yield"] <= payload["ci_upper"]
        assert payload["mean_limit_cycle_amplitude_v"] >= 0.0

    def test_fig15_adaptive_sections_report_samples(self):
        result = run_experiment("fig15", precision=0.1, max_instances=64)
        assert "Samples drawn (adaptive)" in result.report
        for section in ("monte_carlo", "silicon_monte_carlo"):
            entry = result.data[section]
            assert entry["samples"] <= 64
            assert entry["stop_reason"] in {"precision", "max_samples"}
        # The deterministic architecture comparison is untouched.
        assert set(result.data["architectures"]) == {
            "ideal 6-bit",
            "calibrated proposed",
            "calibrated conventional",
        }

    def test_adaptive_cells_cache_independently_of_fixed_cells(self, tmp_path):
        from repro.sweep import SweepConfig, SweepOrchestrator

        with SweepOrchestrator(
            SweepConfig(cache_dir=tmp_path / "cache")
        ) as sweep:
            run_experiment(
                "fig50_51_mc", sweep=sweep, precision=0.05, max_instances=192
            )
            cold_misses = sweep.misses
            assert cold_misses > 0 and sweep.hits == 0
            # Warm adaptive re-run: every adaptive cell hits.
            run_experiment(
                "fig50_51_mc", sweep=sweep, precision=0.05, max_instances=192
            )
            assert sweep.hits == cold_misses
            # A different precision is a different cache key.
            run_experiment(
                "fig50_51_mc", sweep=sweep, precision=0.06, max_instances=192
            )
            assert sweep.misses == 2 * cold_misses
