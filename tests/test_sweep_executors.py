"""Tests for the pluggable sweep executors and resumability.

The contracts gated here (see ``docs/sweeps.md``):

* both executors -- serial and process-pool -- produce bit-identical
  payloads;
* the process-pool executor streams results in completion order, so a
  straggler cell does not head-of-line-block the cells behind it;
* executors take ``(index, params)`` items and yield ``(index, payload)``
  pairs; the orchestrator slots them back in cell order, hands only
  cache misses to the executor, and stores each payload before the next
  cell runs;
* normal shutdown is graceful (``close``/``join``: in-flight cells
  finish); only an explicit ``abort`` terminates the pool;
* **resumability**: a SIGKILLed serial sweep restarted against the same
  cache recomputes zero completed cells;
* the ``--progress`` stream follows its documented line format.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments.runner import main as runner_main
from repro.sweep import (
    EXECUTOR_NAMES,
    MISS,
    ProcessPoolExecutor,
    ProgressReporter,
    ResultCache,
    SerialExecutor,
    SweepConfig,
    SweepOrchestrator,
    canonical_json,
    cell_key,
    make_executor,
    pool_chunksize,
    sweep_map,
)
from repro.sweep.executors import _call_indexed

SRC_DIR = Path(__file__).resolve().parents[1] / "src"

# --- module-level cell functions (picklable into pool workers) -------------


def value_cell(params: dict) -> dict:
    return {"value": params["x"] * 0.1, "third": params["x"] / 3.0}


def straggler_cell(params: dict) -> dict:
    # Cell 0 is the straggler: everything dispatched after it finishes
    # long before it does.
    if params["x"] == 0:
        time.sleep(0.5)
    return {"x": params["x"]}


def marking_cell(params: dict) -> dict:
    Path(params["marker_dir"], f"x{params['x']}.pid{os.getpid()}").touch()
    return {"value": params["x"] * 3}


# ---------------------------------------------------------------------------
# configuration and factory


class TestSweepConfig:
    def test_auto_selects_serial_for_one_worker(self):
        assert SweepConfig().executor_name == "serial"

    def test_auto_selects_process_pool_for_many_workers(self):
        assert SweepConfig(workers=4).executor_name == "process-pool"

    def test_explicit_executor_wins_over_auto(self):
        assert SweepConfig(workers=4, executor="serial").executor_name == "serial"
        assert (
            SweepConfig(workers=1, executor="process-pool").executor_name
            == "process-pool"
        )

    @pytest.mark.parametrize("name", ["gpu", "shared-cache"])
    def test_rejects_unknown_executor(self, name):
        with pytest.raises(
            ValueError, match="unknown executor.*available: serial, process-pool$"
        ):
            SweepConfig(executor=name)

    @pytest.mark.parametrize(
        "kwargs", [{"progress_interval_s": -1.0}], ids=["progress-interval"]
    )
    def test_rejects_non_positive_timings(self, kwargs):
        with pytest.raises(ValueError):
            SweepConfig(**kwargs)

    def test_accepts_zero_progress_interval(self):
        # 0 is the documented "stream every cell" setting, not an error.
        assert SweepConfig(progress_interval_s=0.0).progress_interval_s == 0.0

    def test_settable_fields(self):
        assert [field.name for field in dataclasses.fields(SweepConfig)] == [
            "workers",
            "cache_dir",
            "executor",
            "progress",
            "progress_interval_s",
            "progress_stream",
        ]

    @pytest.mark.parametrize("knob", ["claim_ttl_s", "poll_interval_s"])
    def test_removed_timing_knobs_are_rejected(self, knob):
        with pytest.raises(TypeError):
            SweepConfig(**{knob: 1.0})

    def test_factory_builds_each_named_executor(self):
        assert isinstance(make_executor("serial", workers=1), SerialExecutor)
        assert isinstance(
            make_executor("process-pool", workers=2), ProcessPoolExecutor
        )

    def test_factory_rejects_unknown_name(self):
        with pytest.raises(ValueError, match="unknown executor"):
            make_executor("threads", workers=1)

    def test_factory_rejects_the_removed_shared_cache_name(self):
        with pytest.raises(
            ValueError, match="unknown executor.*available: serial, process-pool$"
        ):
            make_executor("shared-cache", workers=1)

    def test_factory_takes_no_cache(self):
        with pytest.raises(TypeError):
            make_executor("serial", workers=1, cache=None)  # type: ignore[call-arg]


class TestPoolChunksize:
    @pytest.mark.parametrize(
        ("num_items", "workers", "expected"),
        [
            (0, 4, 1),  # degenerate: no work
            (12, 8, 1),  # fewer than 4 waves/worker: stay at 1
            (30, 8, 1),  # the MC grids' scale: maximal balance
            (64, 4, 4),  # grows once work dwarfs the pool
            (300, 8, 8),  # the 10x benchmark grid hits the cap
            (100000, 2, 8),  # cap bounds intra-chunk blocking
        ],
    )
    def test_cost_model(self, num_items, workers, expected):
        assert pool_chunksize(num_items, workers) == expected


# ---------------------------------------------------------------------------
# executor identity and completion order


class TestExecutorIdentity:
    CELLS = [{"x": value, "seed": 0} for value in range(6)]

    def _reference(self):
        return sweep_map(value_cell, self.CELLS, experiment_id="ident")

    def test_process_pool_is_bit_identical_to_serial(self):
        reference = self._reference()
        with SweepOrchestrator(
            SweepConfig(workers=2, executor="process-pool")
        ) as sweep:
            pooled = sweep.map_cells(value_cell, self.CELLS, experiment_id="ident")
        assert canonical_json(pooled) == canonical_json(reference)

    def test_explicit_serial_matches_default_path(self, tmp_path):
        reference = self._reference()
        with SweepOrchestrator(
            SweepConfig(cache_dir=tmp_path, executor="serial")
        ) as sweep:
            serial = sweep.map_cells(value_cell, self.CELLS, experiment_id="ident")
        assert canonical_json(serial) == canonical_json(reference)


class TestUnorderedCompletion:
    def test_straggler_does_not_block_later_cells(self):
        # Six cells, two workers, chunksize 1: worker A sits on the
        # sleeping cell 0 while worker B drains cells 1-5; with
        # imap_unordered those five surface before the straggler.
        cells = [{"x": value} for value in range(6)]
        executor = ProcessPoolExecutor(workers=2)
        try:
            order = [
                index
                for index, _ in executor.run_missing(
                    straggler_cell, list(enumerate(cells))
                )
            ]
        finally:
            executor.close()
        assert sorted(order) == list(range(6))
        assert order[0] != 0
        assert order[-1] == 0

    def test_single_worker_short_circuits_in_order(self):
        cells = [{"x": value} for value in range(3)]
        executor = ProcessPoolExecutor(workers=1)
        results = list(executor.run_missing(value_cell, list(enumerate(cells))))
        executor.close()
        assert [index for index, _ in results] == [0, 1, 2]


# ---------------------------------------------------------------------------
# the executor contract: (index, params) in, (index, payload) out


class TestExecutorContract:
    ITEMS = [(7, {"x": 7}), (3, {"x": 3}), (11, {"x": 11}), (0, {"x": 0})]

    def test_executor_names(self):
        assert EXECUTOR_NAMES == ("serial", "process-pool")

    def test_call_indexed_echoes_the_index(self):
        assert _call_indexed((value_cell, 5, {"x": 2})) == (5, value_cell({"x": 2}))

    def test_serial_echoes_sparse_indices_in_order(self):
        results = list(SerialExecutor().run_missing(value_cell, self.ITEMS))
        assert results == [(index, value_cell(params)) for index, params in self.ITEMS]

    def test_process_pool_echoes_sparse_indices(self):
        executor = ProcessPoolExecutor(workers=2)
        try:
            results = dict(executor.run_missing(value_cell, self.ITEMS))
        finally:
            executor.close()
        assert results == {index: value_cell(params) for index, params in self.ITEMS}

    @pytest.mark.parametrize("name", EXECUTOR_NAMES)
    def test_no_items_yield_nothing(self, name):
        executor = make_executor(name, workers=2)
        try:
            assert list(executor.run_missing(value_cell, [])) == []
        finally:
            executor.close()

    def test_single_item_starts_no_pool(self):
        executor = ProcessPoolExecutor(workers=2)
        assert list(executor.run_missing(value_cell, [(4, {"x": 4})])) == [
            (4, value_cell({"x": 4}))
        ]
        assert executor._pool is None

    def test_pool_is_reused_across_calls(self):
        executor = ProcessPoolExecutor(workers=2)
        try:
            list(executor.run_missing(value_cell, self.ITEMS))
            first_pool = executor._pool
            list(executor.run_missing(value_cell, self.ITEMS))
            assert first_pool is not None
            assert executor._pool is first_pool
        finally:
            executor.close()
        assert executor._pool is None

    def test_process_pool_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="workers"):
            ProcessPoolExecutor(workers=0)


class ReversingExecutor:
    """Computes in-process but yields in reverse order, recording items."""

    name = "reversing"

    def __init__(self):
        self.items = []

    def run_missing(self, func, items):
        self.items = list(items)
        for index, params in reversed(self.items):
            yield index, func(params)

    def close(self):
        pass

    def abort(self):
        pass


class StoreCheckingExecutor:
    """Yields cells one by one, checking each is stored before the next runs."""

    name = "store-checking"

    def __init__(self, cache, experiment_id):
        self.cache = cache
        self.experiment_id = experiment_id
        self.stored_before_next = []

    def run_missing(self, func, items):
        previous = None
        for index, params in items:
            if previous is not None:
                key = cell_key(self.experiment_id, previous)
                self.stored_before_next.append(
                    self.cache.load(self.experiment_id, key) is not MISS
                )
            yield index, func(params)
            previous = params

    def close(self):
        pass

    def abort(self):
        pass


class TestOrchestratorStoring:
    CELLS = [{"x": value, "seed": 0} for value in range(5)]

    @pytest.mark.parametrize("name", EXECUTOR_NAMES)
    def test_every_computed_cell_is_stored(self, tmp_path, name):
        config = SweepConfig(workers=2, cache_dir=tmp_path, executor=name)
        with SweepOrchestrator(config) as sweep:
            payloads = sweep.map_cells(value_cell, self.CELLS, experiment_id="st")
        cache = ResultCache(tmp_path)
        stored = [cache.load("st", cell_key("st", cell)) for cell in self.CELLS]
        assert canonical_json(stored) == canonical_json(payloads)
        assert len(list(tmp_path.glob("st/*.json"))) == len(self.CELLS)

    @pytest.mark.parametrize("name", EXECUTOR_NAMES)
    def test_computed_cells_reach_progress_as_misses(self, tmp_path, name):
        stream = io.StringIO()
        config = SweepConfig(
            workers=2,
            cache_dir=tmp_path,
            executor=name,
            progress=True,
            progress_interval_s=0.0,
            progress_stream=stream,
        )
        with SweepOrchestrator(config) as sweep:
            sweep.map_cells(value_cell, self.CELLS, experiment_id="st")
        assert (sweep.hits, sweep.misses) == (0, len(self.CELLS))
        assert stream.getvalue().splitlines()[-1].startswith(
            "sweep st: 5/5 cells (0 hit, 5 computed)"
        )

    def test_each_payload_is_stored_before_the_next_cell_runs(self, tmp_path):
        sweep = SweepOrchestrator(SweepConfig(cache_dir=tmp_path))
        checker = StoreCheckingExecutor(sweep.cache, "st")
        sweep._executor = checker
        sweep.map_cells(value_cell, self.CELLS, experiment_id="st")
        assert checker.stored_before_next == [True] * (len(self.CELLS) - 1)

    def test_only_missing_cells_reach_the_executor(self, tmp_path):
        cache = ResultCache(tmp_path)
        for index in (1, 3):
            cell = self.CELLS[index]
            cache.store("st", cell_key("st", cell), value_cell(cell), params=cell)
        sweep = SweepOrchestrator(SweepConfig(cache_dir=tmp_path))
        recorder = ReversingExecutor()
        sweep._executor = recorder
        payloads = sweep.map_cells(value_cell, self.CELLS, experiment_id="st")
        assert [index for index, _ in recorder.items] == [0, 2, 4]
        assert (sweep.hits, sweep.misses) == (2, 3)
        reference = sweep_map(value_cell, self.CELLS, experiment_id="st")
        assert canonical_json(payloads) == canonical_json(reference)

    def test_results_slot_back_in_cell_order(self):
        sweep = SweepOrchestrator()
        sweep._executor = ReversingExecutor()
        payloads = sweep.map_cells(value_cell, self.CELLS, experiment_id="st")
        assert payloads == [json_round_trip(value_cell(cell)) for cell in self.CELLS]

    def test_without_cache_every_cell_is_a_miss(self):
        with SweepOrchestrator() as sweep:
            sweep.map_cells(value_cell, self.CELLS, experiment_id="st")
            sweep.map_cells(value_cell, self.CELLS, experiment_id="st")
        assert (sweep.hits, sweep.misses) == (0, 2 * len(self.CELLS))

    def test_leftover_claim_files_do_not_disturb_a_sweep(self, tmp_path):
        # Caches written by older versions may still hold ``*.claim``
        # files; a sweep neither reads nor needs them.
        leftover = tmp_path / "st" / f"{cell_key('st', self.CELLS[0])}.claim"
        leftover.parent.mkdir(parents=True)
        leftover.write_text("otherhost:1:0.0")
        with SweepOrchestrator(SweepConfig(cache_dir=tmp_path)) as sweep:
            payloads = sweep.map_cells(value_cell, self.CELLS, experiment_id="st")
        assert sweep.misses == len(self.CELLS)
        reference = sweep_map(value_cell, self.CELLS, experiment_id="st")
        assert canonical_json(payloads) == canonical_json(reference)


def json_round_trip(payload: dict) -> dict:
    return json.loads(canonical_json(payload))


# ---------------------------------------------------------------------------
# graceful close vs abort (regression: close() used to terminate())


class RecordingPool:
    def __init__(self):
        self.calls = []

    def close(self):
        self.calls.append("close")

    def join(self):
        self.calls.append("join")

    def terminate(self):
        self.calls.append("terminate")


class RecordingExecutor:
    name = "recording"

    def __init__(self):
        self.calls = []

    def run_missing(self, func, items):
        return iter(())

    def close(self):
        self.calls.append("close")

    def abort(self):
        self.calls.append("abort")


class TestShutdown:
    def test_close_is_graceful_not_terminate(self):
        executor = ProcessPoolExecutor(workers=2)
        pool = RecordingPool()
        executor._pool = pool
        executor.close()
        assert pool.calls == ["close", "join"]
        assert "terminate" not in pool.calls

    def test_abort_terminates(self):
        executor = ProcessPoolExecutor(workers=2)
        pool = RecordingPool()
        executor._pool = pool
        executor.abort()
        assert pool.calls == ["terminate", "join"]

    def test_close_and_abort_are_idempotent(self):
        executor = ProcessPoolExecutor(workers=2)
        executor._pool = RecordingPool()
        executor.close()
        executor.close()
        executor.abort()

    def test_orchestrator_close_routes_to_executor_close(self):
        sweep = SweepOrchestrator()
        recorder = RecordingExecutor()
        sweep._executor = recorder
        sweep.close()
        assert recorder.calls == ["close"]

    def test_orchestrator_abort_routes_to_executor_abort(self):
        sweep = SweepOrchestrator()
        recorder = RecordingExecutor()
        sweep._executor = recorder
        sweep.abort()
        assert recorder.calls == ["abort"]

    def test_context_exit_uses_the_graceful_path(self):
        recorder = RecordingExecutor()
        with SweepOrchestrator() as sweep:
            sweep._executor = recorder
        assert recorder.calls == ["close"]


# ---------------------------------------------------------------------------
# resumability: SIGKILL mid-grid, restart, zero recomputation

RESUME_SCRIPT = """
import os
import sys
import time
from pathlib import Path

from repro.sweep import SweepConfig, SweepOrchestrator

CACHE_DIR, MARKER_DIR = sys.argv[1], sys.argv[2]
PER_CELL_S = float(sys.argv[3])


def marking_cell(params):
    time.sleep(PER_CELL_S)
    Path(params["marker_dir"], f"x{params['x']}.pid{os.getpid()}").touch()
    return {"value": params["x"] * 3}


cells = [{"x": value, "seed": 0, "marker_dir": MARKER_DIR} for value in range(8)]
config = SweepConfig(cache_dir=CACHE_DIR, executor="serial")
with SweepOrchestrator(config) as sweep:
    sweep.map_cells(marking_cell, cells, experiment_id="resume")
"""


def _spawn_worker(tmp_path, script_name, script, *argv):
    script_path = tmp_path / script_name
    script_path.write_text(script)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, str(script_path), *map(str, argv)],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _marker_values(marker_dir: Path) -> set[int]:
    return {int(path.name.split(".")[0][1:]) for path in marker_dir.iterdir()}


class TestResumability:
    def test_killed_sweep_resumes_with_zero_recomputation(self, tmp_path):
        cache_dir = tmp_path / "cache"
        marker_dir = tmp_path / "markers"
        marker_dir.mkdir()
        cells = [
            {"x": value, "seed": 0, "marker_dir": str(marker_dir)}
            for value in range(8)
        ]
        keys = [cell_key("resume", cell) for cell in cells]

        worker = _spawn_worker(
            tmp_path, "resume_worker.py", RESUME_SCRIPT, cache_dir, marker_dir, 0.25
        )
        try:
            deadline = time.monotonic() + 60.0
            while len(list(cache_dir.glob("resume/*.json"))) < 2:
                if time.monotonic() > deadline:
                    pytest.fail("worker never stored two cells")
                if worker.poll() is not None:
                    pytest.fail("worker exited before it could be killed")
                time.sleep(0.02)
            worker.send_signal(signal.SIGKILL)
        finally:
            worker.wait(timeout=30.0)

        cache = ResultCache(cache_dir)
        completed = {
            cell["x"]
            for cell, key in zip(cells, keys)
            if cache.load("resume", key) is not MISS
        }
        assert completed, "kill landed before any cell completed"
        assert len(completed) < len(cells), "kill landed after the whole grid"
        markers_before = set(marker_dir.iterdir())

        # Restart against the same cache, in-process this time.
        config = SweepConfig(cache_dir=cache_dir, executor="serial")
        with SweepOrchestrator(config) as sweep:
            resumed = sweep.map_cells(marking_cell, cells, experiment_id="resume")

        # The resumability contract: completed cells are never recomputed.
        recomputed = _marker_values(
            marker_dir
        ) - _marker_values_of(markers_before)
        assert recomputed.isdisjoint(completed)
        # And the resumed payloads are bit-identical to a pristine serial run.
        reference = [{"value": cell["x"] * 3} for cell in cells]
        assert canonical_json(resumed) == canonical_json(reference)
        # A second warm pass touches nothing at all.
        markers_after = set(marker_dir.iterdir())
        with SweepOrchestrator(config) as warm_sweep:
            warm = warm_sweep.map_cells(marking_cell, cells, experiment_id="resume")
        assert set(marker_dir.iterdir()) == markers_after
        assert warm_sweep.hits == len(cells)
        assert canonical_json(warm) == canonical_json(reference)


def _marker_values_of(paths) -> set[int]:
    return {int(path.name.split(".")[0][1:]) for path in paths}


# ---------------------------------------------------------------------------
# the progress stream

LINE_PATTERN = re.compile(
    r"^sweep [\w-]+: \d+/\d+ cells \(\d+ hit, \d+ computed\), "
    r"(?:\d+\.\d cells/s|\? cells/s), ETA (?:\d+\.\ds|\?)$"
)


class TestProgressReporter:
    def test_every_line_follows_the_documented_format(self):
        stream = io.StringIO()
        reporter = ProgressReporter("fig", 4, stream=stream, interval_s=0.0)
        for hit in (True, False, False, True):
            reporter.cell_done(hit=hit)
        reporter.finish()
        lines = stream.getvalue().splitlines()
        assert len(lines) == 4  # interval 0: one line per cell, no dup final
        for line in lines:
            assert LINE_PATTERN.match(line), line
        assert lines[-1].startswith("sweep fig: 4/4 cells (2 hit, 2 computed)")

    def test_throttle_suppresses_intermediate_lines(self):
        stream = io.StringIO()
        reporter = ProgressReporter("fig", 3, stream=stream, interval_s=3600.0)
        reporter.cell_done(hit=False)  # first line always prints
        reporter.cell_done(hit=False)  # throttled
        reporter.cell_done(hit=False)  # final cell always prints
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert "3/3" in lines[-1]

    def test_finish_emits_even_with_no_cells(self):
        stream = io.StringIO()
        reporter = ProgressReporter("fig", 0, stream=stream)
        reporter.finish()
        [line] = stream.getvalue().splitlines()
        assert line == "sweep fig: 0/0 cells (0 hit, 0 computed), ? cells/s, ETA ?"

    def test_rejects_invalid_parameters(self):
        with pytest.raises(ValueError):
            ProgressReporter("fig", -1)
        with pytest.raises(ValueError):
            ProgressReporter("fig", 1, interval_s=-0.1)

    def test_orchestrator_streams_progress(self, tmp_path):
        cells = [{"x": value, "seed": 0} for value in range(3)]
        stream = io.StringIO()
        config = SweepConfig(
            cache_dir=tmp_path,
            progress=True,
            progress_interval_s=0.0,
            progress_stream=stream,
        )
        with SweepOrchestrator(config) as sweep:
            sweep.map_cells(value_cell, cells, experiment_id="fig")
        cold_lines = stream.getvalue().splitlines()
        assert cold_lines[-1].startswith("sweep fig: 3/3 cells (0 hit, 3 computed)")

        warm_stream = io.StringIO()
        warm_config = SweepConfig(
            cache_dir=tmp_path,
            progress=True,
            progress_interval_s=0.0,
            progress_stream=warm_stream,
        )
        with SweepOrchestrator(warm_config) as sweep:
            sweep.map_cells(value_cell, cells, experiment_id="fig")
        warm_lines = warm_stream.getvalue().splitlines()
        assert warm_lines[-1].startswith("sweep fig: 3/3 cells (3 hit, 0 computed)")
        # Hits count toward the rate, so an all-hit sweep reports a number.
        assert re.search(r", \d+\.\d cells/s, ETA 0\.0s$", warm_lines[-1])


# ---------------------------------------------------------------------------
# CLI validation


class TestRunnerFlags:
    @pytest.mark.parametrize("name", ["bogus", "shared-cache"])
    def test_unknown_executor_is_a_usage_error(self, name, capsys):
        assert runner_main(["fig50_51_mc", "--executor", name]) == 2
        assert "unknown --executor" in capsys.readouterr().err

    @pytest.mark.parametrize("name", EXECUTOR_NAMES)
    def test_named_executors_pass_validation(self, name, capsys):
        # An unknown experiment id is only reported after the executor
        # name has been accepted.
        assert runner_main(["no_such_experiment", "--executor", name]) == 2
        err = capsys.readouterr().err
        assert "unknown --executor" not in err
        assert "unknown experiments: no_such_experiment" in err
