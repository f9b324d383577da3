"""Run one workload in a fresh process and print its record as one JSON line.

``run.py`` starts this script with ``PYTHONPATH`` pointing at the
checkout's ``src`` and BLAS/OpenMP threads pinned to 1; it is not meant to
be run by hand.  With ``--setup-only`` the process only times the
workload's set-up (imports, design, cache fingerprint) and exits.

Untraced runs (``--trace 0``) time operations ``0, 1, ...`` until
``--seconds`` have passed, then repeat operation 0 with the span wrappers
installed and require the same digest.  Traced runs (``--trace 1``)
alternate an untraced and a traced execution of each operation, which
gives both the per-layer attribution and the tracing overhead.

Every untraced operation is bracketed by a fixed pure-Python loop, and its
seconds are scaled to a host on which that loop takes ``REFERENCE_S``; the
set-up is scaled by one loop run right after it.  The host is shared: for
stretches of ten seconds and more, often longer than a run, everything on
it runs up to 1.5 times slower, so the raw median operation of a run moved
by a quarter from run to run.  The loop slows with it, and the scaled
times moved by a third as much or less.
"""

from time import perf_counter

STARTED = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

#: Per-layer metric -> key of :func:`spans.layer_totals` (or of the
#: operation's own counts).
LAYER_KEYS = {
    "core.design_s": "core.design.self_s",
    "technology.silicon_draw_s": "technology.silicon_draw.self_s",
    "technology.silicon_draw_instances": "technology.silicon_draw.instances",
    "core.component_draw_s": "core.component_draw.self_s",
    "core.component_draw_instances": "core.component_draw.instances",
    "core.lock_s": "core.lock.self_s",
    "core.curves_s": "core.curves.self_s",
    "simulation.duty_table_s": "simulation.duty_table.self_s",
    "simulation.regulate_s": "simulation.regulate.self_s",
    "simulation.regulate_instance_periods": "simulation.regulate.instance_periods",
    "core.score_s": "core.score.self_s",
    "converter.mission_draw_s": "converter.mission_draw.self_s",
    "pipeline.self_s": "pipeline.self_s",
    "mc.self_s": "mc.self_s",
    "mc.chunks": "mc.chunks",
    "mc.samples": "mc.samples",
    "mc.ess": "mc.ess",
    "sweep.cache_store_s": "sweep.cache_store.self_s",
    "sweep.cache_load_s": "sweep.cache_load.self_s",
    "sweep.fingerprint_s": "sweep.fingerprint.self_s",
    "sweep.self_s": "sweep.self_s",
    "sweep.hits": "sweep.hits",
    "sweep.misses": "sweep.misses",
}

ROOT_SPAN = "bench.op"

#: Seconds of :func:`reference_loop` on an uncontended core of the 2-vCPU
#: Xeon VM the benchmark was tuned on, under Python 3.11.
REFERENCE_S = 0.025


def reference_loop() -> float:
    """Seconds of a fixed pure-Python loop: the host's current speed."""
    started = perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return perf_counter() - started


class Run:
    """Bookkeeping of one benchmark run inside the workload process."""

    def __init__(self, workload: Any, recorder: spans.Recorder) -> None:
        self.workload = workload
        self.recorder = recorder
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.untraced: dict[int, tuple[float, Outcome]] = {}
        self.traced: dict[int, tuple[float, Outcome, dict[str, float]]] = {}

    def fail(self, units: int, message: str) -> None:
        self.failed += units
        self.problems.append(message)

    def execute(self, index: int, traced: bool) -> bool:
        """Time one operation, judge it, and keep its numbers."""
        first_span = len(self.recorder.spans)
        self.recorder.op = f"op{index}"
        try:
            if traced:
                with spans.installed(self.recorder):
                    with self.recorder.span(ROOT_SPAN):
                        started = perf_counter()
                        output = self.workload.op(index)
                        seconds = perf_counter() - started
            else:
                started = perf_counter()
                output = self.workload.op(index)
                seconds = perf_counter() - started
            outcome = self.workload.outcome(index, output)
            if index == 0 and not traced:
                for problem in self.workload.self_check(output):
                    self.fail(1, problem)
                    self.attempted += 1
            del output
        except Exception:  # the run must report, not die, on a failing op
            traceback.print_exc(file=sys.stderr)
            self.attempted += 1
            self.fail(1, f"operation {index} raised")
            return False
        self.attempted += outcome.units
        if outcome.failed_units:
            self.fail(outcome.failed_units, "; ".join(outcome.problems))
        if not traced:
            self.untraced[index] = (seconds, outcome)
            return True
        run_spans = self.recorder.spans[first_span:]
        totals = spans.layer_totals(run_spans)
        totals.update(outcome.counts)
        totals["op_s"] = run_spans[0]["end"] - run_spans[0]["start"]
        self.traced[index] = (seconds, outcome, totals)
        return self.compare(index)

    def compare(self, index: int) -> bool:
        """The traced execution must reproduce the untraced digest."""
        _, plain = self.untraced[index]
        _, traced, _ = self.traced[index]
        if plain.digest != traced.digest:
            self.fail(traced.units, f"operation {index}: traced digest differs")
            return False
        return True


def provenance() -> dict[str, Any]:
    import numpy

    from repro.kernels import active_backend_name

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": active_backend_name(),
        "blas_threads": {
            name: os.environ.get(name)
            for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def layer_metrics(
    setup_totals: dict[str, float], traced: list[dict[str, float]]
) -> dict[str, float]:
    """Set-up share plus the median traced operation, per layer metric."""
    metrics = {
        name: setup_totals.get(key, 0.0)
        + statistics.median(totals.get(key, 0.0) for totals in traced)
        for name, key in LAYER_KEYS.items()
    }
    metrics["trace.uncovered_frac"] = statistics.median(
        totals.get(f"{ROOT_SPAN}.self_s", 0.0) / totals["op_s"] for totals in traced
    )
    return metrics


def self_time_table(traced: list[dict[str, float]]) -> dict[str, float]:
    """Median self seconds of every span name, for the report."""
    names = {key for totals in traced for key in totals if key.endswith(".self_s")}
    return {
        name[: -len(".self_s")]: statistics.median(t.get(name, 0.0) for t in traced)
        for name in sorted(names)
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    # The package's RNG streams take non-negative seeds.
    args.seed %= 2**32

    scratch = args.out / f"scratch-{args.workload}-{args.seed}"
    cls = WORKLOADS[args.workload]
    if args.setup_only:
        cls(args.seed, scratch)
        setup_s = perf_counter() - STARTED
        scale = REFERENCE_S / reference_loop()
        print(json.dumps({"setup_s": setup_s * scale, "setup_host_s": setup_s}))
        return 0

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    recorder = spans.Recorder(run_id)
    setup_totals: dict[str, float] = {}
    if args.trace:
        with spans.installed(recorder):
            with recorder.span("bench.setup"):
                workload = cls(args.seed, scratch)
        setup_totals = spans.layer_totals(recorder.spans)
    else:
        workload = cls(args.seed, scratch)
    setup_s = perf_counter() - STARTED
    # reference[k] and reference[k + 1] bracket untraced operation k.
    reference = [reference_loop()]

    run = Run(workload, recorder)
    deadline = perf_counter() + args.seconds
    index = 0
    while True:
        if not run.execute(index, traced=False):
            break
        reference.append(reference_loop())
        if args.trace and not run.execute(index, traced=True):
            break
        index += 1
        if perf_counter() >= deadline:
            break
    if not args.trace and 0 in run.untraced:
        run.execute(0, traced=True)

    shutil.rmtree(scratch, ignore_errors=True)
    trace_file = args.out / f"{run_id}.jsonl"
    recorder.write_jsonl(trace_file)
    untraced = [seconds for seconds, _ in run.untraced.values()]
    scaled = [
        seconds * REFERENCE_S / math.sqrt(reference[k] * reference[k + 1])
        for k, seconds in enumerate(untraced)
    ]
    record: dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup_s": setup_s * REFERENCE_S / reference[0],
        "setup_host_s": setup_s,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "op_seconds": untraced,
        "reference_seconds": reference,
        "scaled_op_seconds": scaled,
        "instance_periods_per_s": [
            outcome.instance_periods / seconds
            for seconds, (_, outcome) in zip(scaled, run.untraced.values())
        ],
        "digests": {
            str(index): outcome.digest for index, (_, outcome) in run.untraced.items()
        },
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace_file": str(trace_file),
        "provenance": provenance(),
    }
    traced = [totals for _, _, totals in run.traced.values()]
    if args.trace and traced:
        record["layers"] = layer_metrics(setup_totals, traced)
        record["layers"]["trace.overhead_frac"] = statistics.median(
            run.traced[i][0] / run.untraced[i][0] - 1.0 for i in run.traced
        )
        record["self_seconds"] = self_time_table(traced)
        record["traced_op_seconds"] = statistics.median(t["op_s"] for t in traced)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
