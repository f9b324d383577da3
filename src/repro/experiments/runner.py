"""Command-line runner for the experiment harnesses.

Usage::

    repro-experiments --list
    repro-experiments table5 fig50_51
    repro-experiments --all --workers 8 --cache-dir .sweep-cache
    repro-experiments fig50_51_mc --json results.json
    repro-experiments fig50_51_mc --precision 0.02 --max-instances 4000

``--workers`` fans the grid experiments' sweep cells out across a
``multiprocessing`` pool and ``--cache-dir`` memoizes each cell's payload
in an on-disk content-addressed cache (see :mod:`repro.sweep`), so
``--all`` saturates the machine on a cold run and warm re-runs are
near-instant -- with bit-identical ``--json`` output either way.
``--executor`` picks the execution strategy explicitly (``serial`` or
``process-pool``); a killed run restarted against the same
``--cache-dir`` resumes with zero recomputation (see ``docs/sweeps.md``).
``--progress`` streams cells done/total, the hit/computed split,
cells/sec and an ETA to stderr while the sweep runs.
``--precision`` switches the Monte-Carlo experiments from their fixed
per-cell instance counts to confidence-bounded adaptive sampling
(:mod:`repro.mc`): each cell stops as soon as the 95 % confidence
interval on its yield has the requested half-width, or when the
``--max-instances`` cap is spent.  See ``docs/monte_carlo.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Sequence

from repro.experiments import registry, run_experiment
from repro.experiments.base import accepts_parameter
from repro.sweep import SweepConfig, SweepOrchestrator, jsonable

__all__ = ["main"]

#: Per group of run options: the flags' argparse destinations, the ``run``
#: keyword that decides which experiments they reach, and their audience.
_OPTION_AUDIENCES = (
    ("seed", "seed", "Monte-Carlo"),
    ("precision", "precision", "Monte-Carlo"),
    ("estimator tilt_shift tilt_scale", "estimator", "rare-event"),
    ("mission_length mission_seed correlation", "mission_length", "mission"),
    ("workers cache_dir executor progress", "sweep", "grid"),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids to run (see --list)",
    )
    parser.add_argument(
        "--all", action="store_true", help="run every registered experiment"
    )
    parser.add_argument(
        "--list", action="store_true", help="list available experiment ids"
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="dump the structured results (ExperimentResult.data and "
        "paper references) of the selected experiments as JSON; refuses "
        "to overwrite an existing file unless --force is given",
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="overwrite an existing --json output file",
    )
    parser.add_argument(
        "--seed",
        type=int,
        metavar="INT",
        help="RNG seed threaded into the Monte-Carlo experiments (fig15, "
        "fig15_mc, fig50_51_mc) in place of their built-in default; "
        "experiments without randomness ignore it",
    )
    parser.add_argument(
        "--precision",
        type=float,
        metavar="FLOAT",
        help="adaptive Monte-Carlo: replace the fixed per-cell instance "
        "counts of fig15/fig15_mc/fig50_51_mc with confidence-bounded "
        "sampling that stops once the 95 %% CI on each cell's yield has "
        "this half-width (e.g. 0.02); other experiments ignore it",
    )
    parser.add_argument(
        "--max-instances",
        type=int,
        metavar="N",
        help="hard per-cell sample cap for --precision (default: 4x the "
        "experiment's fixed instance count); requires --precision",
    )
    parser.add_argument(
        "--estimator",
        choices=("vanilla", "stratified", "importance"),
        metavar="NAME",
        help="rare-event estimator for the experiments that support one "
        "(fig15_rare): 'vanilla' (brute-force adaptive sampling), "
        "'stratified' (sigma-shell strata, Neyman allocation) or "
        "'importance' (tilted draws, self-normalized reweighting; the "
        "default); recorded in the sweep cache key, so estimator variants "
        "of a cell never collide (see docs/monte_carlo.md)",
    )
    parser.add_argument(
        "--tilt-shift",
        type=float,
        metavar="FLOAT",
        help="importance sampling: scale on the experiment's built-in tilt "
        "direction (1.0 keeps the stock tilt, 0 disables the mean shift); "
        "requires --estimator importance (or the default)",
    )
    parser.add_argument(
        "--tilt-scale",
        type=float,
        metavar="FLOAT",
        help="importance sampling: sigma widening of the tilted proposal "
        "(must be > 0; values > 1 guard against weight degeneracy); "
        "requires --estimator importance (or the default)",
    )
    parser.add_argument(
        "--mission-length",
        type=int,
        metavar="N",
        help="mission experiments (fig15_mission): mission length in "
        "switching periods (must cover the experiment's segment count); "
        "a sweep-cache-key coordinate, so length variants never collide",
    )
    parser.add_argument(
        "--mission-seed",
        type=int,
        metavar="INT",
        help="mission experiments: seed of the per-instance mission draws, "
        "independent of --seed so workloads can be rethreaded without "
        "refabricating the fleet; a sweep-cache-key coordinate",
    )
    parser.add_argument(
        "--correlation",
        metavar="PRESET",
        help="mission experiments: component-correlation preset coupling "
        "the per-chip electrical spreads ('identity', 'passives' or "
        "'thermal'; see docs/monte_carlo.md); a sweep-cache-key coordinate",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the grid experiments' sweep cells "
        "(fig15, fig15_mc, fig50_51_mc); experiments without a parameter "
        "grid run unchanged",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="PATH",
        help="on-disk content-addressed cache for sweep-cell results; "
        "warm re-runs only recompute cells whose experiment id, "
        "parameters, seed or package sources changed",
    )
    parser.add_argument(
        "--executor",
        metavar="NAME",
        help="sweep execution strategy (see docs/sweeps.md): 'serial' "
        "(in-process loop) or 'process-pool' (one box, all --workers "
        "cores, unordered fan-out); default: process-pool when "
        "--workers > 1, serial otherwise",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="stream sweep progress to stderr while cells run: cells "
        "done/total, cache-hit/computed split, cells/sec and ETA (one "
        "line per second; format documented in docs/sweeps.md)",
    )
    parser.add_argument(
        "--prune-cache",
        action="store_true",
        help="before running, delete cache entries written by other "
        "versions of the package sources (they can never be hits again); "
        "requires --cache-dir",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list:
        for experiment_id in sorted(registry):
            print(experiment_id)
        return 0

    if args.all and args.experiments:
        print(
            "--all runs every experiment and cannot be combined with "
            f"explicit ids ({', '.join(args.experiments)})",
            file=sys.stderr,
        )
        return 2

    if args.workers < 1:
        print(f"--workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 2

    if args.executor is not None:
        from repro.sweep import EXECUTOR_NAMES

        if args.executor not in EXECUTOR_NAMES:
            print(
                f"unknown --executor {args.executor!r}; available: "
                f"{', '.join(EXECUTOR_NAMES)}",
                file=sys.stderr,
            )
            return 2

    if args.prune_cache and args.cache_dir is None:
        print("--prune-cache requires --cache-dir", file=sys.stderr)
        return 2

    if args.precision is not None and not 0.0 < args.precision < 0.5:
        print(
            f"--precision must be in (0, 0.5), got {args.precision}",
            file=sys.stderr,
        )
        return 2

    if args.max_instances is not None:
        if args.precision is None:
            print("--max-instances requires --precision", file=sys.stderr)
            return 2
        if args.max_instances < 1:
            print(
                f"--max-instances must be >= 1, got {args.max_instances}",
                file=sys.stderr,
            )
            return 2

    if args.estimator is not None and args.estimator != "importance":
        if args.tilt_shift is not None or args.tilt_scale is not None:
            print(
                "--tilt-shift/--tilt-scale parameterize the importance "
                f"estimator; they cannot be combined with --estimator "
                f"{args.estimator}",
                file=sys.stderr,
            )
            return 2

    if args.tilt_scale is not None and args.tilt_scale <= 0.0:
        print(
            f"--tilt-scale must be > 0, got {args.tilt_scale}", file=sys.stderr
        )
        return 2

    if args.mission_length is not None and args.mission_length < 1:
        print(
            f"--mission-length must be >= 1, got {args.mission_length}",
            file=sys.stderr,
        )
        return 2

    if args.correlation is not None:
        from repro.core.yield_analysis import CORRELATION_PRESETS

        if args.correlation not in CORRELATION_PRESETS:
            print(
                f"unknown --correlation {args.correlation!r}; available: "
                f"{', '.join(sorted(CORRELATION_PRESETS))}",
                file=sys.stderr,
            )
            return 2

    if args.json is not None and not args.force and os.path.exists(args.json):
        print(
            f"refusing to overwrite existing {args.json}; pass --force to "
            "replace it",
            file=sys.stderr,
        )
        return 2

    if args.all:
        selected = sorted(registry)
    else:
        selected = list(args.experiments)
    if not selected:
        parser.print_help()
        return 1

    unknown = [name for name in selected if name not in registry]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        print(f"known experiments: {', '.join(sorted(registry))}", file=sys.stderr)
        return 2

    given: set[str] = set()
    for group, parameter, audience in _OPTION_AUDIENCES:
        dests = group.split()
        if all(getattr(args, dest) == parser.get_default(dest) for dest in dests):
            continue
        given.add(parameter)
        ignoring = [
            name for name in selected if not accepts_parameter(name, parameter)
        ]
        if ignoring:
            flags = "/".join("--" + dest.replace("_", "-") for dest in dests)
            verb = "reaches" if len(dests) == 1 else "reach"
            print(
                f"{flags} only {verb} the {audience} experiments; ignored by: "
                f"{', '.join(ignoring)}",
                file=sys.stderr,
            )

    sweep = None
    if "sweep" in given:
        sweep = SweepOrchestrator(
            SweepConfig(
                workers=args.workers,
                cache_dir=args.cache_dir,
                executor=args.executor,
                progress=args.progress,
            )
        )
        if args.prune_cache:
            pruned = sweep.cache.prune()
            print(
                f"sweep cache: pruned {pruned} stale entr"
                f"{'y' if pruned == 1 else 'ies'}",
                file=sys.stderr,
            )

    collected: dict[str, dict[str, object]] = {}
    failures: list[str] = []
    try:
        for experiment_id in selected:
            try:
                result = run_experiment(
                    experiment_id,
                    seed=args.seed,
                    sweep=sweep,
                    precision=args.precision,
                    max_instances=args.max_instances,
                    estimator=args.estimator,
                    tilt_shift=args.tilt_shift,
                    tilt_scale=args.tilt_scale,
                    mission_length=args.mission_length,
                    mission_seed=args.mission_seed,
                    correlation=args.correlation,
                )
            except Exception as error:  # noqa: BLE001 - report and keep going
                failures.append(experiment_id)
                print(
                    f"experiment {experiment_id} failed: "
                    f"{type(error).__name__}: {error}",
                    file=sys.stderr,
                )
                continue
            print(f"=== {result.experiment_id}: {result.title} ===")
            print(result.report)
            print()
            collected[experiment_id] = {
                "title": result.title,
                "data": jsonable(result.data),
                "paper_reference": jsonable(result.paper_reference),
            }
    finally:
        if sweep is not None:
            sweep.close()

    if sweep is not None and sweep.cache is not None:
        print(
            f"sweep cache: {sweep.hits} hit(s), {sweep.misses} miss(es) "
            f"in {sweep.cache.root}",
            file=sys.stderr,
        )

    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(collected, handle, indent=2, sort_keys=True)
        print(f"wrote {len(collected)} experiment result(s) to {args.json}")

    if failures:
        print(f"failed experiments: {', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
