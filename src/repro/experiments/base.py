"""Experiment result container and registry."""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.sweep import SweepOrchestrator

__all__ = [
    "ExperimentResult",
    "accepts_adaptive",
    "accepts_estimator",
    "accepts_mission",
    "accepts_parameter",
    "accepts_seed",
    "accepts_sweep",
    "monte_carlo_budget",
    "registry",
    "register",
    "run_experiment",
]


@dataclass
class ExperimentResult:
    """The outcome of one experiment.

    Attributes:
        experiment_id: short id (``table5``, ``fig50`` ...).
        title: human-readable title referencing the paper artifact.
        data: structured results (rows, series, metrics) for programmatic use
            by the benchmarks and tests.
        report: formatted text rendering in the shape of the paper's table or
            figure series.
        paper_reference: the values the paper reports, where applicable, so
            reports can show paper-vs-measured side by side.
    """

    experiment_id: str
    title: str
    data: dict
    report: str
    paper_reference: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return f"[{self.experiment_id}] {self.title}\n{self.report}"


#: Global registry of experiment id -> run function (extra keywords such as
#: ``seed`` are threaded in by :func:`run_experiment` when declared).
registry: dict[str, Callable[..., ExperimentResult]] = {}


def register(
    experiment_id: str,
) -> Callable[[Callable[..., ExperimentResult]], Callable[..., ExperimentResult]]:
    """Decorator registering an experiment ``run`` function under an id."""

    def decorator(
        func: Callable[..., ExperimentResult],
    ) -> Callable[..., ExperimentResult]:
        if experiment_id in registry:
            raise ValueError(f"experiment id {experiment_id!r} already registered")
        registry[experiment_id] = func
        return func

    return decorator


def accepts_parameter(experiment_id: str, name: str) -> bool:
    """Whether an experiment's run function declares a keyword ``name``."""
    return name in inspect.signature(registry[experiment_id]).parameters


def accepts_seed(experiment_id: str) -> bool:
    """Whether an experiment's run function takes an RNG ``seed`` argument.

    The Monte-Carlo experiments (``fig15``, ``fig15_mc``, ``fig50_51_mc``)
    declare ``seed`` so one CLI flag can rethread their random draws; the
    deterministic table/figure regenerations do not.
    """
    return accepts_parameter(experiment_id, "seed")


def accepts_sweep(experiment_id: str) -> bool:
    """Whether an experiment's run function takes a ``sweep`` orchestrator.

    The grid experiments (``fig15``, ``fig15_mc``, ``fig50_51_mc``) declare
    ``sweep`` so the CLI's ``--workers`` / ``--cache-dir`` flags can fan
    their cells out across a worker pool and memoize them; the scalar
    regenerations do not.
    """
    return accepts_parameter(experiment_id, "sweep")


def accepts_adaptive(experiment_id: str) -> bool:
    """Whether an experiment supports adaptive confidence-bounded sampling.

    The Monte-Carlo experiments declare ``precision`` (and
    ``max_instances``) so the CLI's ``--precision`` / ``--max-instances``
    flags can replace their fixed per-cell instance counts with the
    streaming sampler of :mod:`repro.mc`.
    """
    return accepts_parameter(experiment_id, "precision")


def accepts_estimator(experiment_id: str) -> bool:
    """Whether an experiment supports rare-event estimator selection.

    The rare-event experiments (``fig15_rare``) declare ``estimator`` so
    the CLI's ``--estimator`` / ``--tilt-shift`` / ``--tilt-scale`` flags
    can pick between vanilla, stratified and importance sampling and
    parameterize the importance tilt.
    """
    return accepts_parameter(experiment_id, "estimator")


def accepts_mission(experiment_id: str) -> bool:
    """Whether an experiment supports mission-profile parameterization.

    The mission experiments (``fig15_mission``) declare ``mission_length``
    (plus ``mission_seed`` and ``correlation``) so the CLI's
    ``--mission-length`` / ``--mission-seed`` / ``--correlation`` flags can
    reshape the randomized missions and the component-correlation preset.
    """
    return accepts_parameter(experiment_id, "mission_length")


def monte_carlo_budget(
    params: dict[str, Any], *, fixed_instances: int, max_instances: int
) -> dict[str, Any]:
    """Estimator budget keywords of one Monte-Carlo sweep cell.

    A cell with a ``precision`` coordinate samples adaptively up to its
    ``max_instances`` coordinate (default ``max_instances``).  A cell
    without one spends the fixed budget of ``fixed_instances``: the same
    estimator at ``precision=0.0`` in a single chunk.
    """
    if "precision" in params:
        return {
            "precision": params["precision"],
            "max_instances": params.get("max_instances", max_instances),
        }
    return {
        "precision": 0.0,
        "max_instances": fixed_instances,
        "chunk_size": fixed_instances,
    }


def run_experiment(
    experiment_id: str,
    seed: int | None = None,
    sweep: "SweepOrchestrator | None" = None,
    precision: float | None = None,
    max_instances: int | None = None,
    estimator: str | None = None,
    tilt_shift: float | None = None,
    tilt_scale: float | None = None,
    mission_length: int | None = None,
    mission_seed: int | None = None,
    correlation: str | None = None,
) -> ExperimentResult:
    """Run a registered experiment by id.

    Args:
        experiment_id: the registered id.
        seed: optional RNG seed threaded into experiments that accept one
            (see :func:`accepts_seed`); experiments without randomness
            ignore it.
        sweep: optional :class:`~repro.sweep.SweepOrchestrator` threaded
            into experiments that accept one (see :func:`accepts_sweep`);
            experiments without a parameter grid ignore it.
        precision: optional target confidence-interval half-width; switches
            the Monte-Carlo experiments that accept it (see
            :func:`accepts_adaptive`) from their fixed per-cell instance
            counts to the adaptive sampler of :mod:`repro.mc`.
        max_instances: optional hard per-cell sample cap for the adaptive
            sampler; only meaningful together with ``precision``.
        estimator: optional rare-event estimator name (``vanilla`` /
            ``stratified`` / ``importance``) threaded into experiments
            that accept one (see :func:`accepts_estimator`).
        tilt_shift: optional scale on the importance tilt direction;
            only reaches estimator-aware experiments.
        tilt_scale: optional proposal sigma widening of the importance
            tilt; only reaches estimator-aware experiments.
        mission_length: optional mission length in switching periods,
            threaded into experiments that accept missions (see
            :func:`accepts_mission`).
        mission_seed: optional seed of the per-instance mission draws;
            only reaches mission-aware experiments.
        correlation: optional component-correlation preset name (see
            :data:`repro.core.yield_analysis.CORRELATION_PRESETS`); only
            reaches mission-aware experiments.

    Raises:
        KeyError: if the id is unknown.
    """
    try:
        runner = registry[experiment_id]
    except KeyError as exc:
        known = ", ".join(sorted(registry))
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known experiments: {known}"
        ) from exc
    if max_instances is not None and precision is None:
        raise ValueError("max_instances is only meaningful with a precision")
    kwargs: dict[str, Any] = {}
    if seed is not None and accepts_seed(experiment_id):
        kwargs["seed"] = seed
    if sweep is not None and accepts_sweep(experiment_id):
        kwargs["sweep"] = sweep
    if precision is not None and accepts_adaptive(experiment_id):
        kwargs["precision"] = precision
        if max_instances is not None:
            kwargs["max_instances"] = max_instances
    if accepts_estimator(experiment_id):
        if estimator is not None:
            kwargs["estimator"] = estimator
        if tilt_shift is not None:
            kwargs["tilt_shift"] = tilt_shift
        if tilt_scale is not None:
            kwargs["tilt_scale"] = tilt_scale
    if accepts_mission(experiment_id):
        if mission_length is not None:
            kwargs["mission_length"] = mission_length
        if mission_seed is not None:
            kwargs["mission_seed"] = mission_seed
        if correlation is not None:
            kwargs["correlation"] = correlation
    return runner(**kwargs)
