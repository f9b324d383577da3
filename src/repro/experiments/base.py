"""Experiment result container and registry."""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.sweep import SweepOrchestrator

__all__ = [
    "ExperimentResult",
    "accepts_parameter",
    "adaptive_coordinates",
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


def monte_carlo_budget(
    params: dict[str, Any], *, fixed_instances: int
) -> dict[str, Any]:
    """Estimator budget keywords of one Monte-Carlo sweep cell.

    A cell with the ``precision`` / ``max_instances`` coordinates of
    :func:`adaptive_coordinates` samples adaptively up to that cap.  A
    cell without them spends the fixed budget of ``fixed_instances``: the
    same estimator at ``precision=0.0`` in a single chunk.
    """
    if "precision" in params:
        return {key: params[key] for key in ("precision", "max_instances")}
    return {
        "precision": 0.0,
        "max_instances": fixed_instances,
        "chunk_size": fixed_instances,
    }


def adaptive_coordinates(
    precision: float | None, max_instances: int | None, *, default_max_instances: int
) -> dict[str, Any]:
    """Budget coordinates a Monte-Carlo experiment writes into its cells.

    None for the fixed budget; the target ``precision`` plus the sample
    cap (``max_instances``, else ``default_max_instances``) for adaptive
    sampling.  :func:`monte_carlo_budget` reads them back:

    >>> fixed = adaptive_coordinates(None, None, default_max_instances=512)
    >>> fixed, monte_carlo_budget(fixed, fixed_instances=128)
    ({}, {'precision': 0.0, 'max_instances': 128, 'chunk_size': 128})
    >>> adaptive = adaptive_coordinates(0.02, None, default_max_instances=512)
    >>> adaptive == monte_carlo_budget(adaptive, fixed_instances=128)
    True
    >>> adaptive
    {'precision': 0.02, 'max_instances': 512}

    Raises:
        ValueError: if ``max_instances`` is given without a ``precision``.
    """
    if precision is None:
        if max_instances is not None:
            raise ValueError("max_instances is only meaningful with a precision")
        return {}
    return {
        "precision": precision,
        "max_instances": max_instances or default_max_instances,
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

    Every option that is given (not ``None``) reaches the experiment's
    ``run`` when ``run`` declares a keyword of that name (see
    :func:`accepts_parameter`); experiments that do not declare it ignore
    it.

    Args:
        experiment_id: the registered id.
        seed: optional RNG seed of the Monte-Carlo draws.
        sweep: optional :class:`~repro.sweep.SweepOrchestrator` that fans
            a grid experiment's cells out and caches them.
        precision: optional target confidence-interval half-width; switches
            the Monte-Carlo experiments from their fixed per-cell instance
            counts to the adaptive sampler of :mod:`repro.mc`.
        max_instances: optional hard per-cell sample cap for the adaptive
            sampler; only meaningful together with ``precision``.
        estimator: optional rare-event estimator name (``vanilla`` /
            ``stratified`` / ``importance``).
        tilt_shift: optional scale on the importance tilt direction.
        tilt_scale: optional proposal sigma widening of the importance
            tilt.
        mission_length: optional mission length in switching periods.
        mission_seed: optional seed of the per-instance mission draws.
        correlation: optional component-correlation preset name (see
            :data:`repro.core.yield_analysis.CORRELATION_PRESETS`).

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
    options = {
        "seed": seed,
        "sweep": sweep,
        "precision": precision,
        "max_instances": max_instances,
        "estimator": estimator,
        "tilt_shift": tilt_shift,
        "tilt_scale": tilt_scale,
        "mission_length": mission_length,
        "mission_seed": mission_seed,
        "correlation": correlation,
    }
    return runner(
        **{
            name: value
            for name, value in options.items()
            if value is not None and accepts_parameter(experiment_id, name)
        }
    )
