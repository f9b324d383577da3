"""Docs stay in lockstep with the code.

Two enforcement points: the module docstrings of the hot engines carry
*runnable* doctest examples (exercised here and by the CI docs job via
``pytest --doctest-modules``), and the ``registry-drift`` rule of
:mod:`repro.lint` must report the repository clean -- every id in the
experiment registry documented in ``docs/experiments.md`` (and vice
versa), every runner CLI flag documented (and vice versa), every layer
package named in ``docs/architecture.md``, and every docs page linked
from the README.  The drift logic itself lives in
:mod:`repro.lint.rules.drift` so the pytest gate and the ``repro-lint``
command can never disagree; the per-aspect tests below call the rule's
helpers directly so a failure still names the specific contract that
broke.
"""

from __future__ import annotations

import doctest
from pathlib import Path

import pytest

import repro.analysis.metrics
import repro.converter.closed_loop
import repro.converter.load
import repro.converter.missions
import repro.core.ensemble
import repro.core.yield_analysis
import repro.experiments.base
import repro.kernels.closed_loop
import repro.kernels.ensemble
import repro.kernels.fabrication
import repro.mc
import repro.pipeline
import repro.simulation.batch
import repro.streams
from repro.lint.rules import drift

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS = REPO_ROOT / "docs"

#: The hot modules whose docstrings must carry runnable examples.
DOCTEST_MODULES = [
    repro.simulation.batch,
    repro.kernels.closed_loop,
    repro.kernels.ensemble,
    repro.kernels.fabrication,
    repro.analysis.metrics,
    repro.converter.closed_loop,
    repro.converter.load,
    repro.converter.missions,
    repro.core.ensemble,
    repro.core.yield_analysis,
    repro.experiments.base,
    repro.pipeline,
    repro.streams,
    repro.mc,
]


@pytest.mark.parametrize("module", DOCTEST_MODULES, ids=lambda m: m.__name__)
def test_module_docstring_examples_run(module):
    results = doctest.testmod(module, verbose=False, report=True)
    assert results.attempted > 0, f"{module.__name__} has no doctest examples"
    assert results.failed == 0


def test_experiment_catalog_lists_every_registered_id():
    documented = drift.catalog_ids(REPO_ROOT)
    registered = drift.registered_ids()
    missing = registered - documented
    stale = documented - registered
    assert not missing, f"experiments missing from docs/experiments.md: {missing}"
    assert not stale, f"docs/experiments.md documents unknown ids: {stale}"


def test_every_documented_cli_flag_exists():
    unknown = drift.documented_flags(REPO_ROOT) - drift.cli_flags()
    assert not unknown, (
        f"docs/experiments.md mentions CLI flags the runner does not "
        f"accept: {sorted(unknown)}"
    )


def test_every_cli_flag_is_documented():
    missing = drift.cli_flags() - drift.documented_flags(REPO_ROOT)
    assert missing == set(), (
        f"runner.py flags missing from docs/experiments.md: {sorted(missing)}"
    )


def test_architecture_doc_names_every_layer():
    text = (DOCS / "architecture.md").read_text(encoding="utf-8")
    layers = drift.layer_packages(REPO_ROOT)
    # The filesystem discovery must keep seeing the seven-layer stack; a
    # refactor that silently renames a package would otherwise weaken the
    # gate to vacuity.
    for expected in (
        "repro.technology",
        "repro.core",
        "repro.dpwm",
        "repro.converter",
        "repro.simulation",
        "repro.pipeline",
        "repro.mc",
        "repro.sweep",
        "repro.experiments",
        "repro.analysis",
        "repro.lint",
    ):
        assert expected in layers, f"layer discovery lost {expected}"
    for package in sorted(layers):
        assert package in text, f"architecture.md does not mention {package}"


def test_registry_drift_rule_reports_repository_clean():
    """The single gate the per-aspect tests above are facets of."""
    violations = list(drift.check(REPO_ROOT))
    assert violations == [], "\n".join(v.format() for v in violations)


def test_monte_carlo_guide_covers_the_adaptive_contract():
    text = (DOCS / "monte_carlo.md").read_text(encoding="utf-8")
    for required in (
        "--precision",
        "--max-instances",
        "Wilson",
        "95 % Wilson",
        "chunk",
        "seed",
    ):
        assert required in text, f"monte_carlo.md does not cover {required!r}"


def test_readme_links_to_the_docs():
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    for doc in sorted(DOCS.glob("*.md")):
        assert f"docs/{doc.name}" in text, f"README.md does not link docs/{doc.name}"
