"""The contract linter enforces its rules -- and passes on this repository.

Every file rule gets a positive fixture (code written the forbidden way
fires the rule) and a negative fixture (the sanctioned pattern stays
clean), because a linter whose rules silently stopped matching would keep
reporting success while enforcing nothing.  The suite also pins the
suppression syntax, the CLI exit codes, and -- the gate the whole PR rides
on -- that ``repro-lint`` finds zero violations in ``src/`` at HEAD.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.lint.cli import find_project_root, main
from repro.lint.core import PROJECT_RULES, RULES, SourceFile, lint_source
from repro.lint.rules import drift

REPO_ROOT = Path(__file__).resolve().parent.parent

#: A path whose scope classifies as package code.
SRC_PATH = "src/repro/example.py"
#: A path whose scope classifies as suite code.
TEST_PATH = "tests/test_example.py"


def lint_src(code: str) -> list:
    return lint_source(SRC_PATH, textwrap.dedent(code))


def lint_tests(code: str) -> list:
    return lint_source(TEST_PATH, textwrap.dedent(code))


def rules_fired(violations: list) -> set[str]:
    return {violation.rule for violation in violations}


# ---------------------------------------------------------------------------
# determinism


@pytest.mark.parametrize(
    "code",
    [
        "import time\nstamp = time.time()\n",
        "import time\nstamp = time.time_ns()\n",
        "import datetime\nnow = datetime.datetime.now()\n",
        "from datetime import datetime\nnow = datetime.now()\n",
        "import numpy as np\nx = np.random.normal(0.0, 1.0)\n",
        "import numpy as np\nnp.random.seed(7)\n",
        "from numpy.random import normal\nx = normal(0.0, 1.0)\n",
        "import random\nx = random.random()\n",
        "import random\nx = random.randint(0, 10)\n",
        "import numpy as np\nrng = np.random.default_rng()\n",
        "from numpy.random import default_rng\nrng = default_rng()\n",
        "import random\nrng = random.Random()\n",
    ],
    ids=[
        "time",
        "time_ns",
        "datetime-now",
        "datetime-now-aliased",
        "np-global-normal",
        "np-global-seed",
        "np-normal-from-import",
        "random-random",
        "random-randint",
        "unseeded-default-rng",
        "unseeded-default-rng-aliased",
        "unseeded-stdlib-random",
    ],
)
def test_determinism_flags(code):
    assert rules_fired(lint_src(code)) == {"determinism"}


@pytest.mark.parametrize(
    "code",
    [
        "import numpy as np\nrng = np.random.default_rng(42)\n",
        "from numpy.random import default_rng\nrng = default_rng((3, 4))\n",
        "import random\nrng = random.Random(7)\nx = rng.random()\n",
        # A Generator *annotation* is not a draw.
        (
            "import numpy as np\n"
            "def draw(rng: np.random.Generator) -> float:\n"
            "    return float(rng.normal())\n"
        ),
        "import numpy as np\nseq = np.random.SeedSequence(5)\n",
    ],
    ids=[
        "seeded-default-rng",
        "tuple-seeded",
        "seeded-stdlib",
        "generator-annotation",
        "seed-sequence",
    ],
)
def test_determinism_accepts_seeded_patterns(code):
    assert lint_src(code) == []


def test_determinism_does_not_bind_the_test_suite():
    code = "import numpy as np\nx = np.random.normal(0.0, 1.0)\n"
    assert lint_tests(code) == []


# ---------------------------------------------------------------------------
# seeding-contract


SEEDING_VIOLATION = """
    import numpy as np

    def sample(seed, instance):
        rng = np.random.default_rng(seed)
        return rng.normal()
"""

SEEDING_OK = """
    import numpy as np

    def sample(seed, instance):
        rng = np.random.default_rng((seed, instance))
        return rng.normal()
"""

SEEDING_OK_ARITHMETIC = """
    import numpy as np

    def sample_batch(seed, first_instance, count):
        rng = np.random.default_rng((seed, "tag", first_instance + count))
        return rng.normal(size=count)
"""

SEEDING_NO_INSTANCE_PARAM = """
    import numpy as np

    def sample(seed):
        rng = np.random.default_rng(seed)
        return rng.normal()
"""


SEEDING_STREAMS_VIOLATION = """
    from repro.streams import instance_streams

    def sample_batch(seed, first_instance, count):
        return [rng.normal() for rng in instance_streams((seed, 7), 0, count)]
"""

SEEDING_STREAMS_MODULE_VIOLATION = """
    from repro import streams

    def sample_batch(seed, first_instance, count):
        return streams.standard_normals((seed,), 0, count, 3)
"""

SEEDING_STREAMS_OK = """
    from repro.streams import instance_streams, standard_normals

    def sample_batch(seed, first_instance, count):
        z = standard_normals((seed,), first_instance, count, 3)
        streams = instance_streams((seed, 7), first_instance, count)
        return z, [rng.normal() for rng in streams]
"""


def test_seeding_contract_flags_index_free_seed():
    violations = lint_src(SEEDING_VIOLATION)
    assert rules_fired(violations) == {"seeding-contract"}
    assert "instance" in violations[0].message


def test_seeding_contract_accepts_index_keyed_seed():
    assert lint_src(SEEDING_OK) == []
    assert lint_src(SEEDING_OK_ARITHMETIC) == []


@pytest.mark.parametrize(
    "code", [SEEDING_STREAMS_VIOLATION, SEEDING_STREAMS_MODULE_VIOLATION]
)
def test_seeding_contract_flags_index_free_stream_builder(code):
    violations = lint_src(code)
    assert rules_fired(violations) == {"seeding-contract"}
    assert "first_instance" in violations[0].message


def test_seeding_contract_accepts_index_keyed_stream_builder():
    assert lint_src(SEEDING_STREAMS_OK) == []


def test_seeding_contract_ignores_functions_without_instance_param():
    assert lint_src(SEEDING_NO_INSTANCE_PARAM) == []


# ---------------------------------------------------------------------------
# cache-safety


CACHE_LAMBDA = """
    from repro.sweep import sweep_map

    def run(grid):
        return sweep_map(lambda cell: cell, grid.cells())
"""

CACHE_NESTED = """
    from repro.sweep import sweep_map

    def run(grid):
        def cell_function(params):
            return params
        return sweep_map(cell_function, grid.cells())
"""

CACHE_NON_SCALAR_AXIS = """
    from repro.sweep import ParameterGrid

    GRID = ParameterGrid(corner=[("fast", 1.1)], frequency_mhz=[50.0, 100.0])
"""

CACHE_NON_SCALAR_EXTRA = """
    from repro.sweep import ParameterGrid

    GRID = ParameterGrid(frequency_mhz=[50.0, 100.0])
    CELLS = GRID.cells(options={"deep": True})
"""

CACHE_RUN_MISSING_LAMBDA = """
    def drain(executor, items):
        return list(executor.run_missing(lambda cell: cell, items))
"""

CACHE_RUN_MISSING_NESTED = """
    def drain(executor, items):
        def cell_function(params):
            return params
        return list(executor.run_missing(cell_function, items))
"""

CACHE_MAP_CELLS_LAMBDA = """
    def run(orchestrator, cells):
        return orchestrator.map_cells(lambda cell: cell, cells, experiment_id="e")
"""

CACHE_FUNC_KEYWORD_LAMBDA = """
    from repro.sweep import sweep_map

    def run(cells):
        return sweep_map(func=lambda cell: cell, cells=cells, experiment_id="e")
"""

CACHE_OK = """
    from repro.sweep import ParameterGrid, sweep_map

    GRID = ParameterGrid(corner=["fast", "slow"], frequency_mhz=[50.0, 100.0])

    def cell_function(params):
        return {"value": params["frequency_mhz"]}

    def run(orchestrator):
        return sweep_map(cell_function, GRID.cells(seed=0), orchestrator)
"""


@pytest.mark.parametrize(
    "code",
    [
        CACHE_LAMBDA,
        CACHE_NESTED,
        CACHE_NON_SCALAR_AXIS,
        CACHE_NON_SCALAR_EXTRA,
        CACHE_RUN_MISSING_LAMBDA,
        CACHE_RUN_MISSING_NESTED,
        CACHE_MAP_CELLS_LAMBDA,
        CACHE_FUNC_KEYWORD_LAMBDA,
    ],
    ids=[
        "lambda",
        "nested-function",
        "non-scalar-axis",
        "non-scalar-extra",
        "run-missing-lambda",
        "run-missing-nested",
        "map-cells-lambda",
        "func-keyword-lambda",
    ],
)
def test_cache_safety_flags(code):
    assert rules_fired(lint_src(code)) == {"cache-safety"}


def test_cache_safety_accepts_module_level_scalar_cells():
    assert lint_src(CACHE_OK) == []


# ---------------------------------------------------------------------------
# numerical / structural hygiene


def test_float_equality_flags_float_literal_compare():
    violations = lint_src("def f(x):\n    return x == 0.5\n")
    assert rules_fired(violations) == {"float-equality"}


@pytest.mark.parametrize(
    "code",
    [
        "def f(x):\n    return x <= 0.0\n",
        "import math\ndef f(x):\n    return math.isclose(x, 0.5)\n",
        "def f(x):\n    return x == 5\n",
    ],
    ids=["inequality", "isclose", "int-literal"],
)
def test_float_equality_accepts(code):
    assert lint_src(code) == []


def test_mutable_default_flags_literal_and_factory():
    assert rules_fired(lint_src("def f(items=[]):\n    return items\n")) == {
        "mutable-default"
    }
    assert rules_fired(lint_src("def f(cache=dict()):\n    return cache\n")) == {
        "mutable-default"
    }


def test_mutable_default_accepts_none_guard():
    code = "def f(items=None):\n    return [] if items is None else items\n"
    assert lint_src(code) == []


def test_bare_except_flags_and_binds_both_scopes():
    code = "try:\n    pass\nexcept:\n    pass\n"
    assert rules_fired(lint_src(code)) == {"bare-except"}
    assert rules_fired(lint_tests(code)) == {"bare-except"}


def test_named_except_is_clean():
    assert lint_src("try:\n    pass\nexcept ValueError:\n    pass\n") == []


def test_assert_validation_flags_src_but_not_tests():
    code = "def f(x):\n    assert x > 0\n    return x\n"
    assert rules_fired(lint_src(code)) == {"assert-validation"}
    assert lint_tests(code) == []


# ---------------------------------------------------------------------------
# kernel-purity

#: A path the purity rule binds (a module inside the kernel package).
KERNEL_PATH = "src/repro/kernels/example.py"


def lint_kernel(code: str) -> list:
    return lint_source(KERNEL_PATH, textwrap.dedent(code))


@pytest.mark.parametrize(
    "code",
    [
        "import random\n",
        "import secrets\n",
        "import numpy.random\n",
        "from numpy.random import default_rng\n",
        "from numpy import random\n",
        "from random import randint\n",
    ],
)
def test_kernel_purity_flags_rng_imports(code):
    assert "kernel-purity" in rules_fired(lint_kernel(code))


def test_kernel_purity_flags_module_state_read():
    code = """
    import numpy as np

    _CACHE = {}

    def kernel(values):
        _CACHE[values.shape] = values
        return values * np.asarray(_CACHE[values.shape])
    """
    assert "kernel-purity" in rules_fired(lint_kernel(code))


def test_kernel_purity_flags_closure_capture():
    code = """
    def kernel(values, scale):
        def helper(row):
            return row * scale
        return helper(values)
    """
    assert "kernel-purity" in rules_fired(lint_kernel(code))


def test_kernel_purity_accepts_pure_kernels():
    code = """
    import numpy as np

    EPSILON = 1e-12

    def kernel(values, offsets):
        clipped = np.clip(values + offsets, 0.0, 1.0)
        return clipped / (clipped.sum() + EPSILON)
    """
    assert lint_kernel(code) == []


def test_kernel_purity_allows_argument_shadowing_a_global():
    code = """
    TABLE = [1, 2, 3]

    def kernel(TABLE):
        return TABLE
    """
    # Reading the *argument* is fine; only the module binding is state.
    assert lint_kernel(code) == []


def test_kernel_purity_exempts_only_init_and_non_kernel_files():
    stateful = "_CACHE = {}\n\ndef f():\n    return _CACHE\n"
    assert lint_source("src/repro/kernels/__init__.py", stateful) == []
    assert lint_src(stateful) == []
    # Every other module of the package is a kernel module, whatever its name.
    flagged = lint_source("src/repro/kernels/backend.py", stateful)
    assert "kernel-purity" in rules_fired(flagged)


# ---------------------------------------------------------------------------
# suppression


def test_line_suppression_names_the_rule():
    code = "def f(x):\n    return x == 0.5  # repro-lint: disable=float-equality\n"
    assert lint_src(code) == []


def test_line_suppression_for_another_rule_does_not_silence():
    code = "def f(x):\n    return x == 0.5  # repro-lint: disable=bare-except\n"
    assert rules_fired(lint_src(code)) == {"float-equality"}


def test_file_suppression():
    code = (
        "# repro-lint: disable-file=determinism\n"
        "import random\n"
        "x = random.random()\n"
    )
    assert lint_src(code) == []


def test_disable_all_on_a_line():
    code = "def f(x):\n    return x == 0.5  # repro-lint: disable=all\n"
    assert lint_src(code) == []


def test_scope_classification():
    assert SourceFile(SRC_PATH, "").scope == "src"
    assert SourceFile(TEST_PATH, "").scope == "tests"
    assert SourceFile("benchmarks/test_bench.py", "").scope == "tests"
    assert SourceFile("src/repro/conftest.py", "").scope == "tests"


def test_unparsable_file_reports_parse_error():
    violations = lint_source(SRC_PATH, "def broken(:\n")
    assert [v.rule for v in violations] == ["parse-error"]


# ---------------------------------------------------------------------------
# registry-drift (project rule)


def test_drift_missing_catalog_is_one_actionable_violation(tmp_path):
    (tmp_path / "docs").mkdir()
    violations = list(drift.check(tmp_path))
    assert [v.rule for v in violations] == ["registry-drift"]
    assert "docs/experiments.md" in violations[0].message


def test_drift_flags_unknown_documented_id_and_stale_flag(tmp_path):
    docs = tmp_path / "docs"
    docs.mkdir()
    # Document every real id/flag (so only the planted drift fires), plus a
    # bogus experiment and a flag the runner does not accept.
    headings = "\n".join(
        f"### `{experiment_id}`" for experiment_id in sorted(drift.registered_ids())
    )
    flags = " ".join(sorted(drift.cli_flags()))
    (docs / "experiments.md").write_text(
        f"{headings}\n### `bogus_experiment`\n\n{flags} --no-such-flag\n",
        encoding="utf-8",
    )
    (docs / "architecture.md").write_text("", encoding="utf-8")
    (tmp_path / "README.md").write_text(
        "[a](docs/architecture.md) [b](docs/experiments.md)", encoding="utf-8"
    )
    (tmp_path / "src" / "repro").mkdir(parents=True)

    messages = [v.message for v in drift.check(tmp_path)]
    assert any("bogus_experiment" in message for message in messages)
    assert any("--no-such-flag" in message for message in messages)


def test_drift_flags_unlinked_doc_and_missing_layer(tmp_path):
    docs = tmp_path / "docs"
    docs.mkdir()
    headings = "\n".join(
        f"### `{experiment_id}`" for experiment_id in sorted(drift.registered_ids())
    )
    flags = " ".join(sorted(drift.cli_flags()))
    (docs / "experiments.md").write_text(f"{headings}\n\n{flags}\n", encoding="utf-8")
    (docs / "architecture.md").write_text("no layers here", encoding="utf-8")
    (docs / "orphan.md").write_text("never linked", encoding="utf-8")
    (tmp_path / "README.md").write_text(
        "[a](docs/architecture.md) [b](docs/experiments.md)", encoding="utf-8"
    )
    package = tmp_path / "src" / "repro"
    (package / "mc_like").mkdir(parents=True)
    (package / "mc_like" / "__init__.py").write_text("", encoding="utf-8")

    messages = [v.message for v in drift.check(tmp_path)]
    assert any("repro.mc_like" in message for message in messages)
    assert any("docs/orphan.md" in message for message in messages)


def test_drift_reports_this_repository_clean():
    assert list(drift.check(REPO_ROOT)) == []


# ---------------------------------------------------------------------------
# CLI


def test_cli_list_rules_names_every_registered_rule(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for name in (*RULES, *PROJECT_RULES):
        assert name in out


def test_cli_clean_file_exits_zero(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("import numpy as np\nrng = np.random.default_rng(1)\n")
    assert main([str(clean)]) == 0
    assert "clean" in capsys.readouterr().err


def test_cli_violations_exit_one_and_print_locations(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import random\nx = random.random()\n")
    assert main([str(dirty)]) == 1
    captured = capsys.readouterr()
    assert f"{dirty}:2:" in captured.out
    assert "determinism" in captured.out
    assert "1 violation(s)" in captured.err


def test_cli_unknown_rule_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "module.py"
    target.write_text("x = 1\n")
    assert main(["--select", "no-such-rule", str(target)]) == 2
    assert "no-such-rule" in capsys.readouterr().err


def test_cli_select_restricts_rules(tmp_path):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import random\nx = random.random()\ny = x == 0.5\n")
    assert main(["--select", "float-equality", str(dirty)]) == 1
    assert main(["--select", "bare-except", str(dirty)]) == 0


def test_cli_ignore_drops_rules(tmp_path):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import random\nx = random.random()\n")
    assert main(["--ignore", "determinism", str(dirty)]) == 0


def test_find_project_root_walks_up_to_pyproject_and_docs():
    assert find_project_root(REPO_ROOT / "src" / "repro" / "mc.py") == REPO_ROOT
    assert find_project_root("/") is None


def test_repro_lint_src_is_clean_at_head():
    """The PR's headline gate: the package lints clean, project rules and all."""
    assert main([str(REPO_ROOT / "src")]) == 0


def test_repro_lint_src_and_tests_are_clean_at_head():
    assert main([str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")]) == 0
