"""Golden-output regression gate over the Monte-Carlo experiment family.

The mission/correlation/thermal machinery added around these experiments is
contractually invisible when unused: the identity correlation branches to
the verbatim IID draw, a missing temperature trace runs the original chunk
body, and ``OffsetLoad.wrap(load, 0)`` returns the load itself.  This gate
enforces that end to end: the ``--json`` artifact of each vanilla
experiment, bytes on disk, must hash to the value pinned here.

If a hash moves, either the change is an intentional behavioural revision
(update the pin *and* say so in the commit message) or the new machinery
leaked into the default path (fix the regression).  JSON key order is
deterministic (insertion order), floats round-trip via ``repr``, and every
experiment seeds its RNGs, so the byte stream is stable across runs and
machines for a given numpy generation.

The default ``fig15_rare`` run reaches only the importance engine, so the
vanilla and stratified engines carry pins of their own, taken under CLI
options small enough to run in about a second each.

Two whole artifacts are checked in under ``tests/golden/``: every registered
experiment at its default seed, and the four Monte-Carlo experiments at a
held-out seed.  They are regenerated and compared byte for byte; on a
mismatch the failure lists the JSON paths that differ, with the pinned and
the new value of each, so a drift names the cells it moved.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

import pytest

from repro.experiments.runner import main as runner_main

#: experiment id -> sha256 of its ``--json`` artifact at the pinned seed.
GOLDEN_SHA256 = {
    "fig15": "62c2223e387b97883077b89f150006c76a0f9fd61f54afb7e423110f536488bd",
    "fig15_mc": "b62f29b0e9ce0df788c6bde763ac3eb1bb221c85ca9f3c14b2368e20034a23f4",
    "fig50_51_mc": "c5e5681abde70e34599df5435bd6ed37a9173b415bc07fe3581969d35b5ff34d",
    "fig15_rare": "1ed556d4619721acea08bc20a7f97fc7097b741865efa176d949b1c4fa9523c2",
}


#: ``fig15_rare`` options that reach one rare-event engine -> sha256 of the
#: ``--json`` artifact they produce.
RARE_ENGINE_SHA256 = {
    "vanilla": "ca187398e3aa7c38c6b3190e748b9c07f2c6bfe6b30e105adb3bb7a7155aab46",
    "stratified": "e5c655035004dbe782e01418facdb9828802c390f1dd3fbe0f47116a9cbb2ef7",
}
RARE_ENGINE_OPTIONS = ("--precision", "5e-5", "--max-instances", "2048")


def _artifact_sha256(
    argv: list[str], tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> str:
    artifact = tmp_path / "artifact.json"
    assert runner_main([*argv, "--json", str(artifact)]) == 0
    capsys.readouterr()  # The table report is not under test here.
    return hashlib.sha256(artifact.read_bytes()).hexdigest()


@pytest.mark.parametrize("experiment_id", sorted(GOLDEN_SHA256))
def test_json_artifact_is_byte_identical(
    experiment_id: str, tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    digest = _artifact_sha256([experiment_id], tmp_path, capsys)
    assert digest == GOLDEN_SHA256[experiment_id], (
        f"{experiment_id} --json output drifted: sha256 {digest} != pinned "
        f"{GOLDEN_SHA256[experiment_id]}. If the behavioural change is "
        "intentional, update GOLDEN_SHA256; otherwise new machinery has "
        "leaked into the default path."
    )


@pytest.mark.parametrize("estimator", sorted(RARE_ENGINE_SHA256))
def test_rare_event_engine_artifact_is_byte_identical(
    estimator: str, tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    argv = ["fig15_rare", "--estimator", estimator, *RARE_ENGINE_OPTIONS]
    digest = _artifact_sha256(argv, tmp_path, capsys)
    assert digest == RARE_ENGINE_SHA256[estimator], (
        f"{' '.join(argv)} --json output drifted: sha256 {digest} != "
        f"pinned {RARE_ENGINE_SHA256[estimator]}."
    )


GOLDEN_DIR = Path(__file__).parent / "golden"

#: checked-in artifact -> (runner arguments that regenerate it, its sha256).
ARTIFACT_PINS = {
    "all_experiments_seed2012.json": (
        ("--all",),
        "f7a8e770289d9fd0efb545c65edce4002dc82fb032fcfe95ab075bda1ef04005",
    ),
    "mc_experiments_seed6151.json": (
        ("fig15", "fig15_mc", "fig50_51_mc", "fig15_rare", "--seed", "6151"),
        "1a538b514ce24a675f3269f5696dbd470840413a87233c909fc3f667477e298a",
    ),
}

#: How many differing JSON paths a mismatch report lists.
MAX_REPORTED_DIFFS = 40


def json_diff(old: Any, new: Any, path: str = "$") -> list[str]:
    """Every JSON path at which ``old`` and ``new`` differ, with both values.

    Dict keys are matched by name and list items by index; a key or item
    present on one side only is reported as ``<absent>`` on the other.
    """
    if isinstance(old, dict) and isinstance(new, dict):
        diffs: list[str] = []
        for key in list(old) + [k for k in new if k not in old]:
            sub = f"{path}.{key}"
            if key not in new:
                diffs.append(f"{sub}: {old[key]!r} -> <absent>")
            elif key not in old:
                diffs.append(f"{sub}: <absent> -> {new[key]!r}")
            else:
                diffs.extend(json_diff(old[key], new[key], sub))
        return diffs
    if isinstance(old, list) and isinstance(new, list):
        diffs = []
        for i in range(max(len(old), len(new))):
            sub = f"{path}[{i}]"
            if i >= len(new):
                diffs.append(f"{sub}: {old[i]!r} -> <absent>")
            elif i >= len(old):
                diffs.append(f"{sub}: <absent> -> {new[i]!r}")
            else:
                diffs.extend(json_diff(old[i], new[i], sub))
        return diffs
    if type(old) is not type(new) or old != new:
        return [f"{path}: {old!r} -> {new!r}"]
    return []


def _mismatch_report(name: str, pinned: bytes, fresh: bytes) -> str:
    diffs = json_diff(json.loads(pinned), json.loads(fresh))
    if not diffs:
        return f"{name}: same JSON values, different bytes (formatting drifted)"
    shown = "\n  ".join(diffs[:MAX_REPORTED_DIFFS])
    more = len(diffs) - MAX_REPORTED_DIFFS
    tail = f"\n  ... and {more} more" if more > 0 else ""
    return (
        f"{name} drifted at {len(diffs)} JSON path(s) (pinned -> new):"
        f"\n  {shown}{tail}"
    )


class TestJsonDiff:
    def test_equal_documents_have_no_diff(self) -> None:
        doc = {"a": [1, {"b": 2.5}], "c": "x"}
        assert json_diff(doc, json.loads(json.dumps(doc))) == []

    def test_reports_every_differing_path_with_both_values(self) -> None:
        old = {"fig": {"cells": [{"yield": 1.0}, {"yield": 0.5}]}, "gone": 1}
        new = {"fig": {"cells": [{"yield": 1}, {"yield": 0.25}, 3]}, "added": 2}
        assert json_diff(old, new) == [
            "$.fig.cells[0].yield: 1.0 -> 1",
            "$.fig.cells[1].yield: 0.5 -> 0.25",
            "$.fig.cells[2]: <absent> -> 3",
            "$.gone: 1 -> <absent>",
            "$.added: <absent> -> 2",
        ]


@pytest.mark.parametrize("name", sorted(ARTIFACT_PINS))
def test_checked_in_artifact_is_byte_identical(
    name: str, tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    argv, sha256 = ARTIFACT_PINS[name]
    pinned = (GOLDEN_DIR / name).read_bytes()
    assert hashlib.sha256(pinned).hexdigest() == sha256, (
        f"tests/golden/{name} no longer matches its pinned sha256"
    )
    artifact = tmp_path / name
    assert runner_main([*argv, "--json", str(artifact)]) == 0
    capsys.readouterr()  # The table report is not under test here.
    fresh = artifact.read_bytes()
    assert fresh == pinned, _mismatch_report(name, pinned, fresh)
