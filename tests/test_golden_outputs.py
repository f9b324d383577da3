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
"""

from __future__ import annotations

import hashlib
from pathlib import Path

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
