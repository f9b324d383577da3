"""Content-addressed on-disk cache for sweep-cell results.

Every sweep cell -- one (experiment, parameter-cell) unit of work -- is a
pure function of its JSON-scalar parameters and the code that computes it,
so its result can be memoized on disk under a key that captures exactly
those inputs:

``key = sha256(experiment id + canonical parameter JSON + code fingerprint)``

The *code fingerprint* hashes every source file of the :mod:`repro` package,
so editing any module silently invalidates the whole cache (stale results
can never leak across code changes) while re-runs of unchanged code hit it.
Entries are JSON documents mirroring the runner's ``--json`` payloads; loads
validate the entry's structure and its embedded key echo, and anything
corrupted, truncated or tampered with is discarded (and deleted) so the
orchestrator transparently recomputes it.  Writes go through a temporary
file plus :func:`os.replace`, so a crashed or concurrent writer can never
leave a half-written entry behind.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import asdict, is_dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any

import numpy as np

__all__ = [
    "MISS",
    "ResultCache",
    "canonical_json",
    "cell_key",
    "code_fingerprint",
    "jsonable",
]

#: Version of the on-disk entry schema; bump to invalidate old layouts.
ENTRY_FORMAT = 1


class _Miss:
    """Sentinel for a cache miss (distinct from a legitimately-null payload)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return "MISS"


#: Returned by :meth:`ResultCache.load` when no valid entry exists; using a
#: sentinel (rather than ``None``) lets cells cache null payloads.
MISS = _Miss()


def jsonable(value: Any) -> Any:
    """Recursively convert result data into JSON-serializable types.

    Numpy arrays become (nested) lists, numpy scalars become Python
    scalars, dataclasses become dicts and mapping keys are coerced to
    strings -- the same conversion the experiment runner applies to
    ``--json`` dumps, so cached cell payloads and CLI output share one
    schema.
    """
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if is_dataclass(value) and not isinstance(value, type):
        return jsonable(asdict(value))
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    return value


def canonical_json(value: Any) -> str:
    """The canonical (sorted, compact) JSON text of a value.

    Canonicalization makes the text -- and therefore the content address
    derived from it -- independent of dict insertion order.
    """
    return json.dumps(jsonable(value), sort_keys=True, separators=(",", ":"))


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Hash of every ``repro`` source file, as one hex digest.

    File paths (relative to the package root) and contents both enter the
    hash, so renames, edits, additions and deletions all change it.  The
    result is cached for the life of the process: the sources of an
    imported package do not change under a running sweep.
    """
    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode("utf-8"))
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x00")
    return digest.hexdigest()


def cell_key(
    experiment_id: str,
    params: dict[str, Any],
    fingerprint: str | None = None,
) -> str:
    """Content address of one sweep cell.

    Args:
        experiment_id: the registered experiment the cell belongs to.
        params: the cell's full parameter dict (including the RNG seed for
            Monte-Carlo cells); must be JSON-serializable after
            :func:`jsonable` conversion.
        fingerprint: override for the code fingerprint (tests use this to
            simulate code changes); defaults to :func:`code_fingerprint`.
    """
    document = {
        "experiment": experiment_id,
        "params": jsonable(params),
        "fingerprint": fingerprint if fingerprint is not None else code_fingerprint(),
    }
    return hashlib.sha256(canonical_json(document).encode("utf-8")).hexdigest()


def _payload_digest(payload: Any) -> str:
    """Integrity checksum of a stored payload (canonical-JSON sha256)."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


class ResultCache:
    """On-disk store of sweep-cell payloads, one JSON file per cell.

    Layout: ``<root>/<experiment_id>/<key>.json`` where ``key`` is the
    cell's content address (:func:`cell_key`).  Each file holds the entry
    schema version, the experiment id, the key echo, the (jsonable) cell
    parameters for human inspection, and the payload itself.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def entry_path(self, experiment_id: str, key: str) -> Path:
        """Where the entry for a cell key lives (whether or not it exists)."""
        return self.root / experiment_id / f"{key}.json"

    def load(self, experiment_id: str, key: str) -> Any:
        """The cached payload for a key, or the :data:`MISS` sentinel.

        A present-but-invalid entry (unreadable, corrupt JSON, wrong schema
        version, mismatched key echo, missing payload, payload checksum
        mismatch) counts as a miss and is deleted so the recomputed result
        can take its place.
        """
        path = self.entry_path(experiment_id, key)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return MISS
        except ValueError:  # undecodable bytes: corruption, not a miss
            self._discard(path)
            return MISS
        try:
            entry = json.loads(text)
        except ValueError:
            self._discard(path)
            return MISS
        if (
            not isinstance(entry, dict)
            or entry.get("format") != ENTRY_FORMAT
            or entry.get("experiment") != experiment_id
            or entry.get("key") != key
            or "payload" not in entry
            or entry.get("checksum") != _payload_digest(entry["payload"])
        ):
            self._discard(path)
            return MISS
        return entry["payload"]

    def store(
        self,
        experiment_id: str,
        key: str,
        payload: Any,
        params: dict[str, Any] | None = None,
    ) -> None:
        """Atomically write a payload under its content address."""
        path = self.entry_path(experiment_id, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "format": ENTRY_FORMAT,
            "experiment": experiment_id,
            "key": key,
            # The fingerprint is part of the content address; recording it
            # here too lets prune() recognize entries stranded by code
            # edits (their keys can never be recomputed).
            "fingerprint": code_fingerprint(),
            "params": jsonable(params) if params is not None else None,
            "payload": payload,
            "checksum": _payload_digest(payload),
        }
        handle = tempfile.NamedTemporaryFile(
            mode="w",
            encoding="utf-8",
            dir=path.parent,
            prefix=f".{key}.",
            suffix=".tmp",
            delete=False,
        )
        try:
            with handle:
                json.dump(entry, handle, sort_keys=True)
            os.replace(handle.name, path)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise

    def prune(self, fingerprint: str | None = None) -> int:
        """Delete entries not written by the given code fingerprint.

        Keys embed the source fingerprint, so entries written under older
        package sources can never be hits again (unless that exact code is
        restored) -- they only accumulate.  ``prune`` reclaims them,
        returning the number of entries removed.  Defaults to keeping only
        entries matching the current :func:`code_fingerprint`.
        """
        fingerprint = (
            fingerprint if fingerprint is not None else code_fingerprint()
        )
        removed = 0
        for path in sorted(self.root.glob("*/*.json")):
            try:
                entry = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                self._discard(path)
                removed += 1
                continue
            if (
                not isinstance(entry, dict)
                or entry.get("fingerprint") != fingerprint
            ):
                self._discard(path)
                removed += 1
        return removed

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:  # pragma: no cover - racing deleters are fine
            pass
