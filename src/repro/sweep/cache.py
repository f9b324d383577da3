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

Beyond memoization, the cache doubles as the **coordination point** of the
``shared-cache`` sweep executor (:mod:`repro.sweep.executors`): independent
worker processes -- possibly on different hosts sharing one filesystem --
claim cells idempotently through atomic *claim files* next to the entries
(:meth:`ResultCache.try_claim` / :meth:`ResultCache.release_claim`).  A
claim is advisory and crash-safe: losing a worker loses at most its
in-flight claims, which expire by age (or immediately, when the claiming
process is provably dead on the same host) and are then stolen by a
surviving worker through the same tmp+rename path.  Because cell payloads
are pure functions of their parameters and entry writes are atomic, a
double-compute during a claim race is wasted work, never wrong data.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
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

    def claim_path(self, experiment_id: str, key: str) -> Path:
        """Where the claim file for a cell key lives (whether or not it exists)."""
        return self.root / experiment_id / f"{key}.claim"

    def try_claim(
        self,
        experiment_id: str,
        key: str,
        *,
        owner: str,
        ttl_seconds: float = 900.0,
    ) -> bool:
        """Attempt to claim a cell for computation; ``True`` on success.

        The claim protocol is what lets N independent workers drain one
        grid against a shared cache without a coordinator:

        * Acquisition is an atomic create-if-absent (:func:`os.link` from a
          private temporary file), so exactly one of any number of
          concurrent claimants wins a free cell.
        * A claim held by someone else blocks -- unless it is *stale*: its
          file age exceeds ``ttl_seconds``, its holder is a provably-dead
          process on this host, or its content is unreadable.  Stale claims
          are stolen by atomically replacing the file (tmp+rename) and then
          re-reading it: concurrent stealers all replace, but only the one
          whose ``owner`` token survives in the file proceeds.

        Claims are advisory.  The worst a race can cost is a duplicate
        computation of a pure cell -- entry writes are atomic and
        content-addressed, so correctness never depends on mutual
        exclusion, only throughput does.
        """
        path = self.claim_path(experiment_id, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp_name = self._claim_write_atomic(path, owner)
        try:
            try:
                os.link(tmp_name, path)
                return True
            except FileExistsError:
                pass
            if not self._claim_is_stale(path, ttl_seconds):
                return False
            # Steal: tmp+rename replaces atomically; last replacer wins and
            # every loser sees the winner's token on the re-read below.
            os.replace(tmp_name, path)
            tmp_name = None
        finally:
            if tmp_name is not None:
                try:
                    os.unlink(tmp_name)
                except OSError:  # pragma: no cover - already gone
                    pass
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return False
        return isinstance(entry, dict) and entry.get("owner") == owner

    def release_claim(self, experiment_id: str, key: str, *, owner: str) -> None:
        """Drop a claim this owner holds (a stolen/foreign claim is left alone)."""
        path = self.claim_path(experiment_id, key)
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        if isinstance(entry, dict) and entry.get("owner") == owner:
            self._discard(path)

    @staticmethod
    def _claim_write_atomic(path: Path, owner: str) -> str:
        """Write a claim document to a private temporary file, return its name.

        All claim-file content passes through here before an atomic
        :func:`os.link` (acquire) or :func:`os.replace` (steal) publishes
        it -- a claim is never written in place, so readers can never see a
        torn one.  The document records the owner token plus the host and
        pid of the claimant, which is what lets :meth:`_claim_is_stale`
        expire claims of crashed processes immediately instead of waiting
        out the TTL.
        """
        handle = tempfile.NamedTemporaryFile(
            mode="w",
            encoding="utf-8",
            dir=path.parent,
            prefix=f".{path.stem}.",
            suffix=".tmp",
            delete=False,
        )
        with handle:
            json.dump(
                {"owner": owner, "host": platform.node(), "pid": os.getpid()},
                handle,
            )
        return handle.name

    def _claim_is_stale(self, path: Path, ttl_seconds: float) -> bool:
        """Whether an existing claim no longer protects its cell."""
        try:
            age_reference = path.stat().st_mtime
        except OSError:
            return True  # released between our link attempt and now
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return True  # unreadable claims protect nothing
        if not isinstance(entry, dict):
            return True
        pid = entry.get("pid")
        if (
            entry.get("host") == platform.node()
            and isinstance(pid, int)
            and not self._pid_alive(pid)
        ):
            return True
        # Age against the *filesystem's* clock, not this process's wall
        # clock: claim mtimes are stamped by whichever host wrote them, so
        # comparing them to a freshly-stamped local mtime is immune to
        # clock skew between cooperating hosts (and keeps cell results
        # independent of any wall-clock read).
        return self._filesystem_now(path.parent) - age_reference > ttl_seconds

    @staticmethod
    def _pid_alive(pid: int) -> bool:
        if pid <= 0:
            return False
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        except OSError:  # e.g. EPERM: alive but owned by someone else
            return True
        return True

    @staticmethod
    def _filesystem_now(directory: Path) -> float:
        """The filesystem's current time, read off a throwaway file's mtime."""
        handle = tempfile.NamedTemporaryFile(dir=directory, suffix=".now")
        with handle:
            return os.fstat(handle.fileno()).st_mtime

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
