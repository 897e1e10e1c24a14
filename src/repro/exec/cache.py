"""Content-addressed on-disk cache of simulation results.

A cache entry is keyed by the SHA-256 of the *canonicalised* run unit:
every field of the :class:`~repro.sim.scenario.RunUnit` (configuration,
workload spec, seed, storm/shootdown knobs, quantum, ...) serialised to
a stable JSON form, plus an engine-version tag that is bumped whenever
the simulator's behaviour changes.  Two runs share a key exactly when
the determinism contract guarantees they produce bit-identical
:class:`~repro.sim.results.RunResult`\\ s — so a hit can simply return
the stored value.

Prebuilt workloads (loaded traces, multiprogrammed mixes) have no spec
to canonicalise; they are fingerprinted by hashing their trace records
instead, which preserves the same property.

Values are stored with :mod:`pickle` (results are trusted local
artefacts and must round-trip exactly, intervals and all), written
atomically so concurrent writers — pool workers, parallel suites —
can never expose a torn entry.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
import time
from typing import Iterator, Optional

import numpy as np

from repro.sim.results import RunResult
from repro.workloads.trace import Workload


def canonicalize(obj):
    """Reduce a value to deterministic JSON-representable primitives.

    Dataclasses become ``{"__dataclass__": <type>, <field>: ...}`` maps
    (the type name participates in the key: two dataclasses with equal
    fields but different meanings must not collide), sequences become
    lists, dict keys are stringified and sorted by ``json.dumps``.
    Anything unhashable-by-design (functions, arrays, open files) is a
    ``TypeError`` — cache keys must never silently depend on object
    identity.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            raise TypeError("non-finite floats cannot be canonicalised")
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {"__dataclass__": type(obj).__name__}
        for f in dataclasses.fields(obj):
            out[f.name] = canonicalize(getattr(obj, f.name))
        return out
    if isinstance(obj, dict):
        return {str(key): canonicalize(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonicalize(item) for item in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return canonicalize(float(obj))
    raise TypeError(f"cannot canonicalise {type(obj).__name__} for a cache key")


def canonical_json(obj) -> str:
    return json.dumps(canonicalize(obj), sort_keys=True, separators=(",", ":"))


def unit_key(unit, engine_version: str) -> str:
    """SHA-256 content address of one run unit under one engine version."""
    payload = canonical_json({"engine": engine_version, "unit": unit})
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def workload_fingerprint(workload: Workload) -> str:
    """Content hash of a prebuilt workload's traces and identity.

    Used when a run arrives with a built :class:`Workload` (a loaded
    ``.npz`` trace, a multiprogrammed mix) rather than a spec: hashing
    the records themselves keeps the key honest about what actually
    ran.
    """
    digest = hashlib.sha256()
    header = {
        "name": workload.name,
        "seed": workload.seed,
        "superpages": workload.superpages,
        "info": workload.info,
    }
    digest.update(canonical_json(header).encode("utf-8"))
    for core in workload.traces:
        for stream in core:
            arr = np.asarray(stream, dtype=np.int64).reshape(len(stream), -1)
            digest.update(str(arr.shape).encode())
            digest.update(arr.tobytes())
    return digest.hexdigest()


class ResultCache:
    """Content-addressed store of :class:`RunResult` values on disk.

    Layout: ``<root>/<key[:2]>/<key>.pkl`` — the two-character fan-out
    keeps directories small under big sweeps.  ``get`` treats any
    unreadable entry as a miss (a corrupt or truncated file must never
    poison a run).
    """

    def __init__(self, root: str) -> None:
        self.root = str(root)

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], f"{key}.pkl")

    def get(self, key: str) -> Optional[RunResult]:
        try:
            with open(self._path(key), "rb") as fh:
                return pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
            return None

    def put(self, key: str, result: RunResult) -> None:
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path), prefix=".tmp-", suffix=".pkl"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self._path(key))

    def keys(self) -> Iterator[str]:
        if not os.path.isdir(self.root):
            return
        for bucket in sorted(os.listdir(self.root)):
            subdir = os.path.join(self.root, bucket)
            if not os.path.isdir(subdir):
                continue
            for entry in sorted(os.listdir(subdir)):
                if entry.endswith(".pkl") and not entry.startswith(".tmp-"):
                    yield entry[: -len(".pkl")]

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def stats(self) -> dict:
        """``{"entries": count, "bytes": total_size}``."""
        entries = 0
        size = 0
        for key in self.keys():
            entries += 1
            try:
                size += os.path.getsize(self._path(key))
            except OSError:
                pass
        return {"entries": entries, "bytes": size}

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for key in list(self.keys()):
            try:
                os.unlink(self._path(key))
                removed += 1
            except OSError:
                pass
        return removed

    def evict_older_than(self, max_age_s: float, now: Optional[float] = None) -> int:
        """Delete entries last written more than ``max_age_s`` ago.

        The age rule behind ``repro cache evict --max-age-s``: results
        are content-addressed, so an evicted entry costs at most one
        re-simulation — correctness never depends on retention.
        ``now`` is injectable for tests.  Returns how many entries were
        removed; races with concurrent writers are benign (a vanished
        file is simply skipped).
        """
        if max_age_s < 0:
            raise ValueError(f"max_age_s must be >= 0 (got {max_age_s})")
        if now is None:
            now = time.time()
        removed = 0
        for key in list(self.keys()):
            path = self._path(key)
            try:
                if now - os.path.getmtime(path) > max_age_s:
                    os.unlink(path)
                    removed += 1
            except OSError:
                pass
        return removed
