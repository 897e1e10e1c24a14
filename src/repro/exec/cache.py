"""Content-addressed on-disk stores: one key, one commit, one layout.

:func:`content_key` is the SHA-256 of a value's canonical JSON.  A run
unit's key (:func:`unit_key`) folds in an engine-version tag that is
bumped whenever the simulator's behaviour changes, so two runs share a
key exactly when the determinism contract guarantees bit-identical
:class:`~repro.sim.results.RunResult`\\ s — a hit can simply return
the stored value.  Prebuilt workloads (loaded traces, multiprogrammed
mixes) have no spec to canonicalise; :func:`workload_fingerprint`
hashes their records instead.

:func:`atomic_write` commits a file through a ``.tmp-`` file and
``os.replace``, so concurrent writers (pool workers, parallel suites)
never expose a torn file.  :class:`EntryStore` is a directory of
entries made of such files, shared by :class:`ResultCache` (one pickle
per result) and :class:`~repro.exec.trace_store.TraceStore` (a packed
``.npy`` plus a ``.json`` sidecar).  In both, a damaged entry reads as
a miss and is rebuilt.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.sim.results import RunResult
from repro.workloads.io import pack_workload
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


def content_key(payload) -> str:
    """SHA-256 content address of any canonicalisable value."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def unit_key(unit, engine_version: str) -> str:
    """SHA-256 content address of one run unit under one engine version."""
    return content_key({"engine": engine_version, "unit": unit})


def workload_fingerprint(workload: Workload) -> str:
    """Content hash of a prebuilt workload's traces and identity.

    Used when a run arrives with a built :class:`Workload` (a loaded
    ``.npz`` trace, a multiprogrammed mix) rather than a spec: hashing
    the records themselves keeps the key honest about what actually
    ran.  Each stream is hashed as its ``(n, 4)`` slice of the packed
    records.
    """
    data, offsets, _, meta = pack_workload(workload)
    digest = hashlib.sha256()
    header = {key: meta[key] for key in ("name", "seed", "superpages", "info")}
    digest.update(canonical_json(header).encode("utf-8"))
    for lo, hi in zip(offsets, offsets[1:]):
        rows = data[lo:hi]
        digest.update(str(rows.shape).encode())
        digest.update(rows.tobytes())
    return digest.hexdigest()


def _unlink(path: str) -> bool:
    try:
        os.unlink(path)
        return True
    except OSError:
        return False


def atomic_write(path: str, write: Callable) -> None:
    """Commit ``path`` atomically: ``write(fh)`` fills a binary ``.tmp-``
    file in the target directory, which then replaces ``path``; on any
    failure the temp file is unlinked and ``path`` is left as it was."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=".tmp-", suffix=os.path.splitext(path)[1]
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        _unlink(tmp)
        raise


#: What reading an absent, cut or corrupt entry can raise.  Both stores
#: read an entry that raises one of these as a miss and rebuild it.
UNREADABLE = (
    OSError, EOFError, pickle.UnpicklingError, ArithmeticError,
    AttributeError, ImportError, LookupError, TypeError, ValueError,
)


class EntryStore:
    """A directory of content-addressed entries.

    An entry is one file per suffix in :attr:`SUFFIXES`, laid out as
    ``<root>/<key[:2]>/<key><suffix>`` (the two-character fan-out keeps
    directories small under big sweeps).  Writers commit the last
    suffix last, so it is the commit marker: an entry is a member only
    when every file exists, and removal unlinks the marker first, so a
    half-written or half-removed entry reads as a miss.
    """

    #: The entry's files; the first holds the data, the last is the
    #: commit marker.
    SUFFIXES: Tuple[str, ...] = ()
    #: The store's name for an entry in :meth:`stats`.
    COUNT = "entries"

    def __init__(self, root: str) -> None:
        self.root = str(root)

    def _files(self, key: str) -> List[str]:
        stem = os.path.join(self.root, key[:2], key)
        return [stem + suffix for suffix in self.SUFFIXES]

    def path(self, key: str) -> str:
        """The entry's data file (its first suffix)."""
        return self._files(key)[0]

    def __contains__(self, key: str) -> bool:
        return all(os.path.exists(path) for path in self._files(key))

    def keys(self) -> Iterator[str]:
        """Every committed entry's key, in sorted order (``glob`` skips
        the dot-prefixed temp files of commits in flight)."""
        import glob  # only the cold ``repro cache`` commands walk a store

        data = self.SUFFIXES[0]
        pattern = os.path.join(glob.escape(self.root), "*", "*" + data)
        for path in sorted(glob.glob(pattern)):
            key = os.path.basename(path)[: -len(data)]
            if key in self:
                yield key

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def _entry_bytes(self, key: str) -> int:
        total = 0
        for path in self._files(key):
            try:
                total += os.path.getsize(path)
            except OSError:
                pass
        return total

    def stats(self) -> Dict[str, int]:
        """``{COUNT: entries, "bytes": total_size}`` over every entry."""
        sizes = [self._entry_bytes(key) for key in self.keys()]
        return {self.COUNT: len(sizes), "bytes": sum(sizes)}

    def _remove(self, key: str) -> bool:
        """Unlink one entry, commit marker first; True when this call
        removed the marker (a concurrent remover may have won).  A
        process that already attached an artifact keeps its live map:
        POSIX unlink keeps mapped bytes alive until the last map closes.
        """
        marker, *rest = reversed(self._files(key))
        if not _unlink(marker):
            return False
        for path in rest:
            _unlink(path)
        return True

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        return sum(self._remove(key) for key in list(self.keys()))


class ResultCache(EntryStore):
    """Content-addressed store of :class:`RunResult` values on disk.

    Layout: ``<root>/<key[:2]>/<key>.pkl``.  ``get`` reads any unreadable
    entry as a miss (a corrupt or truncated file must never poison a
    run); the runner then re-simulates and ``put`` recommits it.
    """

    SUFFIXES = (".pkl",)

    def get(self, key: str) -> Optional[RunResult]:
        try:
            with open(self.path(key), "rb") as fh:
                return pickle.load(fh)
        except UNREADABLE:
            return None

    def put(self, key: str, result: RunResult) -> None:
        def write(fh) -> None:
            pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)

        atomic_write(self.path(key), write)

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
            try:
                stale = now - os.path.getmtime(self.path(key)) > max_age_s
            except OSError:
                continue
            if stale:
                removed += self._remove(key)
        return removed
