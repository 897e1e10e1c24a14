"""Content-addressed store of materialized trace artifacts.

The sweep data plane's first principle is *build once*: a multi-core
trace is a pure function of its build signature — workload spec, core
count, accesses per core, seed, superpage flag, SMT width — so there is
never a reason to construct it more than once per machine.  The
:class:`TraceStore` materializes each signature's trace as a packed
artifact (:func:`save_workload_packed`) under its
:func:`~repro.exec.cache.content_key`, shared across lineups, sweeps,
and sessions.  The key folds in two version tags —
:data:`~repro.workloads.generators.GENERATOR_VERSION` (bumped whenever
trace *generation* changes) and :data:`PACKED_FORMAT_VERSION` (bumped
whenever the artifact *layout* changes) — so either bump orphans every
stale artifact by construction.  A damaged artifact reads as a miss and
is rebuilt.

Attachment is the zero-copy half: :func:`attach_workload` maps an
artifact with ``np.load(..., mmap_mode="r")``, so the bytes live once
in the page cache no matter how many pool workers attach, and converts
them to engine-native record tuples exactly once per process (a small
LRU keeps the hottest workloads resident; see DESIGN.md "Sweep data
plane" for the lifetime rules).  Attached workloads are byte-identical
to in-process builds — the differential suite proves it — which is why
the data plane can swap builds for attaches without touching
``ENGINE_VERSION`` or any result-cache key.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Dict, List, Tuple, Union

import numpy as np

from repro.exec.cache import UNREADABLE, EntryStore, atomic_write, content_key
from repro.workloads.io import pack_workload, unpack_workload
from repro.workloads.trace import Workload

#: Version of the packed artifact layout.  Part of every TraceStore
#: key: bumping it orphans stale artifacts.
PACKED_FORMAT_VERSION = 2

#: Attached workloads kept resident per process.  Eviction only drops
#: the Python-side record lists (the engine's compiled-core cache
#: follows via its weakref); the on-disk artifact is untouched.
ATTACH_CACHE_CAPACITY = 4

_ATTACHED: "OrderedDict[str, Workload]" = OrderedDict()


def save_workload_packed(workload: Workload, path: Union[str, Path]) -> Path:
    """Write the packed (memmap-friendly) layout; returns the .npy path.

    Two files, each committed atomically: ``<path>.npy`` (the packed
    records, uncompressed so they can be attached with
    ``mmap_mode="r"``) and then ``<path>.json``, the metadata sidecar
    whose presence marks the artifact committed.
    """
    path = Path(path)
    if path.suffix != ".npy":
        path = path.with_suffix(path.suffix + ".npy")
    data, _, _, meta = pack_workload(workload)
    sidecar = json.dumps(
        dict(meta, version=PACKED_FORMAT_VERSION), sort_keys=True
    )
    atomic_write(str(path), lambda fh: np.save(fh, data))
    atomic_write(
        str(path.with_suffix(".json")),
        lambda fh: fh.write(sidecar.encode("utf-8")),
    )
    return path


def _read_packed(path: Path, mmap: bool = True) -> Tuple[Dict, np.ndarray]:
    """A packed artifact's sidecar and records, checked against each
    other: the sidecar must carry this format version, and the ``.npy``
    must hold ``(offsets[-1], 4)`` int64 rows.  With ``mmap`` no record
    is read: ``np.load`` reads the header and maps the rest, and a file
    cut short of its rows fails to map."""
    with open(path.with_suffix(".json")) as fh:
        meta = json.load(fh)
    version = meta.get("version") if isinstance(meta, dict) else None
    if version != PACKED_FORMAT_VERSION:
        raise ValueError(f"unsupported packed trace version {version!r}")
    data = np.load(path, mmap_mode="r" if mmap else None)
    if data.shape != (meta["offsets"][-1], 4) or data.dtype != np.int64:
        raise ValueError(
            f"packed trace {path} has shape {data.shape} / {data.dtype}; "
            f"expected ({meta['offsets'][-1]}, 4) int64"
        )
    return meta, data


def load_workload_packed(path: Union[str, Path], mmap: bool = True) -> Workload:
    """Read a packed workload; ``mmap=True`` attaches the records
    read-only through the page cache (zero-copy across processes) while
    ``mmap=False`` loads them into private memory."""
    meta, data = _read_packed(Path(path), mmap)
    return unpack_workload(data, meta)


def attach_workload(path: str, mmap: bool = True) -> Workload:
    """Attach a packed trace artifact; memoised per absolute path.

    Repeat attaches in one process return the *same* ``Workload``
    object — that identity is what lets the engine's per-object
    compiled-core cache amortise its pre-pass across every unit of a
    lineup that lands on the same worker.
    """
    key = os.path.abspath(path)
    workload = _ATTACHED.get(key)
    if workload is not None:
        _ATTACHED.move_to_end(key)
        return workload
    workload = load_workload_packed(key, mmap=mmap)
    _ATTACHED[key] = workload
    while len(_ATTACHED) > ATTACH_CACHE_CAPACITY:
        _ATTACHED.popitem(last=False)
    return workload


def _clear_attachments() -> None:
    """Drop every process-local attachment (test isolation helper)."""
    _ATTACHED.clear()


class TraceStore(EntryStore):
    """On-disk, content-addressed trace artifacts.

    Layout: ``<root>/<key[:2]>/<key>.npy`` plus a ``<key>.json``
    metadata sidecar, the sidecar committed last.
    """

    SUFFIXES = (".npy", ".json")
    COUNT = "artifacts"

    # ------------------------------------------------------------------
    # keying

    @staticmethod
    def _payload(
        spec, num_cores: int, accesses_per_core: int, seed: int,
        superpages: bool, smt: int,
    ) -> Dict[str, object]:
        from repro.workloads.generators import GENERATOR_VERSION

        return {
            "workload": spec,
            "num_cores": num_cores,
            "accesses_per_core": accesses_per_core,
            "seed": seed,
            "superpages": superpages,
            "smt": smt,
            "generator": GENERATOR_VERSION,
            "format": PACKED_FORMAT_VERSION,
        }

    def key_for(self, signature: Tuple) -> str:
        """Content address of a ``RunUnit.build_signature()`` tuple."""
        return content_key(self._payload(*signature))

    @staticmethod
    def prebuilt_key(fingerprint: str) -> str:
        """Content address for an already-built workload's artifact.

        Prebuilt workloads (loaded traces, multiprogrammed mixes) are
        addressed by their record fingerprint — the generator version
        is irrelevant because no generation happens — plus the packed
        format version.
        """
        return content_key(
            {"prebuilt": fingerprint, "format": PACKED_FORMAT_VERSION}
        )

    # ------------------------------------------------------------------
    # artifact lifecycle

    def _intact(self, key: str) -> bool:
        """Whether the committed artifact loads, judged without reading
        a record (``_read_packed``)."""
        try:
            _read_packed(Path(self.path(key)))
        except UNREADABLE:
            return False
        return True

    def _materialize(
        self, key: str, build: Callable[[], Workload]
    ) -> Tuple[str, bool]:
        """The one build-if-absent path: an intact artifact is reused;
        an absent, torn or damaged one is replaced by ``build()``'s
        workload.  Concurrent builders race harmlessly: writes are
        atomic and content-addressed, so the loser just overwrites
        identical bytes."""
        path = self.path(key)
        if self._intact(key):
            return path, False
        save_workload_packed(build(), path)
        return path, True

    def ensure(self, signature: Tuple) -> Tuple[str, bool]:
        """Materialize one signature's artifact; returns (path, built).

        Builds the trace (via the deterministic generator path the
        serial runner uses) only when no intact artifact exists — the
        build-once guarantee.
        """
        from repro.workloads.generators import build_multithreaded

        # A signature is build_multithreaded's positional parameters.
        key = self.key_for(signature)
        return self._materialize(key, lambda: build_multithreaded(*signature))

    def ensure_prebuilt(
        self, fingerprint: str, workload: Workload
    ) -> Tuple[str, bool]:
        """Materialize an already-built workload under its fingerprint."""
        key = self.prebuilt_key(fingerprint)
        return self._materialize(key, lambda: workload)

    # ------------------------------------------------------------------
    # eviction

    def evict(self, max_bytes: int) -> int:
        """Shrink the store to ``max_bytes``, oldest artifacts first.

        Returns how many artifacts were removed.  Recency is mtime of
        the ``.npy`` — attaches never rewrite artifacts, so this is
        creation-time LRU, which is the right policy for content-
        addressed entries (older generator output is colder output).
        """
        entries: List[Tuple[float, str, int]] = []
        for key in self.keys():
            try:
                mtime = os.path.getmtime(self.path(key))
            except OSError:
                continue
            entries.append((mtime, key, self._entry_bytes(key)))
        total = sum(size for _, _, size in entries)
        removed = 0
        entries.sort()
        for _, key, size in entries:
            if total <= max_bytes:
                break
            self._remove(key)
            total -= size
            removed += 1
        return removed
