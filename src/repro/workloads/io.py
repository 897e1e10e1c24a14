"""Workload trace persistence: bring-your-own-traces support.

A trace-driven simulator is only as useful as the traces you can feed
it.  This module holds the one record codec: :func:`pack_workload`
concatenates every stream's ``(gap, asid, page_size, page_number)``
records, in (core, stream) order, into one ``(N, 4)`` ``int64`` array
plus stream offsets, and :func:`unpack_traces` turns such an array back
into tuples of Python ``int`` (never ``np.int64``), byte-identical to
what the generators produced, each page size one shared int
(:func:`page_size_column`).  The portable ``.npz`` format below, the
packed artifacts of :class:`~repro.exec.trace_store.TraceStore` and
:func:`~repro.exec.cache.workload_fingerprint` all go through it.

The portable ``.npz`` (:func:`save_workload` / :func:`load_workload`)
holds one integer array per (core, stream), each a slice of the packed
array, plus a JSON metadata header, compressed: the interchange format
for exporting the calibrated suite or importing traces captured
elsewhere.  :func:`load_workload` rejects a malformed file or record
with a ``ValueError``, checking records by the same rules
(:func:`check_records`) as :func:`workload_from_records`.
"""

from __future__ import annotations

import bisect
import json
import zipfile
import zlib
from itertools import islice
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.vm.address import PAGE_SIZES
from repro.workloads.trace import Record, Workload

FORMAT_VERSION = 1

#: The page sizes, ascending, as int64 values and as the constants' own
#: int objects.
_SIZE_VALUES = np.array(PAGE_SIZES, dtype=np.int64)
_SIZE_OBJECTS = np.array(PAGE_SIZES, dtype=object)


def page_size_column(sizes: np.ndarray) -> List[int]:
    """``sizes.tolist()``, save that each value in ``PAGE_SIZES`` is
    that constant's own int object: every record of one page size
    shares one int instead of holding its own.  Any other value stays
    itself (never a neighbouring page size), for :func:`check_records`
    and the engine to see as it is."""
    index = _SIZE_VALUES.searchsorted(sizes)
    column = _SIZE_OBJECTS.take(index, mode="clip")
    other = _SIZE_VALUES.take(index, mode="clip") != sizes
    if np.count_nonzero(other):
        column[other] = sizes[other].tolist()
    return column.tolist()


def pack_workload(
    workload: Workload,
) -> Tuple[np.ndarray, List[int], List[int], Dict[str, object]]:
    """Flatten a workload into one ``(N, 4)`` int64 array plus layout.

    Returns ``(data, offsets, streams_per_core, meta)``: ``data`` holds
    every stream's records concatenated in (core, stream) order,
    ``offsets`` has one entry per stream boundary (``len(streams) + 1``
    entries), and ``meta`` carries the identity fields and layout
    needed to rebuild the :class:`Workload` (:func:`unpack_workload`).
    """
    arrays: List[np.ndarray] = []
    offsets = [0]
    streams_per_core: List[int] = []
    for streams in workload.traces:
        streams_per_core.append(len(streams))
        for stream in streams:
            arrays.append(
                np.asarray(stream, dtype=np.int64).reshape(len(stream), 4)
            )
            offsets.append(offsets[-1] + len(stream))
    data = (
        np.concatenate(arrays)
        if arrays
        else np.empty((0, 4), dtype=np.int64)
    )
    meta = {
        "name": workload.name,
        "seed": workload.seed,
        "superpages": workload.superpages,
        "streams_per_core": streams_per_core,
        "offsets": offsets,
        "info": workload.info,
    }
    return data, offsets, streams_per_core, meta


def unpack_traces(
    data: np.ndarray, offsets: Sequence[int], streams_per_core: Sequence[int]
) -> List[List[List[Record]]]:
    """Rebuild ``traces[core][stream]`` record lists from packed form.

    The column-wise ``tolist()`` conversion (the size column through
    :func:`page_size_column`) yields tuples of Python ``int`` — exactly
    the records the generators emit — and is the only copy the attach
    path makes: the packed array itself can be a read-only memmap
    shared by every attached process.
    """
    gaps, asids, sizes, pages = data.T
    records = list(
        zip(gaps.tolist(), asids.tolist(), page_size_column(sizes),
            pages.tolist())
    )
    spans = iter(zip(offsets, offsets[1:]))
    return [
        [records[lo:hi] for lo, hi in islice(spans, num_streams)]
        for num_streams in streams_per_core
    ]


def unpack_workload(data: np.ndarray, meta: Dict[str, object]) -> Workload:
    """The :class:`Workload` that :func:`pack_workload` packed into
    ``data`` and ``meta``."""
    return Workload(
        name=meta["name"],
        traces=unpack_traces(data, meta["offsets"], meta["streams_per_core"]),
        seed=meta["seed"],
        superpages=meta["superpages"],
        info=meta.get("info", {}),
    )


def check_records(
    data: np.ndarray, offsets: Sequence[int], labels: Sequence[str]
) -> None:
    """Reject packed records no simulation can run: gaps must be >= 1,
    page sizes one of 4K/2M/1G, ASIDs and page numbers non-negative.
    The ``ValueError`` names the first bad record by its stream's label
    and its position in that stream."""
    gap, asid, size, page = data.T
    bad = (gap < 1) | ~np.isin(size, PAGE_SIZES) | (asid < 0) | (page < 0)
    if not bad.any():
        return
    index = int(bad.argmax())
    gap, asid, size, page = data[index].tolist()
    if gap < 1:
        problem = "gap must be >= 1"
    elif size not in PAGE_SIZES:
        problem = f"bad page size {size}"
    else:
        problem = "negative asid/page"
    stream = bisect.bisect_right(offsets, index) - 1
    raise ValueError(
        f"{labels[stream]} record {index - offsets[stream]}: {problem}"
    )


def _stream_names(streams_per_core: Sequence[int]) -> List[str]:
    """The ``.npz`` array names, in (core, stream) order."""
    return [
        f"c{core}_s{stream}"
        for core, num_streams in enumerate(streams_per_core)
        for stream in range(num_streams)
    ]


def save_workload(workload: Workload, path: Union[str, Path]) -> Path:
    """Write a workload to ``path`` (.npz).  Returns the path written."""
    path = Path(path)
    data, offsets, streams_per_core, meta = pack_workload(workload)
    arrays = {
        name: data[lo:hi]
        for name, lo, hi in zip(
            _stream_names(streams_per_core), offsets, offsets[1:]
        )
    }
    header = {"version": FORMAT_VERSION, **meta}
    del header["offsets"]  # implied by the per-stream arrays
    arrays["meta"] = np.frombuffer(
        json.dumps(header).encode("utf-8"), dtype=np.uint8
    )
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    np.savez_compressed(path, **arrays)
    return path


def load_workload(path: Union[str, Path]) -> Workload:
    """Read a workload written by :func:`save_workload`.

    Raises ``ValueError`` for any file that is not a well-formed trace
    (not an archive, a missing array, bad metadata, records that are
    not ``(n, 4)`` integers) and for records :func:`check_records`
    rejects; a missing file is an ``OSError``.
    """
    try:
        with open(path, "rb") as fh, np.load(fh) as archive:
            meta = json.loads(bytes(archive["meta"]).decode("utf-8"))
            if meta.get("version") != FORMAT_VERSION:
                raise ValueError(
                    f"unsupported trace format version {meta.get('version')!r}"
                )
            names = _stream_names(meta["streams_per_core"])
            streams = [archive[name] for name in names]
        for name, rows in zip(names, streams):
            if rows.shape[1:] != (4,) or rows.dtype.kind not in "iu":
                raise ValueError(
                    f"array {name} holds {rows.shape} {rows.dtype}, "
                    "not (n, 4) integers"
                )
        data = np.concatenate(streams) if streams else np.empty((0, 4))
        data = data.astype(np.int64, copy=False)
        offsets = np.cumsum([0] + [len(rows) for rows in streams]).tolist()
        check_records(data, offsets, names)
        return unpack_workload(data, dict(meta, offsets=offsets))
    except (
        AttributeError, EOFError, IndexError, KeyError, TypeError,
        zipfile.BadZipFile, zlib.error,
    ) as exc:
        raise ValueError(
            f"not a well-formed trace ({type(exc).__name__}: {exc})"
        ) from None


def workload_from_records(
    name: str,
    per_core_records: Sequence[Sequence[Record]],
    superpages: bool = False,
    seed: int = 0,
) -> Workload:
    """Build a Workload from raw user records (one list per core).

    Each record is ``(gap, asid, page_size, page_number)``; every core
    needs at least one, and :func:`check_records` checks them all.
    Validation is strict — a malformed external trace should fail here,
    not deep inside the engine.
    """
    for core, records in enumerate(per_core_records):
        if not records:
            raise ValueError(f"core {core} has an empty trace")
    traces = [[list(records)] for records in per_core_records]
    workload = Workload(name, traces, seed=seed, superpages=superpages)
    try:
        data, offsets, _, meta = pack_workload(workload)
    except (OverflowError, TypeError, ValueError):
        raise ValueError(
            "records need (gap, asid, size, page) integer fields"
        ) from None
    labels = [f"core {core}" for core in range(len(traces))]
    check_records(data, offsets, labels)
    return unpack_workload(data, meta)
