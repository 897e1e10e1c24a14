"""Precomputed fault-free route tables for the TLB interconnects.

Fault-free, contention-free path properties are pure functions of
``(src, dst, topology)`` — the structure analytical NoC models exploit
(Mandal et al.'s priority-class models, and bufferless GPU-scale
simulators alike).  The discrete-event models in this package
recomputed them on every send: ``xy_path`` walks the grid per message
and ``hops`` re-derives coordinates.  A :class:`RouteCache` precomputes
both once per topology, for the mesh and SMART models and the L2
transaction's hop-count legs.  NOCSTAR needs no table: each XY leg is
arithmetic on its row's or column's run of link bits, computed per
send (see :mod:`repro.core.nocstar`).

Storage is sized for mega meshes (1024 tiles = 1M pairs per table):

* ``hops_array`` — the N x N Manhattan-distance table as a compact
  ``int16`` ndarray (2 MiB at 1024 tiles, versus ~36 MiB of nested
  Python int lists), built by broadcasting, not per-pair loops.  int16,
  not uint8: a 1 x 509 mesh has diameter 508;
* ``hops`` — one row per source tile, each an ``int16`` memoryview
  slice of that same buffer (no copy), for the per-event models, which
  bind a row and index ``row[dst]`` on scalar sends.  A memoryview
  indexes to a native ``int``, so no ``np.int16`` leaks into cycle
  counts.  A contention-free mesh leg's latency is derived from it
  (hops x cycles per hop), so there is no second latency table;
* XY link paths, memoised per (src, dst) on first use — eager path
  tables would cost O(N^2 * diameter) tuples up front, which the large
  scalability sweeps never fully touch.

The cache holds **fault-free** routes only.  Its ``path`` is one of
two route sources, each a ``path(src, dst)`` giving the links in travel
order, that :class:`~repro.sim.system.System` picks between for the
mesh and SMART models: the fault injector's
:class:`~repro.faults.routing.FaultAwareRouter` when links have failed,
else this cache.  Both drive loops of :mod:`repro.sim.engine` route on
the same source.  Contended sends fall through to the live reservation
model untouched: the cache supplies the path and the uncontended
duration, never the arbitration outcome.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Tuple

import numpy as np

from repro.noc.topology import Link, MeshTopology


class RouteCache:
    """Fault-free per-(src, dst) hop and route tables for one topology."""

    def __init__(self, topology: MeshTopology) -> None:
        self.topology = topology
        n = topology.num_tiles
        self.num_tiles = n
        cols = topology.cols
        # Manhattan distances by broadcasting tile coordinates; int16
        # bounds any mesh whose diameter fits 32767 hops (a 1024-tile
        # 32x32 mesh has diameter 62).
        tiles = np.arange(n, dtype=np.int16)
        xs = tiles % cols
        ys = tiles // cols
        #: hops_array — eager N x N Manhattan table, compact dtype.
        self.hops_array: np.ndarray = (
            np.abs(xs[:, None] - xs[None, :]) + np.abs(ys[:, None] - ys[None, :])
        ).astype(np.int16)
        #: hops[src][dst] — int16 row views of hops_array, indexing to
        #: Python ints, for per-event models.
        flat = memoryview(self.hops_array.reshape(-1))
        self.hops: List[memoryview] = [
            flat[src * n:(src + 1) * n] for src in range(n)
        ]
        self._paths: Dict[Tuple[int, int], Tuple[Link, ...]] = {}

    def path(self, src: int, dst: int) -> Tuple[Link, ...]:
        """The XY link path ``src -> dst`` (memoised)."""
        key = (src, dst)
        cached = self._paths.get(key)
        if cached is None:
            cached = tuple(self.topology.xy_path(src, dst))
            self._paths[key] = cached
        return cached


@lru_cache(maxsize=16)
def shared_route_cache(num_tiles: int) -> RouteCache:
    """Process-wide :class:`RouteCache` per tile count.

    The cache is immutable-by-convention (path memoisation only ever
    adds identical entries), so every System of the same size —
    across runs, lineups, and pool workers — shares one instance and
    one set of precomputed tables.
    """
    return RouteCache(MeshTopology(num_tiles))
