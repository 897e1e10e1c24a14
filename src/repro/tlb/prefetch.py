"""Sequential TLB prefetching (Table III sensitivity).

The original shared-TLB paper studied prefetching the translations of
the +/-1, 2, 3 virtual pages adjacent to the page that missed; the
NOCSTAR paper re-runs that study (Table III) and finds +/-2 most
effective, with more aggressive distances polluting the TLB.  The
prefetcher is purely a candidate generator — the simulator decides
where the prefetched translations are installed and what they cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple


@dataclass
class SequentialPrefetcher:
    """Generates +/-d neighbour pages for the configured distances.

    ``distances`` follows Table III's notation: ``(1,)`` is the "1"
    row, ``(1, 2)`` the "1, 2" row, ``(1, 2, 3)`` the "1-3" row.
    """

    distances: Tuple[int, ...] = ()
    issued: int = 0

    def __post_init__(self) -> None:
        if any(d <= 0 for d in self.distances):
            raise ValueError("prefetch distances must be positive")

    @property
    def enabled(self) -> bool:
        return bool(self.distances)

    def candidates(
        self, asid: int, page_size: int, page_number: int
    ) -> List[Tuple[int, int, int]]:
        """Neighbour translations to prefetch after a miss on ``page_number``."""
        out = []
        for distance in self.distances:
            for neighbour in (page_number - distance, page_number + distance):
                if neighbour >= 0:
                    out.append((asid, page_size, neighbour))
        self.issued += len(out)
        return out
