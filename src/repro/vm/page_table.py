"""x86-64 four-level radix page tables with synthetic physical placement.

Each table node is a 4KB frame of 512 8-byte entries.  Nodes and data
frames are allocated from a bump allocator of synthetic physical
addresses, so the *cache-line address* of every entry a walk touches is
well-defined — that is what the variable-latency walker feeds through
the cache hierarchy to obtain realistic walk latencies.

Shared mappings (tagged ``GLOBAL_ASID``) live in their own table, so
their upper-level nodes — exactly like shared kernel/library page
tables on a real system — are shared in the caches by every core.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple

from repro.vm.address import PAGE_1G, PAGE_2M, PAGE_4K, translation_vpn

FRAME_BYTES = 4096
ENTRY_BYTES = 8
FANOUT = 512

#: Radix levels from root to leaf; a 2MB page terminates at the PD
#: (3 node accesses) and a 1GB page at the PDPT (2 node accesses).
LEVELS = ("pml4", "pdpt", "pd", "pt")
_LEAF_DEPTH = {PAGE_4K: 4, PAGE_2M: 3, PAGE_1G: 2}
#: Radix indices are 9 bits; level i's sits _INDEX_SHIFT[i] bits up a
#: 4KB VPN, and the four of them span its low 36 bits.
_INDEX_BITS = 9
_INDEX_MASK = FANOUT - 1
_INDEX_SHIFT = (27, 18, 9, 0)
_VPN_MASK = (1 << (_INDEX_BITS * len(LEVELS))) - 1


class PTE(NamedTuple):
    """A translation: physical page number at the mapping's granularity.

    A NamedTuple rather than a frozen dataclass: every cold walk builds
    one, and tuple construction is several times cheaper than a frozen
    dataclass ``__init__``.
    """

    ppn: int
    page_size: int
    asid: int


class PageTable:
    """Radix page tables for all address spaces, plus frame allocation."""

    def __init__(self) -> None:
        # (asid, level, VPN bits above the level) -> physical frame base.
        self._nodes: Dict[Tuple[int, int, int], int] = {}
        # Leaf node key (as in _nodes) -> _node_chain's result.
        self._chains: Dict[Tuple[int, int, int], Tuple[tuple, int]] = {}
        self._ptes: Dict[Tuple[int, int, int], PTE] = {}
        #: (asid, page_size, page_number) -> (walk addresses, PTE).
        #: walk_info builds an entry on a translation's first touch and
        #: unmap drops it; a walker reads it directly and calls
        #: walk_info only on a first touch.
        self.walk_memo: Dict[
            Tuple[int, int, int], Tuple[Tuple[int, ...], PTE]
        ] = {}
        self._next_frame = 1  # frame 0 reserved
        self.nodes_allocated = 0
        self.pages_mapped = 0

    def _allocate_frame(self) -> int:
        frame = self._next_frame * FRAME_BYTES
        self._next_frame += 1
        return frame

    def map_page(self, asid: int, vpn: int, page_size: int) -> PTE:
        """Ensure the translation covering 4KB VPN ``vpn`` exists."""
        return self.map_translation(
            asid, page_size, translation_vpn(vpn, page_size)
        )

    def map_translation(
        self, asid: int, page_size: int, page_number: int
    ) -> PTE:
        """The PTE of page ``page_number`` at ``page_size``, mapped on a
        first touch; the fixed-latency walker's one call per walk.

        A mapped page costs one dict probe.  A first touch allocates the
        data frame, then the leaf node's chain (root first) if absent —
        the reverse of :meth:`walk_info`'s order, and what this path has
        always allocated.  An unsupported size raises ``ValueError`` and
        maps nothing.
        """
        key = (asid, page_size, page_number)
        pte = self._ptes.get(key)
        if pte is not None:
            return pte
        try:
            leaf = _LEAF_DEPTH[page_size] - 1
        except KeyError:
            raise ValueError(f"unsupported page size: {page_size}") from None
        # The next frame is the data frame; its number is the PPN.
        pte = self._ptes[key] = PTE(
            ppn=self._next_frame, page_size=page_size, asid=asid
        )
        self._next_frame += 1
        self.pages_mapped += 1
        # Materialise the node chain so walk addresses are stable (see
        # walk_info for the page-number arithmetic).
        shift = _INDEX_SHIFT[leaf]
        number = page_number & (_VPN_MASK >> shift)
        chain_key = (asid, leaf, number >> _INDEX_BITS)
        if chain_key not in self._chains:
            self._chains[chain_key] = self._node_chain(
                asid, number << shift, leaf
            )
        return pte

    def lookup(self, asid: int, vpn: int, page_size: int) -> PTE:
        """Return the PTE covering ``vpn`` (mapping it on first touch)."""
        return self.map_page(asid, vpn, page_size)

    def walk_addresses(
        self, asid: int, vpn: int, page_size: int
    ) -> Tuple[int, ...]:
        """Physical addresses of the page-table entries a walk touches.

        One address per radix level down to the leaf: 4 for 4KB
        mappings, 3 for 2MB, 2 for 1GB.  Every page under one leaf node
        shares the entries above it, so those come from a per-node memo
        and only the leaf entry is computed per page.
        """
        vpn &= _VPN_MASK
        leaf = _LEAF_DEPTH[page_size] - 1
        shift = _INDEX_SHIFT[leaf]
        key = (asid, leaf, vpn >> shift >> _INDEX_BITS)
        chain = self._chains.get(key)
        if chain is None:
            chain = self._chains[key] = self._node_chain(asid, vpn, leaf)
        upper, frame = chain
        return upper + (frame + ((vpn >> shift) & _INDEX_MASK) * ENTRY_BYTES,)

    def _node_chain(
        self, asid: int, vpn: int, leaf: int
    ) -> Tuple[Tuple[int, ...], int]:
        """The entry addresses above level ``leaf`` on ``vpn``'s path
        and the frame of its level-``leaf`` node; missing nodes are
        allocated root first."""
        nodes = self._nodes
        addresses = []
        for level in range(leaf + 1):
            # A node is named by the index path above it: the VPN's top
            # 9 * level bits; the entry within it by the next 9.
            shift = _INDEX_SHIFT[level]
            key = (asid, level, vpn >> shift >> _INDEX_BITS)
            frame = nodes.get(key)
            if frame is None:
                frame = nodes[key] = self._allocate_frame()
                self.nodes_allocated += 1
            addresses.append(frame + ((vpn >> shift) & _INDEX_MASK) * ENTRY_BYTES)
        return tuple(addresses[:-1]), frame

    def walk_info(
        self, asid: int, page_size: int, page_number: int
    ) -> Tuple[Tuple[int, ...], PTE]:
        """Walk addresses plus the PTE of page ``page_number`` at
        ``page_size``: its ``walk_memo`` entry, built on a first touch.

        Both are pure functions of ``(asid, page_size, page_number)``
        once the mapping exists, so this one call builds the entry: the
        leaf node's chain (allocated root first if absent), the leaf
        entry, then the data frame and the PTE.  A walk has always
        allocated the nodes before the data frame, so every synthetic
        physical address is unchanged; :meth:`map_translation` (the
        fixed-latency walker's path) allocates the data frame first.
        """
        key = (asid, page_size, page_number)
        info = self.walk_memo.get(key)
        if info is not None:
            return info
        try:
            leaf = _LEAF_DEPTH[page_size] - 1
        except KeyError:
            raise ValueError(f"unsupported page size: {page_size}") from None
        # A page number is the VPN above the leaf index's shift, so its
        # low 9 bits index the leaf node and the rest name that node.
        shift = _INDEX_SHIFT[leaf]
        number = page_number & (_VPN_MASK >> shift)
        chain_key = (asid, leaf, number >> _INDEX_BITS)
        chain = self._chains.get(chain_key)
        if chain is None:
            chain = self._chains[chain_key] = self._node_chain(
                asid, number << shift, leaf
            )
        upper, frame = chain
        pte = self._ptes.get(key)
        if pte is None:
            # The next frame is the data frame; its number is the PPN.
            pte = self._ptes[key] = PTE(
                ppn=self._next_frame, page_size=page_size, asid=asid
            )
            self._next_frame += 1
            self.pages_mapped += 1
        info = self.walk_memo[key] = (
            upper + (frame + (number & _INDEX_MASK) * ENTRY_BYTES,), pte
        )
        return info

    def unmap(self, asid: int, vpn: int, page_size: int) -> None:
        """Drop a translation (page remapping / demotion)."""
        key = (asid, page_size, translation_vpn(vpn, page_size))
        self._ptes.pop(key, None)
        self.walk_memo.pop(key, None)
