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

from repro.vm.address import PAGE_1G, PAGE_2M, PAGE_4K

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

    Built on demand from a walk entry (:attr:`PageTable.walk_entries`)
    by :meth:`PageTable.map_translation` and the walkers' ``walk``; a
    latency-only walk builds none.
    """

    ppn: int
    page_size: int
    asid: int


#: One mapped translation: the entry addresses above the leaf (shared
#: with every page under the same leaf node), the leaf entry's address,
#: and the PPN.
WalkEntry = Tuple[Tuple[int, ...], int, int]


class PageTable:
    """Radix page tables for all address spaces, plus frame allocation.

    Every method names a translation by ``(asid, page_size,
    page_number)``, the key the TLBs hold.
    """

    def __init__(self) -> None:
        # (asid, level, VPN bits above the level) -> physical frame base.
        self._nodes: Dict[Tuple[int, int, int], int] = {}
        # Leaf node key (as in _nodes) -> _node_chain's result.
        self._chains: Dict[Tuple[int, int, int], Tuple[tuple, int]] = {}
        #: (asid, page_size, page_number) -> :data:`WalkEntry`: every
        #: mapped translation.  A first touch builds the entry and
        #: :meth:`unmap` drops it; a walker reads it directly and calls
        #: :meth:`walk_info` only on a first touch.
        self.walk_entries: Dict[Tuple[int, int, int], WalkEntry] = {}
        self._next_frame = 1  # frame 0 reserved
        self.nodes_allocated = 0
        self.pages_mapped = 0

    def _allocate_frame(self) -> int:
        frame = self._next_frame * FRAME_BYTES
        self._next_frame += 1
        return frame

    def map_translation(
        self, asid: int, page_size: int, page_number: int
    ) -> PTE:
        """The PTE of page ``page_number`` at ``page_size``, mapped on a
        first touch; the fixed-latency walker's one call per walk.

        A mapped page costs one dict probe.  A first touch allocates the
        data frame, then the leaf node's chain (root first) if absent —
        the reverse of :meth:`walk_info`'s order, and what this path has
        always allocated — and stores the walk entry.  An unsupported
        size raises ``ValueError`` and maps nothing.
        """
        key = (asid, page_size, page_number)
        entry = self.walk_entries.get(key)
        if entry is not None:
            return PTE(entry[2], page_size, asid)
        try:
            leaf = _LEAF_DEPTH[page_size] - 1
        except KeyError:
            raise ValueError(f"unsupported page size: {page_size}") from None
        # The next frame is the data frame; its number is the PPN.
        ppn = self._next_frame
        self._next_frame += 1
        self.pages_mapped += 1
        upper, address = self._leaf_entry(asid, leaf, page_number)
        self.walk_entries[key] = (upper, address, ppn)
        return PTE(ppn, page_size, asid)

    def _leaf_entry(
        self, asid: int, leaf: int, page_number: int
    ) -> Tuple[Tuple[int, ...], int]:
        """The entry addresses above the level-``leaf`` node holding
        page ``page_number``, and the address of the page's entry in
        it; the node's chain is allocated (root first) if absent.

        A page number is the VPN above the leaf index's shift, so its
        low 9 bits index the leaf node and the rest name that node.
        """
        shift = _INDEX_SHIFT[leaf]
        number = page_number & (_VPN_MASK >> shift)
        chain_key = (asid, leaf, number >> _INDEX_BITS)
        chain = self._chains.get(chain_key)
        if chain is None:
            chain = self._chains[chain_key] = self._node_chain(
                asid, number << shift, leaf
            )
        upper, frame = chain
        return upper, frame + (number & _INDEX_MASK) * ENTRY_BYTES

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
    ) -> WalkEntry:
        """The walk entry of page ``page_number`` at ``page_size``,
        built on a first touch.

        The entry addresses and the PPN are pure functions of ``(asid,
        page_size, page_number)`` once the mapping exists, so this one
        call builds the entry: the leaf node's chain (allocated root
        first if absent), the leaf entry, then the data frame.  A walk
        has always allocated the nodes before the data frame, so every
        synthetic physical address is unchanged;
        :meth:`map_translation` (the fixed-latency walker's path)
        allocates the data frame first.
        """
        key = (asid, page_size, page_number)
        entry = self.walk_entries.get(key)
        if entry is not None:
            return entry
        try:
            leaf = _LEAF_DEPTH[page_size] - 1
        except KeyError:
            raise ValueError(f"unsupported page size: {page_size}") from None
        upper, address = self._leaf_entry(asid, leaf, page_number)
        # The next frame is the data frame; its number is the PPN.
        entry = self.walk_entries[key] = (upper, address, self._next_frame)
        self._next_frame += 1
        self.pages_mapped += 1
        return entry

    def unmap(self, asid: int, page_size: int, page_number: int) -> None:
        """Drop a translation (page remapping / demotion): its walk
        entry, so the next touch maps it to a fresh frame."""
        self.walk_entries.pop((asid, page_size, page_number), None)
