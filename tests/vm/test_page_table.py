"""x86-64 radix page-table behaviour."""

from typing import Tuple

from hypothesis import given, settings, strategies as st

from repro.vm.address import (
    PAGE_1G,
    PAGE_2M,
    PAGE_4K,
    PAGE_SHIFT_4K,
    VPN_SHIFT,
    translation_vpn,
)
from repro.vm.page_table import (
    _INDEX_BITS,
    _INDEX_MASK,
    _INDEX_SHIFT,
    _LEAF_DEPTH,
    _VPN_MASK,
    ENTRY_BYTES,
    FRAME_BYTES,
    PTE,
    PageTable,
)


def walk_addresses(table, asid, size, page_number):
    """The entry addresses a walk of the page touches, root first."""
    upper, leaf, _ = table.walk_info(asid, size, page_number)
    return upper + (leaf,)


def test_walk_depth_by_page_size():
    table = PageTable()
    assert len(walk_addresses(table, 1, PAGE_4K, 0)) == 4
    assert len(walk_addresses(table, 1, PAGE_2M, 0)) == 3
    assert len(walk_addresses(table, 1, PAGE_1G, 0)) == 2


def test_walk_addresses_are_stable():
    table = PageTable()
    first = walk_addresses(table, 1, PAGE_4K, 12345)
    second = walk_addresses(table, 1, PAGE_4K, 12345)
    assert first == second


def test_same_pml4_different_leaf():
    """Pages in the same 2MB region share all upper levels."""
    table = PageTable()
    a = walk_addresses(table, 1, PAGE_4K, 512 * 7 + 1)
    b = walk_addresses(table, 1, PAGE_4K, 512 * 7 + 2)
    assert a[:3] == b[:3]
    assert a[3] != b[3]
    assert abs(a[3] - b[3]) == ENTRY_BYTES


def test_different_asids_use_different_tables():
    table = PageTable()
    a = walk_addresses(table, 1, PAGE_4K, 100)
    b = walk_addresses(table, 2, PAGE_4K, 100)
    assert a[0] != b[0]


def test_map_page_is_idempotent():
    table = PageTable()
    first = table.map_translation(1, PAGE_4K, 100)
    second = table.map_translation(1, PAGE_4K, 100)
    assert first == second == PTE(first.ppn, PAGE_4K, 1)
    assert table.pages_mapped == 1


def test_map_page_superpage_collapses():
    """Every 4KB VPN a 2MB page covers names one translation."""
    table = PageTable()
    a = table.map_translation(1, PAGE_2M, translation_vpn(512 * 3, PAGE_2M))
    b = table.map_translation(
        1, PAGE_2M, translation_vpn(512 * 3 + 99, PAGE_2M)
    )
    assert a.ppn == b.ppn
    assert table.pages_mapped == 1


def test_distinct_pages_get_distinct_frames():
    table = PageTable()
    ppns = {table.map_translation(1, PAGE_4K, page).ppn for page in range(64)}
    assert len(ppns) == 64


def test_walk_entry_addresses_are_entry_aligned():
    table = PageTable()
    for addr in walk_addresses(table, 1, PAGE_4K, 98765):
        assert addr % ENTRY_BYTES == 0
        assert addr >= FRAME_BYTES  # frame 0 is reserved


def test_unmap_forgets_translation():
    """``unmap`` drops the walk entry, whichever path mapped it."""
    table = PageTable()
    before = table.map_translation(1, PAGE_4K, 100)
    table.unmap(1, PAGE_4K, 100)
    assert table.walk_entries == {}
    after = table.map_translation(1, PAGE_4K, 100)
    assert after.ppn != before.ppn  # remapped to a fresh frame
    walked = table.walk_info(1, PAGE_2M, 7)
    table.unmap(1, PAGE_2M, 7)
    assert (1, PAGE_2M, 7) not in table.walk_entries
    assert table.walk_info(1, PAGE_2M, 7)[2] != walked[2]


def test_nodes_allocated_grows_sublinearly():
    """Adjacent pages share table nodes: 512 pages need ~4 nodes, not 2048."""
    table = PageTable()
    for page in range(512):
        table.map_translation(1, PAGE_4K, page)
    assert table.nodes_allocated <= 8


def test_lookup_implicitly_maps():
    """A walk's lookup of an unmapped page maps it: the first touch
    stores the walk entry, and the fixed walker's PTE reads it."""
    table = PageTable()
    upper, leaf, ppn = table.walk_info(3, PAGE_4K, 777)
    assert table.pages_mapped == 1
    assert table.map_translation(3, PAGE_4K, 777) == PTE(ppn, PAGE_4K, 3)
    assert table.pages_mapped == 1


class ChainPageTable(PageTable):
    """``walk_info``, ``walk_addresses``, ``map_page``, ``lookup`` and
    ``unmap`` as they were before a first touch was one call (kept
    verbatim as the oracle): walk_info called translation_vpn,
    page_shift, walk_addresses and _allocate_frame, keyed by a 4KB VPN,
    and memoised the addresses and a PTE apart from the PTEs."""

    def __init__(self) -> None:
        super().__init__()
        self._ptes = {}
        self.walk_memo = {}

    def map_page(self, asid: int, vpn: int, page_size: int) -> PTE:
        """Ensure the translation covering 4KB VPN ``vpn`` exists."""
        page_number = translation_vpn(vpn, page_size)
        key = (asid, page_size, page_number)
        pte = self._ptes.get(key)
        if pte is None:
            ppn = self._allocate_frame() >> PAGE_SHIFT_4K
            pte = self._ptes[key] = PTE(ppn=ppn, page_size=page_size, asid=asid)
            self.pages_mapped += 1
            # Materialise the node chain so walk addresses are stable.
            self.walk_addresses(asid, vpn, page_size)
        return pte

    def lookup(self, asid: int, vpn: int, page_size: int) -> PTE:
        """Return the PTE covering ``vpn`` (mapping it on first touch)."""
        return self.map_page(asid, vpn, page_size)

    def unmap(self, asid: int, vpn: int, page_size: int) -> None:
        """Drop a translation (page remapping / demotion)."""
        key = (asid, page_size, translation_vpn(vpn, page_size))
        self._ptes.pop(key, None)
        self.walk_memo.pop(key, None)

    def walk_addresses(
        self, asid: int, vpn: int, page_size: int
    ) -> Tuple[int, ...]:
        vpn &= _VPN_MASK
        leaf = _LEAF_DEPTH[page_size] - 1
        shift = _INDEX_SHIFT[leaf]
        key = (asid, leaf, vpn >> shift >> _INDEX_BITS)
        chain = self._chains.get(key)
        if chain is None:
            chain = self._chains[key] = self._node_chain(asid, vpn, leaf)
        upper, frame = chain
        return upper + (frame + ((vpn >> shift) & _INDEX_MASK) * ENTRY_BYTES,)

    def walk_info(self, asid: int, vpn: int, page_size: int) -> Tuple[Tuple[int, ...], PTE]:
        key = (asid, page_size, translation_vpn(vpn, page_size))
        info = self.walk_memo.get(key)
        if info is None:
            addresses = self.walk_addresses(asid, vpn, page_size)
            pte = self._ptes.get(key)
            if pte is None:
                ppn = self._allocate_frame() >> PAGE_SHIFT_4K
                pte = self._ptes[key] = PTE(
                    ppn=ppn, page_size=page_size, asid=asid
                )
                self.pages_mapped += 1
            info = self.walk_memo[key] = (addresses, pte)
        return info


def _vpns():
    """4KB VPNs that share leaf nodes and upper levels (a small range),
    span the 36-bit VPN space, or lie beyond it (masked to it)."""
    return st.one_of(
        st.integers(min_value=0, max_value=4 * 512),
        st.integers(min_value=0, max_value=(1 << 36) - 1),
        st.integers(min_value=1 << 36, max_value=1 << 40),
    )


table_ops = st.lists(
    st.tuples(
        st.sampled_from(("walk", "rewalk", "lookup", "map_page", "unmap")),
        st.sampled_from((1, 2)),  # asid
        st.sampled_from((PAGE_4K, PAGE_2M, PAGE_1G)),
        _vpns(),
    ),
    min_size=1,
    max_size=60,
)


def check_entries(table, oracle):
    """The new layout holds what the oracle holds: the same frames,
    nodes and chains, and per mapped page one walk entry — the chain's
    own upper tuple, the leaf entry's address and the PPN — where the
    oracle keeps a PTE, and its walk addresses and PTE where the
    oracle's walk memo has them."""
    assert (
        table._next_frame, table.nodes_allocated, table.pages_mapped,
        table._nodes, table._chains,
    ) == (
        oracle._next_frame, oracle.nodes_allocated, oracle.pages_mapped,
        oracle._nodes, oracle._chains,
    )
    assert table.walk_entries.keys() == oracle._ptes.keys()
    for (asid, size, page_number), entry in table.walk_entries.items():
        upper, leaf, ppn = entry
        pte = oracle._ptes[asid, size, page_number]
        addresses = oracle.walk_addresses(
            asid, page_number << VPN_SHIFT[size], size
        )
        assert entry == (addresses[:-1], addresses[-1], pte.ppn)
        assert pte == PTE(ppn, size, asid)
        depth = _LEAF_DEPTH[size] - 1
        number = page_number & (_VPN_MASK >> _INDEX_SHIFT[depth])
        assert upper is table._chains[asid, depth, number >> _INDEX_BITS][0]
        memo = oracle.walk_memo.get((asid, size, page_number))
        assert memo is None or memo == (upper + (leaf,), pte)


@settings(max_examples=200, deadline=None)
@given(table_ops)
def test_first_touch_walk_info_matches_the_call_chain(ops):
    """Random first touches, re-walks, fixed-walker maps and unmaps, at
    every page size and two ASIDs, allocate the same frames in the same
    order and give the same addresses and PTEs as the call chain, each
    mapped page held as one walk entry (see check_entries)."""
    table, oracle = PageTable(), ChainPageTable()
    touched = []
    for op, asid, size, vpn in ops:
        if op == "rewalk" and touched:
            asid, size, vpn = touched[vpn % len(touched)]
        page_number = translation_vpn(vpn, size)
        if op in ("walk", "rewalk"):
            upper, leaf, ppn = got = table.walk_info(asid, size, page_number)
            assert (upper + (leaf,), PTE(ppn, size, asid)) == oracle.walk_info(
                asid, vpn, size
            )
            assert got is table.walk_entries[asid, size, page_number]
            assert got is table.walk_info(asid, size, page_number)
            touched.append((asid, size, vpn))
        elif op == "lookup":
            assert table.map_translation(asid, size, page_number) == (
                oracle.lookup(asid, vpn, size)
            )
        elif op == "map_page":
            assert table.map_translation(asid, size, page_number) == (
                oracle.map_page(asid, vpn, size)
            )
        else:
            table.unmap(asid, size, page_number)
            oracle.unmap(asid, vpn, size)
        check_entries(table, oracle)
