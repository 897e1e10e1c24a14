"""x86-64 radix page-table behaviour."""

from typing import Tuple

from hypothesis import given, settings, strategies as st

from repro.vm.address import (
    PAGE_1G,
    PAGE_2M,
    PAGE_4K,
    PAGE_SHIFT_4K,
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


def test_walk_depth_by_page_size():
    table = PageTable()
    assert len(table.walk_addresses(1, 0, PAGE_4K)) == 4
    assert len(table.walk_addresses(1, 0, PAGE_2M)) == 3
    assert len(table.walk_addresses(1, 0, PAGE_1G)) == 2


def test_walk_addresses_are_stable():
    table = PageTable()
    first = table.walk_addresses(1, 12345, PAGE_4K)
    second = table.walk_addresses(1, 12345, PAGE_4K)
    assert first == second


def test_same_pml4_different_leaf():
    """VPNs in the same 2MB region share all upper levels."""
    table = PageTable()
    a = table.walk_addresses(1, 512 * 7 + 1, PAGE_4K)
    b = table.walk_addresses(1, 512 * 7 + 2, PAGE_4K)
    assert a[:3] == b[:3]
    assert a[3] != b[3]
    assert abs(a[3] - b[3]) == ENTRY_BYTES


def test_different_asids_use_different_tables():
    table = PageTable()
    a = table.walk_addresses(1, 100, PAGE_4K)
    b = table.walk_addresses(2, 100, PAGE_4K)
    assert a[0] != b[0]


def test_map_page_is_idempotent():
    table = PageTable()
    first = table.map_page(1, 100, PAGE_4K)
    second = table.map_page(1, 100, PAGE_4K)
    assert first == second
    assert table.pages_mapped == 1


def test_map_page_superpage_collapses():
    table = PageTable()
    a = table.map_page(1, 512 * 3, PAGE_2M)
    b = table.map_page(1, 512 * 3 + 99, PAGE_2M)
    assert a.ppn == b.ppn
    assert table.pages_mapped == 1


def test_distinct_pages_get_distinct_frames():
    table = PageTable()
    ppns = {table.map_page(1, vpn, PAGE_4K).ppn for vpn in range(64)}
    assert len(ppns) == 64


def test_walk_entry_addresses_are_entry_aligned():
    table = PageTable()
    for addr in table.walk_addresses(1, 98765, PAGE_4K):
        assert addr % ENTRY_BYTES == 0
        assert addr >= FRAME_BYTES  # frame 0 is reserved


def test_unmap_forgets_translation():
    table = PageTable()
    before = table.map_page(1, 100, PAGE_4K)
    table.unmap(1, 100, PAGE_4K)
    after = table.map_page(1, 100, PAGE_4K)
    assert after.ppn != before.ppn  # remapped to a fresh frame


def test_nodes_allocated_grows_sublinearly():
    """Adjacent pages share table nodes: 512 pages need ~4 nodes, not 2048."""
    table = PageTable()
    for vpn in range(512):
        table.map_page(1, vpn, PAGE_4K)
    assert table.nodes_allocated <= 8


def test_lookup_implicitly_maps():
    table = PageTable()
    pte = table.lookup(3, 777, PAGE_4K)
    assert pte.page_size == PAGE_4K
    assert table.pages_mapped == 1


class ChainPageTable(PageTable):
    """``walk_info``, ``walk_addresses`` and ``map_page`` as they were
    before a first touch was one call (kept verbatim as the oracle):
    walk_info called translation_vpn, page_shift, walk_addresses and
    _allocate_frame, keyed by a 4KB VPN."""

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


def _state(table):
    return (
        table._next_frame, table.nodes_allocated, table.pages_mapped,
        table.walk_memo, table._ptes, table._nodes, table._chains,
    )


@settings(max_examples=200, deadline=None)
@given(table_ops)
def test_first_touch_walk_info_matches_the_call_chain(ops):
    """Random first touches, re-walks, fixed-walker maps and unmaps, at
    every page size and two ASIDs, allocate the same frames in the same
    order, give the same addresses and PTEs, and memoise the same
    entries as the call chain."""
    table, oracle = PageTable(), ChainPageTable()
    touched = []
    for op, asid, size, vpn in ops:
        page_number = translation_vpn(vpn, size)
        if op == "rewalk" and touched:
            asid, size, vpn = touched[vpn % len(touched)]
            page_number = translation_vpn(vpn, size)
        if op in ("walk", "rewalk"):
            got = table.walk_info(asid, size, page_number)
            assert got == oracle.walk_info(asid, vpn, size)
            assert got is table.walk_memo[asid, size, page_number]
            touched.append((asid, size, vpn))
        elif op == "lookup":
            assert table.lookup(asid, vpn, size) == oracle.lookup(asid, vpn, size)
        elif op == "map_page":
            assert table.map_page(asid, vpn, size) == oracle.map_page(
                asid, vpn, size
            )
        else:
            table.unmap(asid, vpn, size)
            oracle.unmap(asid, vpn, size)
        assert _state(table) == _state(oracle)
        assert table.walk_addresses(asid, vpn, size) == oracle.walk_addresses(
            asid, vpn, size
        )
