"""Slice-indexing strategies: mapping a translation to its home slice.

The paper uses "a simple indexing mechanism using bits from [the]
virtual address" and notes that "optimized indexing mechanisms can be
adopted for better performance" (§III-A).  This module provides that
design space:

* ``modulo``    — low-order page-number bits (the paper's choice);
* ``xor-fold``  — XOR-folds several bit groups of the page number, so
  strided access patterns (which alias badly under modulo) spread
  evenly across slices;
* ``asid-mix``  — mixes the context ID into the hash, so multiprogrammed
  workloads with identical per-process layouts don't all hash their
  hot pages onto the same slices.

`benchmarks/test_ablation_indexing.py` quantifies the choice.
"""

from __future__ import annotations

from typing import Callable, Dict

IndexFn = Callable[[int, int, int], int]  # (asid, page_number, slices)


def modulo_index(asid: int, page_number: int, num_slices: int) -> int:
    """The paper's scheme: low-order page-number bits."""
    return page_number % num_slices


def xor_fold_index(asid: int, page_number: int, num_slices: int) -> int:
    """XOR-fold successive bit groups so strides don't alias.

    Reaches every slice only for a power-of-two slice count, which
    :class:`~repro.sim.configs.SystemConfig` enforces; one slice homes
    everything (there are no bits to fold).
    """
    if num_slices == 1:
        return 0
    bits = (num_slices - 1).bit_length()
    mask = num_slices - 1
    folded = 0
    value = page_number
    while value:
        folded ^= value & mask
        value >>= bits
    return folded


def asid_mix_index(asid: int, page_number: int, num_slices: int) -> int:
    """XOR-fold with the ASID mixed in (de-correlates processes)."""
    folded = xor_fold_index(0, page_number, num_slices)
    return (folded ^ (asid * 7)) % num_slices


INDEXERS: Dict[str, IndexFn] = {
    "modulo": modulo_index,
    "xor-fold": xor_fold_index,
    "asid-mix": asid_mix_index,
}


def get_indexer(name: str) -> IndexFn:
    try:
        return INDEXERS[name]
    except KeyError:
        known = ", ".join(sorted(INDEXERS))
        raise KeyError(f"unknown slice indexer {name!r}; known: {known}") from None
