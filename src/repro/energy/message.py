"""Analytic per-message energy vs hop count — Fig 11(b).

For each shared-TLB organisation, the energy of one L2 TLB access that
travels ``hops`` hops, broken down the way the paper plots it:
Link / Switch / Control / SRAM.

* Monolithic pays a big-SRAM read plus buffered-router mesh hops.
* Distributed pays a slice-sized read plus the same mesh hops.
* NOCSTAR pays a slice read, cheap latchless mux hops, and a control
  premium — one arbiter request per link arbitrated simultaneously
  (traversing 14 hops in a cycle needs 14 parallel arbitrations,
  §III-D) — which the latency-driven savings elsewhere outweigh.
"""

from __future__ import annotations

from typing import Dict

from repro.energy.components import DEFAULT_PARAMS, EnergyParams
from repro.energy.model import EnergyModel

DESIGNS = ("monolithic", "distributed", "nocstar")


def message_energy_pj(
    design: str,
    hops: int,
    num_cores: int = 32,
    slice_entries: int = 1024,
    nocstar_slice_entries: int = 920,
    params: EnergyParams = DEFAULT_PARAMS,
) -> Dict[str, float]:
    """Energy breakdown (pJ) of one shared-L2 access over ``hops`` hops,
    charged through an :class:`EnergyModel` as a simulated access is."""
    if hops < 0:
        raise ValueError("hop count cannot be negative")
    model = EnergyModel(params)
    if design == "monolithic":
        model.l2_lookup(slice_entries * num_cores)
        model.mesh_hops(hops)
    elif design == "distributed":
        model.l2_lookup(slice_entries)
        model.mesh_hops(hops)
    elif design == "nocstar":
        model.l2_lookup(nocstar_slice_entries)
        model.nocstar_hops(hops)
        model.control(hops)
    else:
        raise ValueError(f"unknown design: {design}")
    charged = model.breakdown
    return {
        "sram": charged.sram_pj,
        "link": charged.link_pj,
        "switch": charged.switch_pj,
        "control": charged.control_pj,
        "total": charged.total_pj,
    }
