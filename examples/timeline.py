#!/usr/bin/env python3
"""Fig 10 walkthrough: the cycle-by-cycle life of one translation.

Issues a single L1-TLB-missing access against a remote NOCSTAR slice
(hit case and miss case) and prints the phase timeline — path setup,
single-cycle traversal, slice lookup, speculative response setup,
response traversal, and (on a miss) the page walk.

Run:  python examples/timeline.py
"""

from repro.analysis.tables import render_table
from repro.sim import configs as cfg
from repro.sim.system import System
from repro.vm.address import PAGE_4K


def trace_one(present: bool):
    timeline = []
    system = System(
        cfg.nocstar(16, translation_overlap=0.0), timeline=timeline
    )
    page = 15  # homed on the far-corner slice of the 4x4 mesh
    if present:
        system.shared_l2.insert_page_number(1, PAGE_4K, page)
    else:
        # Warm the page-table caches so the miss shows a steady-state
        # walk (upper levels in core 0's PWC, the leaf PTE line in the
        # shared LLC via a neighbouring core's earlier walk).
        system.walker.walk(1, 1, PAGE_4K, page - 1, now=0)
        system.walker.walk(0, 1, PAGE_4K, page + 64, now=0)
        timeline.clear()
    stall = system.l2_transaction(0, 1, PAGE_4K, page, now=0)
    return timeline, stall


def show(title: str, timeline, stall) -> None:
    print(f"\n{title}")
    rows = [[phase, start, end, end - start] for phase, start, end in timeline]
    print(render_table(["phase", "start", "end", "cycles"], rows, precision=0))
    print(f"total L1-miss stall: {stall} cycles")


def main() -> None:
    print("Timeline of an L1 TLB miss in NOCSTAR (Fig 10)")
    print("core 0 -> slice 15 (6 mesh hops, single-cycle traversal)")

    timeline, stall = trace_one(present=True)
    show("Remote slice HIT:", timeline, stall)

    timeline, stall = trace_one(present=False)
    show("Remote slice MISS (walk at the requesting core):", timeline, stall)

    print(
        "\nNote how the response path is set up speculatively during the"
        "\nslice lookup, so the reply spends exactly one cycle in flight."
    )


if __name__ == "__main__":
    main()
