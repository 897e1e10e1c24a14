"""Layer spans for the benchmark's traced run.

The traced child process wraps the public entry points of each
simulator layer from outside the program: nothing under ``src/`` knows
it is observed.  Each wrapped call opens a span on a monotonic
nanosecond clock; a layer's self time is its span's duration minus the
time its child spans cover.  Integer nanoseconds make the accounting
exact: the self times of every span under a root span sum to that
root's duration, with no rounding.

A wrap target that no longer exists (a later change may delete a drive
loop or fold NOCSTAR's send routines together) is reported as
``absent`` and skipped; the traced run never crashes on it.
"""

from __future__ import annotations

import importlib
import sys
import time
import types
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Timed layers: layer name -> wrapped callables as ``module:qualname``.
#: Methods are named on the class that defines them.  The closures
#: ``make_lean_transaction`` returns are timed too (see LEAN_FACTORY).
LAYERS: Dict[str, Tuple[str, ...]] = {
    "core.nocstar.send": (
        "repro.core.nocstar:NocstarInterconnect.send",
        "repro.core.nocstar:NocstarInterconnect._send_routed",
        "repro.core.nocstar:NocstarInterconnect._send_faulty",
        "repro.core.nocstar:NocstarInterconnect.release",
    ),
    "noc.smart.send": ("repro.noc.smart:SmartNetwork.send",),
    "noc.mesh.send": (
        "repro.noc.mesh:ContentionFreeMesh.send",
        "repro.noc.mesh:ContentionFreeMesh._send_cached",
        "repro.noc.mesh:ContentionFreeMesh._send_observed",
        "repro.noc.mesh:ContentionFreeMesh._send_fault_routed",
    ),
    # No workload runs a bus or flattened-butterfly configuration (the
    # headline campaign has none), so those sends are not wrapped.
    "sim.engine.schedule": ("repro.sim.engine:simulate",),
    "sim.engine.compile": (
        "repro.sim.engine:_compile_core_cached",
        "repro.sim.engine_vec:bulk_fill_compile_cache",
    ),
    "sim.system.l2_transaction": ("repro.sim.system:System.l2_transaction",),
    "tlb.l2_shared": tuple(
        f"repro.tlb.l2_shared:_ShardedTlb.{name}"
        for name in (
            "lookup", "lookup_page_number", "probe_page_number", "insert",
            "insert_page_number", "reserve_read", "reserve_write",
            "invalidate",
        )
    ),
    "tlb.l2_private": tuple(
        f"repro.tlb.l2_private:PrivateL2Tlb.{name}"
        for name in (
            "lookup", "lookup_page_number", "insert", "insert_page_number",
            "invalidate",
        )
    ),
    "vm.walker": (
        "repro.vm.walker:PageTableWalker.walk",
        "repro.vm.walker:PageTableWalker.walk_cycles",
        "repro.vm.walker:FixedLatencyWalker.walk",
        "repro.vm.walker:FixedLatencyWalker.walk_cycles",
    ),
    "sim.system.shootdown": (
        "repro.sim.system:System.apply_shootdown",
        "repro.sim.system:System.flush_all_tlbs",
    ),
    "sim.system.init": ("repro.sim.system:System.__init__",),
    "noc.route_cache": ("repro.noc.route_cache:shared_route_cache",),
    "sim.system.finalize": tuple(
        f"repro.sim.system:System.{name}"
        for name in (
            "finalize_stats", "finalize_metrics", "energy_summary",
            "network_summary", "walk_level_summary", "fault_summary",
        )
    ),
    "workloads.build": ("repro.workloads.generators:build_multithreaded",),
    "exec.runner": ("repro.exec.runner:Runner.execute_units",),
    "exec.cache": (
        "repro.exec.cache:ResultCache.get",
        "repro.exec.cache:ResultCache.put",
    ),
    "exec.trace_store": ("repro.exec.trace_store:TraceStore.ensure",),
    "experiments.analytics": ("repro.experiments.analytics:reduce_campaign",),
    "experiments.drift": ("repro.experiments.drift:check_drift",),
    # The root span the benchmark opens around each member campaign; its
    # self time is campaign work outside the wrapped layers.
    "experiments.campaign": (),
}

#: Returns ``None`` or the inlined ``(transaction, finalize)`` closures
#: the vectorized engine calls in place of ``System.l2_transaction`` and
#: the finalize summaries; each closure is timed as that layer.
LEAN_FACTORY = "repro.sim.engine_vec:make_lean_transaction"
LEAN_LAYERS = ("sim.system.l2_transaction", "sim.system.finalize")

#: The targets whose calls feed the model counters: every System built,
#: and every simulate() result.
SYSTEM_INIT = "repro.sim.system:System.__init__"
SIMULATE = "repro.sim.engine:simulate"

#: Drive loops are counted, not timed: their time is the engine's
#: schedule self time (``simulate`` minus everything it calls).
COUNTED: Dict[str, str] = {
    "sim.engine.drive_batched": "repro.sim.engine:_drive_batched",
    "sim.engine.drive_vectorized": "repro.sim.engine:_drive_vectorized",
    "sim.engine.drive_reference": "repro.sim.engine:_drive_reference",
}


class Tracer:
    """Span stack with exact integer self-time accounting per layer."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        #: Open spans: [layer, start_ns, child_ns, root layer].
        self._stack: List[list] = []
        self.self_ns: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}
        #: Summed duration of completed root spans, per root layer.
        self.root_ns: Dict[str, int] = {}
        #: Self time of every span, attributed to its root's layer.
        self.self_by_root: Dict[str, Dict[str, int]] = {}
        #: Wrap target -> "ok" | "absent".
        self.status: Dict[str, str] = {}
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # spans

    def enter(self, layer: str) -> None:
        root = self._stack[0][0] if self._stack else layer
        self._stack.append([layer, self.clock(), 0, root])

    def exit(self) -> None:
        layer, start, child_ns, root = self._stack.pop()
        duration = self.clock() - start
        own = duration - child_ns
        self.self_ns[layer] = self.self_ns.get(layer, 0) + own
        self.calls[layer] = self.calls.get(layer, 0) + 1
        per_root = self.self_by_root.setdefault(root, {})
        per_root[layer] = per_root.get(layer, 0) + own
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.root_ns[layer] = self.root_ns.get(layer, 0) + duration

    @contextmanager
    def span(self, layer: str):
        self.enter(layer)
        try:
            yield
        finally:
            self.exit()

    def count(self, name: str) -> None:
        self.calls[name] = self.calls.get(name, 0) + 1

    def identity_holds(self) -> bool:
        """Whether every root's layer self times sum to its duration."""
        return not self._stack and all(
            sum(self.self_by_root.get(root, {}).values()) == total
            for root, total in self.root_ns.items()
        )

    # ------------------------------------------------------------------
    # wrappers

    def timed(self, fn: Callable, layer: str, after=None) -> Callable:
        """``fn`` inside a ``layer`` span; ``after(args, result)`` runs
        once the span has closed, so its cost lands on the caller."""
        enter, exit_ = self.enter, self.exit

        def wrapper(*args, **kwargs):
            enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, fn: Callable, name: str) -> Callable:
        count = self.count

        def wrapper(*args, **kwargs):
            count(name)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def lean(self, fn: Callable) -> Callable:
        timed = self.timed

        def wrapper(*args, **kwargs):
            made = fn(*args, **kwargs)
            if made is None:
                return None
            return tuple(
                timed(item, layer) for item, layer in zip(made, LEAN_LAYERS)
            )

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------------
    # installation

    def install(
        self,
        layers: Dict[str, Sequence[str]] = LAYERS,
        on_system: Optional[Callable] = None,
        on_result: Optional[Callable] = None,
    ) -> None:
        """Wrap every present target; record absent ones in ``status``.

        Besides ``layers``, the drive loops (COUNTED) are counted and the
        LEAN_FACTORY closures timed.  ``on_system(args, None)`` runs after
        each ``System.__init__`` and ``on_result(args, result)`` after each
        ``simulate``, outside their spans.
        """
        hooks = {SYSTEM_INIT: on_system, SIMULATE: on_result}
        for layer, targets in layers.items():
            for target in targets:
                self._wrap(
                    target,
                    lambda fn, layer=layer, hook=hooks.get(target): self.timed(
                        fn, layer, hook
                    ),
                )
        for name, target in COUNTED.items():
            self._wrap(target, lambda fn, name=name: self.counted(fn, name))
        self._wrap(LEAN_FACTORY, self.lean)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def absent(self) -> List[str]:
        return sorted(t for t, state in self.status.items() if state == "absent")

    def _wrap(self, target: str, make: Callable[[Callable], Callable]) -> None:
        resolved = resolve(target)
        if resolved is None:
            self.status[target] = "absent"
            return
        owner, attr = resolved
        original = vars(owner)[attr]
        wrapper = make(original)
        self._patch(owner, attr, original, wrapper)
        if isinstance(owner, types.ModuleType):
            # ``from module import fn`` copies bind the original object
            # into other namespaces; rebind those too.
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if (
                    module is owner
                    or namespace is None
                    or not getattr(module, "__name__", "").startswith("repro")
                ):
                    continue
                for name, value in list(namespace.items()):
                    if value is original:
                        self._patch(module, name, original, wrapper)
        self.status[target] = "ok"

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)


def resolve(target: str) -> Optional[Tuple[object, str]]:
    """``(owner, attribute)`` of a ``module:qualname`` target, or None
    when the module, class or attribute no longer exists."""
    module_name, _, qualname = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(vars(owner).get(attr)):
        return None
    return owner, attr


#: Simulated-model counters the traced run records, each summed over
#: the workload's units (ratios are formed from summed parts).
MODEL_COUNTERS = (
    "tlb.l1.miss_ratio",
    "tlb.l2.hit_ratio",
    "vm.walker.walks",
    "vm.walker.queue_cycles",
    "tlb.l2_shared.port_conflict_cycles",
    "core.nocstar.setup_retries",
    "noc.messages",
    "sim.system.shootdown_messages",
)

#: Layers that run on every workload; only these report ``self_s``,
#: so no reported time reads a constant zero on some workload.
ALWAYS_TIMED = (
    "sim.engine.schedule",
    "sim.system.l2_transaction",
    "tlb.l2_shared",
    "vm.walker",
    "sim.system.init",
    "noc.route_cache",
    "sim.system.finalize",
    "workloads.build",
)


def per_layer_names() -> List[Tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    names = [(f"{layer}.self_s", "s") for layer in ALWAYS_TIMED]
    for layer in LAYERS:
        names.append((f"{layer}.share", "fraction"))
        names.append((f"{layer}.calls", "count"))
    names.extend((f"{name}.calls", "count") for name in COUNTED)
    for name in MODEL_COUNTERS:
        names.append((name, "ratio" if name.endswith("_ratio") else "count"))
    names.append(("trace_overhead", "x"))
    return names
