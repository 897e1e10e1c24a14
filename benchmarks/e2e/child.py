"""One benchmark sample, run in a fresh process.

``run.py`` starts this body as ``run.py _child WORKLOAD SEED MODE SCRATCH``
in a new interpreter for every sample, so the simulator's process-wide
caches (route tables, compile cache, workload builds) start empty, as
they do for a user's ``repro run``.  The sample prints one JSON object
as its last line of standard output.

Every mode times the set-up:

* ``setup_s`` — ``import repro`` plus building each distinct workload
  trace (for ``campaign-smoke``: the import, campaign expansion and
  ``Runner`` construction; its traces are built inside the campaign, as
  ``repro experiments`` does), in seconds of a nominal host
  (:class:`Clock`); ``setup_raw_s`` is the same interval in host
  seconds.

Mode ``setup`` stops there.  Mode ``sample`` also times:

* ``sim_s`` — ``RunUnit.execute()`` over every unit with traces
  prebuilt (for ``campaign-smoke``: ``run_campaign`` plus
  ``check_drift`` over each member campaign), also reported as
  ``sim_ref``, in reference ticks (:class:`Clock`).

Mode ``traced`` also wraps each layer's entry points (:mod:`layers`) and
reports per-layer self time, share and call counts, the simulated-model
counters and the drive-loop call counts, in host seconds only.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from typing import Dict, List

from layers import COUNTED, LAYERS, Tracer
from reference import HostSpeed

WORKLOADS = ("paper-64", "mega-1024", "storm-64", "campaign-smoke")
MODES = ("setup", "sample", "traced")

PAPER_CONFIGS = ("private", "monolithic-smart", "distributed", "nocstar")
MEGA_CONFIGS = ("distributed-1024", "nocstar-1024")
CAMPAIGN = "headline"
CAMPAIGN_SCALE = "smoke"

#: The root span each workload's shares are measured against.
SHARE_ROOT = "sim.engine.schedule"
CAMPAIGN_ROOT = "experiments.campaign"


def build_units(workload: str, seed: int) -> List:
    """The run units of a simulation workload, generated from ``seed``."""
    from repro.sim import configs as cfg
    from repro.sim.scenario import RunUnit
    from repro.workloads.microbench import storm_config_for
    from repro.workloads.registry import get_workload

    graph500 = get_workload("graph500")
    if workload == "paper-64":
        return [
            RunUnit(cfg.build_config(name, 64), graph500, 4_000, seed)
            for name in PAPER_CONFIGS
        ]
    if workload == "mega-1024":
        return [
            RunUnit(cfg.build_config(name, 1024), graph500, 25, seed)
            for name in MEGA_CONFIGS
        ]
    if workload == "storm-64":
        storm = storm_config_for(2_000, mean_gap=graph500.mean_gap)
        return [
            RunUnit(
                cfg.build_config("distributed", 64), graph500, 2_000, seed,
                storm=storm,
            )
        ]
    raise ValueError(f"unknown simulation workload {workload!r}")


def digest(obj) -> str:
    from repro.exec.cache import canonical_json

    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def invariant_problems(result, records: int) -> List[str]:
    """Model-independent consistency checks on one unit's result."""
    stats = result.stats
    problems = []
    if stats.l1_hits + stats.l1_misses != records:
        problems.append(
            f"L1 hits+misses {stats.l1_hits + stats.l1_misses} != "
            f"{records} trace records"
        )
    if stats.l2_hits + stats.l2_misses != stats.l1_misses:
        problems.append("L2 transactions != L1 misses")
    if stats.walks != stats.l2_misses:
        problems.append("page walks != L2 misses")
    if result.cycles <= 0 or result.cycles != max(result.per_core_cycles):
        problems.append("cycles != slowest core's finish")
    return problems


class ModelCounters:
    """Simulated-model counters summed over every simulate() call."""

    def __init__(self) -> None:
        self.systems: List = []
        self.sums: Dict[str, int] = {
            name: 0
            for name in (
                "l1_hits", "l1_misses", "l2_hits", "l2_misses", "walks",
                "queue_cycles", "port_conflict_cycles", "setup_retries",
                "messages", "shootdown_messages",
            )
        }

    def capture(self, args, _result) -> None:
        self.systems.append(args[0])

    def harvest(self, _args, result) -> None:
        sums = self.sums
        stats = result.stats
        sums["l1_hits"] += stats.l1_hits
        sums["l1_misses"] += stats.l1_misses
        sums["l2_hits"] += stats.l2_hits
        sums["l2_misses"] += stats.l2_misses
        sums["walks"] += stats.walks
        sums["shootdown_messages"] += stats.shootdown_messages
        for system in self.systems:
            sums["queue_cycles"] += sum(
                q.total_queue_cycles for q in system.walker_queues
            )
            shared = system.shared_l2
            if shared is not None:
                sums["port_conflict_cycles"] += sum(
                    ports.conflict_cycles
                    for ports in shared.read_ports + shared.write_ports
                )
            network = system.network
            if network is not None:
                sums["messages"] += network.messages
                # Only the NOCSTAR fabric arbitrates path setups.
                sums["setup_retries"] += getattr(
                    network, "total_setup_retries", 0
                )
        self.systems.clear()

    def report(self) -> Dict[str, float]:
        s = self.sums
        l1 = s["l1_hits"] + s["l1_misses"]
        l2 = s["l2_hits"] + s["l2_misses"]
        return {
            "tlb.l1.miss_ratio": s["l1_misses"] / l1 if l1 else 0.0,
            "tlb.l2.hit_ratio": s["l2_hits"] / l2 if l2 else 0.0,
            "vm.walker.walks": s["walks"],
            "vm.walker.queue_cycles": s["queue_cycles"],
            "tlb.l2_shared.port_conflict_cycles": s["port_conflict_cycles"],
            "core.nocstar.setup_retries": s["setup_retries"],
            "noc.messages": s["messages"],
            "sim.system.shootdown_messages": s["shootdown_messages"],
        }


def _layer_delta(tracer: Tracer, before) -> Dict[str, Dict[str, float]]:
    self_before, calls_before = before
    return {
        layer: {
            "self_s": (tracer.self_ns.get(layer, 0) - self_before.get(layer, 0))
            / 1e9,
            "calls": tracer.calls.get(layer, 0) - calls_before.get(layer, 0),
        }
        for layer in LAYERS
    }


class Clock:
    """Times the set-up and the simulation in seconds and in ticks.

    With ``sampled``, :class:`reference.HostSpeed` ticks from the clock's
    creation to :meth:`report`.  The ticks inside a timed piece are taken
    out of its seconds, and the rest is divided by the piece's mean tick,
    which cancels the host's speed changes during it.  Traced samples
    are not sampled, so that no tick lands inside a layer span.
    """

    #: Tick seconds of a nominal host (about the idle 2-vCPU Xeon VM's):
    #: ``setup_s`` is the set-up's time in ticks at that speed, a fixed
    #: scale, so it moves only with the set-up's own cost.
    NOMINAL_TICK_S = 0.00065

    def __init__(self, sampled: bool) -> None:
        self.speed = HostSpeed() if sampled else None
        self.seconds = {"setup": 0.0, "sim": 0.0}
        self.refs = {"setup": 0.0, "sim": 0.0}
        if self.speed is not None:
            self.speed.start()

    def timed(self, phase: str, fn, *args):
        """``fn(*args)``, added to ``phase``: ``setup`` or ``sim``."""
        began = time.perf_counter()
        try:
            return fn(*args)
        finally:
            ended = time.perf_counter()
            elapsed = ended - began
            speed = self.speed
            if speed is not None:
                ticks = speed.between(began, ended)
                elapsed -= sum(ticks)
                if not ticks:  # a piece shorter than the tick interval
                    speed.tick()
                    ticks = speed.ticks[-1:]
                self.refs[phase] += elapsed / (sum(ticks) / len(ticks))
            self.seconds[phase] += elapsed

    def report(self) -> Dict[str, float]:
        out = {"setup_raw_s": self.seconds["setup"], "sim_s": self.seconds["sim"]}
        if self.speed is not None:
            self.speed.stop()
            ticks = self.speed.ticks
            out.update(
                setup_s=self.refs["setup"] * self.NOMINAL_TICK_S,
                sim_ref=self.refs["sim"],
                ref_s=sum(ticks) / len(ticks),
                probe_s=sum(ticks),
            )
        return out


def _setup_simulation(workload: str, seed: int):
    """The workload's units and, per build signature, its trace records."""
    units = build_units(workload, seed)
    records: Dict[tuple, int] = {}
    for unit in units:
        signature = unit.build_signature()
        if signature in records:
            continue
        built = unit.build_workload()
        records[signature] = sum(
            len(stream) for core in built.traces for stream in core
        )
    return units, records


def _simulation(units, records, tracer, clock: Clock) -> Dict:
    l2_tx = 0
    failed: List[str] = []
    digests: Dict[str, str] = {}
    problems: List[str] = []
    per_unit = []
    for unit in units:
        label = unit.config.name
        before = (dict(tracer.self_ns), dict(tracer.calls)) if tracer else None
        try:
            result = clock.timed("sim", unit.execute)
        except Exception:  # a failing unit is counted, not fatal
            traceback.print_exc()
            failed.append(label)
            problems.append(f"{label}: raised")
            continue
        l2_tx += result.stats.l2_hits + result.stats.l2_misses
        digests[label] = digest(result)
        found = invariant_problems(result, records[unit.build_signature()])
        if found:
            failed.append(label)
            problems.extend(f"{label}: {p}" for p in found)
        if tracer is not None:
            layers = _layer_delta(tracer, before)
            per_unit.append({
                "unit": label,
                "layers": layers,
                "top_layer": max(layers, key=lambda k: layers[k]["self_s"]),
            })
    out = dict(
        l2_tx=l2_tx,
        attempted=len(units),
        failed=failed,
        digests=digests,
        problems=problems,
    )
    if tracer is not None:
        out["units"] = per_unit
    return out


def _setup_campaign(tmp: str):
    import repro.experiments as xp
    from repro.exec.runner import Runner

    # A fresh result cache and trace store: nothing is replayed from an
    # earlier sample.
    runner = Runner(
        jobs=1,
        cache_dir=os.path.join(tmp, "cache"),
        trace_store=os.path.join(tmp, "traces"),
    )
    return xp.expand_campaigns([CAMPAIGN]), runner


def _campaign(specs, runner, tracer, clock: Clock) -> Dict:
    import repro.experiments as xp

    def member(spec):
        with tracer.span(CAMPAIGN_ROOT) if tracer else nullcontext():
            run = xp.run_campaign(spec, scale=CAMPAIGN_SCALE, runner=runner)
            return run, xp.check_drift(spec.name, CAMPAIGN_SCALE, run.summary)

    failed: List[str] = []
    l2_tx = 0
    digests: Dict[str, str] = {}
    problems: List[str] = []
    for spec in specs:
        try:
            run, report = clock.timed("sim", member, spec)
        except Exception:  # a failing campaign is counted, not fatal
            traceback.print_exc()
            failed.append(spec.name)
            problems.append(f"{spec.name}: raised")
            continue
        bad = [
            f"{v.metric}={v.status}"
            for v in report.verdicts
            if v.status in ("DRIFT", "missing-metric")
        ]
        if bad:
            failed.append(spec.name)
            problems.append(f"{spec.name}: " + ", ".join(bad))
        digests[spec.name] = digest(run.summary)
        # Every unit the campaign reports, including those the shared
        # result cache answered for a later member.
        l2_tx += sum(
            r.stats.l2_hits + r.stats.l2_misses
            for comparison in run.comparisons.values()
            for r in comparison.results.values()
        )
    return dict(
        l2_tx=l2_tx,
        attempted=len(specs),
        failed=failed,
        digests=digests,
        problems=problems,
    )


def run_sample(workload: str, seed: int, mode: str, scratch: str) -> Dict:
    tracer = counters = None
    if mode == "traced":
        tracer = Tracer()
        counters = ModelCounters()
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch)

    def setup():
        import repro  # noqa: F401  (timed: part of set-up)

        if tracer is not None:
            tracer.install(on_system=counters.capture,
                           on_result=counters.harvest)
        if workload == "campaign-smoke":
            return _setup_campaign(tmp)
        return _setup_simulation(workload, seed)

    try:
        clock = Clock(sampled=mode != "traced")
        made = clock.timed("setup", setup)
        if mode == "setup":
            return clock.report()
        if workload == "campaign-smoke":
            out = _campaign(*made, tracer, clock)
        else:
            out = _simulation(*made, tracer, clock)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    out.update(clock.report())
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        root = CAMPAIGN_ROOT if workload == "campaign-smoke" else SHARE_ROOT
        total = tracer.root_ns.get(root, 0)
        out["traced_total_s"] = total / 1e9
        out["identity"] = tracer.identity_holds()
        out["layers"] = {
            layer: {
                "self_s": tracer.self_ns.get(layer, 0) / 1e9,
                "share": tracer.self_ns.get(layer, 0) / total if total else 0.0,
                "calls": tracer.calls.get(layer, 0),
            }
            for layer in LAYERS
        }
        out["drive_calls"] = {name: tracer.calls.get(name, 0) for name in COUNTED}
        out["counters"] = counters.report()
        out["absent"] = tracer.absent()
    return out


def main(argv: List[str]) -> int:
    workload, seed, mode, scratch = argv
    if workload not in WORKLOADS or mode not in MODES:
        print(f"unknown workload {workload!r} or mode {mode!r}", file=sys.stderr)
        return 2
    out = run_sample(workload, int(seed), mode, scratch)
    print(json.dumps(out, sort_keys=True))
    return 0
