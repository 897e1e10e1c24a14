"""``repro.api`` — the supported public surface of this package.

This facade is the stability boundary: everything in ``__all__`` below
keeps its name and semantics across releases; removals happen only in a
major release.  Internal modules (``repro.sim.engine`` internals, TLB
structures, NoC models, ...) may be imported directly for research, but
only what is re-exported here is covered by that promise.
:data:`VERSION` names the facade revision; bump it whenever the surface
changes (see DESIGN.md for the migration and removal tables).

Typical use::

    from repro import api

    scenario = api.Scenario(
        configurations=api.paper_lineup(16),
        workloads=("graph500", "gups"),
        accesses_per_core=8_000,
        seed=42,
    )
    runner = api.Runner(jobs=4, cache_dir=".repro-cache")
    comparisons = runner.run(scenario)
    print(comparisons["graph500"].speedup("nocstar"))
"""

from __future__ import annotations

from repro.exec.cache import ResultCache, canonical_json, unit_key
from repro.experiments import (
    CampaignRun,
    CampaignSpec,
    DriftReport,
    DriftVerdict,
    Scale,
    available_campaigns,
    check_drift,
    expand_campaigns,
    get_campaign,
    register_campaign,
    run_campaign,
    update_pins,
)
from repro.exec.runner import Runner
from repro.exec.trace_store import TraceStore, attach_workload
from repro.faults import (
    ArbiterDrop,
    FaultAwareRouter,
    FaultPlan,
    FaultSpec,
    LinkFailure,
    SliceFailure,
    UnreachableError,
    WalkerSlowdown,
    derive_seed,
)
from repro.obs import (
    EVENT_KINDS,
    EventTrace,
    MetricsRegistry,
    MetricsSink,
    NullSink,
    NULL_SINK,
    Span,
    Tracer,
    load_obs_records,
    load_spans,
    render_report,
    render_tree,
    write_obs_jsonl,
    write_spans,
)
from repro.sim.configs import (
    SystemConfig,
    available_configs,
    build_config,
    distributed,
    ideal,
    monolithic,
    nocstar,
    nocstar_ideal,
    paper_lineup,
    private,
    register_config,
)
from repro.sim.engine import (
    ENGINE_VERSION,
    ShootdownTraffic,
    StormConfig,
    simulate,
)
from repro.sim.results import RunResult, geometric_mean
from repro.sim.run import (
    Comparison,
    SpeedupSummary,
    compare,
    run_suite,
    summarize_speedups,
)
from repro.sim.scenario import RunUnit, Scenario
from repro.tlb.opt import (
    PolicyEval,
    offline_policy_eval,
    pct_of_opt,
)
from repro.tlb.policies import (
    POLICY_NAMES,
    ReplacementPolicy,
    make_policy,
)
from repro.workloads.generators import (
    build_multiprogrammed,
    build_multithreaded,
)
from repro.workloads.registry import WORKLOAD_NAMES, WORKLOADS, get_workload
from repro.workloads.spec import WorkloadSpec

#: Facade revision.  Bumped whenever names are added to or removed
#: from this surface; independent of the engine/telemetry versions.
#: 1.3.0: span tracing (Tracer/Span/load_spans/write_spans/render_tree).
#: 1.4.0: experiment campaigns (CampaignSpec/Scale/register_campaign/
#: run_campaign/CampaignRun) and the drift gate (check_drift/
#: DriftReport/DriftVerdict/update_pins).
#: 1.5.0: the replacement-policy zoo (POLICY_NAMES/make_policy/
#: ReplacementPolicy, SystemConfig.policy/.arbitration) and the offline
#: Belady bound (offline_policy_eval/pct_of_opt/PolicyEval).
#: 2.0.0: the HTTP serving tier, Prometheus exposition and the
#: runner's wire-only helpers are removed; compare and run_suite take
#: only a Scenario (see DESIGN.md, "Removed in api 2.0.0").
VERSION = "2.0.0"

__all__ = [
    "VERSION",
    # scenario & execution
    "Scenario",
    "RunUnit",
    "Runner",
    "ResultCache",
    "TraceStore",
    "attach_workload",
    "unit_key",
    "canonical_json",
    "ENGINE_VERSION",
    # run harness
    "simulate",
    "compare",
    "run_suite",
    "Comparison",
    "SpeedupSummary",
    "summarize_speedups",
    "RunResult",
    "geometric_mean",
    # configurations
    "SystemConfig",
    "register_config",
    "available_configs",
    "build_config",
    "paper_lineup",
    "private",
    "monolithic",
    "distributed",
    "nocstar",
    "nocstar_ideal",
    "ideal",
    # replacement policies & the offline Belady bound
    "POLICY_NAMES",
    "ReplacementPolicy",
    "make_policy",
    "PolicyEval",
    "offline_policy_eval",
    "pct_of_opt",
    # pathological traffic
    "StormConfig",
    "ShootdownTraffic",
    # fault injection & resilience
    "FaultSpec",
    "FaultPlan",
    "LinkFailure",
    "ArbiterDrop",
    "SliceFailure",
    "WalkerSlowdown",
    "FaultAwareRouter",
    "UnreachableError",
    "derive_seed",
    # observability
    "MetricsRegistry",
    "MetricsSink",
    "NullSink",
    "NULL_SINK",
    "EventTrace",
    "EVENT_KINDS",
    "render_report",
    "load_obs_records",
    "write_obs_jsonl",
    "Tracer",
    "Span",
    "load_spans",
    "write_spans",
    "render_tree",
    # experiment campaigns & drift gate
    "CampaignSpec",
    "Scale",
    "register_campaign",
    "available_campaigns",
    "get_campaign",
    "expand_campaigns",
    "run_campaign",
    "CampaignRun",
    "check_drift",
    "DriftReport",
    "DriftVerdict",
    "update_pins",
    # workloads
    "WorkloadSpec",
    "WORKLOADS",
    "WORKLOAD_NAMES",
    "get_workload",
    "build_multithreaded",
    "build_multiprogrammed",
]
