"""Campaign executor — expand a spec and fan it through the Runner.

``run_campaign`` is the one way a campaign turns into results: the
spec's scenarios go through :class:`repro.exec.Runner` (process-pool
fan-out, content-addressed result cache, build-once trace store), the
raw per-point Comparisons are reduced by the campaign's analytics
reducer, and the whole thing comes back as a :class:`CampaignRun`.

Because execution rides the existing Runner stack, campaigns inherit
its contracts wholesale: warm-cache re-runs skip simulation entirely,
and results — hence CSV artifacts — are byte-identical across
``jobs=1``/``jobs=N`` and cache replay.

Observability: pass a :class:`~repro.obs.spans.Tracer` to record a
``campaign.run`` span with one ``campaign.scenario`` child per grid
lineup (the Runner adds its own ``runner.execute``/``unit.*`` spans to
the same trace), and a :class:`~repro.obs.MetricsRegistry` to count
``experiments.*`` scenarios/units/cache traffic.  Both are pure
telemetry — they never touch results or cache keys.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, Optional, Union

from repro.exec.runner import Runner
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Tracer
from repro.sim.run import Comparison

from repro.experiments.analytics import (
    Summary,
    Tables,
    reduce_campaign,
    write_artifacts,
)
from repro.experiments.registry import get_campaign
from repro.experiments.spec import GRID, META, CampaignSpec, Scale


@dataclass
class CampaignRun:
    """One executed campaign: raw results, tidy tables, and metrics."""

    spec: CampaignSpec
    scale_name: str
    scale: Scale
    #: Raw per-point results keyed by (cores, seed, workload); empty
    #: for analytic campaigns.
    comparisons: Dict[tuple, Comparison]
    tables: Tables
    summary: Summary
    #: Execution counters: scenarios, units, cache hits/misses.
    stats: Dict[str, int] = field(default_factory=dict)

    def write(self, out_dir: str, plot: bool = True):
        """Write the artifact tree (see analytics.write_artifacts)."""
        return write_artifacts(self, out_dir, plot=plot)


def run_campaign(
    campaign: Union[str, CampaignSpec],
    scale: str = "reduced",
    runner: Optional[Runner] = None,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> CampaignRun:
    """Execute one concrete campaign at the named scale.

    ``campaign`` is a registered name or a spec value (metas must be
    expanded first — see :func:`repro.experiments.expand_campaigns`).
    ``runner`` defaults to a serial, cache-less Runner; pass a
    configured one to get fan-out, result caching, and the trace
    store.
    """
    spec = get_campaign(campaign) if isinstance(campaign, str) else campaign
    if spec.kind == META:
        raise ValueError(
            f"meta campaign {spec.name!r} cannot run directly; expand it "
            "with expand_campaigns() first"
        )
    scale_value = spec.scale(scale)
    if tracer is None:
        return _run(spec, scale, scale_value, runner, None, metrics)
    with tracer.span(
        "campaign.run",
        campaign=spec.name,
        scale=scale,
        grid=spec.grid_size(scale),
    ) as span:
        return _run(spec, scale, scale_value, runner, (tracer, span), metrics)


def _run(spec, scale_name, scale, runner, tracing, metrics):
    stats = {"scenarios": 0, "units": 0, "cache_hits": 0, "cache_misses": 0}
    comparisons: Dict[tuple, Comparison] = {}
    if spec.kind == GRID:
        if runner is None:
            runner = Runner(jobs=1, cache_dir=None)
        if tracing is not None and runner.tracer is None:
            runner.tracer = tracing[0]
        for scenario in spec.scenarios(scale_name):
            span = nullcontext()
            if tracing is not None:
                span = tracing[0].span(
                    "campaign.scenario",
                    parent=tracing[1],
                    campaign=spec.name,
                    cores=scenario.num_cores,
                    seed=scenario.seed,
                )
            with span:
                per_workload = runner.run(scenario)
            stats["scenarios"] += 1
            stats["units"] += len(scenario.units())
            stats["cache_hits"] += runner.stats["hits"]
            stats["cache_misses"] += runner.stats["misses"]
            for workload_name, comparison in per_workload.items():
                comparisons[
                    (scenario.num_cores, scenario.seed, workload_name)
                ] = comparison
    if metrics is not None:
        for key, value in stats.items():
            metrics.counter(f"experiments.{spec.name}.{key}").inc(value)
    tables, summary = reduce_campaign(spec, scale_name, scale, comparisons)
    return CampaignRun(
        spec=spec,
        scale_name=scale_name,
        scale=scale,
        comparisons=comparisons,
        tables=tables,
        summary=summary,
        stats=stats,
    )
