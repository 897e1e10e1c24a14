"""High-level run harness: suites, comparisons, speedups.

Everything the benches need: run a workload lineup and report speedups
versus the private-L2 baseline — the paper's metric throughout §V.

:func:`compare` and :func:`run_suite` take a
:class:`~repro.sim.scenario.Scenario`; execution goes through
:class:`repro.exec.Runner`, which adds process-pool parallelism
(``jobs``) and content-addressed result caching (``cache_dir``).
Built traces and multiprogrammed mixes go straight to
``Runner.run_prebuilt``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.sim.results import RunResult
from repro.sim.scenario import Scenario


@dataclass
class Comparison:
    """Results of one workload across several configurations."""

    workload_name: str
    results: Dict[str, RunResult]
    baseline_name: str = "private"

    @property
    def baseline(self) -> RunResult:
        return self.results[self.baseline_name]

    def speedup(self, config_name: str) -> float:
        return self.results[config_name].speedup_over(self.baseline)

    def speedups(self) -> Dict[str, float]:
        return {
            name: result.speedup_over(self.baseline)
            for name, result in self.results.items()
            if name != self.baseline_name
        }

    def fault_summaries(self) -> Dict[str, Dict[str, int]]:
        """Per-config fault degradation counters; empty when the
        comparison ran fault-free."""
        return {
            name: result.faults
            for name, result in self.results.items()
            if getattr(result, "faults", None)
        }

    def misses_eliminated_pct(self, config_name: str) -> float:
        """Fig 2's metric: % of private L2 misses the shared TLB removes."""
        private_misses = self.baseline.stats.l2_misses
        shared_misses = self.results[config_name].stats.l2_misses
        if private_misses == 0:
            return 0.0
        return 100.0 * (1.0 - shared_misses / private_misses)


def _runner(scenario, jobs, cache_dir, use_cache, telemetry_path, runner,
            trace_store):
    if not isinstance(scenario, Scenario):
        raise TypeError(
            f"expected a Scenario, got {type(scenario).__name__}; run built "
            "workloads with repro.exec.Runner.run_prebuilt(workload, configs)"
        )
    if runner is not None:
        return runner
    from repro.exec.runner import Runner

    return Runner(
        jobs=jobs,
        cache_dir=cache_dir,
        use_cache=use_cache,
        telemetry_path=telemetry_path,
        trace_store=trace_store,
    )


def compare(
    scenario: Scenario,
    *,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
    telemetry_path: Optional[str] = None,
    runner=None,
    trace_store=None,
) -> Comparison:
    """Run a single-workload :class:`Scenario` through its lineup.

    The scenario's own baseline/storm/shootdown fields apply and
    execution goes through :class:`repro.exec.Runner` (``runner`` or
    one built from the keyword knobs).
    """
    return _runner(
        scenario, jobs, cache_dir, use_cache, telemetry_path, runner,
        trace_store,
    ).run_one(scenario)


def run_suite(
    scenario: Scenario,
    *,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
    telemetry_path: Optional[str] = None,
    runner=None,
    trace_store=None,
) -> Dict[str, Comparison]:
    """The paper's standard sweep: every workload of a :class:`Scenario`
    through its lineup.

    ``jobs``/``cache_dir`` select parallel execution and result
    caching (see :class:`repro.exec.Runner`).
    """
    return _runner(
        scenario, jobs, cache_dir, use_cache, telemetry_path, runner,
        trace_store,
    ).run(scenario)


@dataclass(frozen=True)
class SpeedupSummary:
    """Min / average / max speedups across a suite (Table III rows)."""

    config_name: str
    minimum: float
    average: float
    maximum: float


def summarize_speedups(
    comparisons: Dict[str, Comparison], config_name: str
) -> SpeedupSummary:
    speedups = [c.speedup(config_name) for c in comparisons.values()]
    return SpeedupSummary(
        config_name=config_name,
        minimum=min(speedups),
        average=sum(speedups) / len(speedups),
        maximum=max(speedups),
    )
