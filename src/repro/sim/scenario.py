"""The :class:`Scenario` — one immutable description of an experiment.

Historically ``simulate`` / ``compare`` / ``run_suite`` each grew their
own drifting keyword-argument lists (cores, accesses, seed, superpages,
smt, storm, shootdown, ...).  A ``Scenario`` collapses all of them into
one frozen, hashable value: a configuration lineup, one or more workload
specs, and every knob that influences the simulated outcome.  Because a
Scenario is pure data it can be decomposed into independent
:class:`RunUnit`\\ s — the (config, workload, seed) grains that
``repro.exec.Runner`` fans out over worker processes and keys its
content-addressed result cache on.

Determinism contract: a ``RunUnit`` fully determines its
:class:`~repro.sim.results.RunResult`.  Workload generation is seeded,
the engine is deterministic, and no unit depends on any other — which is
what makes both parallel execution and caching bit-identical to the
serial path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterable, Optional, Tuple, Union

from repro.faults.models import FaultPlan, FaultSpec, derive_seed
from repro.sim import configs as cfg
from repro.sim.engine import (
    DEFAULT_QUANTUM,
    ShootdownTraffic,
    StormConfig,
    simulate,
)
from repro.workloads.registry import get_workload
from repro.workloads.spec import WorkloadSpec
from repro.workloads.trace import Workload

ConfigsLike = Union[cfg.SystemConfig, Iterable[cfg.SystemConfig]]
WorkloadsLike = Union[str, WorkloadSpec, Iterable[Union[str, WorkloadSpec]]]


def _coerce_configs(value: ConfigsLike) -> Tuple[cfg.SystemConfig, ...]:
    if isinstance(value, cfg.SystemConfig):
        return (value,)
    return tuple(value)


def _coerce_workloads(value: WorkloadsLike) -> Tuple[WorkloadSpec, ...]:
    if isinstance(value, (str, WorkloadSpec)):
        value = (value,)
    out = []
    for item in value:
        out.append(get_workload(item) if isinstance(item, str) else item)
    return tuple(out)


@dataclass(frozen=True)
class RunUnit:
    """One independent simulation: a single (config, workload, seed).

    The atomic grain of execution and caching.  Everything that can
    change the simulated outcome is a field here; nothing else is.
    """

    config: cfg.SystemConfig
    workload: WorkloadSpec
    accesses_per_core: int
    seed: int
    superpages: bool = True
    smt: int = 1
    storm: Optional[StormConfig] = None
    shootdown: Optional[ShootdownTraffic] = None
    record_intervals: bool = False
    quantum: int = DEFAULT_QUANTUM
    #: Observability flags (appended last: positional compatibility).
    #: Pure observation — they change what a RunResult *carries*, not
    #: what it measures — but they are cache-key fields so observed and
    #: unobserved results never alias in the result cache.
    metrics: bool = False
    trace: bool = False
    #: Fault injection (appended after the observability flags, same
    #: positional-compatibility discipline).  A FaultSpec is compiled
    #: against a "faults"-labelled sub-seed of this unit's seed at
    #: execute() time; a FaultPlan is injected as-is.  Either way the
    #: field is frozen data, so faulty and fault-free results never
    #: alias in the result cache.
    faults: Optional[Union[FaultSpec, FaultPlan]] = None

    def fault_plan(self) -> Optional[FaultPlan]:
        """The concrete plan this unit injects (compiling a spec)."""
        if isinstance(self.faults, FaultSpec):
            return self.faults.compile(
                self.config.num_cores, derive_seed(self.seed, "faults")
            )
        return self.faults

    def build_signature(self) -> Tuple:
        """The fields that fully determine this unit's built workload.

        Strictly narrower than the cache key: configurations that differ
        only in scheme/interconnect share a signature, which is what
        lets the trace store dedupe a whole lineup into one build.
        """
        return (
            self.workload,
            self.config.num_cores,
            self.accesses_per_core,
            self.seed,
            self.superpages,
            self.smt,
        )

    def build_workload(self) -> Workload:
        return _build_workload(*self.build_signature())

    # What ``repro.exec.Runner`` asks of every kind of unit:

    @property
    def trace_length(self) -> int:
        """Trace records per core: the cost model's length weight."""
        return self.accesses_per_core * self.smt

    def cache_identity(self) -> "RunUnit":
        """What the result cache hashes: every field of the unit."""
        return self

    def stage(self, store) -> Tuple[str, bool]:
        """Materialize the trace in a TraceStore; ``(path, built)``."""
        return store.ensure(self.build_signature())

    def detached(self) -> "RunUnit":
        """The unit without records (a spec carries none: itself)."""
        return self

    def execute(self):
        """Build the workload and simulate it.  Deterministic."""
        return simulate_unit(self, self.build_workload())


def simulate_unit(
    unit, workload: Workload, watchdog_cycles: Optional[int] = None
):
    """Simulate ``workload`` with ``unit``'s configuration and run knobs.

    The one mapping of any unit onto :func:`~repro.sim.engine.simulate`:
    ``RunUnit.execute``, the Runner's pool worker and
    ``simulate(scenario, watchdog_cycles=...)`` all call it.
    """
    return simulate(
        unit.config,
        workload,
        quantum=unit.quantum,
        storm=unit.storm,
        shootdown=unit.shootdown,
        record_intervals=unit.record_intervals,
        metrics=unit.metrics,
        trace=unit.trace,
        faults=unit.fault_plan(),
        watchdog_cycles=watchdog_cycles,
    )


@lru_cache(maxsize=8)
def _build_workload(
    spec: WorkloadSpec,
    num_cores: int,
    accesses_per_core: int,
    seed: int,
    superpages: bool,
    smt: int,
) -> Workload:
    """Memoised deterministic workload build.

    The lineup of one scenario replays the same trace through many
    configurations; the cache keeps the serial path from regenerating
    it per configuration (and keeps each pool worker from regenerating
    it per unit it is handed).
    """
    from repro.workloads.generators import build_multithreaded

    return build_multithreaded(
        spec,
        num_cores,
        accesses_per_core=accesses_per_core,
        seed=seed,
        superpages=superpages,
        smt=smt,
    )


@dataclass(frozen=True)
class Scenario:
    """Immutable description of one experiment (lineup x workloads).

    ``configurations`` accepts a single :class:`SystemConfig` or an
    iterable; ``workloads`` accepts registry names, specs, or an
    iterable of either.  The core count is derived from the lineup —
    every configuration must agree on it.
    """

    configurations: Tuple[cfg.SystemConfig, ...]
    workloads: Tuple[WorkloadSpec, ...]
    accesses_per_core: int = 12_000
    seed: int = 1
    superpages: bool = True
    smt: int = 1
    baseline_name: str = "private"
    storm: Optional[StormConfig] = None
    shootdown: Optional[ShootdownTraffic] = None
    record_intervals: bool = False
    quantum: int = DEFAULT_QUANTUM
    #: Observability flags, mirrored onto every RunUnit.
    metrics: bool = False
    trace: bool = False
    #: Fault injection, mirrored onto every RunUnit (spec or plan).
    faults: Optional[Union[FaultSpec, FaultPlan]] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "configurations", _coerce_configs(self.configurations)
        )
        object.__setattr__(self, "workloads", _coerce_workloads(self.workloads))
        if not self.configurations:
            raise ValueError("a scenario needs at least one configuration")
        if not self.workloads:
            raise ValueError("a scenario needs at least one workload")
        cores = {c.num_cores for c in self.configurations}
        if len(cores) != 1:
            raise ValueError(
                f"configurations disagree on core count: {sorted(cores)}"
            )
        names = [c.name for c in self.configurations]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate configuration names in lineup: {names}")
        if self.accesses_per_core <= 0:
            raise ValueError(
                "accesses_per_core must be positive "
                f"(got {self.accesses_per_core})"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0 (got {self.seed})")
        if self.smt < 1:
            raise ValueError("smt must be >= 1")
        if self.quantum < 1:
            raise ValueError("quantum must be >= 1 cycle")

    @property
    def num_cores(self) -> int:
        return self.configurations[0].num_cores

    @property
    def workload_names(self) -> Tuple[str, ...]:
        return tuple(spec.name for spec in self.workloads)

    def unit(
        self, config: cfg.SystemConfig, workload: WorkloadSpec
    ) -> RunUnit:
        return RunUnit(
            config=config,
            workload=workload,
            accesses_per_core=self.accesses_per_core,
            seed=self.seed,
            superpages=self.superpages,
            smt=self.smt,
            storm=self.storm,
            shootdown=self.shootdown,
            record_intervals=self.record_intervals,
            quantum=self.quantum,
            metrics=self.metrics,
            trace=self.trace,
            faults=self.faults,
        )

    def units(self) -> Tuple[RunUnit, ...]:
        """Workload-major decomposition into independent run units."""
        return tuple(
            self.unit(config, workload)
            for workload in self.workloads
            for config in self.configurations
        )

    def for_workload(self, workload: Union[str, WorkloadSpec]) -> "Scenario":
        """Narrow to a single workload (e.g. for ``compare``)."""
        return replace(self, workloads=_coerce_workloads(workload))
