"""System simulator: configs, engine, machine model, run harness.

The run-harness entry points (``simulate`` from :mod:`repro.sim.engine`,
``compare`` / ``run_suite`` from :mod:`repro.sim.run`) are exported by
the :mod:`repro.api` facade, not at this package level::

    from repro import api

    api.compare(scenario)
"""

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
)
from repro.sim.results import RunResult, geometric_mean
from repro.sim.run import (
    Comparison,
    SpeedupSummary,
    summarize_speedups,
)
from repro.sim.scenario import RunUnit, Scenario
from repro.sim.system import System

__all__ = [
    "SystemConfig",
    "available_configs",
    "build_config",
    "distributed",
    "ideal",
    "monolithic",
    "nocstar",
    "nocstar_ideal",
    "paper_lineup",
    "private",
    "register_config",
    "ENGINE_VERSION",
    "ShootdownTraffic",
    "StormConfig",
    "RunResult",
    "geometric_mean",
    "Comparison",
    "SpeedupSummary",
    "summarize_speedups",
    "RunUnit",
    "Scenario",
    "System",
]
