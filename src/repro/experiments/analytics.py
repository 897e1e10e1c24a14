"""Analytics — reduce raw campaign results into tidy tables + metrics.

Each campaign names a *reducer*: a function that turns the executor's
raw per-point :class:`~repro.sim.run.Comparison` map into

* **tables** — named lists of flat row dicts (tidy data: one
  observation per row), written as ``campaigns/<name>/<table>.csv``;
* **summary** — a flat ``metric -> float`` dict of the campaign's
  headline numbers, written as ``summary.json`` and fed to the drift
  gate.

Everything here is deterministic: rows are emitted in grid order,
floats are formatted with a fixed ``%.10g`` rule, and JSON keys are
sorted — so CSV/JSON artifacts are byte-identical whenever the
underlying results are (which the Runner guarantees across jobs=1/N
and cache replay).

Plotting is an optional extra: ``matplotlib`` renders one PNG per
campaign when importable, and its absence degrades to CSV-only with a
single warning (install with ``pip install repro[plot]``).
"""

from __future__ import annotations

import csv
import json
import os
import warnings
from typing import Callable, Dict, List, Tuple

from repro.energy.model import percent_energy_saved
from repro.noc.tradeoffs import evaluate_designs
from repro.sim.run import Comparison

from repro.experiments.spec import CampaignSpec, Scale
from repro.tlb.opt import OPT, geometry, offline_policy_eval, pct_of_opt
from repro.workloads.generators import build_multithreaded
from repro.workloads.registry import get_workload

#: Raw results keyed by grid coordinates: (cores, seed, workload).
Comparisons = Dict[Tuple[int, int, str], Comparison]
#: Named tidy tables: table name -> list of flat row dicts.
Tables = Dict[str, List[Dict[str, object]]]
#: Headline metrics: flat dotted names -> values (the drift surface).
Summary = Dict[str, float]

Reducer = Callable[[CampaignSpec, str, Scale, Comparisons],
                   Tuple[Tables, Summary]]

#: Artifact layout version written into every summary.json.
ARTIFACT_SCHEMA = 1

_REDUCERS: Dict[str, Reducer] = {}


def register_reducer(name: str):
    """Register an analytics reducer under a unique name."""

    def _register(fn: Reducer) -> Reducer:
        if name in _REDUCERS:
            raise ValueError(f"reducer {name!r} is already registered")
        _REDUCERS[name] = fn
        return fn

    return _register


def reduce_campaign(
    spec: CampaignSpec,
    scale_name: str,
    scale: Scale,
    comparisons: Comparisons,
) -> Tuple[Tables, Summary]:
    """Run the campaign's reducer (default: its own name)."""
    name = spec.reducer or spec.name
    try:
        reducer = _REDUCERS[name]
    except KeyError:
        known = ", ".join(sorted(_REDUCERS))
        raise KeyError(f"no reducer {name!r}; known: {known}") from None
    return reducer(spec, scale_name, scale, comparisons)


def _mean(values: List[float]) -> float:
    return sum(values) / len(values)


# The spec's grid() takes a scale *name*; reducers already hold the
# Scale value, so iterate the product directly (same order as grid()).
def _points(spec: CampaignSpec, scale: Scale, comparisons: Comparisons):
    for cores in scale.core_counts:
        for seed in spec.seeds():
            for workload in scale.workloads:
                yield cores, seed, workload, comparisons[
                    (cores, seed, workload)
                ]


# ----------------------------------------------------------------------
# reducers


@register_reducer("fig2")
def _reduce_fig2(spec, scale_name, scale, comparisons):
    """Fig 2: % of private L2 misses the distributed shared TLB removes."""
    rows = []
    by_cores: Dict[int, List[float]] = {}
    for cores, seed, workload, lineup in _points(spec, scale, comparisons):
        pct = lineup.misses_eliminated_pct("distributed")
        rows.append(
            {"cores": cores, "seed": seed, "workload": workload,
             "eliminated_pct": pct}
        )
        by_cores.setdefault(cores, []).append(pct)
    summary = {
        f"elim_avg.c{cores}": _mean(values)
        for cores, values in sorted(by_cores.items())
    }
    summary["elim_min"] = min(row["eliminated_pct"] for row in rows)
    return {"miss_elimination": rows}, summary


@register_reducer("speedup")
def _reduce_speedup(spec, scale_name, scale, comparisons):
    """Figs 12/13: per-workload speedups over the private baseline."""
    rows = []
    by_config: Dict[str, List[float]] = {}
    for cores, seed, workload, lineup in _points(spec, scale, comparisons):
        for config, speedup in lineup.speedups().items():
            rows.append(
                {"cores": cores, "seed": seed, "workload": workload,
                 "config": config, "speedup": speedup}
            )
            by_config.setdefault(config, []).append(speedup)
    summary = {
        f"speedup_avg.{config}": _mean(values)
        for config, values in sorted(by_config.items())
    }
    summary["speedup_max.nocstar"] = max(by_config["nocstar"])
    if "ideal" in by_config:
        summary["ideal_fraction.nocstar"] = (
            summary["speedup_avg.nocstar"] / summary["speedup_avg.ideal"]
        )
    return {"speedups": rows}, summary


@register_reducer("fig14")
def _reduce_fig14(spec, scale_name, scale, comparisons):
    """Fig 14: speedup scalability + % translation energy saved."""
    rows = []
    speed: Dict[Tuple[int, str], List[float]] = {}
    saved: Dict[Tuple[int, str], List[float]] = {}
    for cores, seed, workload, lineup in _points(spec, scale, comparisons):
        base_pj = lineup.baseline.total_energy_pj
        for config, speedup in lineup.speedups().items():
            pct = percent_energy_saved(
                base_pj, lineup.results[config].total_energy_pj
            )
            rows.append(
                {"cores": cores, "seed": seed, "workload": workload,
                 "config": config, "speedup": speedup,
                 "energy_saved_pct": pct}
            )
            speed.setdefault((cores, config), []).append(speedup)
            saved.setdefault((cores, config), []).append(pct)
    summary: Summary = {}
    for (cores, config), values in sorted(speed.items()):
        summary[f"speedup_avg.c{cores}.{config}"] = _mean(values)
        summary[f"speedup_min.c{cores}.{config}"] = min(values)
        summary[f"speedup_max.c{cores}.{config}"] = max(values)
    for (cores, config), values in sorted(saved.items()):
        summary[f"energy_saved_avg.c{cores}.{config}"] = _mean(values)
    return {"scalability_energy": rows}, summary


@register_reducer("fig15")
def _reduce_fig15(spec, scale_name, scale, comparisons):
    """Fig 15: interconnect breakdown + NOCSTAR setup-retry levels."""
    rows = []
    retry_rows = []
    by_config: Dict[str, List[float]] = {}
    retries: List[float] = []
    for cores, seed, workload, lineup in _points(spec, scale, comparisons):
        for config, speedup in lineup.speedups().items():
            rows.append(
                {"cores": cores, "seed": seed, "workload": workload,
                 "config": config, "speedup": speedup}
            )
            by_config.setdefault(config, []).append(speedup)
        mean_retries = lineup.results["nocstar"].network[
            "mean_setup_retries"
        ]
        retries.append(mean_retries)
        retry_rows.append(
            {"cores": cores, "seed": seed, "workload": workload,
             "mean_setup_retries": mean_retries}
        )
    summary = {
        f"speedup_avg.{config}": _mean(values)
        for config, values in sorted(by_config.items())
    }
    summary["setup_retries.max"] = max(retries)
    summary["ideal_fraction.nocstar"] = (
        summary["speedup_avg.nocstar"] / summary["speedup_avg.ideal"]
    )
    return {"speedups": rows, "setup_retries": retry_rows}, summary


@register_reducer("policy_zoo")
def _reduce_policy_zoo(spec, scale_name, scale, comparisons):
    """Policy zoo: speedup + %-of-OPT per config x workload.

    Rebuilds each grid point's workload (same generator inputs the
    executor used, so the trace is identical) and replays it offline
    through :mod:`repro.tlb.opt` against each configuration's built
    L2.  One offline evaluation covers every policy plus the Belady
    bound, and is memoised per (grid point, geometry of the built L2):
    lineup members sharing a geometry — e.g. every ``distributed-*``
    policy variant — pay for it once.
    """
    rows = []
    speed: Dict[str, List[float]] = {}
    pct: Dict[str, List[float]] = {}
    workload_cache: Dict[Tuple[int, int, str], object] = {}
    eval_cache: Dict[Tuple[int, int, str, Tuple], Dict] = {}
    for cores, seed, workload, lineup in _points(spec, scale, comparisons):
        wl_key = (cores, seed, workload)
        built = workload_cache.get(wl_key)
        if built is None:
            built = build_multithreaded(
                get_workload(workload), cores, scale.accesses_per_core,
                seed=seed, superpages=spec.superpages,
            )
            workload_cache[wl_key] = built
        configs = {config.name: config for config in spec.lineup(cores)}
        for name in sorted(lineup.results):
            result = lineup.results[name]
            config = configs[name]
            geo_key = wl_key + (geometry(config.l2_structures()),)
            evals = eval_cache.get(geo_key)
            if evals is None:
                evals = offline_policy_eval(built, config)
                eval_cache[geo_key] = evals
            stats = result.stats
            l2_accesses = stats.l2_hits + stats.l2_misses
            speedup = (
                1.0 if name == lineup.baseline_name
                else lineup.speedup(name)
            )
            of_opt = pct_of_opt(evals, config.policy)
            rows.append(
                {"cores": cores, "seed": seed, "workload": workload,
                 "config": name, "policy": config.policy,
                 "arbitration": config.arbitration,
                 "cycles": result.cycles, "speedup": speedup,
                 "sim_l2_hit_rate": (
                     stats.l2_hits / l2_accesses if l2_accesses else 0.0
                 ),
                 "offline_hit_rate": evals[config.policy].hit_rate,
                 "opt_hit_rate": evals[OPT].hit_rate,
                 "pct_of_opt": of_opt}
            )
            speed.setdefault(name, []).append(speedup)
            pct.setdefault(name, []).append(of_opt)
    summary: Summary = {}
    for name, values in sorted(speed.items()):
        summary[f"speedup_avg.{name}"] = _mean(values)
    for name, values in sorted(pct.items()):
        summary[f"pct_of_opt_avg.{name}"] = _mean(values)
    summary["pct_of_opt_min"] = min(
        row["pct_of_opt"] for row in rows
    )
    return {"policy_zoo": rows}, summary


@register_reducer("table1")
def _reduce_table1(spec, scale_name, scale, comparisons):
    """Table I: quantified design-choice metrics (no simulation)."""
    tiles = scale.core_counts[0]
    rows = []
    summary: Summary = {}
    for row in evaluate_designs(tiles):
        rows.append(
            {
                "noc": row.name,
                "latency_glyph": row.glyphs["latency"],
                "bandwidth_glyph": row.glyphs["bandwidth"],
                "area_glyph": row.glyphs["area"],
                "power_glyph": row.glyphs["power"],
                "latency_cycles": row.latency_cycles,
                "bandwidth_transfers": row.bandwidth_transfers,
                "area_units": row.area_units,
                "power_units": row.power_units,
            }
        )
        summary[f"latency_cycles.{row.name}"] = row.latency_cycles
        summary[f"bandwidth.{row.name}"] = row.bandwidth_transfers
    return {"design_choices": rows}, summary


# ----------------------------------------------------------------------
# artifact writing


def _format_cell(value: object) -> str:
    """Deterministic CSV cell formatting (the byte-identity contract).

    Floats use ``%.10g`` — enough digits that distinct doubles from
    the deterministic engine render distinctly, few enough that the
    format is stable and diff-friendly.
    """
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def write_table_csv(path: str, rows: List[Dict[str, object]]) -> str:
    """Write one tidy table; column order follows the first row."""
    if not rows:
        raise ValueError(f"refusing to write an empty table to {path!r}")
    fieldnames = list(rows[0].keys())
    for row in rows:
        if list(row.keys()) != fieldnames:
            raise ValueError(
                f"ragged table rows for {path!r}: {list(row.keys())} "
                f"vs {fieldnames}"
            )
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_format_cell(row[name]) for name in fieldnames])
    return path


_PLOT_WARNED = False


def _plot_summary(title: str, summary: Summary, path: str) -> bool:
    """Render the summary metrics as one horizontal bar chart.

    Returns ``False`` (after a single process-wide warning) when
    matplotlib is unavailable — the CSV-only degradation path.
    """
    global _PLOT_WARNED
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        if not _PLOT_WARNED:
            _PLOT_WARNED = True
            warnings.warn(
                "matplotlib is not installed; campaign plots are "
                "skipped (CSV/JSON artifacts are still written). "
                "Install the optional extra with `pip install "
                "repro[plot]`.",
                stacklevel=2,
            )
        return False
    names = sorted(summary)
    values = [summary[name] for name in names]
    height = max(2.0, 0.35 * len(names) + 1.0)
    fig, ax = plt.subplots(figsize=(8.0, height))
    ax.barh(range(len(names)), values)
    ax.set_yticks(range(len(names)))
    ax.set_yticklabels(names, fontsize=7)
    ax.invert_yaxis()
    ax.set_title(title, fontsize=9)
    fig.tight_layout()
    fig.savefig(path, dpi=120)
    plt.close(fig)
    return True


def write_artifacts(run, out_dir: str, plot: bool = True) -> List[str]:
    """Write one campaign run's artifact tree; returns written paths.

    Layout (all under ``<out_dir>/<campaign>/``):

    * ``<table>.csv``   — one per tidy table, deterministic bytes;
    * ``summary.json``  — schema/campaign/scale/figure + the summary
      metrics (sorted keys; the drift gate's input);
    * ``summary.png``   — optional matplotlib bar chart of the summary.
    """
    directory = os.path.join(out_dir, run.spec.name)
    os.makedirs(directory, exist_ok=True)
    written = []
    for table_name, rows in run.tables.items():
        written.append(
            write_table_csv(
                os.path.join(directory, f"{table_name}.csv"), rows
            )
        )
    payload = {
        "schema": ARTIFACT_SCHEMA,
        "campaign": run.spec.name,
        "figure": run.spec.figure,
        "scale": run.scale_name,
        "grid_size": run.spec.grid_size(run.scale_name),
        "summary": run.summary,
    }
    summary_path = os.path.join(directory, "summary.json")
    with open(summary_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(summary_path)
    if plot:
        png_path = os.path.join(directory, "summary.png")
        if _plot_summary(
            f"{run.spec.figure} — {run.spec.title} [{run.scale_name}]",
            run.summary,
            png_path,
        ):
            written.append(png_path)
    return written


def read_summary(out_dir: str, campaign: str) -> Dict[str, object]:
    """Load a previously written ``summary.json`` (``repro experiments
    check`` without re-running)."""
    path = os.path.join(out_dir, campaign, "summary.json")
    with open(path) as fh:
        return json.load(fh)
