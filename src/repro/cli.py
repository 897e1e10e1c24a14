"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run``        — simulate one workload across configurations and
  print the speedup table (the quickstart, parameterised);
* ``sweep``      — the paper's standard per-workload sweep at one core
  count (a Fig 12/13-style table);
* ``workloads``  — list the calibrated workload suite;
* ``traffic``    — cycle-accurate synthetic-traffic sweep (Fig 11c);
* ``configs``    — show the Table II configuration lineup;
* ``export-trace`` — write a synthetic workload to a portable ``.npz``
  trace that ``run --trace-in`` (or external tools) can consume;
* ``report``     — render latency percentiles, per-link NoC
  utilization, and hottest-slice tables from obs/telemetry JSONL files
  (produce them with ``run``/``sweep`` ``--metrics --trace-out``);
* ``faults``     — fault-injection degradation sweep: simulate one
  configuration under increasing fault rates (failed links, transient
  arbiter drops, dead slices) and print the speedup-vs-fault-rate
  curve with drop/fallback/degradation counters;
* ``cache``      — inspect (``stats``), wipe (``clear``), or shrink
  (``evict --max-bytes N`` / ``--max-age-s N``) the content-addressed
  result cache and the materialized trace-artifact store;
* ``experiments`` — declarative paper-figure campaigns
  (:mod:`repro.experiments`): ``list`` the registry, ``run`` campaigns
  into ``campaigns/<name>/`` CSV (+ optional matplotlib plot)
  artifacts with ``--check`` gating the summary metrics against pinned
  references, ``check`` previously written artifacts without
  re-simulating, and ``pin`` to refresh the reference numbers after an
  intentional model change;
* ``trace``      — render a span-tree JSONL sidecar (``--span-out``)
  as an indented tree with per-layer latency attribution and a
  critical-path table.

Note on flag names: ``run --trace-in PATH`` *loads* an ``.npz`` input
trace; the event-trace *output* flag is ``--trace-out`` on every
command that can observe a run.

Shared flag groups are defined once as argparse *parent parsers*
(:func:`_runner_parent`, :func:`_fault_parent`, :func:`_obs_parent`,
:func:`_scenario_parent`) so ``run``/``sweep``/``faults`` cannot drift
apart in spelling, defaults, or help text.

``run`` and ``sweep`` execute through :class:`repro.exec.Runner`:
``--jobs N`` fans independent simulations out over a process pool, and
results are memoised in a content-addressed cache under ``--cache-dir``
(default ``.repro-cache``; ``--no-cache`` disables it) so warm re-runs
skip simulation entirely.  Trace builds are likewise memoised: each
build signature's records are materialized once as a packed artifact
under ``--trace-store`` (default ``<cache-dir>/traces``) and attached
zero-copy by workers; ``--no-trace-store`` reverts to per-run builds.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import replace
from typing import Iterator, List, Optional, Sequence

from repro.analysis.tables import render_table
from repro.exec.runner import Runner
from repro.faults.models import (
    ArbiterDrop,
    FaultSpec,
    LinkFailure,
    SliceFailure,
    WalkerSlowdown,
)
from repro.obs import load_obs_records, render_report, write_obs_jsonl
from repro.obs.spans import Tracer, load_spans, render_tree
from repro.noc.synthetic import (
    check_traffic_inputs,
    run_mesh_traffic,
    run_nocstar_traffic,
)
from repro.noc.topology import MeshTopology
from repro.sim import configs as cfg
from repro.sim.scenario import Scenario
from repro.workloads.generators import build_multithreaded
from repro.workloads.io import load_workload, save_workload
from repro.workloads.registry import WORKLOAD_NAMES, WORKLOADS, get_workload

#: Default content-addressed cache location (overridable per-invocation
#: with --cache-dir and globally with $REPRO_CACHE_DIR).
DEFAULT_CACHE_DIR = os.environ.get("REPRO_CACHE_DIR", ".repro-cache")


@contextmanager
def _user_input() -> Iterator[None]:
    """Exit with one line when a command's inputs are rejected.

    ``SystemConfig``, ``Scenario``, the fault specs, the workload
    registry and generator, the mesh topology and the traffic-sweep
    checks reject a bad value with ``ValueError`` or ``KeyError`` while
    a command builds its inputs.  Errors raised later, inside a
    simulation, keep their traceback: only input construction runs in
    this block.
    """
    try:
        yield
    except (KeyError, ValueError) as exc:
        # args[0]: str() of a KeyError would quote its message.
        raise SystemExit(str(exc.args[0] if exc.args else exc)) from None


def _build_configs(
    names: Sequence[str], cores: int, policy: Optional[str] = None
) -> List[cfg.SystemConfig]:
    overrides = {} if policy is None else {"policy": policy}
    with _user_input():
        return [cfg.build_config(name, cores, **overrides) for name in names]


def _policy_overrides(args: argparse.Namespace) -> dict:
    """Lineup-wide overrides implied by ``--policy`` (empty = default)."""
    policy = getattr(args, "policy", None)
    return {} if policy is None else {"policy": policy}


def _trace_store_from(args: argparse.Namespace) -> Optional[str]:
    """The trace-store directory implied by the runner flags.

    An explicit ``--trace-store PATH`` always wins (even under
    ``--no-cache``: trace artifacts are inputs, not memoised results).
    Otherwise the store lives at ``<cache-dir>/traces`` and follows the
    cache switches; ``--no-trace-store`` disables it outright.
    """
    if getattr(args, "no_trace_store", False):
        return None
    explicit = getattr(args, "trace_store", "")
    if explicit:
        return explicit
    if args.no_cache:
        return None
    return os.path.join(args.cache_dir, "traces")


def _tracer_from(args: argparse.Namespace) -> Optional[Tracer]:
    """A Tracer when --span-out asks for a span sidecar, else None."""
    return Tracer() if getattr(args, "span_out", "") else None


def _export_spans(args: argparse.Namespace, tracer: Optional[Tracer]) -> None:
    if tracer is None or not getattr(args, "span_out", ""):
        return
    count = tracer.export_jsonl(args.span_out)
    print(
        f"[spans] wrote {count} span(s) to {args.span_out}",
        file=sys.stderr,
    )


def _runner_from(
    args: argparse.Namespace, tracer: Optional[Tracer] = None
) -> Runner:
    if args.jobs < 1:
        raise SystemExit(f"--jobs must be >= 1 (got {args.jobs})")
    return Runner(
        jobs=args.jobs,
        cache_dir=None if args.no_cache else args.cache_dir,
        use_cache=not args.no_cache,
        trace_store=_trace_store_from(args),
        tracer=tracer,
    )


def _report_cache(runner: Runner) -> None:
    if runner.cache is not None:
        print(
            f"[cache] {runner.stats['hits']} hit(s), "
            f"{runner.stats['misses']} miss(es) in {runner.cache.root}",
            file=sys.stderr,
        )


def _obs_flags(args: argparse.Namespace) -> tuple:
    """(metrics, trace) from the obs options; --trace-out implies both."""
    trace = bool(args.trace_out)
    return (args.metrics or trace, trace)


def _labelled(comparisons) -> list:
    """``(config, workload, result)`` triples of comparisons' runs."""
    return [
        (config_name, comparison.workload_name, result)
        for comparison in comparisons
        for config_name, result in comparison.results.items()
    ]


def _emit_obs(args: argparse.Namespace, labelled) -> None:
    """Write --trace-out and/or print the --metrics report.

    ``labelled`` holds ``(run label, workload, result)`` triples.
    """
    metrics, _ = _obs_flags(args)
    if not metrics:
        return
    if args.trace_out:
        lines = write_obs_jsonl(args.trace_out, labelled)
        print(
            f"[obs] wrote {lines} record(s) to {args.trace_out}",
            file=sys.stderr,
        )
    from repro.obs.report import event_records_from, run_records_from

    print()
    print(render_report(run_records_from(labelled),
                        event_records_from(labelled)))


def _faults_from(args: argparse.Namespace) -> Optional[FaultSpec]:
    """A FaultSpec from the --fault-* flags, or None when all are off."""
    rate = getattr(args, "fault_rate", 0.0)
    drop = getattr(args, "fault_drop_prob", 0.0)
    if rate <= 0.0 and drop <= 0.0:
        return None
    with _user_input():
        return FaultSpec(
            links=LinkFailure(rate=rate), arbiter=ArbiterDrop(probability=drop)
        )


def _print_speedup_table(comparison) -> None:
    """The per-config cycles/speedup table of ``run``."""
    rows = []
    for name, result in comparison.results.items():
        rows.append(
            [
                name,
                result.cycles,
                result.speedup_over(comparison.baseline),
                result.stats.l2_misses,
                result.stats.walks,
            ]
        )
    print(
        render_table(
            ["config", "cycles", "speedup", "L2 misses", "walks"], rows
        )
    )


def _print_fault_summaries(comparisons) -> None:
    """Per-config degradation counters, printed only for faulty runs."""
    rows = []
    for comparison in comparisons:
        for name, summary in comparison.fault_summaries().items():
            rows.append(
                [
                    f"{name}/{comparison.workload_name}",
                    summary.get("arbiter_drops", 0),
                    summary.get("shootdown_retries", 0),
                    summary.get("fallback_messages", 0),
                    summary.get("fallback_hops", 0),
                    summary.get("degraded_walks", 0),
                ]
            )
    if rows:
        print()
        print(
            render_table(
                ["run", "drops", "sd retries", "fallbacks", "fb hops",
                 "degraded"],
                rows,
                title="== fault summary ==",
            )
        )


def cmd_run(args: argparse.Namespace) -> int:
    names = args.configs.split(",")
    if "private" not in names:
        names = ["private"] + names
    tracer = _tracer_from(args)
    runner = _runner_from(args, tracer)
    metrics, trace = _obs_flags(args)
    faults = _faults_from(args)
    if args.trace_in:
        if faults is not None:
            raise SystemExit(
                "--fault-rate/--fault-drop-prob need a synthetic workload; "
                "they are not supported with --trace-in inputs"
            )
        try:
            workload = load_workload(args.trace_in)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot read {args.trace_in!r}: {exc}")
        if workload.num_cores != args.cores:
            args.cores = workload.num_cores
        lineup = runner.run_prebuilt(
            workload, _build_configs(names, args.cores, args.policy),
            metrics=metrics, trace=trace,
        )
    else:
        configs = _build_configs(names, args.cores, args.policy)
        with _user_input():
            scenario = Scenario(
                configurations=configs,
                workloads=args.workload,
                accesses_per_core=args.accesses,
                seed=args.seed,
                superpages=not args.no_superpages,
                metrics=metrics,
                trace=trace,
                faults=faults,
            )
        lineup = runner.run_one(scenario)
    _print_speedup_table(lineup)
    _print_fault_summaries([lineup])
    _emit_obs(args, _labelled([lineup]))
    _export_spans(args, tracer)
    _report_cache(runner)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    names = (
        args.workloads.split(",") if args.workloads else list(WORKLOAD_NAMES)
    )
    tracer = _tracer_from(args)
    runner = _runner_from(args, tracer)
    metrics, trace = _obs_flags(args)
    faults = _faults_from(args)
    with _user_input():
        scenario = Scenario(
            configurations=cfg.paper_lineup(
                args.cores, **_policy_overrides(args)
            ),
            workloads=tuple(names),
            accesses_per_core=args.accesses,
            seed=args.seed,
            superpages=not args.no_superpages,
            metrics=metrics,
            trace=trace,
            faults=faults,
        )
    comparisons = runner.run(scenario)
    config_names = ["monolithic-mesh", "distributed", "nocstar", "ideal"]
    rows = [
        [name] + [comparisons[name].speedup(c) for c in config_names]
        for name in names
    ]
    rows.append(
        ["average"]
        + [
            sum(comparisons[n].speedup(c) for n in names) / len(names)
            for c in config_names
        ]
    )
    print(render_table(["workload"] + config_names, rows))
    _print_fault_summaries([comparisons[name] for name in names])
    _emit_obs(args, _labelled(comparisons[name] for name in names))
    _export_spans(args, tracer)
    _report_cache(runner)
    return 0


def _parse_window(value: str) -> tuple:
    """Parse ``START:END`` (either side optional) into an int pair."""
    if ":" not in value:
        raise SystemExit(f"--window needs START:END (got {value!r})")
    lo, hi = value.split(":", 1)
    try:
        return (int(lo) if lo else None, int(hi) if hi else None)
    except ValueError:
        raise SystemExit(f"--window bounds must be integers (got {value!r})")


def _check_top(top: int) -> int:
    """``--top`` of ``report`` and ``trace``: a row count of at least 1
    (a negative one would slice rows off the end)."""
    if top < 1:
        raise SystemExit(f"--top must be >= 1 (got {top})")
    return top


def cmd_report(args: argparse.Namespace) -> int:
    top = _check_top(args.top)
    # Absent files are warned about and skipped by load_obs_records —
    # a sweep whose trace step failed should not kill the report of
    # the files that do exist — but a directory or a binary file is
    # not an obs file.
    try:
        runs, events = load_obs_records(args.paths)
    except OSError as exc:
        raise SystemExit(str(exc))
    window = _parse_window(args.window) if args.window else None
    print(render_report(runs, events, top=top, window=window))
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    """Degradation sweep: one config, increasing fault rates."""
    import json

    try:
        rates = sorted(
            {float(token) for token in args.rates.split(",") if token.strip()}
        )
    except ValueError:
        raise SystemExit(f"--rates must be comma-separated floats "
                         f"(got {args.rates!r})")
    if not rates:
        raise SystemExit("--rates needs at least one value")
    if any(not 0.0 <= rate <= 1.0 for rate in rates):
        raise SystemExit("fault rates must be in [0, 1]")
    if rates[0] != 0.0:
        rates.insert(0, 0.0)  # the fault-free anchor of the curve
    config = _build_configs([args.config], args.cores, args.policy)[0]
    tracer = _tracer_from(args)
    runner = _runner_from(args, tracer)
    metrics, trace = _obs_flags(args)
    with _user_input():
        anchor = Scenario(
            configurations=config,
            workloads=args.workload,
            accesses_per_core=args.accesses,
            seed=args.seed,
            superpages=not args.no_superpages,
            baseline_name=config.name,
            metrics=metrics,
            trace=trace,
        ).units()[0]
        units = [anchor] + [
            replace(
                anchor,
                faults=FaultSpec(
                    links=LinkFailure(rate=rate),
                    arbiter=ArbiterDrop(
                        probability=min(1.0, rate * args.drop_factor)
                    ),
                    slices=SliceFailure(rate=rate * args.slice_factor),
                    walker=WalkerSlowdown(
                        factor=1.0 + rate * args.walker_factor
                    ),
                ),
            )
            for rate in rates[1:]
        ]
    results = runner.execute_units(units)

    rows = []
    points = []
    labelled = []
    baseline_cycles = results[0].cycles  # the fault-free anchor
    for rate, result in zip(rates, results):
        speedup = baseline_cycles / result.cycles if result.cycles else 0.0
        summary = result.faults or {}
        rows.append(
            [
                f"{rate:g}",
                result.cycles,
                speedup,
                summary.get("arbiter_drops", 0),
                summary.get("fallback_messages", 0),
                summary.get("fallback_hops", 0),
                summary.get("degraded_walks", 0),
            ]
        )
        points.append(
            {
                "rate": rate,
                "cycles": result.cycles,
                "speedup": speedup,
                "faults": summary,
            }
        )
        labelled.append((f"{config.name}@{rate:g}", args.workload, result))
    print(
        render_table(
            ["fault rate", "cycles", "speedup", "drops", "fallbacks",
             "fb hops", "degraded"],
            rows,
            precision=3,
        )
    )
    if args.out:
        payload = {
            "config": config.name,
            "workload": args.workload,
            "cores": args.cores,
            "seed": args.seed,
            "accesses_per_core": args.accesses,
            "drop_factor": args.drop_factor,
            "slice_factor": args.slice_factor,
            "walker_factor": args.walker_factor,
            "points": points,
        }
        directory = os.path.dirname(args.out)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"[faults] wrote {len(points)} point(s) to {args.out}",
              file=sys.stderr)
    _emit_obs(args, labelled)
    _export_spans(args, tracer)
    _report_cache(runner)
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect or shrink the result cache and trace-artifact store."""
    from repro.exec.cache import ResultCache
    from repro.exec.trace_store import TraceStore

    cache = ResultCache(args.cache_dir)
    store = TraceStore(args.trace_store or os.path.join(args.cache_dir, "traces"))
    if args.action == "stats":
        results = cache.stats()
        traces = store.stats()
        rows = [
            ["results", results["entries"], results["bytes"], cache.root],
            ["traces", traces["artifacts"], traces["bytes"], store.root],
        ]
        print(render_table(["store", "entries", "bytes", "path"], rows))
        return 0
    if args.action == "clear":
        removed = cache.clear()
        artifacts = store.clear()
        print(f"removed {removed} result(s) from {cache.root}")
        print(f"removed {artifacts} trace artifact(s) from {store.root}")
        return 0
    # evict: --max-bytes shrinks the trace store (artifacts are the
    # bulk); --max-age-s drops result-cache entries older than that
    # age.  At least one is required.
    if args.max_bytes is None and args.max_age_s is None:
        raise SystemExit("cache evict needs --max-bytes and/or --max-age-s")
    if args.max_bytes is not None:
        if args.max_bytes < 0:
            raise SystemExit("cache evict needs --max-bytes >= 0")
        before = store.stats()
        removed = store.evict(args.max_bytes)
        after = store.stats()
        print(
            f"evicted {removed} trace artifact(s) from {store.root} "
            f"({before['bytes']} -> {after['bytes']} bytes)"
        )
    if args.max_age_s is not None:
        if args.max_age_s < 0:
            raise SystemExit("cache evict needs --max-age-s >= 0")
        removed = cache.evict_older_than(args.max_age_s)
        print(
            f"evicted {removed} result(s) older than {args.max_age_s:g}s "
            f"from {cache.root}"
        )
    return 0


def _campaign_specs(names):
    """Expand campaign names (metas included) or exit with the registry."""
    from repro.experiments import available_campaigns, expand_campaigns

    try:
        return expand_campaigns(names)
    except KeyError:
        known = ", ".join(available_campaigns())
        raise SystemExit(
            f"unknown campaign in {names!r}; known: {known}"
        )


def cmd_experiments(args: argparse.Namespace) -> int:
    """Paper-figure campaigns: list / run / check / pin."""
    from repro import experiments as xp

    if args.action == "list":
        rows = []
        for name in xp.available_campaigns():
            spec = xp.get_campaign(name)
            if spec.kind == xp.META:
                grids = "-> " + ",".join(spec.members)
            else:
                grids = " ".join(
                    f"{s}:{spec.grid_size(s)}" for s in spec.scale_names
                )
            pins = xp.load_pins(name)
            pinned = ",".join(sorted((pins or {}).get("scales", {}))) or "-"
            rows.append([name, spec.figure, spec.kind, grids, pinned, spec.title])
        print(
            render_table(
                ["campaign", "figure", "kind", "grid (sims/scale)",
                 "pinned", "title"],
                rows,
            )
        )
        return 0

    if args.action == "pin" and not (
        math.isfinite(args.rtol) and args.rtol >= 0.0
    ):
        # Refused before any campaign runs: the pin file would carry a
        # NaN, or update_pins would refuse it after a whole campaign.
        raise SystemExit(
            f"--rtol must be a finite number >= 0, got {args.rtol}"
        )
    specs = _campaign_specs(args.campaigns or ["headline"])

    if args.action == "check":
        # Gate previously written artifacts; nothing is simulated.
        failed = False
        for spec in specs:
            try:
                payload = xp.read_summary(args.out, spec.name)
            except OSError:
                raise SystemExit(
                    f"no summary for campaign {spec.name!r} under "
                    f"{args.out!r} — run `repro experiments run "
                    f"{spec.name}` first"
                )
            if payload.get("scale") != args.scale:
                raise SystemExit(
                    f"artifacts for {spec.name!r} were written at scale "
                    f"{payload.get('scale')!r}, not {args.scale!r}; "
                    "re-run or pass the matching --scale"
                )
            report = xp.check_drift(spec.name, args.scale, payload["summary"])
            print(report.render())
            print()
            failed = failed or not report.ok
        return 1 if failed else 0

    # run / pin both execute the campaigns.
    tracer = _tracer_from(args)
    runner = _runner_from(args, tracer)
    failed = False
    for spec in specs:
        run = xp.run_campaign(spec, scale=args.scale, runner=runner,
                              tracer=tracer)
        print(
            f"[experiments] {spec.name} [{args.scale}]: "
            f"{run.stats['scenarios']} scenario(s), "
            f"{run.stats['units']} unit(s) "
            f"({run.stats['cache_hits']} cached)",
            file=sys.stderr,
        )
        if args.action == "pin":
            path = xp.update_pins(
                spec.name, args.scale, run.summary, rtol=args.rtol
            )
            print(f"[experiments] pinned {len(run.summary)} metric(s) "
                  f"of {spec.name} [{args.scale}] in {path}",
                  file=sys.stderr)
            continue
        written = run.write(args.out, plot=not args.no_plot)
        rows = [[metric, run.summary[metric]] for metric in sorted(run.summary)]
        print(
            render_table(
                ["metric", "value"],
                rows,
                title=f"== {spec.figure} — {spec.title} ==",
            )
        )
        print(f"[experiments] wrote {len(written)} artifact(s) under "
              f"{os.path.join(args.out, spec.name)}", file=sys.stderr)
        if args.check:
            report = xp.check_drift(spec.name, args.scale, run.summary)
            print(report.render())
            failed = failed or not report.ok
        print()
    _export_spans(args, tracer)
    _report_cache(runner)
    if failed:
        print("[experiments] drift gate FAILED — see reports above",
              file=sys.stderr)
        return 1
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Render a span-tree sidecar (tree + critical-path table)."""
    top = _check_top(args.top)
    try:
        records = load_spans(args.path)
    except (OSError, UnicodeDecodeError) as exc:
        raise SystemExit(f"cannot read {args.path!r}: {exc}")
    print(render_tree(records, top=top))
    return 0


def cmd_workloads(_args: argparse.Namespace) -> int:
    rows = [
        [
            spec.name,
            spec.footprint_pages,
            f"{spec.cold_alpha:.2f}",
            f"{spec.cold_fraction:.3f}",
            f"{spec.seq_fraction:.2f}",
            f"{spec.superpage_fraction:.2f}",
            f"{spec.mean_gap:.1f}",
        ]
        for spec in WORKLOADS.values()
    ]
    print(
        render_table(
            ["workload", "cold pages", "zipf a", "cold frac", "seq",
             "superpage", "gap"],
            rows,
        )
    )
    return 0


def cmd_traffic(args: argparse.Namespace) -> int:
    with _user_input():
        topology = MeshTopology(args.tiles)
        check_traffic_inputs(args.cycles, args.hpc_max)
    rows = []
    for rate in (0.01, 0.05, 0.1, 0.15, 0.2):
        nocstar = run_nocstar_traffic(
            topology, rate, cycles=args.cycles, hpc_max=args.hpc_max
        )
        mesh = run_mesh_traffic(topology, rate, cycles=args.cycles)
        rows.append(
            [
                rate,
                nocstar.mean_latency,
                mesh.mean_latency,
                nocstar.no_contention_fraction,
            ]
        )
    print(
        render_table(
            ["inj rate", "nocstar (cyc)", "mesh (cyc)", "no-contention"],
            rows,
            precision=2,
        )
    )
    return 0


def cmd_export_trace(args: argparse.Namespace) -> int:
    with _user_input():
        workload = build_multithreaded(
            get_workload(args.workload),
            args.cores,
            accesses_per_core=args.accesses,
            seed=args.seed,
            superpages=not args.no_superpages,
        )
    path = save_workload(workload, args.out)
    print(f"wrote {workload.total_accesses} records to {path}")
    return 0


def cmd_configs(args: argparse.Namespace) -> int:
    with _user_input():
        lineup = cfg.paper_lineup(args.cores)
    rows = []
    for config in lineup:
        rows.append(
            [
                config.name,
                config.scheme,
                config.interconnect or "-",
                config.entries_per_core,
                config.monolithic_banks or "-",
            ]
        )
    print(
        render_table(
            ["name", "scheme", "interconnect", "entries/core", "banks"], rows
        )
    )
    print("registered: " + ", ".join(cfg.available_configs()))
    return 0


def _obs_parent() -> argparse.ArgumentParser:
    """The observability flag group (--metrics / --trace-out).

    Defined exactly once: every command that can observe a run shares
    this parent parser, so the flags cannot drift in name, default, or
    help text between commands.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--metrics", action="store_true",
        help="collect a metrics snapshot per run and print a report",
    )
    parent.add_argument(
        "--trace-out", default="",
        help="write runs + event traces to this JSONL file for "
             "`repro report` (implies --metrics)",
    )
    parent.add_argument(
        "--span-out", default="",
        help="write a span-tree JSONL sidecar for `repro trace` "
             "(wall-clock telemetry only; never affects results or "
             "cache keys)",
    )
    return parent


def _fault_parent() -> argparse.ArgumentParser:
    """The fault-injection flag group (--fault-rate / --fault-drop-prob)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--fault-rate", type=float, default=0.0,
        help="fail this fraction of directed mesh links (default 0)",
    )
    parent.add_argument(
        "--fault-drop-prob", type=float, default=0.0,
        help="transient arbiter drop probability per setup attempt "
             "(default 0)",
    )
    return parent


def _runner_parent() -> argparse.ArgumentParser:
    """The execution flag group (--jobs/--cache-dir/--trace-store...)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for independent simulations (default 1)",
    )
    parent.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR,
        help="content-addressed result cache directory "
             f"(default {DEFAULT_CACHE_DIR!r})",
    )
    parent.add_argument(
        "--no-cache", action="store_true",
        help="always simulate; neither read nor write the result cache",
    )
    parent.add_argument(
        "--trace-store", default="",
        help="materialized trace artifact directory (default "
             "<cache-dir>/traces; used even with --no-cache when given "
             "explicitly)",
    )
    parent.add_argument(
        "--no-trace-store", action="store_true",
        help="rebuild traces per run instead of materializing artifacts",
    )
    return parent


def _policy_parent() -> argparse.ArgumentParser:
    """The replacement-policy flag group (--policy)."""
    from repro.tlb.policies import POLICY_NAMES

    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--policy", choices=POLICY_NAMES, default=None,
        help="override the L2 replacement policy of every configuration "
             "(default: each configuration's own, normally lru)",
    )
    return parent


def _scenario_parent(accesses: int = 8_000) -> argparse.ArgumentParser:
    """The scenario-shape flag group (--cores/--accesses/--seed/...).

    Commands with a different natural ``--accesses`` default (sweeps
    run lighter per point) get their own parent instance from this
    factory — the flag definitions still live here, once.  (A child
    ``set_defaults`` would not work: argparse parents share action
    objects, so overriding a default on one command would leak into
    every other.)
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--cores", type=int, default=16)
    parent.add_argument("--accesses", type=int, default=accesses)
    parent.add_argument("--seed", type=int, default=1)
    parent.add_argument("--no-superpages", action="store_true")
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NOCSTAR (MICRO 2018) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared flag groups, defined once (see the module docstring):
    # commands compose them via argparse `parents` so they cannot drift.
    scenario = _scenario_parent()
    # Sweeps run many points, so they default to a lighter workload; a
    # separate parent instance keeps that default from leaking into the
    # other commands (parents share action objects).
    scenario_sweep = _scenario_parent(accesses=6_000)
    runner = _runner_parent()
    fault = _fault_parent()
    obs = _obs_parent()
    policy = _policy_parent()

    run_p = sub.add_parser(
        "run", help="simulate one workload",
        parents=[scenario, policy, fault, runner, obs],
    )
    run_p.add_argument("--workload", default="graph500")
    run_p.add_argument(
        "--configs",
        default="monolithic,distributed,nocstar,ideal",
        help="comma-separated configuration names "
             "(see `repro configs` for the registry)",
    )
    run_p.add_argument(
        "--trace-in", default="",
        help="run a saved .npz trace instead of a synthetic workload "
             "(the event-trace output flag is --trace-out)",
    )
    run_p.set_defaults(func=cmd_run)

    export_p = sub.add_parser(
        "export-trace", help="write a synthetic workload to a .npz trace",
        parents=[scenario],
    )
    export_p.add_argument("--workload", default="graph500")
    export_p.add_argument("--out", required=True)
    export_p.set_defaults(func=cmd_export_trace)

    sweep_p = sub.add_parser(
        "sweep", help="per-workload speedup sweep",
        parents=[scenario_sweep, policy, fault, runner, obs],
    )
    sweep_p.add_argument("--workloads", default="",
                         help="comma-separated subset (default: all)")
    sweep_p.set_defaults(func=cmd_sweep)

    faults_p = sub.add_parser(
        "faults", help="fault-injection degradation sweep",
        parents=[scenario_sweep, policy, runner, obs],
    )
    faults_p.add_argument("--workload", default="graph500")
    faults_p.add_argument(
        "--config", default="nocstar",
        help="configuration to degrade (default nocstar)",
    )
    faults_p.add_argument(
        "--rates", default="0,0.02,0.05,0.1",
        help="comma-separated link-failure rates; 0 is always included "
             "as the fault-free anchor (default 0,0.02,0.05,0.1)",
    )
    faults_p.add_argument(
        "--drop-factor", type=float, default=0.5,
        help="arbiter drop probability = rate * this factor (default 0.5)",
    )
    faults_p.add_argument(
        "--slice-factor", type=float, default=0.0,
        help="slice failure rate = rate * this factor (default 0: "
             "links and arbiters only)",
    )
    faults_p.add_argument(
        "--walker-factor", type=float, default=0.0,
        help="walker slowdown = 1 + rate * this factor (default 0)",
    )
    faults_p.add_argument(
        "--out", default="",
        help="also write the degradation curve to this JSON file",
    )
    faults_p.set_defaults(func=cmd_faults)

    cache_p = sub.add_parser(
        "cache", help="inspect/clear the result cache and trace store"
    )
    cache_p.add_argument(
        "action", choices=("stats", "clear", "evict"),
        help="stats: entry/byte counts; clear: delete everything; "
             "evict: shrink trace artifacts to --max-bytes (oldest first)",
    )
    cache_p.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR,
        help=f"result cache directory (default {DEFAULT_CACHE_DIR!r})",
    )
    cache_p.add_argument(
        "--trace-store", default="",
        help="trace artifact directory (default <cache-dir>/traces)",
    )
    cache_p.add_argument(
        "--max-bytes", type=int, default=None,
        help="evict: target size for the trace store",
    )
    cache_p.add_argument(
        "--max-age-s", type=float, default=None,
        help="evict: drop cached results older than this many seconds",
    )
    cache_p.set_defaults(func=cmd_cache)

    exp_p = sub.add_parser(
        "experiments",
        help="declarative paper-figure campaigns (list/run/check/pin)",
        parents=[runner],
    )
    exp_p.add_argument(
        "action", choices=("list", "run", "check", "pin"),
        help="list: show the campaign registry; run: execute campaigns "
             "and write campaigns/<name>/ artifacts; check: drift-gate "
             "previously written artifacts without re-simulating; pin: "
             "re-run and refresh the pinned reference numbers",
    )
    exp_p.add_argument(
        "campaigns", nargs="*",
        help="campaign names (metas like 'headline' expand; default: "
             "headline)",
    )
    exp_p.add_argument(
        "--scale", choices=("smoke", "reduced", "full"), default="reduced",
        help="operating point: smoke (CI-fast), reduced (bench scale, "
             "the pinned default), full (paper scale)",
    )
    exp_p.add_argument(
        "--out", default="campaigns",
        help="artifact root; CSV/JSON (and plots when matplotlib is "
             "installed) land under <out>/<campaign>/ (default "
             "'campaigns')",
    )
    exp_p.add_argument(
        "--check", action="store_true",
        help="after running, gate summary metrics against the pinned "
             "references; exit non-zero on drift",
    )
    exp_p.add_argument(
        "--no-plot", action="store_true",
        help="skip plot rendering even when matplotlib is available",
    )
    exp_p.add_argument(
        "--rtol", type=float, default=0.05,
        help="relative tolerance written for newly pinned metrics "
             "(pin action only; existing tolerances are kept; "
             "default 0.05)",
    )
    exp_p.add_argument(
        "--span-out", default="",
        help="write a span-tree JSONL sidecar for `repro trace`",
    )
    exp_p.set_defaults(func=cmd_experiments)

    trace_p = sub.add_parser(
        "trace", help="render a span-tree JSONL sidecar (--span-out)"
    )
    trace_p.add_argument(
        "path",
        help="span sidecar written by --span-out (run/sweep/faults/"
             "experiments)",
    )
    trace_p.add_argument(
        "--top", type=int, default=5,
        help="rows in the critical-path table (default 5)",
    )
    trace_p.set_defaults(func=cmd_trace)

    wl_p = sub.add_parser("workloads", help="list the workload suite")
    wl_p.set_defaults(func=cmd_workloads)

    traffic_p = sub.add_parser("traffic", help="synthetic NoC traffic sweep")
    traffic_p.add_argument("--tiles", type=int, default=64)
    traffic_p.add_argument("--cycles", type=int, default=2_000)
    traffic_p.add_argument("--hpc-max", type=int, default=16)
    traffic_p.set_defaults(func=cmd_traffic)

    cfg_p = sub.add_parser("configs", help="show the Table II lineup")
    cfg_p.add_argument("--cores", type=int, default=16)
    cfg_p.set_defaults(func=cmd_configs)

    report_p = sub.add_parser(
        "report", help="render metrics/events from obs or telemetry JSONL"
    )
    report_p.add_argument(
        "paths", nargs="+",
        help="obs files (--trace-out) and/or Runner telemetry.jsonl files",
    )
    report_p.add_argument(
        "--top", type=int, default=8,
        help="rows per heatmap/slice table (default 8)",
    )
    report_p.add_argument(
        "--window", default="",
        help="only count events with START <= cycle < END, e.g. 0:50000",
    )
    report_p.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — not an error.
        return 0


if __name__ == "__main__":
    sys.exit(main())
