"""Command-line interface."""

import hashlib

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.workloads.generators import build_multithreaded
from repro.workloads.io import save_workload
from repro.workloads.registry import get_workload


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_workloads_command(capsys):
    assert main(["workloads"]) == 0
    out = capsys.readouterr().out
    assert "graph500" in out and "gups" in out


def test_configs_command(capsys):
    assert main(["configs", "--cores", "32"]) == 0
    out = capsys.readouterr().out
    assert "nocstar" in out and "monolithic" in out
    assert "920" in out  # area-normalised slice size


def test_run_command_small(capsys):
    code = main(
        [
            "run", "--workload", "olio", "--cores", "4",
            "--accesses", "800", "--configs", "nocstar",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "private" in out  # baseline auto-added
    assert "speedup" in out


def test_run_command_unknown_config():
    with pytest.raises(SystemExit, match="unknown config"):
        main(["run", "--configs", "hyperloop", "--cores", "4",
              "--accesses", "100"])


#: Inputs each command rejects while building them, and the bad value
#: the message must name.
BAD_INPUTS = [
    (["run", "--cores", "0"], "(got 0)"),
    (["run", "--accesses", "0"], "(got 0)"),
    (["run", "--fault-rate", "1.5"], "(got 1.5)"),
    (["run", "--fault-drop-prob", "2"], "(got 2.0)"),
    (["run", "--workload", "nope"], "'nope'"),
    (["sweep", "--cores", "0"], "(got 0)"),
    (["faults", "--cores", "0"], "(got 0)"),
    (["run", "--jobs", "0"], "(got 0)"),
    (["run", "--trace-in", "missing.npz"], "'missing.npz'"),
    (["export-trace", "--workload", "nope", "--out", "t.npz"], "'nope'"),
    (["export-trace", "--cores", "0", "--out", "t.npz"], "(got 0)"),
    (["export-trace", "--accesses", "0", "--out", "t.npz"], "one access"),
    (["traffic", "--tiles", "0"], "one tile"),
    (["traffic", "--cycles", "0"], "(got 0)"),
    (["traffic", "--hpc-max", "0"], "(got 0)"),
    (["configs", "--cores", "0"], "(got 0)"),
    (["run", "--seed", "-1"], "(got -1)"),
    (["sweep", "--seed", "-1"], "(got -1)"),
    (["faults", "--seed", "-1"], "(got -1)"),
    (["export-trace", "--seed", "-1", "--out", "t.npz"], "(got -1)"),
    (["report", "obs.jsonl", "--top", "0"], "(got 0)"),
    (["report", "obs.jsonl", "--top", "-1"], "(got -1)"),
    (["trace", "spans.jsonl", "--top", "0"], "(got 0)"),
    (["trace", "spans.jsonl", "--top", "-1"], "(got -1)"),
]

#: Commands that take the runner flags; the test runs them with
#: ``--no-cache``.
RUNNER_COMMANDS = {"run", "sweep", "faults"}


@pytest.mark.parametrize(
    "argv, named", BAD_INPUTS, ids=[" ".join(argv) for argv, _ in BAD_INPUTS]
)
def test_bad_inputs_exit_with_one_line(argv, named, capsys, monkeypatch,
                                       tmp_path):
    """An input rejected while it is built exits non-zero with one line
    naming the bad value, never a traceback.  A string exit code is
    what the interpreter prints to stderr before exiting with 1."""
    monkeypatch.chdir(tmp_path)  # relative paths land in a scratch dir
    if argv[0] in RUNNER_COMMANDS:
        argv = argv + ["--no-cache"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    message = exc.value.code
    assert isinstance(message, str) and len(message.splitlines()) == 1
    assert named in message
    assert capsys.readouterr().err == ""


def test_unreadable_trace_in_exits_with_one_line(tmp_path, capsys):
    junk = tmp_path / "junk.npz"
    junk.write_text("not a trace\n")
    with pytest.raises(SystemExit) as exc:
        main(["run", "--trace-in", str(junk), "--no-cache"])
    message = exc.value.code
    assert isinstance(message, str) and len(message.splitlines()) == 1
    assert message.startswith(f"cannot read {str(junk)!r}")
    assert capsys.readouterr().err == ""


def _set_field(column, value):
    def edit(rows):
        rows = rows.copy()
        rows[0, column] = value
        return rows

    return edit


#: ``run --trace-in`` files that are not well-formed traces: how core
#: 1's array of a valid trace is edited (``None``: cut the archive in
#: half), and what the one-line message must name.
MALFORMED_TRACES = [
    ("truncated", None, "BadZipFile"),
    ("missing c1_s0", lambda rows: None, "c1_s0"),
    ("three columns", lambda rows: rows[:, :3], "not (n, 4) integers"),
    ("page size 8192", _set_field(2, 8192), "bad page size 8192"),
    ("negative page", _set_field(3, -5), "negative asid/page"),
    ("zero gap", _set_field(0, 0), "gap must be >= 1"),
]


@pytest.mark.parametrize(
    "edit, named",
    [case[1:] for case in MALFORMED_TRACES],
    ids=[case[0] for case in MALFORMED_TRACES],
)
def test_malformed_trace_in_exits_with_one_line(edit, named, tmp_path,
                                                capsys):
    path = tmp_path / "t.npz"
    save_workload(
        build_multithreaded(get_workload("olio"), 2, accesses_per_core=50),
        path,
    )
    if edit is None:
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    else:
        arrays = dict(np.load(path))
        rows = edit(arrays.pop("c1_s0"))
        if rows is not None:
            arrays["c1_s0"] = rows
        np.savez_compressed(path, **arrays)
    with pytest.raises(SystemExit) as exc:
        main(["run", "--trace-in", str(path), "--no-cache"])
    message = exc.value.code
    assert isinstance(message, str) and len(message.splitlines()) == 1
    assert message.startswith(f"cannot read {str(path)!r}")
    assert named in message
    assert capsys.readouterr().err == ""


def test_export_trace_bytes_are_pinned(tmp_path, capsys):
    out = tmp_path / "t.npz"
    assert main(
        ["export-trace", "--workload", "olio", "--cores", "4",
         "--accesses", "200", "--seed", "3", "--out", str(out)]
    ) == 0
    digest = hashlib.md5(out.read_bytes()).hexdigest()
    assert digest == "956944ed2982fc88b656918472e24243"


def test_run_command_parallel_no_cache(capsys, tmp_path):
    code = main(
        [
            "run", "--workload", "olio", "--cores", "4",
            "--accesses", "600", "--configs", "nocstar",
            "--jobs", "2", "--no-cache",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "nocstar" in out and "speedup" in out


def test_run_command_cache_roundtrip(capsys, tmp_path):
    args = [
        "run", "--workload", "olio", "--cores", "4",
        "--accesses", "600", "--configs", "nocstar",
        "--cache-dir", str(tmp_path / "cache"),
    ]
    assert main(args) == 0
    cold = capsys.readouterr()
    assert "2 miss(es)" in cold.err
    assert main(args) == 0
    warm = capsys.readouterr()
    assert "2 hit(s)" in warm.err
    assert warm.out == cold.out  # cached rerun prints the same table
    assert (tmp_path / "cache" / "telemetry.jsonl").exists()


def test_sweep_command_subset(capsys):
    code = main(
        [
            "sweep", "--cores", "4", "--accesses", "600",
            "--workloads", "olio",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "average" in out


def test_traffic_command(capsys):
    code = main(["traffic", "--tiles", "16", "--cycles", "300"])
    assert code == 0
    out = capsys.readouterr().out
    assert "nocstar" in out


def test_export_and_run_trace(tmp_path, capsys):
    trace = tmp_path / "t.npz"
    code = main(
        [
            "export-trace", "--workload", "olio", "--cores", "2",
            "--accesses", "300", "--out", str(trace),
        ]
    )
    assert code == 0
    assert trace.exists()
    code = main(
        ["run", "--trace-in", str(trace), "--configs", "nocstar",
         "--cores", "2"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "nocstar" in out


def test_run_command_metrics_and_trace_out(tmp_path, capsys):
    obs = tmp_path / "obs.jsonl"
    code = main(
        [
            "run", "--workload", "olio", "--cores", "4",
            "--accesses", "600", "--configs", "nocstar",
            "--no-cache", "--metrics", "--trace-out", str(obs),
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert obs.exists()
    assert "translation latency" in captured.out
    assert "NoC link utilization" in captured.out
    assert "hottest L2 slices" in captured.out
    # The written obs file feeds the report command directly.
    code = main(["report", str(obs), "--top", "4"])
    assert code == 0
    report = capsys.readouterr().out
    assert "p99" in report
    assert "nocstar/olio" in report
    assert "events" in report


def test_report_command_window(tmp_path, capsys):
    obs = tmp_path / "obs.jsonl"
    assert main(
        [
            "run", "--workload", "olio", "--cores", "4",
            "--accesses", "600", "--configs", "nocstar",
            "--no-cache", "--trace-out", str(obs),
        ]
    ) == 0
    capsys.readouterr()
    assert main(["report", str(obs), "--window", "0:50"]) == 0
    out = capsys.readouterr().out
    assert "window 0..50" in out


def test_report_command_missing_file(capsys):
    # Robust by design: an absent obs file is warned about and skipped,
    # and the report still renders (its empty-input placeholder here).
    assert main(["report", "/nonexistent/obs.jsonl"]) == 0
    captured = capsys.readouterr()
    assert "no such obs file" in captured.err
    assert "no metric snapshots or events" in captured.out


@pytest.mark.parametrize("kind", ["directory", "npz trace"])
def test_report_command_unreadable_path_exits_with_one_line(
    kind, tmp_path, capsys
):
    """A directory, or a binary trace written by ``export-trace``, is
    not an obs file: one line names it, with no traceback."""
    if kind == "directory":
        path = tmp_path
    else:
        path = tmp_path / "t.npz"
        assert main(
            ["export-trace", "--workload", "gups", "--cores", "2",
             "--accesses", "50", "--out", str(path)]
        ) == 0
        capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["report", str(path)])
    message = exc.value.code
    assert isinstance(message, str) and len(message.splitlines()) == 1
    assert message.startswith(f"cannot read {str(path)!r}: ")
    assert capsys.readouterr().err == ""


def test_trace_command_binary_file_exits_with_one_line(tmp_path):
    path = tmp_path / "t.npz"
    path.write_bytes(b"PK\x03\x04\xff\xfe\x80\x81")
    with pytest.raises(SystemExit) as exc:
        main(["trace", str(path)])
    assert exc.value.code.startswith(f"cannot read {str(path)!r}: ")


def test_report_command_bad_window(tmp_path):
    obs = tmp_path / "obs.jsonl"
    obs.write_text("")
    with pytest.raises(SystemExit, match="--window"):
        main(["report", str(obs), "--window", "banana"])


def test_run_command_metrics_off_prints_no_report(capsys):
    code = main(
        [
            "run", "--workload", "olio", "--cores", "4",
            "--accesses", "600", "--configs", "nocstar", "--no-cache",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "translation latency" not in out


# ----------------------------------------------------------------------
# shared flag groups (parent parsers) and removed commands/flags


def test_shared_flag_groups_per_command_defaults():
    """run/export-trace keep the full 8k default while the sweep-style
    commands default lighter — and a per-command override must not leak
    through the shared parent parsers."""
    parser = build_parser()
    assert parser.parse_args(["run"]).accesses == 8_000
    assert parser.parse_args(
        ["export-trace", "--out", "x.npz"]
    ).accesses == 8_000
    assert parser.parse_args(["sweep"]).accesses == 6_000
    assert parser.parse_args(["faults"]).accesses == 6_000


def test_shared_runner_flags_everywhere():
    """The runner flag group is identical across commands by
    construction; spot-check it parses uniformly."""
    parser = build_parser()
    for command in (["run"], ["sweep"], ["faults"]):
        ns = parser.parse_args(
            command + ["--jobs", "3", "--cache-dir", "/tmp/c", "--no-cache"]
        )
        assert ns.jobs == 3 and ns.cache_dir == "/tmp/c" and ns.no_cache


def test_run_trace_in_alias(capsys):
    """``--trace-in`` is the one spelling; the old ``--trace`` alias is
    now an ambiguous prefix that argparse rejects with exit 2."""
    ns = build_parser().parse_args(["run", "--trace-in", "t.npz"])
    assert ns.trace_in == "t.npz"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--trace", "t.npz"])
    assert exc.value.code == 2
    assert "ambiguous option: --trace" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["serve", "submit", "status"])
def test_removed_commands_fail_fast(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command])
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert f"invalid choice: '{command}'" in err[-1]


def test_run_span_out_local(tmp_path, capsys):
    span_path = str(tmp_path / "run-spans.jsonl")
    assert main(
        [
            "run", "--workload", "olio", "--cores", "4",
            "--accesses", "600", "--configs", "nocstar", "--no-cache",
            "--span-out", span_path,
        ]
    ) == 0
    assert "[spans] wrote" in capsys.readouterr().err
    assert main(["trace", span_path, "--top", "3"]) == 0
    rendered = capsys.readouterr().out
    assert "runner.execute" in rendered
    assert "unit.sim" in rendered


def test_trace_command_missing_file():
    with pytest.raises(SystemExit, match="cannot read"):
        main(["trace", "/nonexistent/spans.jsonl"])


def test_report_degrades_on_pre_schema3_telemetry(tmp_path, capsys):
    """Telemetry written before the build/sim split (schema < 3, or an
    explicit null) renders "-" placeholders instead of crashing."""
    import json

    path = tmp_path / "telemetry.jsonl"
    rows = [
        {"schema": 2, "config": "nocstar", "workload": "gups",
         "cycles": 1234, "cache": "miss"},                  # no keys at all
        {"schema": 3, "config": "private", "workload": "gups",
         "cycles": 999, "cache": "hit", "build_s": None,
         "sim_s": None},                                    # explicit nulls
        {"schema": 3, "config": "ideal", "workload": "gups",
         "cycles": 500, "cache": "miss", "build_s": 0.25,
         "sim_s": 1.5},                                     # real split
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert main(["report", str(path)]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if "nocstar/gups" in line]
    assert lines and lines[0].count("-") >= 2
    assert any("0.25" in line for line in out.splitlines())


def test_cache_evict_max_age(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert main(
        [
            "run", "--workload", "olio", "--cores", "4",
            "--accesses", "600", "--configs", "nocstar",
            "--cache-dir", cache_dir,
        ]
    ) == 0
    capsys.readouterr()
    # Nothing is older than an hour yet.
    assert main(
        ["cache", "evict", "--cache-dir", cache_dir, "--max-age-s", "3600"]
    ) == 0
    assert "evicted 0 result(s)" in capsys.readouterr().out
    # Everything is older than zero seconds.
    assert main(
        ["cache", "evict", "--cache-dir", cache_dir, "--max-age-s", "0"]
    ) == 0
    assert "evicted 2 result(s)" in capsys.readouterr().out
    with pytest.raises(SystemExit, match="max-bytes and/or --max-age-s"):
        main(["cache", "evict", "--cache-dir", cache_dir])


def test_cache_stats(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert main(
        [
            "run", "--workload", "olio", "--cores", "4",
            "--accesses", "600", "--configs", "nocstar",
            "--cache-dir", cache_dir,
        ]
    ) == 0
    capsys.readouterr()
    assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
    rows = {
        cells[0]: cells[1:]
        for cells in (
            [cell.strip() for cell in line.split("|")]
            for line in capsys.readouterr().out.splitlines()
        )
    }
    assert rows["results"][0] == "2" and int(rows["results"][1]) > 0
    assert rows["traces"][0] == "1" and int(rows["traces"][1]) > 0


def test_experiments_list(capsys):
    assert main(["experiments", "list"]) == 0
    out = capsys.readouterr().out
    assert "fig12" in out and "headline" in out
    assert "meta" in out and "analytic" in out


def test_experiments_unknown_campaign():
    with pytest.raises(SystemExit, match="unknown campaign"):
        main(["experiments", "run", "fig99"])


def test_experiments_run_and_check_round_trip(tmp_path, capsys):
    out_dir = str(tmp_path / "campaigns")
    # table1 is analytic (no simulation), so this stays unit-test fast.
    assert main(
        ["experiments", "run", "table1", "--scale", "smoke",
         "--out", out_dir, "--no-plot", "--check", "--no-cache"]
    ) == 0
    out = capsys.readouterr().out
    assert "latency_cycles.nocstar" in out
    assert "drift gate: table1" in out
    import os as _os

    assert _os.path.exists(_os.path.join(out_dir, "table1", "summary.json"))
    assert _os.path.exists(
        _os.path.join(out_dir, "table1", "design_choices.csv")
    )
    # `check` re-gates the written artifacts without re-running.
    assert main(
        ["experiments", "check", "table1", "--scale", "smoke",
         "--out", out_dir]
    ) == 0
    # ...but refuses a scale mismatch instead of mis-gating.
    with pytest.raises(SystemExit, match="scale"):
        main(["experiments", "check", "table1", "--scale", "reduced",
              "--out", out_dir])


def test_experiments_check_needs_artifacts(tmp_path):
    with pytest.raises(SystemExit, match="no summary"):
        main(["experiments", "check", "table1", "--scale", "smoke",
              "--out", str(tmp_path / "empty")])


@pytest.mark.parametrize("rtol", ["-1", "nan", "inf"])
def test_experiments_pin_rejects_bad_rtol_before_running(rtol, monkeypatch):
    """A negative or non-finite --rtol is refused in one line naming it
    before any member campaign runs (a NaN would otherwise be written
    into the pin file)."""
    from repro import experiments

    monkeypatch.setattr(
        experiments, "run_campaign",
        lambda *a, **k: pytest.fail("campaign ran with a bad --rtol"),
    )
    with pytest.raises(SystemExit) as exc:
        main(["experiments", "pin", "table1", "--scale", "smoke",
              "--rtol", rtol, "--no-cache"])
    assert exc.value.code == (
        f"--rtol must be a finite number >= 0, got {float(rtol)}"
    )
