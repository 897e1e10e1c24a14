"""Drift gate: verdicts, pin files, and the update workflow."""

import json

import pytest

from repro.experiments import (
    DEFAULT_RTOL,
    check_drift,
    load_pins,
    pin_path,
    update_pins,
)

SUMMARY = {"speedup_avg.nocstar": 1.137, "speedup_avg.ideal": 1.163}


def statuses(report):
    return {v.metric: v.status for v in report.verdicts}


def test_green_within_tolerance(tmp_path):
    update_pins("figx", "reduced", SUMMARY, pins_dir=str(tmp_path))
    report = check_drift("figx", "reduced", SUMMARY, pins_dir=str(tmp_path))
    assert report.ok and report.gated
    assert set(statuses(report).values()) == {"ok"}
    assert "OK" in report.render()


def test_small_drift_still_green(tmp_path):
    update_pins("figx", "reduced", SUMMARY, pins_dir=str(tmp_path))
    nudged = dict(SUMMARY, **{"speedup_avg.nocstar": 1.137 * 1.02})
    report = check_drift("figx", "reduced", nudged, pins_dir=str(tmp_path))
    assert report.ok


def test_red_beyond_tolerance(tmp_path):
    update_pins("figx", "reduced", SUMMARY, pins_dir=str(tmp_path))
    drifted = dict(SUMMARY, **{"speedup_avg.nocstar": 1.137 * 1.10})
    report = check_drift("figx", "reduced", drifted, pins_dir=str(tmp_path))
    assert not report.ok
    assert statuses(report)["speedup_avg.nocstar"] == "DRIFT"
    assert "FAIL" in report.render()


def test_missing_pinned_metric_fails(tmp_path):
    # A renamed/dropped metric must fail loudly, not un-gate itself.
    update_pins("figx", "reduced", SUMMARY, pins_dir=str(tmp_path))
    partial = {"speedup_avg.nocstar": 1.137}
    report = check_drift("figx", "reduced", partial, pins_dir=str(tmp_path))
    assert not report.ok
    assert statuses(report)["speedup_avg.ideal"] == "missing-metric"


def test_unpinned_metric_warns_but_passes(tmp_path):
    update_pins("figx", "reduced", SUMMARY, pins_dir=str(tmp_path))
    grown = dict(SUMMARY, new_metric=42.0)
    report = check_drift("figx", "reduced", grown, pins_dir=str(tmp_path))
    assert report.ok
    assert statuses(report)["new_metric"] == "no-pin"


def test_no_pin_file_warns_but_passes(tmp_path):
    report = check_drift("figy", "reduced", SUMMARY, pins_dir=str(tmp_path))
    assert report.ok and not report.gated
    assert statuses(report) == {"*": "no-pins"}
    assert "ungated" in report.render()


def test_unpinned_scale_warns_but_passes(tmp_path):
    update_pins("figx", "reduced", SUMMARY, pins_dir=str(tmp_path))
    report = check_drift("figx", "full", SUMMARY, pins_dir=str(tmp_path))
    assert report.ok and not report.gated


def test_update_preserves_custom_rtol_and_other_scales(tmp_path):
    update_pins("figx", "reduced", SUMMARY, rtol=0.10, pins_dir=str(tmp_path))
    update_pins("figx", "smoke", {"m": 1.0}, pins_dir=str(tmp_path))
    # Re-pinning a scale keeps its hand-tuned tolerances...
    update_pins(
        "figx", "reduced", {"speedup_avg.nocstar": 1.2},
        rtol=DEFAULT_RTOL, pins_dir=str(tmp_path),
    )
    payload = load_pins("figx", pins_dir=str(tmp_path))
    reduced = payload["scales"]["reduced"]["metrics"]
    assert reduced["speedup_avg.nocstar"]["rtol"] == 0.10
    assert reduced["speedup_avg.nocstar"]["value"] == 1.2
    # ...drops metrics that vanished from the summary...
    assert "speedup_avg.ideal" not in reduced
    # ...and leaves other scales untouched.
    assert payload["scales"]["smoke"]["metrics"]["m"]["value"] == 1.0


def test_update_rejects_negative_rtol(tmp_path):
    with pytest.raises(ValueError, match="rtol"):
        update_pins("figx", "reduced", SUMMARY, rtol=-0.1,
                    pins_dir=str(tmp_path))


@pytest.mark.parametrize("rtol", [float("nan"), float("inf")])
def test_update_rejects_non_finite_rtol(rtol, tmp_path):
    """A NaN pin tolerance would fail every later check."""
    with pytest.raises(ValueError, match="rtol"):
        update_pins("figx", "reduced", SUMMARY, rtol=rtol,
                    pins_dir=str(tmp_path))
    assert not list(tmp_path.iterdir())  # no pin file written


def test_zero_pin_compares_absolutely(tmp_path):
    update_pins("figx", "reduced", {"retries": 0.0}, pins_dir=str(tmp_path))
    ok = check_drift("figx", "reduced", {"retries": 0.01},
                     pins_dir=str(tmp_path))
    assert ok.ok
    bad = check_drift("figx", "reduced", {"retries": 0.5},
                      pins_dir=str(tmp_path))
    assert not bad.ok


def test_pin_file_layout(tmp_path):
    path = update_pins("figx", "reduced", SUMMARY, pins_dir=str(tmp_path))
    assert path == pin_path("figx", pins_dir=str(tmp_path))
    with open(path) as fh:
        payload = json.load(fh)
    assert payload["schema"] == 1
    assert payload["campaign"] == "figx"
    pin = payload["scales"]["reduced"]["metrics"]["speedup_avg.nocstar"]
    assert pin == {"value": 1.137, "rtol": DEFAULT_RTOL}


def test_shipped_pins_cover_smoke_and_reduced():
    # The in-tree pins gate both CI scales of every shipped campaign.
    for campaign in ("fig2", "fig12", "fig13", "fig14", "fig15", "table1",
                     "policy_zoo"):
        payload = load_pins(campaign)
        assert payload is not None, f"no pins shipped for {campaign}"
        assert payload["schema"] == 1
        for scale in ("smoke", "reduced"):
            assert payload["scales"][scale]["metrics"], (
                f"{campaign} has no {scale} pins"
            )
