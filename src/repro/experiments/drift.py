"""Drift gate — pinned reference numbers per campaign, with tolerances.

Every campaign may ship a pin file (``pins/<campaign>.json``, package
data) holding, per scale, the expected value and relative tolerance of
each summary metric.  ``check_drift`` compares a measured summary
against those pins and produces a :class:`DriftReport` whose verdict
rows follow the bench-regression gate's philosophy
(``tools/check_bench_regression.py``):

* ``ok``             — within tolerance (green);
* ``DRIFT``          — beyond tolerance (red; the gate fails);
* ``missing-metric`` — pinned but not measured (red: a renamed or
  dropped metric must fail loudly, not silently un-gate itself);
* ``no-pin``         — measured but not pinned (warn, pass: new metrics
  need a pin-update, not a red build);
* ``no-pins``        — no pin file, or no section for this scale
  (warn, pass: a gate needs a reference before it can gate).

Pin file layout (sorted keys, one file per campaign)::

    {
      "schema": 1,
      "campaign": "fig12",
      "scales": {
        "reduced": {
          "metrics": {
            "speedup_avg.nocstar": {"value": 1.137, "rtol": 0.05}
          }
        }
      }
    }

The pins shipped in-tree are seeded from the measured numbers recorded
in EXPERIMENTS.md (reduced scale) and from the CI smoke runs (smoke
scale); ``repro experiments pin`` regenerates them — the documented
workflow for intentional model changes (see DESIGN.md).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.tables import render_table

from repro.experiments.analytics import Summary

#: Pin file layout version.
PIN_SCHEMA = 1

#: Default relative tolerance for freshly written pins.  The engine is
#: deterministic, so same-code re-runs match exactly; 5% headroom is
#: for platform float quirks and deliberate small calibration shifts —
#: anything larger should be a conscious `repro experiments pin`.
DEFAULT_RTOL = 0.05

#: In-tree pin directory (package data).
PINS_DIR = os.path.join(os.path.dirname(__file__), "pins")


def pin_path(campaign: str, pins_dir: Optional[str] = None) -> str:
    return os.path.join(pins_dir or PINS_DIR, f"{campaign}.json")


def load_pins(
    campaign: str, pins_dir: Optional[str] = None
) -> Optional[Dict]:
    """The campaign's pin payload, or ``None`` when no file exists."""
    path = pin_path(campaign, pins_dir)
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


@dataclass(frozen=True)
class DriftVerdict:
    """One metric's comparison against its pin."""

    metric: str
    status: str  # ok | DRIFT | missing-metric | no-pin | no-pins
    pinned: Optional[float] = None
    measured: Optional[float] = None
    rtol: Optional[float] = None

    @property
    def delta(self) -> Optional[float]:
        """Fractional deviation from the pin (None when incomparable)."""
        if self.pinned is None or self.measured is None:
            return None
        if self.pinned == 0.0:
            return self.measured
        return self.measured / self.pinned - 1.0


@dataclass
class DriftReport:
    """All verdicts of one (campaign, scale) drift check."""

    campaign: str
    scale: str
    verdicts: List[DriftVerdict]

    @property
    def ok(self) -> bool:
        return not any(
            v.status in ("DRIFT", "missing-metric") for v in self.verdicts
        )

    @property
    def gated(self) -> bool:
        """Whether any pin actually constrained this run."""
        return any(
            v.status in ("ok", "DRIFT", "missing-metric")
            for v in self.verdicts
        )

    def render(self) -> str:
        def fmt(value):
            return format(value, ".6g") if value is not None else "-"

        rows = []
        for v in self.verdicts:
            delta = v.delta
            rows.append(
                [
                    v.metric,
                    fmt(v.pinned),
                    fmt(v.measured),
                    f"{delta * 100.0:+.2f}%" if delta is not None else "-",
                    f"{v.rtol * 100.0:.0f}%" if v.rtol is not None else "-",
                    v.status,
                ]
            )
        title = f"== drift gate: {self.campaign} [{self.scale}] =="
        table = render_table(
            ["metric", "pinned", "measured", "delta", "rtol", "status"],
            rows,
            title=title,
        )
        verdict = "OK" if self.ok else "FAIL"
        if not self.gated:
            verdict = "OK (ungated: no pins for this scale)"
        return f"{table}\n{verdict}"


def _check_metric(
    metric: str, pin: Dict, measured: Optional[float]
) -> DriftVerdict:
    pinned = float(pin["value"])
    rtol = float(pin.get("rtol", DEFAULT_RTOL))
    if measured is None:
        return DriftVerdict(
            metric=metric, status="missing-metric", pinned=pinned, rtol=rtol
        )
    if pinned == 0.0:
        drifted = abs(measured) > rtol
    else:
        drifted = abs(measured - pinned) > rtol * abs(pinned)
    return DriftVerdict(
        metric=metric,
        status="DRIFT" if drifted else "ok",
        pinned=pinned,
        measured=float(measured),
        rtol=rtol,
    )


def check_drift(
    campaign: str,
    scale: str,
    summary: Summary,
    pins_dir: Optional[str] = None,
) -> DriftReport:
    """Compare a measured summary against the campaign's pins."""
    payload = load_pins(campaign, pins_dir)
    section = (
        ((payload or {}).get("scales") or {}).get(scale) or {}
    ).get("metrics")
    if not section:
        return DriftReport(
            campaign=campaign,
            scale=scale,
            verdicts=[DriftVerdict(metric="*", status="no-pins")],
        )
    verdicts = []
    for metric in sorted(section):
        verdicts.append(
            _check_metric(metric, section[metric], summary.get(metric))
        )
    for metric in sorted(summary):
        if metric not in section:
            verdicts.append(
                DriftVerdict(
                    metric=metric,
                    status="no-pin",
                    measured=float(summary[metric]),
                )
            )
    return DriftReport(campaign=campaign, scale=scale, verdicts=verdicts)


def update_pins(
    campaign: str,
    scale: str,
    summary: Summary,
    rtol: float = DEFAULT_RTOL,
    pins_dir: Optional[str] = None,
) -> str:
    """Write (or refresh) one scale's pins from a measured summary.

    Existing per-metric tolerances are preserved; metrics that vanished
    from the summary are dropped from the scale section (they would
    otherwise fail every future check as ``missing-metric``).  Other
    scales' sections are left untouched.  Returns the pin file path.
    """
    if not (math.isfinite(rtol) and rtol >= 0.0):
        raise ValueError(f"rtol must be a finite number >= 0, got {rtol}")
    payload = load_pins(campaign, pins_dir) or {
        "schema": PIN_SCHEMA,
        "campaign": campaign,
        "scales": {},
    }
    scales = payload.setdefault("scales", {})
    previous = (scales.get(scale) or {}).get("metrics") or {}
    metrics = {}
    for metric in sorted(summary):
        kept_rtol = float(previous.get(metric, {}).get("rtol", rtol))
        metrics[metric] = {
            "value": float(summary[metric]),
            "rtol": kept_rtol,
        }
    scales[scale] = {"metrics": metrics}
    path = pin_path(campaign, pins_dir)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
