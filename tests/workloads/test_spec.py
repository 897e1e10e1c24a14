"""Workload spec validation."""

import pytest

from repro.workloads.spec import WorkloadSpec


def make(**overrides):
    base = dict(
        name="test",
        hot_pages=64,
        hot_fraction=0.9,
        warm_pages=512,
        warm_fraction=0.04,
        footprint_pages=10_000,
        cold_alpha=0.8,
        seq_fraction=0.3,
        lib_fraction=0.02,
        mean_gap=5.0,
        superpage_fraction=0.6,
    )
    base.update(overrides)
    return WorkloadSpec(**base)


def test_cold_fraction_is_remainder():
    spec = make()
    assert spec.cold_fraction == pytest.approx(1 - 0.9 - 0.04 - 0.02)


def test_rejects_overfull_fractions():
    with pytest.raises(ValueError):
        make(hot_fraction=0.9, warm_fraction=0.2)


def test_rejects_empty_pools():
    with pytest.raises(ValueError):
        make(hot_pages=0)
    with pytest.raises(ValueError):
        make(footprint_pages=0)


def test_rejects_bad_seq():
    with pytest.raises(ValueError):
        make(seq_fraction=1.0)


def test_rejects_superpage_fraction_outside_unit_interval():
    with pytest.raises(ValueError):
        make(superpage_fraction=1.5)
    with pytest.raises(ValueError):
        make(superpage_fraction=-0.1)


def test_rejects_sub_cycle_gap():
    with pytest.raises(ValueError):
        make(mean_gap=0.5)


def test_with_superpages_toggle():
    spec = make(superpage_fraction=0.6)
    assert spec.with_superpages(True).superpage_fraction == 0.6
    assert spec.with_superpages(False).superpage_fraction == 0.0
    assert spec.with_superpages(False).name == spec.name


def test_scaled_footprint():
    spec = make(footprint_pages=10_000)
    assert spec.scaled_footprint(0.5).footprint_pages == 5_000
    assert spec.scaled_footprint(0.0001).footprint_pages == 1024  # floor
