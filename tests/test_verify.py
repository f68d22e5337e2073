"""Verification harness: suite plumbing, determinism, and the injectivity probe."""

import json

import numpy as np
import pytest

from gft import classes, verify
from gft.classes import CircleGrid, ClassSpec, is_in_B, random_member_B, real_part_test
from gft.kernels import OperatorParams
from gft.series import SchlichtSeries, differentiate
from gft.verify import (
    SUITE_ORDER,
    check_injectivity_sampled,
    default_lattice,
    run_all,
    run_suite,
)


def test_default_lattice_shape():
    lattice = default_lattice()
    assert len(lattice) == 44  # 11 valid (sigma, n) pairs x 4 betas
    assert all(spec.sigma - (spec.n - 1) > 0.0 for spec in lattice)


@pytest.mark.parametrize("theorem", SUITE_ORDER)
def test_every_suite_passes_at_small_trials(theorem):
    report = run_suite(theorem, trials=8, seed=0)
    assert report.verdict == "pass"
    assert report.worst_margin >= 0.0
    assert report.theorem == theorem
    assert report.trials == 8


def test_reports_are_deterministic():
    a = run_suite("7", trials=10, seed=3).to_json()
    b = run_suite("7", trials=10, seed=3).to_json()
    assert a == b


def test_report_serialization():
    report = run_suite("remark22", trials=4, seed=1)
    data = json.loads(report.to_json())
    assert data["theorem"] == "remark22"
    assert data["verdict"] == "pass"
    assert set(data) == {
        "theorem", "title", "verdict", "worst_margin", "trials",
        "seed", "lattice", "grid", "notes",
    }
    assert data["grid"]["angular_samples"] == 720
    assert len(data["lattice"]) == 44


def test_run_suite_validation():
    with pytest.raises(ValueError, match="unknown theorem id"):
        run_suite("99")
    with pytest.raises(ValueError):
        run_suite("7", trials=0)
    with pytest.raises(ValueError):
        run_suite("7", lattice=())


def test_run_all_covers_every_suite_in_order():
    reports = run_all(trials=2, seed=0)
    assert [r.theorem for r in reports] == list(SUITE_ORDER)
    assert all(r.verdict == "pass" for r in reports)


def test_suite_with_no_applicable_entries_reports_a_note():
    lattice = (ClassSpec(OperatorParams(0.5, 1)),)
    report = run_suite("2", lattice=lattice, trials=4)
    assert report.verdict == "pass" and report.worst_margin == 0.0
    assert any("no lattice entries" in note for note in report.notes)
    assert any("no checks ran" in note for note in report.notes)


def test_injectivity_suite_documents_its_restriction():
    report = run_suite("6", trials=4, seed=0)
    assert any("sigma > n excluded" in note for note in report.notes)


def test_derivative_envelope_suite_documents_the_shallow_case():
    report = run_suite("11", trials=4, seed=0)
    assert any("lower envelope not enforced" in note for note in report.notes)


def test_injectivity_probe_on_known_functions():
    assert check_injectivity_sampled(SchlichtSeries.from_coeffs([0.0, 1.0]))
    # derivative vanishes at |z| < 0.26, so two-point collisions exist nearby
    assert not check_injectivity_sampled(SchlichtSeries.from_coeffs([0.0, 1.0, 1.0, 5.0]))


def test_member_with_dominant_depth_parameter_can_lose_injectivity():
    """Pinned example: a genuine class member whose restriction fails.

    For sigma > n the class contains members whose derivative vanishes inside
    the disk; this seed reproduces one with an exact two-point collision
    found by the sampled search, and Re f' < 0 somewhere on |z| = 0.9.  It is
    why the bounded-turning suite only runs entries with sigma <= n.
    """
    spec = ClassSpec(OperatorParams(2.0, 1))
    f = random_member_B(spec, (0, 6, 8))
    assert is_in_B(f, spec)
    assert not check_injectivity_sampled(f, pairs=24, seed=(0, 66, 8))
    turning = real_part_test(differentiate(f), 0.0, CircleGrid(), coeff_bound=2.0)
    assert turning.verdict == "fail" and turning.padded[1] < -0.2


def _move_bounds(monkeypatch, lower_by, upper_by):
    """Replace growth_bounds and distortion_bounds, wherever they are bound, by moved copies."""
    for name in ("growth_bounds", "distortion_bounds"):
        def moved(spec, r, exact=getattr(classes, name)):
            lower, upper = exact(spec, r)
            return lower + lower_by, upper + upper_by

        monkeypatch.setattr(classes, name, moved)
        monkeypatch.setattr(verify, name, moved, raising=False)


def test_envelope_suites_check_the_printed_bounds(monkeypatch):
    """Suites 9 and 11 check members against growth_bounds and distortion_bounds themselves."""
    _move_bounds(monkeypatch, 1e-6, -1e-6)
    for theorem in ("9", "11"):
        report = run_suite(theorem, trials=200, seed=0)
        assert report.verdict == "fail" and report.worst_margin < -5e-7


def test_sharpness_checks_catch_a_shifted_bound(monkeypatch):
    """A bound moved by 1e-6 fails suites 9 and 11 at their sharpness checks alone, with one trial."""
    _move_bounds(monkeypatch, 1e-6, 1e-6)
    for theorem in ("9", "11"):
        report = run_suite(theorem, trials=1, seed=0)
        assert report.verdict == "fail" and report.worst_margin < -5e-7


def test_membership_suites_name_the_radii_they_cannot_fail_at():
    report = run_suite("2")
    loose = [note for note in report.notes if note.startswith("truncation allowance of 1 or more")]
    assert len(loose) == 1
    # 2 * 0.99**65 / 0.01 for the order-64 series, plus the grid tolerance
    assert "r = 0.99 (at least 104.1)" in loose[0]
    assert "r = 0.9 " not in loose[0] and "r = 0.5 " not in loose[0]
    tight = run_suite("2", trials=8, grid=CircleGrid(radii=(0.5, 0.9)))
    assert not any(note.startswith("truncation allowance") for note in tight.notes)


def test_custom_lattice_restricts_the_report():
    lattice = (ClassSpec(OperatorParams(2.0, 2), 0.5),)
    report = run_suite("7", lattice=lattice, trials=6, seed=2)
    assert report.verdict == "pass"
    assert report.lattice == [{"sigma": 2.0, "n": 2, "beta": 0.5}]
