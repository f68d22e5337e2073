"""Verification harness: suite plumbing, determinism, and critical-point certificates of non-univalence.

A zero of f' inside the disk proves f is not univalent there; the pinned
sigma > n member below has one at |z| = 0.756.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

from gft import classes, verify
from gft.classes import ClassSpec, is_in_B, random_member_B, real_part_test
from gft.kernels import OperatorParams
from gft.series import differentiate, evaluate
from gft.verify import (
    _BLOCK,
    SUITE_ORDER,
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


def test_derivative_envelope_suite_passes_past_the_tail_underflow(monkeypatch):
    # at order 1100, r**order underflows to 0.0 at r = 0.5, where an infinite n = 0 tail times it would be NaN
    monkeypatch.setenv("GFT_DEFAULT_ORDER", "1100")
    report = run_suite("11", trials=2, seed=0)
    assert report.verdict == "pass"
    assert math.isfinite(report.worst_margin)


def _critical_points(coeffs) -> np.ndarray:
    """Zeros of f' for the polynomial f with the given coefficients, by modulus."""
    c = np.asarray(coeffs, dtype=np.complex128)
    roots = np.roots((np.arange(1, c.size) * c[1:])[::-1])
    return roots[np.argsort(np.abs(roots))]


def test_injectivity_probe_on_known_functions():
    """A zero of f' inside the disk certifies that f is not univalent there."""
    assert _critical_points([0.0, 1.0]).size == 0
    # z + z**2 / 4 is univalent on the disk: its only critical point is z = -2
    assert np.allclose(_critical_points([0.0, 1.0, 0.25]), [-2.0])
    # f' = 1 + 2 z + 15 z**2 vanishes at |z| = 1 / sqrt(15) = 0.258
    assert np.allclose(np.abs(_critical_points([0.0, 1.0, 1.0, 5.0])), 1.0 / np.sqrt(15.0))


def test_member_with_dominant_depth_parameter_can_lose_injectivity():
    """Pinned example: a genuine class member whose restriction fails.

    For sigma > n the class contains members whose derivative vanishes inside
    the disk; this seed reproduces one with f' = 0 at |z| = 0.756, 0.821 and
    0.850, so f is not univalent on |z| < 0.9, and Re f' < 0 somewhere on
    |z| = 0.9.  It is why the bounded-turning suite only runs entries with
    sigma <= n.
    """
    spec = ClassSpec(OperatorParams(2.0, 1))
    f = random_member_B(spec, (0, 6, 8))
    assert is_in_B(f, spec)
    inside = [z for z in _critical_points(f.coeffs) if abs(z) < 0.9]
    assert np.allclose(np.abs(inside), [0.7556, 0.8213, 0.8501], atol=1e-4)
    derivative = differentiate(f)
    assert all(abs(evaluate(derivative, z)) < 1e-12 for z in inside)
    turning = real_part_test(differentiate(f), 0.0, coeff_bound=2.0)
    assert turning.verdict == "fail" and turning.padded[1] < -0.2


def _move_bounds(monkeypatch, lower_by, upper_by):
    """Replace the envelopes the suites read, verify's _envelope, growth_bounds and distortion_bounds, by moved copies.

    Only verify's names are replaced: growth_bounds and distortion_bounds call classes._envelope, so each moves once.
    """
    for name in ("_envelope", "growth_bounds", "distortion_bounds"):
        def moved(*args, exact=getattr(verify, name)):
            lower, upper = exact(*args)
            return lower + lower_by, upper + upper_by

        monkeypatch.setattr(verify, name, moved)


def test_envelope_suites_check_the_printed_bounds(monkeypatch):
    """Suites 3, 9 and 11 check members against the envelopes `gft bounds` prints, not copies of them."""
    _move_bounds(monkeypatch, 1e-6, -1e-6)
    for theorem in ("3", "9", "11"):
        report = run_suite(theorem, trials=200, seed=0)
        assert report.verdict == "fail" and report.worst_margin < -5e-7


def test_sharpness_checks_catch_a_shifted_bound(monkeypatch):
    """A bound moved by 1e-6 fails suites 3, 9 and 11 at their sharpness checks alone, with one trial."""
    _move_bounds(monkeypatch, 1e-6, 1e-6)
    for theorem in ("3", "9", "11"):
        report = run_suite(theorem, trials=1, seed=0)
        assert report.verdict == "fail" and report.worst_margin < -5e-7


def test_membership_suites_name_the_radii_they_cannot_fail_at(monkeypatch):
    report = run_suite("2")
    loose = [note for note in report.notes if note.startswith("truncation allowance of 1 or more")]
    assert len(loose) == 1
    # 2 * 0.99**65 / 0.01 for the order-64 series, plus the grid tolerance
    assert "r = 0.99 (at least 104.1)" in loose[0]
    assert "r = 0.9 " not in loose[0] and "r = 0.5 " not in loose[0]
    # suite 1's step images have coefficients up to 2 |1 - gamma| scale, so r = 0.99 is loose there too
    step = [note for note in run_suite("1").notes if note.startswith("truncation allowance of 1 or more")]
    assert len(step) == 1 and "r = 0.99 (at least 1.164)" in step[0]
    # suite 7 runs no real-part test, so it gives no slack to report
    assert not any(note.startswith("truncation allowance") for note in run_suite("7", trials=4).notes)
    for module in (classes, verify):
        monkeypatch.setattr(module, "RADII", (0.5, 0.9))
    tight = run_suite("2", trials=8)
    assert tight.grid["radii"] == [0.5, 0.9]
    assert not any(note.startswith("truncation allowance") for note in tight.notes)


def test_a_nan_margin_fails_the_suite(monkeypatch):
    """A check that yields NaN counts as a failure, not as a check that never ran."""
    nan_bounds = lambda spec, r: (math.nan, math.nan)  # noqa: E731
    monkeypatch.setattr(classes, "growth_bounds", nan_bounds)
    monkeypatch.setattr(verify, "growth_bounds", nan_bounds)
    report = run_suite("9", trials=1)
    assert report.verdict == "fail" and math.isnan(report.worst_margin)
    assert "no checks ran for this lattice" not in report.notes

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    data = json.loads(report.to_json(), parse_constant=reject)
    assert data["verdict"] == "fail" and data["worst_margin"] is None


def test_custom_lattice_restricts_the_report():
    lattice = (ClassSpec(OperatorParams(2.0, 2), 0.5),)
    report = run_suite("7", lattice=lattice, trials=6, seed=2)
    assert report.verdict == "pass"
    assert report.lattice == [{"sigma": 2.0, "n": 2, "beta": 0.5}]


def test_suite_memory_does_not_grow_with_trials():
    """Trials run in fixed blocks, so fifty blocks of trials peak within 10% of one block."""
    run_suite("2", trials=_BLOCK)  # warm up first, so one-time allocations count in neither peak
    peaks = []
    for trials in (_BLOCK, 50 * _BLOCK):
        tracemalloc.start()
        try:
            run_suite("2", trials=trials)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]
