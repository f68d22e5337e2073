"""Verification harness: suite plumbing, determinism, and critical-point certificates of non-univalence.

A zero of f' inside the disk proves f is not univalent there; the pinned
sigma > n member below has one at |z| = 0.766.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gft import classes, verify
from gft.bounds import RADII, ClassSpec
from gft.classes import (
    extremal_B_upper,
    is_in_B,
    member_rows,
    membership_in_B,
    membership_in_iterated_P,
    mixture_rows,
    p_series_of,
    random_member_B,
    real_part_test,
    verdicts,
)
from gft.kernels import OperatorParams, multiplier_row
from gft.operators import bernardi, extremal_iterate, iterate_closed, iterate_step_closed
from gft.series import (
    SchlichtSeries,
    TruncatedSeries,
    combine_convex,
    default_order,
    differentiate,
    evaluate,
    herglotz_rows,
)
from gft.verify import (
    _BLOCK,
    _DRAWS,
    SHARP_ORDER,
    SHARPNESS_TOL,
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


def test_reports_do_not_depend_on_the_block_size(monkeypatch):
    """Every suite that runs trials gives the same report bytes at any block size, partial last block included."""
    suites = [key for key in SUITE_ORDER if key != "10"]  # suite 10 is deterministic and runs no trials
    reports = {key: run_suite(key, trials=23, seed=0).to_json() for key in suites}
    for block in (1, 7):
        monkeypatch.setattr(verify, "_BLOCK", block)
        for key in suites:
            assert run_suite(key, trials=23, seed=0).to_json() == reports[key], (block, key)


def test_extremals_cut_at_the_sharp_order_drop_less_than_the_sharpness_tolerance():
    """The axis tail that the sharpness checks of suites 3, 9 and 11 leave out, worst over the default lattice.

    Each check sums its row w = f / z to k = SHARP_ORDER, times its factor: 1, r, or lam = sigma - n + 1 for
    suite 11's combination (sigma - n) f / z + f', whose coefficient j is (lam + j) a_{j+1}.  The tails are
    summed from upper extremals three times longer, whose coefficients bound the lower extremals' moduli.
    They are largest at r = 0.99: about 1.97e-12 for the iterates, 1.95e-12 for the members, and 6.52e-9 for
    the combination, whose coefficients grow like k.  A SHARPNESS_TOL below these needs the tail added first.
    """
    r, order = max(RADII), 3 * SHARP_ORDER
    powers = r ** np.arange(order + 1)
    iterates, members, combos = [], [], []
    for spec in default_lattice():
        iterates.append(extremal_iterate(spec.params, order).coeffs.real[SHARP_ORDER + 1 :] @ powers[SHARP_ORDER + 1 :])
        f = extremal_B_upper(spec, order).coeffs.real
        members.append(f[SHARP_ORDER + 2 :] @ powers[SHARP_ORDER + 2 :])
        combo = (spec.sigma - spec.n + 1.0 + np.arange(order)) * f[1:]
        combos.append(combo[SHARP_ORDER + 1 :] @ powers[SHARP_ORDER + 1 : order])
    assert max(iterates) == pytest.approx(1.97e-12, rel=0.02)
    assert max(members) == pytest.approx(1.95e-12, rel=0.02)
    assert max(combos) == pytest.approx(6.52e-9, rel=0.02)
    assert max(iterates + members + combos) < SHARPNESS_TOL


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


def test_run_suite_validation(monkeypatch):
    with pytest.raises(ValueError, match="unknown theorem id"):
        run_suite("99")
    with pytest.raises(ValueError):
        run_suite("7", trials=0)
    for trials in (2.7, True, math.nan, math.inf):  # no silent truncation to int
        with pytest.raises(ValueError, match="trials"):
            run_suite("3", trials=trials)
    assert run_suite("3", trials=np.int64(2)).trials == 2
    with pytest.raises(ValueError):
        run_suite("7", lattice=())
    # a count above the cap is refused before the suite runs: the None patched in here would raise TypeError
    monkeypatch.setitem(verify.SUITES, "7", ("not run", None))
    with pytest.raises(ValueError, match=f"trials must be an integer >= 1 and <= {verify._MAX_TRIALS}, got"):
        run_suite("7", trials=verify._MAX_TRIALS + 1)


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


def test_remark22_skips_entries_with_sigma_at_most_zero():
    """The single-parameter transform needs alpha = sigma > 0; a valid entry with sigma <= 0 is skipped with a note."""
    shallow = ClassSpec(OperatorParams(-0.5, 0), 0.0)
    report = run_suite("remark22", lattice=(shallow,), trials=4)
    assert report.verdict == "pass" and report.worst_margin == 0.0
    assert any("sigma <= 0 skipped" in note for note in report.notes)
    assert any("no checks ran" in note for note in report.notes)
    mixed = run_suite("remark22", lattice=(shallow, ClassSpec(OperatorParams(1.0, 1))), trials=4)
    # exp(-log1p(k)) and 1 / (1 + k) differ in the last bits, so the margin is 1e-12 less twice that difference
    k = np.arange(1, default_order() + 1)
    drift = np.max(np.abs(np.exp(-np.log1p(k)) - multiplier_row(1.0, 1, default_order())))
    assert drift < 1e-16
    assert mixed.verdict == "pass" and mixed.worst_margin == 1e-12 - 2.0 * drift
    assert any("sigma <= 0 skipped" in note for note in mixed.notes)
    assert not any("no checks ran" in note for note in mixed.notes)


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
    the disk; this seed reproduces one with f' = 0 at |z| = 0.766, 0.818 and
    0.872, so f is not univalent on |z| < 0.9, and Re f' < 0 somewhere on
    |z| = 0.9.  It is why the bounded-turning suite only runs entries with
    sigma <= n.
    """
    spec = ClassSpec(OperatorParams(2.0, 1))
    f = random_member_B(spec, (0, 6, 1))
    assert is_in_B(f, spec)
    inside = [z for z in _critical_points(f.coeffs) if abs(z) < 0.9]
    assert np.allclose(np.abs(inside), [0.7662, 0.8184, 0.8717], atol=1e-4)
    derivative = differentiate(f)
    assert all(abs(evaluate(derivative, z)) < 1e-12 for z in inside)
    turning = real_part_test(differentiate(f), 0.0, coeff_bound=2.0)
    assert turning.verdict == "fail" and turning.padded[1] < -0.2


def _move_bounds(monkeypatch, lower_by, upper_by):
    """Replace envelope_table, which builds the bounds that the suites and `gft bounds` read.

    Only verify's name is replaced, so the suites read moved bounds and classes keeps the exact ones.
    """
    exact = verify.envelope_table

    def moved(*args):
        lower, upper = exact(*args)
        return np.array([lower + lower_by, upper + upper_by])

    monkeypatch.setattr(verify, "envelope_table", moved)


def test_envelope_suites_check_the_printed_bounds(monkeypatch):
    """Suites 3, 9 and 11 check members against the envelopes `gft bounds` prints, not copies of them."""
    _move_bounds(monkeypatch, 1e-6, -1e-6)
    for theorem in ("3", "9", "11"):
        report = run_suite(theorem, trials=200, seed=0)
        assert report.verdict == "fail" and report.worst_margin < -5e-7


def test_sharpness_checks_catch_a_shifted_bound(monkeypatch):
    """A bound moved by 1e-6 fails suites 3, 9 and 11 at their sharpness checks alone, with one trial.

    Suite 10 checks its lower extremal near the boundary against the same printed lower growth bound.
    """
    _move_bounds(monkeypatch, 1e-6, 1e-6)
    for theorem in ("3", "9", "10", "11"):
        report = run_suite(theorem, trials=1, seed=0)
        assert report.verdict == "fail" and report.worst_margin < -5e-7


def test_membership_suites_name_the_radii_they_cannot_fail_at(monkeypatch):
    report = run_suite("2")
    loose = [note for note in report.notes if note.startswith("truncation allowance of 1 or more")]
    assert len(loose) == 1
    # 2 * 0.99**65 / 0.01 for the order-64 series, plus the grid tolerance
    assert "r = 0.99 (at least 104.1)" in loose[0]
    assert "r = 0.9 " not in loose[0] and "r = 0.5 " not in loose[0]
    # suite 1 tests its step's factors on mixtures in P, with the same coefficient bound 2 at the same order
    step = [note for note in run_suite("1").notes if note.startswith("truncation allowance of 1 or more")]
    assert len(step) == 1 and "r = 0.99 (at least 104.1)" in step[0]
    # suite 7 runs no real-part test, so it gives no slack to report
    assert not any(note.startswith("truncation allowance") for note in run_suite("7", trials=4).notes)
    for module in (classes, verify):
        monkeypatch.setattr(module, "RADII", (0.5, 0.9))
    tight = run_suite("2", trials=8)
    assert tight.grid["radii"] == [0.5, 0.9]
    assert not any(note.startswith("truncation allowance") for note in tight.notes)


@pytest.mark.parametrize("theorem, beta", [("3", 0.0), ("9", 0.5), ("11", 0.5)])
def test_sharpness_checks_read_each_entry_on_its_own(monkeypatch, theorem, beta):
    """One entry's lower bound moved by 1e-6 fails its suite by that much, with one trial that tests another entry.

    Suite 3's entries are its (sigma, n) pairs at beta 0, so there the pair (2, 1) is moved.
    """
    moved, exact = ClassSpec(OperatorParams(2.0, 1), beta), verify.envelope_table

    def move_one(specs, depth, r, factor):
        env = exact(specs, depth, r, factor)
        env[0, [spec == moved for spec in specs]] += 1e-6
        return env

    monkeypatch.setattr(verify, "envelope_table", move_one)
    report = run_suite(theorem, trials=1, seed=0)
    assert report.verdict == "fail"
    assert report.worst_margin == pytest.approx(SHARPNESS_TOL - 1e-6, rel=0.0, abs=1e-9)


@pytest.mark.parametrize("theorem", ["3", "9", "11"])
def test_sharp_envelopes_match_each_entry_summed_on_its_own(monkeypatch, theorem):
    """On a shuffled lattice that repeats (sigma, n) pairs, the batched sharpness margin is the per-entry one.

    Each entry's rows are built on their own, as extremal_iterate at SHARP_ORDER or extremal_B_lower and
    extremal_B_upper at SHARP_ORDER + 1, and summed exactly against r**k by math.fsum; suite 11's rows are the
    members' combinations (sigma - n) f / z + f', coefficient j = (sigma - n + 1 + j) a_{j+1}.  The bounds are
    classes._envelope's.
    """
    lattice = [
        ClassSpec(OperatorParams(sigma, n), beta)
        for sigma, n, beta in [(3.5, 2, 0.9), (0.5, 0, 0.0), (3.5, 2, 0.0), (1.0, 1, 0.25), (0.5, 0, 0.5)]
    ]
    batched, sharp = [], verify._sharp_envelopes

    def record(out, *args):
        alone = verify._Margins()
        env = sharp(alone, *args)
        batched.append(alone.worst)
        out.add(alone.worst)
        return env

    monkeypatch.setattr(verify, "_sharp_envelopes", record)
    run_suite(theorem, lattice=lattice, trials=1)
    radii = np.array(RADII)
    powers = radii[:, None] ** np.arange(SHARP_ORDER + 2)
    if theorem == "3":
        specs = [ClassSpec(params) for params in dict.fromkeys(spec.params for spec in lattice)]
    else:
        specs = lattice
    worst, largest = math.inf, 1.0
    for spec in specs:
        if theorem == "3":
            rows = [extremal_iterate(spec.params, SHARP_ORDER, sign).coeffs.real for sign in (-1, 1)]
            env = classes._envelope(spec, spec.n, radii, 1.0)
        else:
            rows = [f(spec, SHARP_ORDER + 1).coeffs.real for f in (classes.extremal_B_lower, extremal_B_upper)]
            env = classes.growth_bounds(spec, radii) if theorem == "9" else classes.distortion_bounds(spec, radii)
        if theorem == "11":
            rows = [(spec.sigma - spec.n + 1.0 + np.arange(SHARP_ORDER + 1)) * row[1:] for row in rows]
        for row, bound in zip(rows, env):
            axis = np.array([math.fsum(row * circle[: row.size]) for circle in powers])
            worst = min(worst, np.min(SHARPNESS_TOL - np.abs(axis - bound)))
            largest = max(largest, np.max(np.abs(bound)))
    assert len(batched) == 1
    assert abs(batched[0] - worst) <= 1e-15 * largest


def test_a_nan_margin_fails_the_suite(monkeypatch):
    """A check that yields NaN counts as a failure, not as a check that never ran."""
    monkeypatch.setattr(
        verify, "envelope_table", lambda specs, depth, r, factor: np.full((2, len(specs), len(r)), math.nan)
    )
    report = run_suite("9", trials=1)
    assert report.verdict == "fail" and math.isnan(report.worst_margin)
    assert "no checks ran for this lattice" not in report.notes

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    data = json.loads(report.to_json(), parse_constant=reject)
    assert data["verdict"] == "fail" and data["worst_margin"] is None


def test_a_minus_infinite_margin_fails_the_suite(monkeypatch):
    """A check that yields -inf counts as a failure, not as a check that never ran."""
    monkeypatch.setattr(
        verify, "envelope_table", lambda specs, depth, r, factor: np.full((2, len(specs), len(r)), math.inf)
    )
    report = run_suite("9", trials=1)
    assert report.verdict == "fail" and report.worst_margin == -math.inf
    assert "no checks ran for this lattice" not in report.notes
    data = json.loads(report.to_json())
    assert data["verdict"] == "fail" and data["worst_margin"] is None


def test_suite_11_fails_through_its_recurrence_check(monkeypatch):
    """Depth-1 multiplier rows scaled by 1 + 1e-9 break the recurrence at steps 1 and 2, and suite 11 fails there.

    Scaling every depth's rows alike would cancel out of the recurrence, so one depth alone is perturbed.
    """
    row, residuals = verify.multiplier_row, verify.recurrence_residuals
    monkeypatch.setattr(verify, "multiplier_row", lambda sigma, n, kmax: row(sigma, n, kmax) * (1.0 + 1e-9 * (n == 1)))
    seen = []
    monkeypatch.setattr(verify, "recurrence_residuals", lambda *args: seen.append(residuals(*args)) or seen[-1])
    report = run_suite("11", trials=8)
    assert report.verdict == "fail"
    assert report.worst_margin == verify.COEFF_TOL - max(np.max(r) for r in seen)


def test_suite_11_checks_every_step_of_every_entry(monkeypatch):
    """Steps 1 and 2 of (2, 2) and step 1 of (3.5, 1): lam = sigma - (m - 1) is 2, 1 and 3.5."""
    lattice = (ClassSpec(OperatorParams(2.0, 2), 0.5), ClassSpec(OperatorParams(3.5, 1), 0.0))
    residuals, lams = verify.recurrence_residuals, set()
    monkeypatch.setattr(verify, "recurrence_residuals", lambda lam, *rows: lams.update(lam) or residuals(lam, *rows))
    assert run_suite("11", lattice=lattice, trials=2).verdict == "pass"
    assert lams == {2.0, 1.0, 3.5}


def test_suite_11_checks_its_recurrence_once_however_many_trials(monkeypatch):
    """The recurrence is checked on factor rows, once per (sigma, n) and step, not on every trial."""
    residuals, calls = verify.recurrence_residuals, []
    monkeypatch.setattr(verify, "recurrence_residuals", lambda *args: calls.append(args) or residuals(*args))
    counts = []
    for trials in (1, 200):
        calls.clear()
        run_suite("11", trials=trials)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("sigma", [3000.0, 1e4])
def test_suite_11_passes_at_large_sigma_with_one_step(sigma):
    """Trial residuals (lam + k) c_k - lam c'_k of size lam rounded past COEFF_TOL here; the factor rows do not."""
    report = run_suite("11", lattice=(ClassSpec(OperatorParams(sigma, 1)),), trials=16, seed=0)
    assert report.verdict == "pass"


def test_remark22_fails_on_factors_off_by_a_billionth(monkeypatch):
    transform = verify.salagean_iterate

    def off(alpha, n, p):
        return TruncatedSeries(transform(alpha, n, p).coeffs * (1.0 + 1e-9))

    monkeypatch.setattr(verify, "salagean_iterate", off)
    report = run_suite("remark22", trials=4)
    assert report.verdict == "fail" and report.worst_margin < -1e-10


def test_remark22_runs_no_trials():
    """Its reports at 1 and 200 trials differ only in the trial count, and it says that it ignores them."""
    one, many = (run_suite("remark22", trials=trials, seed=3).to_dict() for trials in (1, 200))
    assert (one.pop("trials"), many.pop("trials")) == (1, 200)
    assert one == many
    assert "deterministic per lattice entry; trials parameter not used" in one["notes"]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 29),
    shift=st.floats(1e-4, 1e3),
    beta=st.floats(0.0, 0.99),
)
def test_step_turning_and_envelope_suites_pass_on_drawn_pairs(n, shift, beta):
    """One (sigma, n, beta) with sigma - (n - 1) in [1e-4, 1e3] and n <= 29: suites 1, 6, 9, 11 and remark22
    pass at 4 trials."""
    lattice = (ClassSpec(OperatorParams(shift + (n - 1), n), beta),)
    for theorem in ("1", "6", "9", "11", "remark22"):
        report = run_suite(theorem, lattice=lattice, trials=4, seed=0)
        assert report.verdict == "pass", (theorem, report.worst_margin)


def test_custom_lattice_restricts_the_report():
    lattice = (ClassSpec(OperatorParams(2.0, 2), 0.5),)
    report = run_suite("7", lattice=lattice, trials=6, seed=2)
    assert report.verdict == "pass"
    assert report.lattice == [{"sigma": 2.0, "n": 2, "beta": 0.5}]


def test_suite_memory_does_not_grow_with_trials():
    """Trials run in fixed blocks, so two hundred blocks of trials peak within 10% of one block.

    At that count, a suite's whole table of uniforms, 136 bytes per trial, would break the margin if it
    were drawn at once rather than one block of rows at a time.
    """
    run_suite("2", trials=_BLOCK)  # warm up first, so one-time allocations count in neither peak
    peaks = []
    for trials in (_BLOCK, 200 * _BLOCK):
        tracemalloc.start()
        try:
            run_suite("2", trials=trials)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


@pytest.mark.parametrize("width", [_DRAWS, _DRAWS + 1, 2 * _DRAWS + 1])
def test_blocks_read_the_rows_of_one_seeded_table(width):
    """The blocks' rows, partial last block included, are one default_rng((seed, suite)) draw of the table.

    Row t is also drawn alone after advancing the generator by t * width.
    """
    trials, seed, suite = 2 * _BLOCK + 5, (7, 2**64 + 1), 4
    blocks = list(verify._blocks(trials, 3, seed, suite, width))
    assert np.concatenate([idx for idx, _ in blocks]).tolist() == [t % 3 for t in range(trials)]
    table = np.random.default_rng((seed, suite)).random((trials, width))
    assert np.concatenate([u for _, u in blocks]).tobytes() == table.tobytes()
    for t in (0, _BLOCK + 1, trials - 1):
        rng = np.random.default_rng((seed, suite))
        rng.bit_generator.advance(t * width)
        assert rng.random(width).tobytes() == table[t].tobytes()


# sequence and big-integer seeds, all read by numpy itself
@pytest.mark.parametrize("seed", [(1, (2, 3)), [4, 5], 2**40 + 3, 2**95 + 1])
def test_reports_keep_the_streams_of_numpy_seeded_generators(monkeypatch, seed):
    """Every trial suite gives the same report when trial t draws its row alone from default_rng((seed, suite))."""
    fast = {key: run_suite(key, trials=_BLOCK + 3, seed=seed).to_json() for key in verify.SUITE_ORDER}

    def one_row_at_a_time(trials, size, seed, suite, width):
        for t in range(trials):
            rng = np.random.default_rng((seed, suite))
            rng.bit_generator.advance(t * width)
            yield np.array([t % size]), rng.random((1, width))

    monkeypatch.setattr(verify, "_blocks", one_row_at_a_time)
    for key, report in fast.items():
        assert report == run_suite(key, trials=_BLOCK + 3, seed=seed).to_json()


def test_seeds_are_reported_as_given():
    """A numeric string seeds as numpy reads it, and a numpy integer is reported as an int."""
    reports = [json.loads(run_suite("7", trials=3, seed=seed).to_json()) for seed in ("0x1f", 31, np.uint8(31))]
    assert [report.pop("seed") for report in reports] == ["0x1f", 31, 31]
    assert reports[0] == reports[1] == reports[2]


def test_a_negative_seed_is_rejected():
    for seed in (-1, (0, -2)):
        with pytest.raises(ValueError):
            run_suite("2", trials=1, seed=seed)


class _Recorder:
    """Stands in for a suite's margins and keeps the observed margins of every real-part test, row by row."""

    def __init__(self) -> None:
        self.observed = []

    def add_tests(self, observed, padded) -> None:
        self.observed.extend(observed)

    def add(self, value) -> None:
        pass

    def note(self, text) -> None:
        pass


def _mixture_p(u):
    """The unit-constant series of the mixture read from one row of _DRAWS uniforms."""
    return TruncatedSeries(herglotz_rows(*classes.random_mixtures(u[None]), default_order())[0])


def _suite_1_trial(spec, t, u):
    return real_part_test(iterate_step_closed(spec.sigma, spec.n, _mixture_p(u)), 0.0).observed


def _suite_2_trial(spec, t, u):
    p = iterate_closed(OperatorParams(spec.sigma, spec.n + 1), _mixture_p(u))
    return membership_in_iterated_P(p, spec.params).observed


def _suite_4_trial(spec, t, u):
    p, q = (iterate_closed(spec.params, _mixture_p(u[i : i + _DRAWS])) for i in (0, _DRAWS))
    return membership_in_iterated_P(combine_convex(u[-1], p, 1.0 - u[-1], q), spec.params).observed


def _member(spec, u):
    """The class member read from one row of _DRAWS uniforms."""
    mults = multiplier_row(spec.sigma, spec.n, default_order() - 1)[None]
    return SchlichtSeries(member_rows(mixture_rows(u[None], mults), [spec.beta])[0])


def _suite_5_trial(spec, t, u):
    deeper = ClassSpec(OperatorParams(spec.sigma, spec.n + 1), spec.beta)
    return membership_in_B(_member(deeper, u), spec).observed


def _suite_6_trial(spec, t, u):
    # Re f' - beta in the units of (f' - beta) / (1 - beta)
    turning = real_part_test(differentiate(_member(spec, u)), spec.beta, 2.0 * (1.0 - spec.beta))
    return np.array(turning.observed) / (1.0 - spec.beta)


def _suite_8_trial(spec, t, u):
    return membership_in_B(bernardi(spec.sigma - spec.n - 1.0, _member(spec, u)), spec).observed


def _suite_12_trial(spec, t, u):
    f, h = (p_series_of(_member(spec, u[i : i + _DRAWS]), spec.beta) for i in (0, _DRAWS))
    return membership_in_iterated_P(combine_convex(u[-1], f, 1.0 - u[-1], h), spec.params).observed


@pytest.mark.parametrize(
    "suite, width, trial",
    [
        ("1", _DRAWS, _suite_1_trial),
        ("4", 2 * _DRAWS + 1, _suite_4_trial),
        ("12", 2 * _DRAWS + 1, _suite_12_trial),
        ("2", _DRAWS, _suite_2_trial),
        ("5", _DRAWS, _suite_5_trial),
        ("6", _DRAWS, _suite_6_trial),
        ("8", _DRAWS, _suite_8_trial),
    ],
)
def test_each_draw_reads_its_own_columns(monkeypatch, suite, width, trial):
    """Suites 1, 2, 4, 5, 6, 8 and 12 read each draw from the columns the verify docstring gives it.

    Suites 4 and 12: two mixtures, then the weight mu; the others one mixture.  The rows are one base row
    and, per column, a copy that differs from it in that column alone, and every trial's margins must equal a
    rebuild of that trial from its own row, through the public member and class tests.
    """
    rng = np.random.default_rng(int(suite))
    table = np.tile(rng.random(width), (width + 1, 1))
    table[np.arange(1, width + 1), np.arange(width)] = rng.random(width)

    def one_block(trials, size, seed, suite_id, columns):
        assert (trials, columns) == table.shape
        yield np.arange(trials) % size, table

    monkeypatch.setattr(verify, "_blocks", one_block)
    # suites 2, 5 and 8 exclude sigma - n = 0, which suite 6 tests
    spec = ClassSpec(OperatorParams(3.5 if suite in ("2", "5", "8") else 2.0, 2), 0.25)
    out = _Recorder()
    getattr(verify, f"_suite_{suite}")((spec,), len(table), 0, out)
    assert len(out.observed) == len(table)
    for t, (u, observed) in enumerate(zip(table, out.observed)):
        assert np.allclose(observed, trial(spec, t, u), rtol=0.0, atol=1e-12), f"trial {t}"


@pytest.mark.parametrize("sigma, n, beta", [(2.0, 2, 0.25), (0.5, 0, 0.5), (3.5, 1, 0.0)])
@pytest.mark.parametrize("suite", ["3", "9", "11"])
def test_envelope_suites_test_the_rows_of_their_own_draws(monkeypatch, suite, sigma, n, beta):
    """Suites 3, 9 and 11 evaluate, for each draw, the row its envelope bounds, rebuilt from that draw alone.

    Suite 3: the iterate of the mixture, bit for bit; suite 9: the member's f / z, bit for bit; suite 11:
    rows that, times lam = sigma - n + 1, give the member's (sigma - n) f / z + f', whose coefficient j is
    (lam + j) a_{j+1}, to 1e-13 relative.  The rows of uniforms are those of test_each_draw_reads_its_own_columns.
    """
    rng = np.random.default_rng(int(suite))
    table = np.tile(rng.random(_DRAWS), (_DRAWS + 1, 1))
    table[np.arange(1, _DRAWS + 1), np.arange(_DRAWS)] = rng.random(_DRAWS)

    def one_block(trials, size, seed, suite_id, columns):
        assert (trials, columns) == table.shape
        yield np.arange(trials) % size, table

    values, rows = verify.evaluate_circle, []
    monkeypatch.setattr(verify, "_blocks", one_block)
    monkeypatch.setattr(verify, "evaluate_circle", lambda block, *grid: rows.extend(block) or values(block, *grid))
    spec = ClassSpec(OperatorParams(sigma, n), beta)
    getattr(verify, f"_suite_{suite}")((spec,), len(table), 0, verify._Margins())
    assert len(rows) == len(table)
    for t, (u, row) in enumerate(zip(table, rows)):
        if suite == "3":
            assert row.tobytes() == iterate_closed(spec.params, _mixture_p(u)).coeffs.tobytes(), f"trial {t}"
        elif suite == "9":
            assert row.tobytes() == _member(spec, u).coeffs[1:].tobytes(), f"trial {t}"
        else:
            lam = sigma - n + 1.0
            combo = (lam + np.arange(row.size)) * _member(spec, u).coeffs[1:]
            np.testing.assert_allclose(lam * row, combo, rtol=1e-13, atol=0.0, err_msg=f"trial {t}")


@pytest.mark.parametrize("theorem, sigma", [("5", 3.5), ("6", 2.0)])
def test_beta_drops_out_of_the_inclusion_and_turning_suites(theorem, sigma):
    """Suites 5 and 6 test diagonals that take no beta, so on one entry (sigma, 2, beta) every beta gives the same
    worst margin and notes."""
    reports = [
        run_suite(theorem, lattice=(ClassSpec(OperatorParams(sigma, 2), beta),), trials=20, seed=0)
        for beta in (0.0, 0.5, 0.9)
    ]
    assert reports[0].verdict == "pass" and reports[0].worst_margin > 0.0
    assert len({(report.worst_margin, tuple(report.notes)) for report in reports}) == 1


# (observed, padded) margins of one row at each radius, by the verdict real_part_test gives that row
_ROWS = {
    "pass": ([1.0, 1.0, 1.0], [2.0, 2.0, 2.0]),
    "inconclusive": ([1.0, -0.5, 1.0], [2.0, 0.5, 2.0]),
    "fail": ([-2.0, 1.0, 1.0], [-1.0, 2.0, 2.0]),
    "nan": ([math.nan, 1.0, 1.0], [math.nan, 2.0, 2.0]),
}


@pytest.mark.parametrize("block", [["pass"], ["pass", "inconclusive"], ["fail"], ["fail", "inconclusive"], ["nan"],
                                   ["fail", "nan"], ["pass", "fail"]])
def test_real_parts_finds_an_inconclusive_row_as_verdicts_does(monkeypatch, block):
    """A block is inconclusive when one of its rows is, a NaN row too, even if another row of it fails."""
    observed, padded = (np.array([_ROWS[kind][i] for kind in block]) for i in (0, 1))
    monkeypatch.setattr(verify, "real_part_margins", lambda p, threshold: (observed, padded))
    found = verify._real_parts(verify._Margins(), 2, [(1.0, 1)], 1, 0, np.ones((1, 63)))
    assert found == ("inconclusive" in verdicts(observed, padded)) == ("inconclusive" in block or "nan" in block)


@pytest.mark.parametrize("theorem", ["1", "2", "4", "5", "6", "8", "12"])
def test_every_real_part_suite_fails_on_a_row_outside_P(monkeypatch, theorem):
    """Mixture rows with c_1 = 1e3 have real part far below 0 on every circle; each suite of the driver fails."""

    def outside(points, weights, order):
        rows = herglotz_rows(points, weights, order)
        rows[:, 1] = 1e3
        return rows

    monkeypatch.setattr(classes, "herglotz_rows", outside)
    report = run_suite(theorem, trials=20, seed=0)
    assert report.verdict == "fail"
    assert report.worst_margin < -100.0
