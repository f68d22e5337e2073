"""Class membership, extremal members, and the closed-form bound table."""

import ast
import csv
import io
import math
import pathlib
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gft import bounds
from gft.bounds import BOUNDS_COLUMNS, RADII, ClassSpec, bounds_rows, envelope_table, multiplier_series, write_bounds_csv
from gft.classes import (
    _DRAWS,
    MembershipResult,
    circle_points,
    covering_constant,
    distortion_bounds,
    extremal_B_lower,
    extremal_B_upper,
    growth_bounds,
    inflate_to_non_member,
    is_in_B,
    member_from_p,
    member_rows,
    membership_in_B,
    membership_in_B_direct,
    membership_in_P,
    membership_in_iterated_P,
    min_re_on_circle,
    mixture_rows,
    p_rows,
    p_series_of,
    random_member_B,
    random_mixture,
    random_mixtures,
    real_part_margins,
    real_part_test,
    verdicts,
)
from gft.kernels import OperatorParams, multiplier, multiplier_row
from gft.operators import extremal_iterate, iterate_closed
from gft.series import (
    HerglotzMixture,
    SchlichtSeries,
    TruncatedSeries,
    evaluate,
    evaluate_circle_real,
    herglotz_expand,
    herglotz_rows,
)
from gft.verify import _BLOCK, VerificationReport, default_lattice, run_suite

HALFPLANE_EXTREMAL = TruncatedSeries(np.concatenate([[1.0], np.full(64, 2.0)]))


def lattice_specs():
    out = []
    for sigma in (0.5, 1.0, 2.0, 3.5):
        for n in (0, 1, 2, 3):
            if sigma - (n - 1) > 0.0:
                for beta in (0.0, 0.25, 0.5, 0.9):
                    out.append(ClassSpec(OperatorParams(sigma, n), beta))
    return out


def test_spec_and_grid_validation():
    spec = ClassSpec(OperatorParams(2.0, 1), 0.25)
    assert (spec.sigma, spec.n, spec.beta) == (2.0, 1, 0.25)
    with pytest.raises(ValueError):
        ClassSpec(OperatorParams(2.0, 1), 1.0)
    grid = run_suite("remark22", trials=1).grid
    assert grid == {"radii": [0.5, 0.9, 0.99], "angular_samples": 720, "tolerance": 1e-9}


def test_circle_points_layout():
    pts = circle_points(0.5, 720)
    assert pts.shape == (720,)
    assert np.allclose(np.abs(pts), 0.5)
    assert pts[0] == 0.5 + 0.0j
    assert pts[360] == pytest.approx(-0.5, abs=1e-15)  # even count hits the negative axis


def test_min_re_matches_halfplane_extremal():
    # min Re (1 + z)/(1 - z) on |z| = r is (1 - r)/(1 + r)
    assert min_re_on_circle(HALFPLANE_EXTREMAL, 0.5, 720) == pytest.approx(1.0 / 3.0, abs=1e-12)
    long_tail = TruncatedSeries(np.concatenate([[1.0], np.full(512, 2.0)]))
    assert min_re_on_circle(long_tail, 0.9, 720) == pytest.approx(1.0 / 19.0, abs=1e-12)
    with pytest.raises(ValueError):
        min_re_on_circle(HALFPLANE_EXTREMAL, 1.0, 720)


def test_membership_verdicts():
    # pass at every radius: at order 1024 the sampled real part stays positive even at r = 0.99
    long_extremal = TruncatedSeries(np.concatenate([[1.0], np.full(1024, 2.0)]))
    ok = membership_in_P(long_extremal, 0.0)
    assert ok.verdict == "pass" and bool(ok)
    # min Re (1 + z)/(1 - z) on |z| = r is (1 - r)/(1 + r); at r = 0.99 the dropped tail still shows
    assert ok.observed[:2] == pytest.approx((1.0 / 3.0, 1.0 / 19.0), abs=1e-12)
    assert 0.0049 < ok.observed[2] < 0.01 / 1.99
    # coefficient 3 breaks the bound; the dip at r = 0.9 is decisive
    bad = np.zeros(65)
    bad[0], bad[1] = 1.0, 3.0
    res = membership_in_P(TruncatedSeries(bad))
    assert res.verdict == "fail" and not bool(res)
    assert res.margin < 0.0
    # short truncation: observed dips below zero but the tail allowance covers it
    shallow = real_part_test(TruncatedSeries(np.array([1.0, -1.2])), 0.0)
    assert shallow.verdict == "inconclusive" and bool(shallow)
    assert shallow.observed[1] < 0.0 < shallow.padded[1]  # r = 0.9


def test_membership_requires_unit_constant_and_valid_beta():
    with pytest.raises(ValueError):
        membership_in_P(TruncatedSeries(np.array([0.5, 1.0])))
    with pytest.raises(ValueError):
        membership_in_P(HALFPLANE_EXTREMAL, beta=-0.1)
    member = extremal_B_upper(ClassSpec(OperatorParams(2.0, 1)), 8)
    for beta in (-0.1, 1.0, math.nan):
        with pytest.raises(ValueError, match="beta must lie in"):
            p_series_of(member, beta)


def test_iterated_family_membership():
    params = OperatorParams(2.0, 2)
    p = herglotz_expand(random_mixture(np.random.default_rng(3)), 64)
    assert membership_in_iterated_P(iterate_closed(params, p), params)
    bad = np.zeros(65)
    bad[0], bad[1] = 1.0, 3.0
    assert not membership_in_iterated_P(iterate_closed(params, TruncatedSeries(bad)), params)


def test_member_p_series_round_trip():
    spec = ClassSpec(OperatorParams(3.5, 2), 0.25)
    q = iterate_closed(spec.params, herglotz_expand(random_mixture(np.random.default_rng(5)), 63))
    f = member_from_p(spec, q)
    assert f.coeffs[1] == 1.0
    back = p_series_of(f, spec.beta)
    assert np.allclose(back.coeffs, q.coeffs, rtol=1e-13, atol=1e-15)


def test_random_member_is_deterministic_and_bounded():
    spec = ClassSpec(OperatorParams(2.0, 1), 0.5)
    f = random_member_B(spec, 42)
    g = random_member_B(spec, 42)
    assert np.array_equal(f.coeffs, g.coeffs)
    assert not np.array_equal(f.coeffs, random_member_B(spec, 43).coeffs)
    for k in range(2, f.order + 1):
        bound = 2.0 * (1.0 - spec.beta) * multiplier(spec.sigma, spec.n, k - 1)
        assert abs(f.coeffs[k]) <= bound + 1e-12
    assert is_in_B(f, spec)


def test_two_membership_routes_agree():
    """Iterate-family route and raising-operator route return the same answer.

    At beta = 0 the two margin computations follow identical float paths, so
    the observed tuples match exactly; at beta > 0 they differ by the factor
    (1 - beta).  100 members and 20 inflated non-members, full lattice.
    """
    specs = lattice_specs()
    for t in range(100):
        spec = specs[t % len(specs)]
        f = random_member_B(spec, (9, t))
        via_iterate = membership_in_B(f, spec)
        via_raising = membership_in_B_direct(f, spec)
        assert bool(via_iterate) and bool(via_raising)
        if spec.beta == 0.0:
            assert via_iterate.observed == via_raising.observed
        else:
            scaled = tuple((1.0 - spec.beta) * o for o in via_iterate.observed)
            assert scaled == pytest.approx(via_raising.observed, rel=1e-10, abs=1e-12)
    for t in range(20):
        spec = specs[(7 * t) % len(specs)]
        g = inflate_to_non_member(spec, (19, t))
        assert not membership_in_B(g, spec)
        assert not membership_in_B_direct(g, spec)


def test_extremal_member_coefficients():
    spec = ClassSpec(OperatorParams(1.0, 1))
    up = extremal_B_upper(spec, order=16)
    k = np.arange(2, 17)
    assert np.allclose(up.coeffs[2:].real, 2.0 / k, rtol=1e-15)  # a_k = 2/k here
    low = extremal_B_lower(spec, order=16)
    assert np.allclose(np.abs(low.coeffs[2:]), 2.0 / k, rtol=1e-15)
    assert np.all(np.sign(low.coeffs[2:].real) == (-1.0) ** (k - 1))


def test_member_rows_maps_real_iterates_for_many_betas_at_once():
    """Two real iterates and a column of betas give a (betas, 2, K) stack of the extremals' real parts, bit for bit."""
    params, betas = OperatorParams(3.5, 2), (0.0, 0.25, 0.9)
    iterates = np.array([extremal_iterate(params, 40, sign).coeffs.real for sign in (-1, 1)])
    stack = member_rows(iterates, np.array(betas)[:, None])
    assert stack.shape == (3, 2, 42) and stack.dtype == np.float64
    for beta, rows in zip(betas, stack):
        for row, extremal in zip(rows, (extremal_B_lower, extremal_B_upper)):
            coeffs = extremal(ClassSpec(params, beta), 41).coeffs
            assert row.tobytes() == coeffs.real.tobytes() and not coeffs.imag.any()


def test_growth_oracle_logarithmic_values():
    spec = ClassSpec(OperatorParams(1.0, 1))
    lower, upper = growth_bounds(spec, 0.5)
    assert upper == pytest.approx(2.0 * math.log(2.0) - 0.5, abs=1e-9)
    assert lower == pytest.approx(2.0 * math.log(1.5) - 0.5, abs=1e-9)
    with pytest.raises(ValueError):
        growth_bounds(spec, 1.0)


def test_growth_is_attained_by_the_extremals():
    spec = ClassSpec(OperatorParams(3.5, 2), 0.25)
    for r in (0.3, 0.7):
        order = math.ceil(math.log(1e-14) / math.log(r))  # dropped terms below 1e-14
        lower, upper = growth_bounds(spec, r)
        assert evaluate(extremal_B_upper(spec, order), r).real == pytest.approx(upper, rel=1e-13)
        assert evaluate(extremal_B_lower(spec, order), r).real == pytest.approx(lower, rel=1e-13)


def test_covering_constant_closed_forms():
    assert covering_constant(ClassSpec(OperatorParams(1.0, 1))) == pytest.approx(
        2.0 * math.log(2.0) - 1.0, abs=1e-12
    )
    assert covering_constant(ClassSpec(OperatorParams(0.5, 1))) == pytest.approx(
        math.pi / 2.0 - 1.0, abs=1e-12
    )
    assert covering_constant(ClassSpec(OperatorParams(2.0, 1))) == pytest.approx(
        3.0 - 4.0 * math.log(2.0), abs=1e-12
    )
    assert covering_constant(ClassSpec(OperatorParams(2.0, 2))) == pytest.approx(
        8.0 * math.log(2.0) - 5.0, abs=1e-12
    )


def test_covering_constant_depth_and_validation():
    # deeper iteration covers more of the image disk
    shallow = covering_constant(ClassSpec(OperatorParams(2.0, 1)))
    deep = covering_constant(ClassSpec(OperatorParams(2.0, 2)))
    assert deep > shallow
    with pytest.raises(ValueError):
        covering_constant(ClassSpec(OperatorParams(2.0, 0)))


def test_distortion_oracle_values():
    lower, upper = distortion_bounds(ClassSpec(OperatorParams(1.0, 1)), 0.5)
    assert upper == pytest.approx(3.0, abs=1e-12)
    assert lower == pytest.approx(1.0 / 3.0, abs=1e-12)
    with pytest.raises(ValueError):
        distortion_bounds(ClassSpec(OperatorParams(1.0, 1)), 1.0)
    # n = 0 goes through the single-step inverse extension and stays ordered
    low0, up0 = distortion_bounds(ClassSpec(OperatorParams(1.0, 0), 0.5), 0.5)
    assert low0 < up0


def test_bounds_over_an_array_of_radii_match_the_scalar_calls():
    """One call over all radii gives each radius's scalar bounds bit for bit, on the default lattice."""
    radii = np.array(RADII)
    for spec in default_lattice():
        for bounds in (growth_bounds, distortion_bounds):
            lower, upper = bounds(spec, radii)
            scalar = np.array([bounds(spec, r) for r in RADII]).T
            assert lower.tobytes() == scalar[0].tobytes() and upper.tobytes() == scalar[1].tobytes()
            assert all(type(v) is float for v in bounds(spec, 0.5))
    spec = ClassSpec(OperatorParams(1.0, 1))
    for bounds in (growth_bounds, distortion_bounds):
        with pytest.raises(ValueError, match="radius must lie strictly between 0 and 1"):
            bounds(spec, np.array([0.5, 1.0]))


def test_bounds_table_makes_one_quadrature_call_per_bound_and_spec(monkeypatch):
    """bounds_rows computes each (sigma, n) pair's growth, distortion and covering series once, over all radii.

    The betas of a pair share its series: on the default lattice, 11 pairs, 7 of them with n >= 1.
    """
    calls = []

    def counted(*args):
        calls.append(args)
        return multiplier_series(*args)

    monkeypatch.setattr(bounds, "multiplier_series", counted)
    specs = default_lattice()
    rows = bounds_rows(specs, RADII)
    assert len(rows) == len(specs) * len(RADII)
    pairs = {(spec.sigma, spec.n) for spec in specs}
    assert len(calls) == 2 * len(pairs) + sum(n >= 1 for _, n in pairs) == 29


_PAIRS = [(sigma, n) for sigma in (0.5, 1.0, 2.0, 3.5) for n in (0, 1, 2, 3) if sigma - (n - 1) > 0.0]


@st.composite
def _radii(draw):
    """One radius, a row of three or a 2 x 2 block, each in (0, 1)."""
    shape = draw(st.sampled_from(((), (3,), (2, 2))))
    values = draw(st.lists(st.floats(1e-3, 0.999), min_size=math.prod(shape), max_size=math.prod(shape)))
    return np.array(values).reshape(shape)


@given(
    entries=st.lists(st.tuples(st.sampled_from(_PAIRS), st.sampled_from((0.0, 0.25, 0.5, 0.9))), max_size=8),
    r=_radii(),
)
@settings(max_examples=40, deadline=None)
@example(
    entries=[((3.5, 2), 0.9), ((0.5, 0), 0.0), ((3.5, 2), 0.0), ((1.0, 1), 0.25), ((0.5, 0), 0.5)], r=np.array(RADII)
)
def test_envelope_table_is_bit_identical_to_the_per_spec_bounds(entries, r):
    """Over shuffled lattices that repeat (sigma, n) pairs, each column of the table is its spec's bounds alone.

    The growth table (depth 0, factor r) and the distortion table (depth -1, factor sigma - (n - 1)) match
    growth_bounds and distortion_bounds, the affine map of one multiplier_series call, and, over a row of
    radii, the columns of bounds_rows; all by bytes.
    """
    specs = [ClassSpec(OperatorParams(sigma, n), beta) for (sigma, n), beta in entries]
    lam = np.array([spec.sigma - (spec.n - 1) for spec in specs]).reshape(-1, *(1,) * r.ndim)
    growth, m = envelope_table(specs, 0, r, r), envelope_table(specs, -1, r, lam)
    assert growth.shape == m.shape == (2, len(specs), *r.shape)
    x = np.stack([-r, r])
    for i, spec in enumerate(specs):
        for table, bounds, depth, factor in ((growth, growth_bounds, 0, r), (m, distortion_bounds, -1, lam[i])):
            alone = factor * (1.0 + 2.0 * (1.0 - spec.beta) * multiplier_series(spec.sigma, spec.n + depth, x))
            assert table[:, i].tobytes() == alone.tobytes() == np.array(bounds(spec, r)).tobytes()
    if r.ndim == 1:
        columns = {key: [row[key] for row in bounds_rows(specs, r)] for key in BOUNDS_COLUMNS[4:8]}
        for key, values in zip(BOUNDS_COLUMNS[4:8], (*m, *growth)):
            assert np.array(columns[key]).tobytes() == values.reshape(-1).tobytes()


def test_envelope_table_and_bounds_rows_of_no_specs():
    assert bounds_rows([], RADII) == []
    assert envelope_table([], 0, RADII, np.array(RADII)).shape == (2, 0, 3)
    assert envelope_table([], -1, RADII, np.zeros((0, 1))).shape == (2, 0, 3)
    with pytest.raises(ValueError, match="radius must lie strictly between 0 and 1"):
        envelope_table([], 0, (0.5, 1.0), 1.0)


def _atanh_sqrt(x):
    """atanh(sqrt(x)) / sqrt(x) for 0 < x < 1, with 1 - sqrt(x) formed as (1 - x) / (1 + sqrt(x))."""
    q = math.sqrt(x)
    return 0.5 * math.log1p(2.0 * q * (1.0 + q) / (1.0 - x)) / q


@pytest.mark.parametrize("r", (0.5, 0.99, 0.999999))
def test_bounds_match_elementary_closed_forms(r):
    """Growth, distortion and covering at radii where a padded partial sum goes vacuous.

    rel 1e-14 is 20 times the measured error; forming 1 - x t by subtraction instead
    of (1 - x) + x (1 - t) already misses it by 6e-14 at r = 0.999999.
    """
    exact = pytest.approx
    # (1, 1): multiplier 1 / (k + 1), S(x) = -ln(1 - x) / x - 1
    spec = ClassSpec(OperatorParams(1.0, 1))
    assert growth_bounds(spec, r) == exact((2.0 * math.log1p(r) - r, -2.0 * math.log1p(-r) - r), rel=1e-14)
    assert distortion_bounds(spec, r) == exact(((1.0 - r) / (1.0 + r), (1.0 + r) / (1.0 - r)), rel=1e-14)
    assert covering_constant(spec) == exact(2.0 * math.log(2.0) - 1.0, abs=1e-15)
    # (0.5, 1): multiplier 1 / (2 k + 1), S(x) = atanh(sqrt x) / sqrt x - 1, arctan form for x < 0
    spec = ClassSpec(OperatorParams(0.5, 1), 0.25)
    q = math.sqrt(r)
    upper = r * (1.0 + 1.5 * (_atanh_sqrt(r) - 1.0))
    lower = r * (1.0 + 1.5 * (math.atan(q) / q - 1.0))
    assert growth_bounds(spec, r) == exact((lower, upper), rel=1e-14)
    assert covering_constant(spec) == exact(1.0 + 1.5 * (math.pi / 4.0 - 1.0), abs=1e-15)
    # (1, 0): S_0(x) = x / (1 - x); distortion through S_{-1}(x) = S_0(x) + x / (2 (1 - x)**2)
    spec = ClassSpec(OperatorParams(1.0, 0), 0.5)
    assert growth_bounds(spec, r) == exact((r / (1.0 + r), r / (1.0 - r)), rel=1e-14)
    s_minus = -r / (1.0 + r) - r / (2.0 * (1.0 + r) ** 2)
    s_plus = r / (1.0 - r) + r / (2.0 * (1.0 - r) ** 2)
    assert distortion_bounds(spec, r) == exact((2.0 * (1.0 + s_minus), 2.0 * (1.0 + s_plus)), rel=1e-14)


@given(
    n=st.integers(-1, 4),
    shift=st.one_of(st.floats(1e-9, 20.0), st.sampled_from((1e-12, 1e-6, 1e-3))),
    x=st.floats(-0.95, 0.95),
)
@settings(max_examples=200, deadline=None)
def test_multiplier_series_matches_long_partial_sums(n, shift, x):
    """S(x) against order-5000 partial sums, down to sigma just above its lower limit.

    The absolute floor of 1e-300 covers subnormal x, where no relative accuracy exists.
    """
    sigma = max(n, 0) - 1.0 + shift
    terms = multiplier_row(sigma, n, 5000) * x ** np.arange(1, 5001)
    assert float(multiplier_series(sigma, n, x)) == pytest.approx(
        float(np.sum(terms)), rel=1e-12, abs=1e-13 * float(np.sum(np.abs(terms))) + 1e-300
    )


@given(
    log_a=st.floats(-3.0, 4.0),
    n=st.integers(1, 10_000),
    x=st.one_of(st.sampled_from((-1.0, -0.5, 0.5, 0.9, 0.99, 0.999999)), st.floats(-1.0, 0.999999)),
)
@settings(max_examples=100, deadline=None)
# mpmath's 1 - x transform of 2F1 does not converge here, where c - a - b = n - 1 is an integer and a is 9,316
@example(log_a=3.969149060143738, n=501, x=0.875)
def test_multiplier_series_matches_hypergeometric_oracle(log_a, n, x):
    """S(x) against mpmath's x a / (a + n) 2F1(1, a + 1; a + n + 1; x), a = sigma - n + 1 and n up to 1e4.

    Narrow Beta weights, a and n both large, and a pole near t = 1 (x -> 1) all stay exact to 1e-13.
    Where hyp2f1 does not converge within 500 bits, the oracle is the same S(x) as Euler's integral:
    x a / (a + n) times the mean of 1 / (1 - x t) under the weight t**a (1 - t)**(n - 1), by mpmath.quad
    split at the weight's mode m and scaled by its peak, so that quad's absolute error test is relative.
    """
    sigma = 10.0**log_a + (n - 1.0)
    with mpmath.workdps(30):
        a = mpmath.mpf(sigma) - (n - 1)  # the a that sigma carries after rounding
        try:
            mean = mpmath.hyp2f1(1, a + 1, a + n + 1, x, maxprec=500)  # a failing call gives up within a second
        except ValueError:  # hypercomb() failed to converge
            m = a / (a + n - 1)
            peak = m**a * (1 - m) ** (n - 1)
            weight = lambda t: t**a * (1 - t) ** (n - 1) / peak  # noqa: E731
            mean = mpmath.quad(lambda t: weight(t) / (1 - x * t), [0, m, 1]) / mpmath.quad(weight, [0, m, 1])
        exact = float(x * a / (a + n) * mean)
    assert float(multiplier_series(sigma, n, x)) == pytest.approx(exact, rel=1e-13, abs=1e-300)


def test_multiplier_series_shape_and_validation():
    x = np.array([[-1.0, -0.5], [0.0, 0.999]])
    s = multiplier_series(2.0, 2, x)
    assert s.shape == (2, 2) and s[1, 0] == 0.0
    assert s[0, 0] == pytest.approx(4.0 * math.log(2.0) - 3.0, abs=1e-15)  # covering (2, 2) is 1 + 2 S(-1)
    for bad in (1.0, -1.5, math.nan):
        with pytest.raises(ValueError):
            multiplier_series(2.0, 2, bad)
    with pytest.raises(ValueError):
        multiplier_series(0.5, 2, 0.5)  # sigma - (n - 1) <= 0
    with pytest.raises(ValueError):
        multiplier_series(1.0, -2, 0.5)


def _theta_scan(terms, r):
    """Re(1 + 2 sum_k d_k r**k e^(ik theta)) at theta = 2 pi j / 720, d = sum of w m(sigma, n, .) over (w, sigma, n).

    The order K has r**K < 1e-17, and theta = pi is sample 360.
    """
    order = math.ceil(math.log(1e-17) / math.log(r))
    d = sum(w * multiplier_row(sigma, n, order) for w, sigma, n in terms)
    return evaluate_circle_real(np.r_[1.0, 2.0 * d], r, 720)


@given(
    weights=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    ns=st.tuples(st.integers(0, 4), st.integers(0, 4)),
    log_shifts=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    r=st.floats(0.05, 0.95),
)
@settings(max_examples=60, deadline=None)
def test_a_nonnegative_combination_of_multiplier_rows_is_least_at_theta_pi(weights, ns, log_shifts, r):
    """The theta = pi rule: with every weight >= 0, the scan's minimum is its theta = pi value, 1 + 2 sum w S(-r).

    Each m(sigma, n, k) is a moment E[T**k] of some T in [0, 1], and Re(t e^(i theta) / (1 - t e^(i theta))) grows
    with cos(theta) for t in [0, 1), so every nonnegative combination is least at theta = pi.
    """
    terms = [(w, n - 1.0 + 10.0**e, n) for w, n, e in zip(weights, ns, log_shifts)]
    values = _theta_scan(terms, r)
    at_pi = values[360]
    tol = 1e-12 * max(1.0, abs(at_pi))
    assert at_pi - values.min() <= tol
    closed = 1.0 + 2.0 * sum(w * multiplier_series(sigma, n, -r) for w, sigma, n in terms)
    assert abs(at_pi - closed) <= tol


def test_the_theta_pi_rule_fails_for_suite_6s_diagonal_at_3_5_2():
    """(1 - lam) m(3.5, 2, .) + lam m(3.5, 1, .) with lam = 2.5 has a negative weight.

    At r = 0.99 its scan is least near theta = 0.528 pi, below the theta = pi value; at r = 0.9 the least value
    is still at theta = pi.
    """
    terms = [(1.0 - 2.5, 3.5, 2), (2.5, 3.5, 1)]
    values = _theta_scan(terms, 0.99)
    j = int(np.argmin(values))
    assert min(j, 720 - j) == 190  # theta = 190 / 360 pi, or its mirror image
    assert values[j] == pytest.approx(-0.13334, abs=1e-5)
    assert values[360] == pytest.approx(-0.11683, abs=1e-5)
    values = _theta_scan(terms, 0.9)
    assert values.min() == values[360] == pytest.approx(-0.063857, abs=1e-6)


def test_bounds_table_and_csv():
    specs = [ClassSpec(OperatorParams(1.0, 1)), ClassSpec(OperatorParams(1.0, 0), 0.25)]
    rows = bounds_rows(specs, (0.5, 0.9))
    assert len(rows) == 4
    assert set(rows[0]) == set(BOUNDS_COLUMNS)
    assert rows[0]["covering_constant"] == pytest.approx(2.0 * math.log(2.0) - 1.0, abs=1e-12)
    assert rows[2]["covering_constant"] is None  # blank for n = 0
    buffer = io.StringIO()
    write_bounds_csv(rows, buffer)
    parsed = list(csv.reader(io.StringIO(buffer.getvalue())))
    assert parsed[0] == list(BOUNDS_COLUMNS)
    assert len(parsed) == 5
    assert parsed[3][8] == ""  # None serializes as an empty field
    assert float(parsed[1][4]) == rows[0]["m_lower"]  # repr round-trips exactly


def test_parameter_labels_are_equal_keys_and_series_equal_only_themselves():
    """OperatorParams and ClassSpec compare and hash by value, so equal labels share a dict key.

    The series types compare by identity.
    """
    a, b = OperatorParams(2, 1), OperatorParams(2.0, 1.0)
    assert a == b and hash(a) == hash(b) and (type(a.sigma), type(a.n)) == (float, int)
    assert a != OperatorParams(2.0, 2) and a != OperatorParams(3.0, 1) and a != (2.0, 1)
    spec, same = ClassSpec(a, 0.5), ClassSpec(b, 0.5)
    assert spec == same and hash(spec) == hash(same) and {spec: "x"}[same] == "x"
    assert ClassSpec(a) == ClassSpec(b, 0.0) and spec != ClassSpec(a) and spec != ClassSpec(OperatorParams(2.0, 2), 0.5)
    for make in (lambda: TruncatedSeries(np.ones(3)), lambda: SchlichtSeries([0.0, 1.0, 0.5]),
                 lambda: HerglotzMixture(((1.0, 1.0),))):
        s, t = make(), make()
        assert s == s and s != t and len({s, t}) == 2


_VALUE_TYPES = [
    (TruncatedSeries, lambda: TruncatedSeries(np.ones(3)), ("coeffs",)),
    (SchlichtSeries, lambda: SchlichtSeries([0.0, 1.0, 0.5]), ("coeffs",)),
    (HerglotzMixture, lambda: HerglotzMixture(((1.0, 1.0),)), ("atoms",)),
    (OperatorParams, lambda: OperatorParams(2.0, 1), ("sigma", "n")),
    (ClassSpec, lambda: ClassSpec(OperatorParams(2.0, 1), 0.5), ("params", "beta")),
    (MembershipResult, lambda: MembershipResult((0.2,), (0.3,), "pass"), ("observed", "padded", "verdict")),
    (VerificationReport, lambda: run_suite("7", trials=1),
     ("theorem", "title", "verdict", "worst_margin", "trials", "seed", "lattice", "grid", "notes")),
]


@pytest.mark.parametrize("kind, make, fields", _VALUE_TYPES, ids=[kind.__name__ for kind, _, _ in _VALUE_TYPES])
def test_value_types_reject_assignment_and_deletion(kind, make, fields):
    """No field of the seven value types can be reassigned or deleted, and none of them takes new attributes."""
    value = make()
    assert type(value) is kind
    for field in (*fields, "extra"):
        kept = getattr(value, field, None)
        with pytest.raises(AttributeError):
            setattr(value, field, kept)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field, None) is kept


def test_membership_result_margin():
    res = MembershipResult((0.2,), (0.3,), "pass")
    assert res.margin == 0.3 and bool(res)


def _one_member_at_a_time(spec, u, order):
    """The member read from one row u of 17 uniforms: scalar atoms, sums left to right, powers summed over atoms.

    u[0] gives the count of atoms, u[1:9] their angles as fractions of a turn, u[9:17] their raw weights.
    Each atom's powers x, x**2, ... come from multiplying by x once per step, as a running product does.
    """
    count = 1 + int(8 * u[0])
    angles = 2.0 * np.pi * u[1 : 1 + count]
    raw = u[9 : 9 + count] + 1e-9
    total = 0.0
    for value in raw:
        total += value
    w = raw / total
    rest = 0.0
    for value in w[:-1]:
        rest += value
    w[-1] = 1.0 - rest
    powers = []
    for a in angles:
        x = power = complex(np.exp(1j * a))
        powers.append([power])
        for _ in range(order - 2):
            power *= x
            powers[-1].append(power)
    p0 = np.concatenate([[1.0 + 0.0j], 2.0 * (w[:, None] * np.array(powers)).sum(axis=0)])
    return member_from_p(spec, iterate_closed(spec.params, TruncatedSeries(p0))).coeffs


@pytest.mark.parametrize("rows", [1, 3, 5, _BLOCK - 1, _BLOCK + 1, 24, 26])
def test_stacked_members_and_margins_equal_one_row_calls(rows):
    """Stacks of one row, of a few rows, around a block edge and past it give each row's one-row result, bit for bit.

    Every stack holds an n = 0 entry, whose iteration multiplies, and whose class test divides, by a row of ones.
    """
    lattice = default_lattice()
    specs = [lattice[(7 * i) % len(lattice)] for i in range(rows)]
    assert specs[0].n == 0
    seeds = [(3, 5, i) for i in range(rows)]
    u = np.array([np.random.default_rng(seed).random(_DRAWS) for seed in seeds])
    mults = np.array([multiplier_row(spec.sigma, spec.n, 63) for spec in specs])
    betas = np.array([spec.beta for spec in specs])
    members = member_rows(mixture_rows(u, mults), betas)
    for spec, seed, u_row, row in zip(specs, seeds, u, members):
        assert row.tobytes() == random_member_B(spec, seed).coeffs.tobytes()
        assert row.tobytes() == _one_member_at_a_time(spec, u_row, 64).tobytes()
    # the stacked class test: the p behind each member, divided by its multipliers, then the real-part test
    p = p_rows(members, betas)
    p[:, 1:] /= mults
    observed, padded = real_part_margins(p, 0.0)
    for i, (spec, row) in enumerate(zip(specs, members)):
        alone = membership_in_B(SchlichtSeries(row), spec)
        assert alone.observed == tuple(observed[i]) and alone.padded == tuple(padded[i])
    p = herglotz_rows(*random_mixtures(u), 64)
    for seed, row in zip(seeds, p):
        assert row.tobytes() == herglotz_expand(random_mixture(np.random.default_rng(seed)), 64).coeffs.tobytes()
    # scalar thresholds and coefficient bounds; some rows fail, some pass
    for threshold, bound in ((0.0, 2.0), (0.3, 1.5)):
        observed, padded = real_part_margins(p, threshold, bound)
        outcome = verdicts(observed, padded)
        for i, row in enumerate(p):
            alone = real_part_test(TruncatedSeries(row), threshold, bound)
            assert alone.observed == tuple(observed[i]) and alone.padded == tuple(padded[i])
            assert alone.verdict == outcome[i]


def _loaded_after(code: str, modules) -> list:
    """The modules of the list that a fresh interpreter has loaded after running code."""
    check = f"{code}\nimport sys; print(*[m for m in {list(modules)!r} if m in sys.modules])"
    done = subprocess.run([sys.executable, "-c", check], capture_output=True, timeout=60)
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout.decode().splitlines()[-1].split()


def test_importing_gft_does_not_import_numpy_random():
    """numpy.random loads only when a generator is built, so import time stays out of every run's setup.

    Every submodule is imported, as `gft verify` imports them, and none of them loads dataclasses either.
    """
    watched = ["gft.verify", "numpy.random", "dataclasses"]
    assert _loaded_after("import gft.verify, gft.cli", watched) == ["gft.verify"]


def test_gft_loads_its_submodules_on_first_use():
    """`import gft, gft.cli` loads no gft submodule, and `gft bounds` loads only the bound layer and the multipliers.

    Neither `gft bounds` nor `gft verify` loads numpy.polynomial: the Gauss-Legendre rule is written out.
    """
    watched = ["gft.bounds", "gft.kernels", "gft.series", "gft.operators", "gft.classes", "gft.verify", "dataclasses",
               "csv", "numpy.polynomial"]
    assert _loaded_after("import gft, gft.cli", watched) == []
    run = "import contextlib, io, gft.cli\nwith contextlib.redirect_stdout(io.StringIO()):\n"
    run += "    assert gft.cli.main({}) == 0"
    assert _loaded_after(run.format(["bounds"]), watched) == ["gft.bounds", "gft.kernels"]
    verify = run.format(["verify", "--theorem", "all", "--trials", "1"])
    assert _loaded_after(verify, watched) == watched[:6]  # every submodule, and no dataclasses, csv or numpy.polynomial


def test_imports_are_module_level_and_the_bound_layer_imports_only_kernels():
    """kernels.py and bounds.py import no gft module but gft and gft.kernels, and only cli.py imports in a function.

    So no function body keeps `gft bounds` free of series code by importing late, and each name has one home.
    """
    import gft

    for path in sorted(pathlib.Path(gft.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
        functions = [node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for function in functions if path.name != "cli.py" else []:
            late = [node.lineno for node in ast.walk(function) if node in imports]
            assert not late, f"{path.name}: {function.name} imports at line {late[0]}"
        if path.name in ("kernels.py", "bounds.py"):
            modules = {alias.name for node in imports if isinstance(node, ast.Import) for alias in node.names}
            modules |= {f"gft.{node.module or ''}".rstrip(".") if node.level else node.module
                        for node in imports if isinstance(node, ast.ImportFrom)}
            assert {m for m in modules if m.split(".")[0] == "gft"} <= {"gft", "gft.kernels"}, path.name


def test_every_public_name_is_its_home_module_object():
    """Each name of gft.__all__ is the object its home module defines, and `from gft import *` binds them all."""
    import gft

    namespace = {}
    exec("from gft import *", namespace)
    for name in gft.__all__:
        value = getattr(gft, name)
        assert value.__module__.startswith("gft.") and getattr(sys.modules[value.__module__], name) is value
        assert namespace[name] is value and name in dir(gft)
    assert gft.verify.default_lattice is gft.bounds.default_lattice is gft.default_lattice
    with pytest.raises(AttributeError, match="no attribute 'evaluate_grid'"):
        gft.evaluate_grid
