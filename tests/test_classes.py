"""Class membership, extremal members, and the closed-form bound table."""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gft.classes import (
    BOUNDS_COLUMNS,
    CircleGrid,
    ClassSpec,
    MembershipResult,
    bounds_rows,
    circle_points,
    covering_constant,
    distortion_bounds,
    extremal_B_lower,
    extremal_B_upper,
    growth_bounds,
    inflate_to_non_member,
    is_in_B,
    member_from_p,
    membership_in_B,
    membership_in_B_direct,
    membership_in_P,
    membership_in_iterated_P,
    min_re_on_circle,
    multiplier_series,
    p_series_of,
    random_member_B,
    random_mixture,
    real_part_test,
    write_bounds_csv,
)
from gft.kernels import OperatorParams, multiplier, multiplier_row
from gft.operators import iterate_closed
from gft.series import TruncatedSeries, evaluate, herglotz_expand

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
    with pytest.raises(ValueError):
        CircleGrid(radii=(0.5, 1.0))
    with pytest.raises(ValueError):
        CircleGrid(angular_samples=8)
    with pytest.raises(ValueError):
        CircleGrid(tolerance=0.0)
    desc = CircleGrid().describe()
    assert desc["radii"] == [0.5, 0.9, 0.99] and desc["angular_samples"] == 720


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
    # decisive pass away from the boundary
    ok = membership_in_P(HALFPLANE_EXTREMAL, 0.0, CircleGrid(radii=(0.5, 0.9)))
    assert ok.verdict == "pass" and bool(ok)
    # coefficient 3 breaks the bound; the dip at r = 0.9 is decisive
    bad = np.zeros(65)
    bad[0], bad[1] = 1.0, 3.0
    res = membership_in_P(TruncatedSeries(bad))
    assert res.verdict == "fail" and not bool(res)
    assert res.margin < 0.0
    # short truncation: observed dips below zero but the tail allowance covers it
    shallow = real_part_test(TruncatedSeries(np.array([1.0, -1.2])), 0.0, CircleGrid(radii=(0.9,)))
    assert shallow.verdict == "inconclusive" and bool(shallow)
    assert shallow.observed[0] < 0.0 < shallow.padded[0]


def test_membership_requires_unit_constant_and_valid_beta():
    with pytest.raises(ValueError):
        membership_in_P(TruncatedSeries(np.array([0.5, 1.0])))
    with pytest.raises(ValueError):
        membership_in_P(HALFPLANE_EXTREMAL, beta=-0.1)


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


def test_membership_result_margin():
    res = MembershipResult((0.5,), (0.2,), (0.3,), "pass")
    assert res.margin == 0.3 and bool(res)
