"""Raising/lowering operators, the radial iteration, and its quadrature oracle."""

import math
import warnings

import numpy as np
import pytest

from gft import bounds, operators
from gft.kernels import _GL12, _QUADRATURE_NODES, OperatorParams, multiplier, multiplier_row
from gft.operators import (
    apply_L,
    apply_l,
    bernardi,
    deiterate,
    iterate_closed,
    iterate_quadrature_step,
    iterate_step_closed,
    noor,
    recurrence_residual,
    ruscheweyh,
    salagean_iterate,
)
from gft.series import (
    SchlichtSeries,
    TruncatedSeries,
    default_order,
    differentiate,
    evaluate,
    herglotz_expand,
    shift_to_beta,
)
from gft.classes import RADII, random_mixture, real_part_test

LATTICE = [
    (sigma, n)
    for sigma in (0.5, 1.0, 2.0, 3.5)
    for n in (0, 1, 2, 3)
    if sigma - (n - 1) > 0.0
]


def random_schlicht(seed, order=24):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1)
    c[0], c[1] = 0.0, 1.0
    return SchlichtSeries(c)


DEPTH = OperatorParams(3.5, 2)
K1 = np.arange(1, 65)  # scaled indices of an order-64 unit-constant series
K2 = np.arange(2, 65)  # scaled indices of an order-64 normalized series

# operator, first scaled index, factor row, numpy op: the exact arithmetic
# each operator applies to an order-64 input
DIAGONAL_ACTIONS = {
    "apply_L": (lambda f: apply_L(DEPTH, f), 2, 1.0 / multiplier_row(3.5, 2, 63), np.multiply),
    "apply_l": (lambda f: apply_l(DEPTH, f), 2, multiplier_row(3.5, 2, 63), np.multiply),
    "bernardi": (lambda f: bernardi(0.5, f), 2, (0.5 + 1.0) / (0.5 + K2), np.multiply),
    "iterate_closed": (lambda p: iterate_closed(DEPTH, p), 1, multiplier_row(3.5, 2, 64), np.multiply),
    "deiterate": (lambda p: deiterate(DEPTH, p), 1, multiplier_row(3.5, 2, 64), np.divide),
    "iterate_step_closed": (lambda p: iterate_step_closed(3.5, 2, p), 1, 2.5 / (2.5 + K1), np.multiply),
    "salagean_iterate": (lambda p: salagean_iterate(1.5, 3, p), 1, np.exp(-3.0 * np.log1p(K1 / 1.5)), np.multiply),
    "shift_to_beta": (lambda p: shift_to_beta(p, 0.25), 1, 1.0 - 0.25, np.multiply),
}


@pytest.mark.parametrize("name", DIAGONAL_ACTIONS)
def test_diagonal_action_is_bit_exact(name):
    """Each operator's output equals its row formula bit for bit, type preserved.

    Reports are byte-stable only while this arithmetic is unchanged, so the
    comparison is np.array_equal, not a tolerance.
    """
    operator, start, factors, op = DIAGONAL_ACTIONS[name]
    rng = np.random.default_rng(64)
    c = rng.normal(size=65) + 1j * rng.normal(size=65)
    c[:start] = (0.0, 1.0) if start == 2 else (1.0,)
    s = SchlichtSeries(c) if start == 2 else TruncatedSeries(c)
    expected = c.copy()
    expected[start:] = op(c[start:], factors)
    out = operator(s)
    assert type(out) is type(s)
    assert np.array_equal(out.coeffs, expected)


def test_apply_L_divides_by_the_multiplier():
    f = SchlichtSeries([0.0, 1.0, 1.0])
    out = apply_L(OperatorParams(1.0, 1), f)
    assert np.allclose(out.coeffs, [0.0, 1.0, 2.0])


def test_apply_L_at_order_one_is_passthrough():
    f = SchlichtSeries([0.0, 1.0])
    assert apply_L(OperatorParams(1.0, 1), f) is f
    assert apply_l(OperatorParams(1.0, 1), f) is f


def test_raise_lower_round_trip():
    for sigma, n in LATTICE:
        params = OperatorParams(sigma, n)
        f = random_schlicht((3, n, int(sigma * 2)))
        for there, back in ((apply_L, apply_l), (apply_l, apply_L)):
            g = back(params, there(params, f))
            assert np.max(np.abs(g.coeffs - f.coeffs)) <= 1e-12


def test_raising_at_depth_one_is_the_derivative_action():
    f = random_schlicht(5)
    g = apply_L(OperatorParams(1.0, 1), f)
    zfp = differentiate(f).coeffs  # (z f')_k = k a_k, shifted by one index
    assert np.allclose(g.coeffs[1:], zfp, rtol=1e-14, atol=0.0)


def test_depth_equals_sigma_matches_convolution_route():
    f = random_schlicht(9)
    direct = apply_L(OperatorParams(2.0, 2), f)
    viakernel = ruscheweyh(2.0, f)
    assert np.allclose(direct.coeffs, viakernel.coeffs, rtol=1e-12, atol=1e-12)
    lowered = apply_l(OperatorParams(2.0, 2), f)
    vianoor = noor(2.0, f)
    assert np.allclose(lowered.coeffs, vianoor.coeffs, rtol=1e-12, atol=1e-12)


def test_ruscheweyh_special_orders():
    f = random_schlicht(13)
    assert np.array_equal(ruscheweyh(0.0, f).coeffs, f.coeffs)
    k = np.arange(1, f.order + 1)
    assert np.allclose(ruscheweyh(1.0, f).coeffs[1:], k * f.coeffs[1:], rtol=1e-13)
    back = noor(2.5, ruscheweyh(2.5, f))
    assert np.max(np.abs(back.coeffs - f.coeffs)) <= 1e-12
    with pytest.raises(ValueError):
        ruscheweyh(-1.0, f)
    with pytest.raises(ValueError):
        noor(-1.5, f)


def test_iterate_closed_halfplane_extremal():
    p = TruncatedSeries(np.concatenate([[1.0], np.full(64, 2.0)]))
    q = iterate_closed(OperatorParams(1.0, 1), p)
    k = np.arange(1, 65)
    assert np.allclose(q.coeffs[1:].real, 2.0 / (k + 1), rtol=1e-15)
    # partial sums converge to 4 ln 2 - 1 at z = 0.5; the dropped tail is ~1e-21
    assert evaluate(q, 0.5).real == pytest.approx(4.0 * math.log(2.0) - 1.0, abs=1e-13)


def test_iterate_closed_trivial_depth_and_validation():
    p = TruncatedSeries(np.array([1.0, 0.5, 0.25]))
    assert iterate_closed(OperatorParams(2.0, 0), p) is p
    with pytest.raises(ValueError):
        iterate_closed(OperatorParams(2.0, 1), TruncatedSeries(np.array([0.9, 0.5])))


def test_iteration_steps_telescope():
    p = herglotz_expand(random_mixture(np.random.default_rng(21)), order=40)
    stepped = p
    for m in (1, 2, 3):
        stepped = iterate_step_closed(3.5, m, stepped)
    direct = iterate_closed(OperatorParams(3.5, 3), p)
    assert np.max(np.abs(stepped.coeffs - direct.coeffs)) <= 1e-14


def test_step_validation():
    p = TruncatedSeries(np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        iterate_step_closed(2.0, 0, p)
    with pytest.raises(ValueError):
        iterate_step_closed(0.5, 2, p)  # sigma - (m - 1) <= 0
    for sigma in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite sigma"):
            iterate_step_closed(sigma, 1, p)


def test_one_step_keeps_a_test_function_on_its_side_of_re_gamma():
    """The step lemma in its gamma form: for p in P and s in (0, 1], q = 1 + (1 - gamma) s (p - 1) lies on one
    side of Re = gamma, and so does its one-step image.  Its coefficients are at most 2 |1 - gamma| s."""
    for i, (sigma, n) in enumerate(pair for pair in LATTICE if pair[1] >= 1):
        for j, gamma in enumerate((0.0, 0.3, 0.7, 1.2, 2.0)):
            for k, scale in enumerate((0.05, 0.5, 1.0)):
                p = herglotz_expand(random_mixture(np.random.default_rng((i, j, k))), default_order())
                image = iterate_step_closed(sigma, n, TruncatedSeries(np.r_[1.0, (1.0 - gamma) * scale * p.coeffs[1:]]))
                # Re image < gamma is Re(-image) > -gamma
                side = -1.0 if gamma >= 1.0 else 1.0
                bound = 2.0 * abs(1.0 - gamma) * scale
                result = real_part_test(TruncatedSeries(side * image.coeffs), side * gamma, bound)
                assert result.verdict != "fail", (sigma, n, gamma, scale)
                assert result.observed[RADII.index(0.5)] > 0.0, (sigma, n, gamma, scale)


def test_deiterate_inverts_iterate():
    for sigma, n in LATTICE:
        params = OperatorParams(sigma, n)
        p = herglotz_expand(random_mixture(np.random.default_rng((17, n))), order=32)
        back = deiterate(params, iterate_closed(params, p))
        assert np.max(np.abs(back.coeffs - p.coeffs)) <= 1e-12


def test_deiterate_rejects_a_constant_term_other_than_one():
    """The inverse checks its input as iterate_closed does, at every depth, n = 0 included."""
    q = TruncatedSeries([2.0, 1.0, 0.5, 0.25])
    for n in (0, 1, 2):
        for op in (deiterate, iterate_closed):
            with pytest.raises(ValueError, match="series must have constant term 1"):
                op(OperatorParams(2.0, n), q)


def test_recurrence_ties_adjacent_depths():
    for sigma, n in LATTICE:
        if n < 1:
            continue
        params = OperatorParams(sigma, n)
        p_prev = iterate_closed(OperatorParams(sigma, n - 1),
                                herglotz_expand(random_mixture(np.random.default_rng((31, n))), order=48))
        p_n = iterate_step_closed(sigma, n, p_prev)
        assert recurrence_residual(params, p_n, p_prev) <= 1e-12
    with pytest.raises(ValueError):
        recurrence_residual(OperatorParams(1.0, 0), p_n, p_prev)


def test_gauss_legendre_literals_are_leggauss():
    """The six (node, weight) literals, mirrored as the composite rule mirrors them, are leggauss(12) bit for bit."""
    x, w = np.polynomial.legendre.leggauss(12)
    half = np.array(_GL12)
    assert np.concatenate([-half[::-1, 0], half[:, 0]]).tobytes() == x.tobytes()
    assert np.concatenate([half[::-1, 1], half[:, 1]]).tobytes() == w.tobytes()


def test_quadrature_nodes_are_shared_and_read_only():
    nodes, complements, weights, logs = _QUADRATURE_NODES
    assert operators._QUADRATURE_NODES[0] is bounds._QUADRATURE_NODES[0] is nodes  # built once and shared
    assert nodes.shape == complements.shape == weights.shape == logs.shape == (2 * 64 * 12,)
    for array in (nodes, complements, weights, logs):
        with pytest.raises(ValueError):
            array[0] = 0.5
    # log t from whichever of t and 1 - t is exact
    with np.errstate(divide="ignore"):
        expected = np.where(nodes < complements, np.log(nodes), np.log1p(-complements))
    assert logs.tobytes() == expected.tobytes()


def test_quadrature_matches_closed_step():
    """Independent integral route agrees with the coefficient action to 1e-14 (worst measured 1e-15).

    lam = sigma - m + 1 runs from 1e-20, where the integrand moves only in a
    layer of width lam below v = 1, to 1e3, where it moves only near v = 0.
    """
    steps = ((0.5, 1), (1.0, 1), (3.5, 2), (3.5, 3), (1e-20, 1), (1e-3, 1), (0.1, 1), (51.0, 2), (1e3, 1))
    for sigma, m in steps:
        p = herglotz_expand(random_mixture(np.random.default_rng((41, m))), order=32)
        closed = iterate_step_closed(sigma, m, p)
        for theta in (0.0, 1.1, 2.9, 4.4):
            z = 0.8 * np.exp(1j * theta)
            assert abs(iterate_quadrature_step(sigma, m, p, z) - evaluate(closed, z)) <= 1e-14


def test_quadrature_point_validation():
    p = TruncatedSeries(np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        iterate_quadrature_step(1.0, 1, p, 0.0)
    with pytest.raises(ValueError):
        iterate_quadrature_step(1.0, 1, p, 1.0 + 0.0j)
    with pytest.raises(ValueError):
        iterate_quadrature_step(0.5, 2, p, 0.5)
    # a NaN compares False both ways, so each check must fail it
    for z in (math.nan, complex(math.nan, 0.5), complex(math.inf, math.nan)):
        with pytest.raises(ValueError, match="quadrature point must satisfy"):
            iterate_quadrature_step(1.0, 1, p, z)
    for sigma in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite sigma"):
            iterate_quadrature_step(sigma, 1, p, 0.5)


def test_salagean_iterate_powers():
    p = TruncatedSeries(np.array([1.0, 2.0, 2.0, 2.0]))
    q = salagean_iterate(1.5, 2, p)
    k = np.arange(1, 4)
    assert np.allclose(q.coeffs[1:], 2.0 * (1.5 / (1.5 + k)) ** 2, rtol=1e-15)
    assert salagean_iterate(1.5, 0, p).coeffs == pytest.approx(p.coeffs)
    with pytest.raises(ValueError):
        salagean_iterate(0.0, 1, p)
    with pytest.raises(ValueError):
        salagean_iterate(1.0, -2, p)


def test_salagean_iterate_takes_a_huge_count_to_its_limit():
    """A count past every float, 10**400, gives the same finite series as 10**18: c_0 = 1 and zeros."""
    p = TruncatedSeries(np.array([1.0, 2.0, -1.0, 2.0]))
    for n in (10**18, 2**63, 10**400):
        assert np.array_equal(salagean_iterate(1.0, n, p).coeffs, [1.0, 0.0, 0.0, 0.0])


def test_salagean_iterate_keeps_a_factor_its_rounded_base_loses():
    """At alpha = 1e20 the base alpha / (alpha + k) rounds to 1, but 10**18 steps take c_1 to exp(-0.01) c_1.

    A subnormal alpha overflows k / alpha: one step takes every coefficient to 0, and no step leaves p as it is.
    """
    p = TruncatedSeries(np.array([1.0, 2.0, -1.0, 2.0]))
    k = np.arange(1, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = salagean_iterate(1e20, 10**18, p)
        tiny = salagean_iterate(5e-324, 1, p), salagean_iterate(5e-324, 0, p)
    assert np.allclose(q.coeffs[1:], p.coeffs[1:] * np.exp(-1e18 * np.log1p(k / 1e20)), rtol=1e-15, atol=0.0)
    assert q.coeffs[1] == pytest.approx(2.0 * math.exp(-0.01), rel=1e-15)
    assert np.array_equal(tiny[0].coeffs, [1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(tiny[1].coeffs, p.coeffs)


def test_single_depth_iterate_matches_salagean():
    p = herglotz_expand(random_mixture(np.random.default_rng(55)), order=32)
    for sigma in (0.5, 1.0, 3.5):
        a = iterate_closed(OperatorParams(sigma, 1), p)
        b = salagean_iterate(sigma, 1, p)
        assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-12


def test_bernardi_values_and_validation():
    f = SchlichtSeries([0.0, 1.0, 1.0])
    out = bernardi(1.0, f)
    assert np.allclose(out.coeffs, [0.0, 1.0, 2.0 / 3.0], rtol=1e-15)
    for c in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            bernardi(c, f)


def test_multiplier_shift_identity():
    # (sigma - n + 1 + j) m(sigma, n, j) == (sigma - n + 1) m(sigma, n - 1, j);
    # the n = 0 case runs through the n = -1 extension and is exact
    for sigma, n in LATTICE:
        lam = sigma - n + 1.0
        for j in (1, 5, 20):
            lhs = (lam + j) * multiplier(sigma, n, j)
            rhs = lam * multiplier(sigma, n - 1, j)
            assert lhs == pytest.approx(rhs, rel=1e-13)
