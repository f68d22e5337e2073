"""Multiplier family and binomial kernels: closed values, dual formula, inverses."""

import numpy as np
import pytest

from gft.kernels import (
    OperatorParams,
    extremal_iterate,
    multiplier,
    multiplier_row,
    pochhammer,
    tau_coeffs,
    tau_inv_coeffs,
)
from gft.series import convolve


def test_pochhammer_values():
    assert pochhammer(2.0, 3) == 24.0
    assert pochhammer(0.5, 2) == 0.75
    assert pochhammer(-3.0, 2) == 6.0
    assert pochhammer(7.7, 0) == 1.0
    with pytest.raises(ValueError):
        pochhammer(1.0, -1)


def test_params_validation():
    p = OperatorParams(1.0, 1)
    assert (p.sigma, p.n) == (1.0, 1)
    q = OperatorParams(2, 2.0)  # integral float n is coerced
    assert q.n == 2 and isinstance(q.n, int)
    with pytest.raises(ValueError):
        OperatorParams(1.0, -1)
    with pytest.raises(ValueError):
        OperatorParams(1.0, 1.5)
    with pytest.raises(ValueError):
        OperatorParams(0.5, 2)  # sigma - (n - 1) = -0.5
    with pytest.raises(ValueError):
        OperatorParams(1.0, 2)  # boundary sigma - (n - 1) = 0 excluded
    for sigma in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="finite"):
            OperatorParams(sigma, 1)


def test_multiplier_known_values():
    for k in range(1, 10):
        assert multiplier(1.0, 1, k) == pytest.approx(1.0 / (k + 1), rel=1e-15)
    assert multiplier(2.0, 2, 1) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert multiplier(3.0, 0, 17) == 1.0
    # single-step inverse extension
    assert multiplier(1.0, -1, 2) == 2.0
    assert multiplier(0.5, -1, 1) == pytest.approx(2.5 / 1.5, rel=1e-15)
    # a sigma far below rounding of 1 keeps its relative accuracy: the shift sigma - (m - 1) is exact at m = 1
    for sigma in (1e-10, 1e-80):
        k = np.arange(1.0, 6.0)
        assert np.allclose(multiplier_row(sigma, 1, 5), sigma / (sigma + k), rtol=1e-15, atol=0.0)


def test_multiplier_rejections():
    with pytest.raises(ValueError):
        multiplier(1.0, 1, 0)
    with pytest.raises(ValueError):
        multiplier(1.0, -2, 1)
    with pytest.raises(ValueError):
        multiplier(-1.0, -1, 1)
    with pytest.raises(ValueError):
        multiplier(0.5, 2, 3)


def test_multiplier_dual_formula():
    """Finite product equals the Pochhammer ratio to 1e-12 relative."""
    for sigma in (0.5, 1.0, 2.0, 3.7, 9.0):
        for n in range(0, 9):
            if sigma - (n - 1) <= 0.0:
                continue
            for k in range(1, 65):
                direct = multiplier(sigma, n, k)
                ratio = pochhammer(sigma - n + 1.0, k) / pochhammer(sigma + 1.0, k)
                assert abs(direct - ratio) <= 1e-12 * abs(ratio)


def test_short_rows_take_the_product_over_k():
    """Rows shorter than n are (a)_k / (a + n)_k and agree with the long rows to rounding."""
    for sigma, n in ((3.5, 3), (9.0, 9), (2.0, 2)):
        long_row = multiplier_row(sigma, n, 40)
        for kmax in range(1, n):
            assert np.allclose(multiplier_row(sigma, n, kmax), long_row[:kmax], rtol=1e-15, atol=0.0)
    a = 50.5 - 40 + 1.0
    expect = [pochhammer(a, k) / pochhammer(a + 40, k) for k in range(1, 9)]
    assert np.allclose(multiplier_row(50.5, 40, 8), expect, rtol=1e-14, atol=0.0)


def test_multiplier_row_matches_scalar_and_monotone():
    for sigma, n in ((0.5, 1), (2.0, 2), (3.5, 3), (1.0, 0), (4.0, -1)):
        row = multiplier_row(sigma, n, 40)
        assert row.shape == (40,)
        for k in (1, 7, 40):
            assert row[k - 1] == multiplier(sigma, n, k)
        if n >= 1:
            assert np.all(np.diff(row) < 0.0)
            assert np.all(row > 0.0) and np.all(row <= 1.0)
    with pytest.raises(ValueError):
        multiplier_row(1.0, 1, 0)


def test_tau_known_expansions():
    # lam = 1: plain geometric kernel
    assert np.allclose(tau_coeffs(OperatorParams(1.0, 1), 5).coeffs, [0, 1, 1, 1, 1, 1])
    # lam = 2: counting kernel
    assert np.allclose(tau_coeffs(OperatorParams(1.0, 0), 5).coeffs, [0, 1, 2, 3, 4, 5])
    # lam = 3: triangular numbers
    assert np.allclose(tau_coeffs(OperatorParams(2.0, 0), 6).coeffs, [0, 1, 3, 6, 10, 15, 21])
    # tiny lam: coefficient k + 1 is lam (lam + 1) ... (lam + k - 1) / k!, about lam / k
    lam = 1e-80
    expected = [0, 1, *(lam / k for k in range(1, 5))]
    assert np.allclose(tau_coeffs(OperatorParams(lam, 1), 5).coeffs, expected, rtol=1e-15, atol=0.0)


def test_tau_inverse_is_hadamard_inverse():
    params = OperatorParams(3.5, 2)
    t = tau_coeffs(params, 32)
    t_inv = tau_inv_coeffs(params, 32)
    prod = convolve(t, t_inv)
    assert prod.coeffs[0] == 0.0
    assert np.allclose(prod.coeffs[1:], 1.0, rtol=1e-15, atol=0.0)


def test_extremal_iterate_coefficients():
    params = OperatorParams(2.0, 1)
    plus = extremal_iterate(params, order=8, sign=1)
    minus = extremal_iterate(params, order=8, sign=-1)
    assert plus.coeffs[0] == 1.0
    for k in range(1, 9):
        expect = 2.0 * multiplier(2.0, 1, k)
        assert plus.coeffs[k].real == pytest.approx(expect, rel=1e-15)
        assert minus.coeffs[k].real == pytest.approx(expect * (-1.0) ** k, rel=1e-15)
    with pytest.raises(ValueError):
        extremal_iterate(params, order=8, sign=0)
