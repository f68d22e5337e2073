"""Coefficient multipliers and the binomial kernel series they come from.

The whole operator calculus reduces to one family of positive factors:
multiplier(sigma, n, k) is the damping applied to the k-th coefficient by
n nested radial integrations, and the kernels below are the series whose
Hadamard products realize the same action.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import TruncatedSeries, default_order


@dataclass(frozen=True)
class OperatorParams:
    """Parameter pair (sigma, n) with n a nonnegative integer and sigma - (n - 1) > 0."""

    sigma: float
    n: int

    def __post_init__(self) -> None:
        if not float(self.n).is_integer() or self.n < 0:
            raise ValueError("n must be a nonnegative integer")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "sigma", float(self.sigma))
        _check_multiplier_params(self.sigma, self.n)


def pochhammer(x: float, n: int) -> float:
    """Rising factorial x (x + 1) ... (x + n - 1); empty product 1 for n = 0."""
    if n < 0:
        raise ValueError("pochhammer needs n >= 0")
    out = 1.0
    for i in range(n):
        out *= x + i
    return out


def multiplier(sigma: float, n: int, k: int) -> float:
    """Damping factor applied to coefficient k by n nested radial integrations.

    The last entry of multiplier_row(sigma, n, k): the finite product
    prod_{m=1..n} (sigma - m + 1) / (sigma + k - m + 1), which lies in (0, 1]
    and decreases in k for n >= 1.  Scalar and row agree bit for bit when
    n <= k; for k < n the scalar takes the shorter product over k instead,
    which agrees to rounding.  The n = -1 value (sigma + k + 1) / (sigma + 1)
    is the single-step inverse that shows up in the derivative-combination
    bounds; anything below n = -1 is undefined here.
    """
    return float(multiplier_row(sigma, n, k)[-1])


def multiplier_row(sigma: float, n: int, kmax: int) -> np.ndarray:
    """multiplier(sigma, n, k) for k = 1..kmax as one float vector.

    The work grows with min(n, kmax), so a huge n costs no more than a long row.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    _check_multiplier_params(sigma, n)
    k = np.arange(1, kmax + 1, dtype=np.float64)
    if n == -1:
        return (sigma + k + 1.0) / (sigma + 1.0)
    if n > kmax:
        # (a)_n / (a + k)_n = prod_{j < k} (a + j) / (a + n + j) with a = sigma - n + 1: kmax factors, not n
        a = sigma - (n - 1.0)
        return np.cumprod((a + k - 1.0) / (a + n + k - 1.0))
    out = np.ones_like(k)
    for m in range(1, n + 1):
        # sigma - (m - 1) keeps a tiny sigma at m = 1, where sigma - m + 1 rounds it to 0
        out *= (sigma - (m - 1.0)) / (sigma + k - m + 1.0)
    return out


def _check_multiplier_params(sigma: float, n: int) -> None:
    """Reject (sigma, n) outside the multiplier's domain: finite sigma, n >= -1, a positive shift."""
    if not np.isfinite(sigma):
        raise ValueError(f"sigma must be finite, got {sigma}")
    if n < -1:
        raise ValueError("multiplier is undefined for n < -1")
    if n == -1:
        if sigma + 1.0 <= 0.0:
            raise ValueError("the n = -1 extension needs sigma > -1")
    elif sigma - (n - 1) <= 0.0:
        raise ValueError(f"require sigma - (n - 1) > 0, got sigma={sigma}, n={n}")


def tau_coeffs(params: OperatorParams, order: int | None = None) -> TruncatedSeries:
    """Kernel z / (1 - z)**lam with lam = sigma - (n - 1); coefficient k + 1 is (lam)_k / k!."""
    n = default_order() if order is None else int(order)
    if n < 1:
        raise ValueError(f"kernel order must be >= 1, got {n}")
    lam = params.sigma - (params.n - 1)
    c = np.zeros(n + 1, dtype=np.complex128)
    c[1] = 1.0
    if n >= 2:
        k = np.arange(1, n)
        c[2:] = np.cumprod((lam + (k - 1.0)) / k)  # lam + k - 1 would round a tiny lam to 0 at k = 1
    return TruncatedSeries(c)


def tau_inv_coeffs(params: OperatorParams, order: int | None = None) -> TruncatedSeries:
    """Hadamard inverse of the kernel: reciprocal coefficients for k >= 1, zero constant."""
    t = tau_coeffs(params, order)
    c = np.zeros_like(t.coeffs)
    c[1:] = 1.0 / t.coeffs[1:]
    return TruncatedSeries(c)


def extremal_iterate(params: OperatorParams, order: int | None = None, sign: int = 1) -> TruncatedSeries:
    """n-fold integral iterate of the half-plane extremal (1 + s z) / (1 - s z).

    Coefficients are 2 * multiplier(sigma, n, k) * sign**k, so sign=+1 gives the
    maximal-real-part direction on the positive axis and sign=-1 the minimal one.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    n = default_order() if order is None else int(order)
    mults = multiplier_row(params.sigma, params.n, n)
    k = np.arange(1, n + 1)
    c = np.concatenate([[1.0 + 0.0j], 2.0 * mults * (float(sign) ** k)])
    return TruncatedSeries(c)
