"""Convolution operators and the radial integral iteration on series coefficients.

Every operator here but the two kernel convolutions is one diagonal action,
series._scaled: coefficients from a fixed index on are multiplied (or, for
deiterate, divided) by a row that depends only on the index.  Raising and
lowering use 1 / multiplier(sigma, n, k - 1) and multiplier(sigma, n, k - 1)
from index 2; the iteration of unit-constant series is the same action one
index over.  An independent quadrature route cross-checks the iteration.
"""

from __future__ import annotations

import functools

import numpy as np

from .kernels import OperatorParams, multiplier_row, tau_coeffs, tau_inv_coeffs
from .series import (
    SchlichtSeries,
    TruncatedSeries,
    _scaled,
    convolve,
    evaluate_grid,
    require_unit_constant,
)


@functools.cache
def _quadrature_nodes() -> tuple:
    """Composite Gauss-Legendre-12 nodes and weights on [0, 1], flattened over 64 panels.

    The panels are [2**-(j + 1), 2**-j], the last reaching 0: they shrink
    geometrically (ratio 1/2) toward the inner endpoint so that endpoint
    factors u**a with a > -1 are resolved to near machine accuracy; a
    uniform split cannot reach 1e-8 once a < 0.  Built once and shared, so
    both arrays are read-only.
    """
    x, w = np.polynomial.legendre.leggauss(12)
    hi = 0.5 ** np.arange(64)
    lo = np.append(hi[1:], 0.0)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    nodes, weights = (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def apply_L(params: OperatorParams, f: SchlichtSeries) -> SchlichtSeries:
    """Raising operator: a_k -> a_k / multiplier(sigma, n, k - 1) for k >= 2.

    Same action as convolving with tau(sigma, 0) * tau_inv(sigma, n); the
    direct route keeps it to one division per coefficient.
    """
    if f.order < 2:
        return f
    return _scaled(f, 2, 1.0 / multiplier_row(params.sigma, params.n, f.order - 1))


def apply_l(params: OperatorParams, f: SchlichtSeries) -> SchlichtSeries:
    """Lowering operator: a_k -> a_k * multiplier(sigma, n, k - 1) for k >= 2."""
    if f.order < 2:
        return f
    return _scaled(f, 2, multiplier_row(params.sigma, params.n, f.order - 1))


def ruscheweyh(sigma: float, f: SchlichtSeries) -> SchlichtSeries:
    """Order-sigma derivative-type operator: Hadamard product with z / (1 - z)**(sigma + 1)."""
    if sigma <= -1.0:
        raise ValueError("require sigma > -1")
    t = tau_coeffs(OperatorParams(sigma, 0), f.order)
    return SchlichtSeries(convolve(f.inner, t))


def noor(sigma: float, f: SchlichtSeries) -> SchlichtSeries:
    """Integral-type companion: Hadamard product with the inverse kernel."""
    if sigma <= -1.0:
        raise ValueError("require sigma > -1")
    t = tau_inv_coeffs(OperatorParams(sigma, 0), f.order)
    return SchlichtSeries(convolve(f.inner, t))


def iterate_step_closed(sigma: float, m: int, p: TruncatedSeries) -> TruncatedSeries:
    """Single radial integration step in closed form: c_k -> (sigma - m + 1) / (sigma - m + 1 + k) c_k."""
    if m < 1 or sigma - (m - 1) <= 0.0:
        raise ValueError("step m needs m >= 1 and sigma - (m - 1) > 0")
    k = np.arange(1, p.order + 1)
    lam = sigma - (m - 1.0)
    return _scaled(p, 1, lam / (lam + k))


def iterate_closed(params: OperatorParams, p: TruncatedSeries) -> TruncatedSeries:
    """n-fold iterate of a unit-constant series: c_k -> multiplier(sigma, n, k) c_k."""
    require_unit_constant(p)
    if params.n == 0:
        return p
    return _scaled(p, 1, multiplier_row(params.sigma, params.n, p.order))


def deiterate(params: OperatorParams, q: TruncatedSeries) -> TruncatedSeries:
    """Inverse of iterate_closed: divide coefficient k by multiplier(sigma, n, k)."""
    if params.n == 0:
        return q
    return _scaled(q, 1, multiplier_row(params.sigma, params.n, q.order), np.divide)


def iterate_quadrature_step(sigma: float, m: int, p_prev: TruncatedSeries, z: complex) -> complex:
    """One radial integration step evaluated by quadrature at a single point.

    The step sends p to (sigma - m + 1) z**-(sigma - m + 1) int_0^z t**(sigma - m) p(t) dt
    along the straight segment from 0.  Substituting t = u z cancels the
    principal-branch powers of z exactly and leaves the real-parameter
    integral (sigma - m + 1) int_0^1 u**(sigma - m) p(u z) du, which is what
    gets integrated here.  No coefficient multiplier enters, so the result
    is an independent check on the closed form.
    """
    if m < 1 or sigma - (m - 1) <= 0.0:
        raise ValueError("step m needs m >= 1 and sigma - (m - 1) > 0")
    z = complex(z)
    if z == 0:
        raise ValueError("z = 0 is excluded; the limiting value is p(0)")
    if abs(z) >= 1.0:
        raise ValueError("quadrature point must satisfy 0 < |z| < 1")
    u, w = _quadrature_nodes()
    return complex((sigma - m + 1.0) * np.sum(w * u ** (sigma - m) * evaluate_grid(p_prev, u * z)))


def salagean_iterate(alpha: float, n: int, p: TruncatedSeries) -> TruncatedSeries:
    """Single-parameter iterated transform: c_k -> (alpha / (alpha + k))**n c_k."""
    if alpha <= 0.0:
        raise ValueError("require alpha > 0")
    if int(n) != n or n < 0:
        raise ValueError("iteration count n must be a nonnegative integer")
    require_unit_constant(p)
    k = np.arange(1, p.order + 1)
    return _scaled(p, 1, (alpha / (alpha + k)) ** int(n))


def bernardi(c: float, f: SchlichtSeries) -> SchlichtSeries:
    """Weighted integral mean of a normalized series: a_k -> (c + 1) / (c + k) a_k."""
    if not np.isfinite(c) or c + 1.0 <= 0.0:
        raise ValueError(f"require a finite c > -1, got {c}")
    k = np.arange(2, f.order + 1)
    return _scaled(f, 2, (c + 1.0) / (c + k))


def recurrence_residual(params: OperatorParams, p_n: TruncatedSeries, p_prev: TruncatedSeries) -> float:
    """Max coefficientwise residual of (lam + k) c_k(level n) == lam c_k(level n - 1).

    lam = sigma - (n - 1).  This is the differential recurrence tying each
    iterate to the previous one: lam p_n + z p_n' = lam p_prev, checked
    coefficient by coefficient so no evaluation tail enters.
    """
    if params.n < 1:
        raise ValueError("the recurrence needs n >= 1")
    lam = params.sigma - (params.n - 1)
    order = min(p_n.order, p_prev.order)
    k = np.arange(0, order + 1)
    lhs = (lam + k) * p_n.coeffs[: order + 1]
    rhs = lam * p_prev.coeffs[: order + 1]
    return float(np.max(np.abs(lhs - rhs)))
