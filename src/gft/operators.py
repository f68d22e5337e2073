"""Convolution operators, their kernels, and the radial integral iteration on series coefficients.

The binomial kernel, its Hadamard inverse and the iterated half-plane
extremal are built here from the multipliers of gft.kernels; _extremal_rows
builds the two axis extremals' real rows, which extremal_iterate wraps and
the sharpness checks of gft.verify read directly.  Every operator
but the two kernel convolutions is one diagonal action,
series._scaled: coefficients from a fixed index on are multiplied (or, for
deiterate, divided) by a row that depends only on the index.  Raising and
lowering use 1 / multiplier(sigma, n, k - 1) and multiplier(sigma, n, k - 1)
from index 2; the iteration of unit-constant series is the same action one
index over.  An independent quadrature route cross-checks the iteration.
"""

from __future__ import annotations

import numpy as np

from . import _count
from .kernels import _QUADRATURE_NODES, OperatorParams, multiplier_row
from .series import (
    SchlichtSeries,
    TruncatedSeries,
    _scaled,
    convolve,
    default_order,
    evaluate_grid,
    require_unit_constant,
)


def apply_L(params: OperatorParams, f: SchlichtSeries) -> SchlichtSeries:
    """Raising operator: a_k -> a_k / multiplier(sigma, n, k - 1) for k >= 2.

    Same action as convolving with tau(sigma, 0) * tau_inv(sigma, n); the
    direct route keeps it to one division per coefficient.
    """
    if f.order < 2:
        return f
    # a multiplier that underflows to 0 has no finite reciprocal; TruncatedSeries rejects the result
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return _scaled(f, 2, 1.0 / multiplier_row(params.sigma, params.n, f.order - 1))


def apply_l(params: OperatorParams, f: SchlichtSeries) -> SchlichtSeries:
    """Lowering operator: a_k -> a_k * multiplier(sigma, n, k - 1) for k >= 2."""
    if f.order < 2:
        return f
    return _scaled(f, 2, multiplier_row(params.sigma, params.n, f.order - 1))


def tau_coeffs(params: OperatorParams, order: int | None = None) -> TruncatedSeries:
    """Kernel z / (1 - z)**lam with lam = sigma - (n - 1); coefficient k + 1 is (lam)_k / k!."""
    n = default_order() if order is None else _count(order, "order", 1)
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
    # a kernel coefficient that is subnormal or 0 has no finite reciprocal; TruncatedSeries rejects the result
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        c[1:] = 1.0 / t.coeffs[1:]
    return TruncatedSeries(c)


def ruscheweyh(sigma: float, f: SchlichtSeries) -> SchlichtSeries:
    """Order-sigma derivative-type operator: Hadamard product with z / (1 - z)**(sigma + 1)."""
    if sigma <= -1.0:
        raise ValueError("require sigma > -1")
    t = tau_coeffs(OperatorParams(sigma, 0), f.order)
    return SchlichtSeries(convolve(f, t).coeffs)


def noor(sigma: float, f: SchlichtSeries) -> SchlichtSeries:
    """Integral-type companion: Hadamard product with the inverse kernel."""
    if sigma <= -1.0:
        raise ValueError("require sigma > -1")
    t = tau_inv_coeffs(OperatorParams(sigma, 0), f.order)
    return SchlichtSeries(convolve(f, t).coeffs)


def _step_lambda(sigma: float, m: int) -> float:
    """lam = sigma - (m - 1) of integration step m >= 1, which must be finite and positive; a NaN sigma fails too."""
    lam = sigma - (_count(m, "m", 1) - 1.0)
    if not 0.0 < lam < np.inf:
        raise ValueError("step m needs a finite sigma - (m - 1) > 0")
    return lam


def iterate_step_closed(sigma: float, m: int, p: TruncatedSeries) -> TruncatedSeries:
    """Single radial integration step in closed form: c_k -> (sigma - m + 1) / (sigma - m + 1 + k) c_k."""
    lam = _step_lambda(sigma, m)
    k = np.arange(1, p.order + 1)
    return _scaled(p, 1, lam / (lam + k))


def iterate_closed(params: OperatorParams, p: TruncatedSeries) -> TruncatedSeries:
    """n-fold iterate of a unit-constant series: c_k -> multiplier(sigma, n, k) c_k."""
    require_unit_constant(p)
    if params.n == 0:
        return p
    return _scaled(p, 1, multiplier_row(params.sigma, params.n, p.order))


def deiterate(params: OperatorParams, q: TruncatedSeries) -> TruncatedSeries:
    """Inverse of iterate_closed: divide coefficient k by multiplier(sigma, n, k)."""
    require_unit_constant(q)
    if params.n == 0:
        return q
    # a subnormal multiplier has no finite quotient; TruncatedSeries rejects the result
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return _scaled(q, 1, multiplier_row(params.sigma, params.n, q.order), np.divide)


def extremal_iterate(params: OperatorParams, order: int | None = None, sign: int = 1) -> TruncatedSeries:
    """n-fold integral iterate of the half-plane extremal (1 + s z) / (1 - s z).

    Coefficients are 2 * multiplier(sigma, n, k) * sign**k, so sign=+1 gives the
    maximal-real-part direction on the positive axis and sign=-1 the minimal one.
    They are the sign's row of _extremal_rows: negating the odd entries gives
    the same doubles as the product with (-1)**k, and every imaginary part is +0.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    n = default_order() if order is None else _count(order, "order", 1)
    return TruncatedSeries(_extremal_rows(params.sigma, params.n, n)[(1 + sign) // 2])


def _extremal_rows(sigma: float, n: int, kmax: int) -> np.ndarray:
    """Rows [alternating, upper] of 1 + 2 sum_{k <= kmax} multiplier(sigma, n, k) (-+z)^k, for n >= -1 too."""
    rows = np.ones((2, kmax + 1))
    rows[:, 1:] = 2.0 * multiplier_row(sigma, n, kmax)
    rows[0, 1::2] *= -1.0
    return rows


def iterate_quadrature_step(sigma: float, m: int, p_prev: TruncatedSeries, z: complex) -> complex:
    """One radial integration step evaluated by quadrature at a single point.

    The step sends p to lam z**-lam int_0^z t**(lam - 1) p(t) dt, lam = sigma - m + 1,
    along the straight segment from 0.  Substituting t = u z cancels the
    principal-branch powers of z exactly and leaves lam int_0^1 u**(lam - 1) p(u z) du;
    substituting v = u**lam then absorbs the weight and leaves int_0^1 p(v**(1 / lam) z) dv,
    which is what gets integrated here.  For small lam the integrand moves
    only in a layer of width about lam below v = 1, and for large lam only
    near v = 0, which the panels graded toward both ends resolve.  No
    coefficient multiplier enters, so the result is an independent check on
    the closed form.
    """
    lam = _step_lambda(sigma, m)
    z = complex(z)
    if z == 0:
        raise ValueError("z = 0 is excluded; the limiting value is p(0)")
    if not abs(z) < 1.0:  # written so that a NaN point fails too
        raise ValueError("quadrature point must satisfy 0 < |z| < 1")
    _, _, w, log_v = _QUADRATURE_NODES
    with np.errstate(over="ignore"):  # a tiny lam overflows log v / lam to -inf, which exp takes to 0
        u = np.exp(log_v / lam)
    return complex(np.sum(w * evaluate_grid(p_prev, u * z)))


def salagean_iterate(alpha: float, n: int, p: TruncatedSeries) -> TruncatedSeries:
    """Single-parameter iterated transform: c_k -> (alpha / (alpha + k))**n c_k, as exp(-n log1p(k / alpha)).

    log1p keeps k / alpha where the base alpha / (alpha + k) rounds to 1, as it does at a huge alpha.
    """
    if not 0.0 < alpha < np.inf:  # written so that a NaN alpha fails too
        raise ValueError("require a finite alpha > 0")
    n = _count(n, "n", 0)
    require_unit_constant(p)
    if n == 0:
        return p
    k = np.arange(1, p.order + 1)
    # a subnormal alpha takes k / alpha to inf and the factor to 0; n = 2**63 takes every factor below 1 to 0
    with np.errstate(over="ignore"):
        return _scaled(p, 1, np.exp(-float(min(n, 2**63)) * np.log1p(k / alpha)))


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
    lam = np.array([params.sigma - (params.n - 1)])
    order = min(p_n.order, p_prev.order)
    return float(recurrence_residuals(lam, p_n.coeffs[None, : order + 1], p_prev.coeffs[None, : order + 1])[0])


def recurrence_residuals(lam: np.ndarray, p_n: np.ndarray, p_prev: np.ndarray) -> np.ndarray:
    """Stacked recurrence_residual on equally long coefficient rows, one lam per row."""
    k = np.arange(0, p_n.shape[-1])
    return np.max(np.abs((lam[:, None] + k) * p_n - lam[:, None] * p_prev), axis=-1)
