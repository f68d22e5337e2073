"""Exact bound values from mpmath, the reference for the bounds checks.

All bounds reduce to S(x) = sum_{k >= 1} multiplier(sigma, n, k) x**k.
With a = sigma - n + 1 each multiplier is (a)_n / (a + k)_n, so for n >= 1
S(x) = x a / (a + n) 2F1(1, a + 1; a + n + 1; x) (DLMF 15.2.1).  For n = 0
it is x / (1 - x), and for the n = -1 extension, whose multiplier is
(sigma + k + 1) / (sigma + 1), it is x / (1 - x) + x / ((1 - x)**2 (sigma + 1)).
At x = -1 (the covering constant, n >= 1) mpmath returns the Abel limit,
which equals the convergent alternating sum.
"""

from __future__ import annotations

import mpmath

DIGITS = 30

# The lattice and radii of `gft bounds` with its defaults: 44 specs x 3 radii.
SIGMAS = (0.5, 1.0, 2.0, 3.5)
NS = (0, 1, 2, 3)
BETAS = (0.0, 0.25, 0.5, 0.9)
RADII = (0.5, 0.9, 0.99)


def default_specs() -> list:
    return [(s, n, b) for s in SIGMAS for n in NS if s - (n - 1) > 0.0 for b in BETAS]


def series_sum(sigma: float, n: int, x) -> mpmath.mpf:
    """S(x) = sum_{k >= 1} multiplier(sigma, n, k) x**k in closed form."""
    sigma, x = mpmath.mpf(sigma), mpmath.mpf(x)
    geometric = x / (1 - x)
    if n == -1:
        return geometric + x / ((1 - x) ** 2 * (sigma + 1))
    if n == 0:
        return geometric
    a = sigma - n + 1
    return x * a / (a + n) * mpmath.hyp2f1(1, a + 1, a + n + 1, x)


def bound_row(sigma: float, n: int, beta: float, r: float) -> dict:
    """Exact values of one `gft bounds` row; covering is None for n = 0."""
    scale = 2 * (1 - mpmath.mpf(beta))
    lam = mpmath.mpf(sigma) - (n - 1)
    return {
        "m_lower": lam * (1 + scale * series_sum(sigma, n - 1, -r)),
        "M_upper": lam * (1 + scale * series_sum(sigma, n - 1, r)),
        "growth_lower": r * (1 + scale * series_sum(sigma, n, -r)),
        "growth_upper": r * (1 + scale * series_sum(sigma, n, r)),
        "covering_constant": 1 + scale * series_sum(sigma, n, -1) if n >= 1 else None,
    }


def bounds_table() -> dict:
    """Exact rows of the default bounds table, keyed by (sigma, n, beta, r), as floats."""
    with mpmath.workdps(DIGITS):
        return {
            (s, n, b, r): {k: None if v is None else float(v) for k, v in bound_row(s, n, b, r).items()}
            for s, n, b in default_specs()
            for r in RADII
        }
