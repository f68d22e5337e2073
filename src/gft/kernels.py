"""Coefficient multipliers, their parameter domain, and the quadrature rule.

The whole operator calculus reduces to one family of positive factors:
multiplier(sigma, n, k) is the damping applied to the k-th coefficient by
n nested radial integrations.  This module builds no series and imports no
gft module but gft, so the bounds layer, which needs only the multipliers
and _QUADRATURE_NODES, loads no series code; the kernel series whose
Hadamard products realize the same action are built in gft.operators.
"""

from __future__ import annotations

import numpy as np

from . import _Frozen, _count, _real


class OperatorParams(_Frozen):
    """Parameter pair (sigma, n) with n a nonnegative integer and sigma - (n - 1) > 0; equal pairs are equal keys."""

    __slots__ = ("sigma", "n")

    def __init__(self, sigma: float, n: int) -> None:
        object.__setattr__(self, "n", _count(n, "n", 0))
        object.__setattr__(self, "sigma", _real(sigma, "sigma"))
        _check_multiplier_params(self.sigma, self.n)

    def __eq__(self, other):
        return (self.sigma, self.n) == (other.sigma, other.n) if type(other) is OperatorParams else NotImplemented

    def __hash__(self) -> int:
        return hash((self.sigma, self.n))


def pochhammer(x: float, n: int) -> float:
    """Rising factorial x (x + 1) ... (x + n - 1); empty product 1 for n = 0."""
    out = 1.0
    for i in range(_count(n, "n", 0)):
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
    return float(multiplier_row(sigma, n, _count(k, "k", 1))[-1])


def multiplier_row(sigma: float, n: int, kmax: int) -> np.ndarray:
    """multiplier(sigma, n, k) for k = 1..kmax as one float vector.

    The work grows with min(n, kmax), so a huge n costs no more than a long row.
    """
    kmax, n = _count(kmax, "kmax", 1), _check_multiplier_params(sigma, n)
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


def _check_multiplier_params(sigma: float, n: int) -> int:
    """n as an int; a ValueError for (sigma, n) outside the domain: finite sigma, integer n >= -1, a positive shift."""
    if not np.isfinite(sigma):
        raise ValueError(f"sigma must be finite, got {sigma}")
    n = _count(n, "n", -1)
    if n == -1:
        if sigma + 1.0 <= 0.0:
            raise ValueError("the n = -1 extension needs sigma > -1")
    elif sigma - (n - 1) <= 0.0:
        raise ValueError(f"require sigma - (n - 1) > 0, got sigma={sigma}, n={n}")
    return n


def _composite_rule() -> tuple:
    """The rule of _QUADRATURE_NODES: composite Gauss-Legendre-12 nodes t, complements 1 - t, weights, and log t.

    The panels on [0, 1/2] are [2**-(j + 2), 2**-(j + 1)] for j < 64, the
    last reaching 0, and those on [1/2, 1] are their mirror images: they
    shrink geometrically (ratio 1/2) toward both endpoints so that endpoint
    factors t**a and (1 - t)**a with a > -1 are resolved to near machine
    accuracy; a uniform split cannot reach 1e-8 once a < 0.  t on the left
    half and 1 - t on the right half are halved Gauss nodes, so the distance
    to the nearer endpoint is exact, and log t is taken from whichever of t
    and 1 - t is exact.  2 x 64 x 12 nodes, built once at import and shared,
    so all four arrays are read-only.
    """
    x, w = np.concatenate([np.array(_GL12[::-1]) * (-1.0, 1.0), _GL12]).T  # (-x, w) mirrors the pair (x, w)
    hi = 0.5 ** np.arange(64)
    lo = np.append(hi[1:], 0.0)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    u = (mid[:, None] + half[:, None] * x).ravel() / 2.0
    wu = (half[:, None] * w).ravel() / 2.0
    t, s = np.concatenate([u, 1.0 - u]), np.concatenate([1.0 - u, u])
    # np.where discards the log of 0 it also forms where 1 - t rounds to 1
    with np.errstate(divide="ignore"):
        log_t = np.where(t < s, np.log(t), np.log1p(-s))
    out = t, s, np.concatenate([wu, wu]), log_t
    for a in out:
        a.setflags(write=False)
    return out


# leggauss(12)'s positive nodes, each with its weight: its nodes are exactly antisymmetric, its weights symmetric
_GL12 = ((0.1252334085114689, 0.2491470458134027), (0.3678314989981802, 0.2334925365383546),
         (0.5873179542866175, 0.20316742672306573), (0.7699026741943047, 0.16007832854334642),
         (0.9041172563704748, 0.10693932599531907), (0.9815606342467192, 0.04717533638651141))
_QUADRATURE_NODES = _composite_rule()

