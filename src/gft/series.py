"""Truncated complex power series and the coefficientwise arithmetic on them.

Every operator in this package acts diagonally on coefficients, so a series
cut at order N loses nothing under the operators themselves; only point
evaluation has a tail.  The tail convention used by all circle checks is
B * r**(N+1) / (1 - r) for a series whose dropped coefficients are bounded
by B.  Every circle check evaluates through one kernel, evaluate_circle,
which gets the values at equally spaced points on any number of circles
from one batched FFT; evaluate_grid's Horner loop serves points off those
grids.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

ENV_DEFAULT_ORDER = "GFT_DEFAULT_ORDER"


def default_order() -> int:
    """Truncation order used when a caller does not pass one explicitly."""
    order = int(os.environ.get(ENV_DEFAULT_ORDER, "64"))
    if order < 2:
        # member and extremal builders take multiplier rows of length order - 1
        raise ValueError(f"{ENV_DEFAULT_ORDER} must be >= 2, got {order}")
    return order


def tail_bound(coeff_bound: float, order: int, r: float) -> float:
    """Geometric bound on the dropped evaluation tail at radius r < 1."""
    return coeff_bound * r ** (order + 1) / (1.0 - r)


@dataclass(frozen=True, eq=False)
class TruncatedSeries:
    """Coefficients c_0..c_N of a power series cut at order N >= 1."""

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.array(self.coeffs, dtype=np.complex128)
        if c.ndim != 1 or c.size < 2:
            raise ValueError("a truncated series needs at least c_0 and c_1")
        if not np.all(np.isfinite(c)):
            raise ValueError("series coefficients must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    def truncated(self, order: int) -> "TruncatedSeries":
        """Copy cut down to the given order (no-op when already shorter)."""
        if order >= self.order:
            return self
        return TruncatedSeries(self.coeffs[: order + 1])


@dataclass(frozen=True, eq=False)
class SchlichtSeries:
    """Series normalized to z + a_2 z^2 + ...: c_0 = 0 and c_1 = 1 exactly."""

    inner: TruncatedSeries

    def __post_init__(self) -> None:
        c = self.inner.coeffs
        if c[0] != 0 or c[1] != 1:
            raise ValueError("normalized series requires c_0 = 0 and c_1 = 1 exactly")

    @classmethod
    def from_coeffs(cls, coeffs) -> "SchlichtSeries":
        return cls(TruncatedSeries(coeffs))

    @property
    def coeffs(self) -> np.ndarray:
        return self.inner.coeffs

    @property
    def order(self) -> int:
        return self.inner.order


@dataclass(frozen=True, eq=False)
class HerglotzMixture:
    """Finite convex combination of unit-circle point masses.

    Each atom (x, w) contributes w * (1 + x z) / (1 - x z), so the expansion
    has c_0 = 1 and c_k = 2 * sum_j w_j x_j**k, which keeps |c_k| <= 2.
    Mixtures of this form generate the test functions with positive real
    part used throughout the verification suites.
    """

    atoms: tuple

    def __post_init__(self) -> None:
        atoms = tuple((complex(x), float(w)) for x, w in self.atoms)
        if not atoms:
            raise ValueError("mixture needs at least one atom")
        pts = np.array([x for x, _ in atoms])
        wts = np.array([w for _, w in atoms])
        if np.any(np.abs(np.abs(pts) - 1.0) > 1e-12):
            raise ValueError("atom locations must lie on the unit circle")
        if np.any(wts < 0.0) or abs(wts.sum() - 1.0) > 1e-12:
            raise ValueError("atom weights must be nonnegative and sum to 1")
        object.__setattr__(self, "atoms", atoms)


def _scaled(s, start: int, factors, op=np.multiply):
    """The diagonal action under every operator: c[start:] -> op(c[start:], factors).

    Returns a new series of the same type as s (TruncatedSeries or
    SchlichtSeries), so a normalized input comes back normalized.
    """
    c = s.coeffs.copy()
    c[start:] = op(c[start:], factors)
    out = TruncatedSeries(c)
    return SchlichtSeries(out) if isinstance(s, SchlichtSeries) else out


def convolve(f, g) -> TruncatedSeries:
    """Hadamard product: coefficientwise multiply, truncated to the smaller order."""
    n = min(f.order, g.order)
    return TruncatedSeries(f.coeffs[: n + 1] * g.coeffs[: n + 1])


def evaluate(s, z: complex) -> complex:
    """Horner evaluation of the truncated polynomial at a point with |z| < 1.

    The scalar loop is the reference evaluate_grid is tested against; numpy's
    vector complex arithmetic can differ from it in the last bit.
    """
    z = complex(z)
    if abs(z) >= 1.0:
        raise ValueError("evaluation point must satisfy |z| < 1")
    acc = 0.0 + 0.0j
    for c in s.coeffs[::-1]:
        acc = acc * z + c
    return complex(acc)


def evaluate_grid(s, points) -> np.ndarray:
    """Vectorized Horner evaluation at an array of points inside the disk."""
    pts = np.asarray(points, dtype=np.complex128)
    if np.any(np.abs(pts) >= 1.0):
        raise ValueError("evaluation points must satisfy |z| < 1")
    acc = np.zeros_like(pts)
    for c in s.coeffs[::-1]:
        acc = acc * pts + c
    return acc


def evaluate_circle(s, radii, samples: int) -> np.ndarray:
    """Values at r exp(2 pi i j / samples), j = 0..samples - 1, on every circle |z| = r at once.

    Henrici's circle kernel: scale c_k by r**k, fold the scaled coefficients
    mod samples (c_k and c_{k + samples} agree at every sample point), and
    take samples * ifft along the last axis.  The shape is (len(radii),
    samples), or (samples,) for a scalar radius.
    """
    r = np.asarray(radii, dtype=np.float64)
    if not np.all((r > 0.0) & (r < 1.0)):
        raise ValueError("radius must lie strictly between 0 and 1")
    if samples < 1:
        raise ValueError("need at least one sample per circle")
    c = s.coeffs
    folded = np.zeros((*r.shape, -(-c.size // samples) * samples), dtype=np.complex128)
    folded[..., : c.size] = c * r[..., None] ** np.arange(c.size)
    folded = folded.reshape(*r.shape, -1, samples).sum(axis=-2)
    return samples * np.fft.ifft(folded, axis=-1)


def differentiate(s: TruncatedSeries) -> TruncatedSeries:
    """Derivative series: coefficient k of the result is (k+1) c_{k+1}.

    The order drops by one, so the input must have order >= 2 to stay
    within the representation.
    """
    c = s.coeffs
    if c.size < 3:
        raise ValueError("need order >= 2 to differentiate within this representation")
    k = np.arange(1, c.size)
    return TruncatedSeries(k * c[1:])


def herglotz_expand(m: HerglotzMixture, order: int | None = None) -> TruncatedSeries:
    """Expand a mixture to its truncated series: c_0 = 1, c_k = 2 sum_j w_j x_j^k."""
    n = default_order() if order is None else int(order)
    pts = np.array([x for x, _ in m.atoms])
    wts = np.array([w for _, w in m.atoms])
    powers = pts[:, None] ** np.arange(1, n + 1)[None, :]
    c = np.concatenate([[1.0 + 0.0j], 2.0 * (wts[:, None] * powers).sum(axis=0)])
    return TruncatedSeries(c)


def require_unit_constant(p) -> None:
    """Reject series whose constant term is not 1 (within 1e-12)."""
    if abs(p.coeffs[0] - 1.0) > 1e-12:
        raise ValueError("series must have constant term 1")


def shift_to_beta(p: TruncatedSeries, beta: float) -> TruncatedSeries:
    """Affine push beta + (1 - beta) p of a unit-constant series.

    The constant term stays 1; higher coefficients scale by (1 - beta).
    Maps real part > 0 onto real part > beta.
    """
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must lie in [0, 1)")
    require_unit_constant(p)
    return _scaled(p, 1, 1.0 - beta)


def combine_convex(mu1: float, f, mu2: float, g) -> TruncatedSeries:
    """Coefficientwise convex combination mu1 * f + mu2 * g."""
    if mu1 < 0.0 or mu2 < 0.0 or abs(mu1 + mu2 - 1.0) > 1e-12:
        raise ValueError("weights must be nonnegative and sum to 1")
    n = min(f.order, g.order)
    return TruncatedSeries(mu1 * f.coeffs[: n + 1] + mu2 * g.coeffs[: n + 1])


def to_json(s) -> str:
    """Serialize as {"order": N, "coeffs": [[re, im], ...]} with exactly N + 1 pairs."""
    pairs = [[float(c.real), float(c.imag)] for c in s.coeffs]
    return json.dumps({"order": s.order, "coeffs": pairs})


def from_json(text: str) -> TruncatedSeries:
    """Parse the series interchange format, rejecting order/length mismatches."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"series JSON is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "order" not in data or "coeffs" not in data:
        raise ValueError("series JSON needs 'order' and 'coeffs' keys")
    order = data["order"]
    pairs = data["coeffs"]
    if isinstance(order, bool) or not isinstance(order, int) or not isinstance(pairs, list):
        raise ValueError("'order' must be an integer and 'coeffs' a list of pairs")
    if len(pairs) != order + 1:
        raise ValueError(f"expected {order + 1} coefficient pairs, got {len(pairs)}")
    try:
        c = np.array([complex(float(re), float(im)) for re, im in pairs])
    except (TypeError, ValueError) as exc:
        raise ValueError("coefficients must be [re, im] pairs of finite numbers") from exc
    return TruncatedSeries(c)
