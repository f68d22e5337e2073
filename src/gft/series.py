"""Truncated complex power series and the coefficientwise arithmetic on them.

Every operator in this package acts diagonally on coefficients, so a series
cut at order N loses nothing under the operators themselves; only point
evaluation has a tail.  The tail convention used by all circle checks is
B * r**(N+1) / (1 - r) for a series whose dropped coefficients are bounded
by B.  Every circle check evaluates through one of two kernels that share
their first step (checks, r**k scaling, fold): evaluate_circle gets the
values at equally spaced points on any number of circles from one batched
FFT, and evaluate_circle_real gets their real parts, which every real-part
threshold test reads, from one real FFT of half the length.  evaluate_grid's
Horner loop serves points off those grids, such as the quadrature oracle's
nodes, and runs in place in one buffer per call.
"""

from __future__ import annotations

import json
import os

import numpy as np

from . import _Frozen, _count

ENV_DEFAULT_ORDER = "GFT_DEFAULT_ORDER"


def default_order() -> int:
    """Truncation order used when a caller does not pass one explicitly."""
    raw = os.environ.get(ENV_DEFAULT_ORDER, "64")
    try:
        order = int(raw)
    except ValueError:
        order = None
    # member and extremal builders take multiplier rows of length order - 1
    if order is None or order < 2:
        raise ValueError(f"{ENV_DEFAULT_ORDER} must be an integer >= 2, got {raw!r}")
    return order


def tail_bound(coeff_bound: float, order: int, r: float) -> float:
    """Geometric bound on the dropped evaluation tail at radius r < 1."""
    return coeff_bound * r ** (order + 1) / (1.0 - r)


class TruncatedSeries(_Frozen):
    """Coefficients c_0..c_N of a power series cut at order N >= 1; equal only to itself."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs) -> None:
        c = np.array(coeffs, dtype=np.complex128)
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
        """Copy of the same type cut down to the given order (no-op when already shorter)."""
        if order >= self.order:
            return self
        return type(self)(self.coeffs[: order + 1])


class SchlichtSeries(TruncatedSeries):
    """A truncated series normalized to z + a_2 z^2 + ...: the series checks, then c_0 = 0 and c_1 = 1 exactly."""

    __slots__ = ()

    def __init__(self, coeffs) -> None:
        super().__init__(coeffs)
        if self.coeffs[0] != 0 or self.coeffs[1] != 1:
            raise ValueError("normalized series requires c_0 = 0 and c_1 = 1 exactly")


class HerglotzMixture(_Frozen):
    """Finite convex combination of unit-circle point masses; equal only to itself.

    Each atom (x, w) contributes w * (1 + x z) / (1 - x z), so the expansion
    has c_0 = 1 and c_k = 2 * sum_j w_j x_j**k, which keeps |c_k| <= 2.
    Mixtures of this form generate the test functions with positive real
    part used throughout the verification suites.
    """

    __slots__ = ("atoms",)

    def __init__(self, atoms) -> None:
        atoms = tuple((complex(x), float(w)) for x, w in atoms)
        if not atoms:
            raise ValueError("mixture needs at least one atom")
        pts = np.array([x for x, _ in atoms])
        wts = np.array([w for _, w in atoms])
        # each check is written so that a NaN fails it
        if not np.all(np.abs(np.abs(pts) - 1.0) <= 1e-12):
            raise ValueError("atom locations must lie on the unit circle")
        if not (np.all(wts >= 0.0) and abs(wts.sum() - 1.0) <= 1e-12):
            raise ValueError("atom weights must be nonnegative and sum to 1")
        object.__setattr__(self, "atoms", atoms)


def _scaled(s, start: int, factors, op=np.multiply):
    """The diagonal action under every operator: c[start:] -> op(c[start:], factors).

    Returns a new series of the type of s, built and checked once, so a
    normalized input comes back normalized.
    """
    c = s.coeffs.copy()
    c[start:] = op(c[start:], factors)
    return type(s)(c)


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
    if not abs(z) < 1.0:  # written so that a NaN point fails too
        raise ValueError("evaluation point must satisfy |z| < 1")
    acc = 0.0 + 0.0j
    for c in s.coeffs[::-1]:
        acc = acc * z + c
    return complex(acc)


def evaluate_grid(s, points) -> np.ndarray:
    """Vectorized Horner evaluation at an array of points inside the disk.

    The loop runs acc = acc * pts + c with numpy's own complex multiply and
    add, in place in one buffer, so no step allocates; the values are
    bit-identical to the allocating loop.
    """
    pts = np.asarray(points, dtype=np.complex128)
    if not np.all(np.abs(pts) < 1.0):
        raise ValueError("evaluation points must satisfy |z| < 1")
    acc = np.zeros_like(pts)
    for c in s.coeffs[::-1]:
        np.multiply(acc, pts, out=acc)
        np.add(acc, c, out=acc)
    return acc


def _folded_circle(s, radii, samples: int) -> np.ndarray:
    """The circle kernels' shared first step: validate (finite coefficients too), scale c_k by r**k, fold mod samples.

    c_k and c_{k + samples} agree at every sample point, so their scaled values add; the callers check samples.  The
    shape is (..., len(radii), L), with L = min(N + 1, samples): coefficients past L are zero and not stored.
    """
    r = np.asarray(radii, dtype=np.float64)
    if not np.all((r > 0.0) & (r < 1.0)):
        raise ValueError("radius must lie strictly between 0 and 1")
    c = np.asarray(getattr(s, "coeffs", s))
    if not np.all(np.isfinite(c)):
        raise ValueError("series coefficients must be finite")
    rows, size = c.shape[:-1], c.shape[-1]
    scaled = c.reshape(*rows, *(1,) * r.ndim, size) * r[..., None] ** np.arange(size)
    if size <= samples:
        return scaled
    folded = np.zeros((*rows, *r.shape, -(-size // samples) * samples), dtype=np.complex128)
    folded[..., :size] = scaled
    return folded.reshape(*rows, *r.shape, -1, samples).sum(axis=-2)


def evaluate_circle(s, radii, samples: int) -> np.ndarray:
    """Values at r exp(2 pi i j / samples), j = 0..samples - 1, on every circle |z| = r at once.

    Henrici's circle kernel: scale c_k by r**k, fold the scaled coefficients
    mod samples, and take samples * ifft along the last axis.  s is a series
    or an array of coefficient rows (..., N + 1); the shape is
    (..., len(radii), samples), without the radius axis for a scalar radius.
    Each row's values are bit-identical to evaluating that row alone.
    """
    samples = _count(samples, "samples", 1)
    folded = _folded_circle(s, radii, samples)
    values = np.zeros((*folded.shape[:-1], samples), dtype=np.complex128)
    values[..., : folded.shape[-1]] = folded
    # transformed and scaled in place: a stack's temporaries stay small enough that the allocator keeps their
    # pages between calls, instead of returning them and faulting them in again
    np.fft.ifft(values, axis=-1, out=values)
    values *= samples
    return values


def evaluate_circle_real(s, radii, samples: int) -> np.ndarray:
    """evaluate_circle(s, radii, samples).real, from one real FFT of half the length.

    With b the folded coefficients and M = samples, Re sum_k b_k w**(jk) is half
    the Hermitian sum of X_k = b_k + conj(b_{M - k}) for 0 < k < M / 2, with
    X_0 = 2 b_0 and, for even M, X_{M/2} = 2 b_{M/2}, whose imaginary parts
    irfft drops.  The unnormalised irfft of X, zero-padded to M // 2 + 1 terms,
    gives that sum, and halving it is exact.  Takes, and rejects, the same
    arguments as evaluate_circle, and each row's values are bit-identical to
    that row's alone.
    """
    samples = _count(samples, "samples", 1)
    folded = _folded_circle(s, radii, samples)
    half = samples // 2
    spectrum = folded[..., : half + 1].copy()
    # b_{M - k} is stored for k >= first; at k = M / 2 this adds conj(b_{M/2}), giving 2 b_{M/2}'s real part
    first = samples + 1 - folded.shape[-1]
    if first <= half:
        spectrum[..., first:] += np.conj(folded[..., : samples - half - 1 : -1])
    spectrum[..., 0] *= 2.0
    values = np.fft.irfft(spectrum, n=samples, axis=-1, norm="forward")
    values *= 0.5
    return values


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


def herglotz_rows(points: np.ndarray, weights: np.ndarray, order: int) -> np.ndarray:
    """Stacked herglotz_expand: row i is c_0 = 1, c_k = 2 sum_j weights[i, j] points[i, j]**k for k <= order.

    points and weights have shape (rows, atoms).  Each atom's powers are a running product along k, built
    in one (rows, atoms, order) buffer and weighted there; the sum runs over the atoms in column order, so
    each row is bit-identical to expanding its own atoms alone; atoms of weight 0, which pad rows with fewer
    atoms, add exact zeros.
    """
    terms = np.empty((*points.shape, order), dtype=np.complex128)
    terms[...] = points[..., None]
    np.cumprod(terms, axis=-1, out=terms)
    terms *= weights[..., None]
    out = np.empty((points.shape[0], order + 1), dtype=np.complex128)
    out[:, 0] = 1.0
    np.sum(terms, axis=1, out=out[:, 1:])
    out[:, 1:] *= 2.0
    return out


def herglotz_expand(m: HerglotzMixture, order: int | None = None) -> TruncatedSeries:
    """Expand a mixture to its truncated series: c_0 = 1, c_k = 2 sum_j w_j x_j^k."""
    n = default_order() if order is None else _count(order, "order", 1)
    pts = np.array([[x for x, _ in m.atoms]])
    wts = np.array([[w for _, w in m.atoms]])
    return TruncatedSeries(herglotz_rows(pts, wts, n)[0])


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
    if not (mu1 >= 0.0 and mu2 >= 0.0 and abs(mu1 + mu2 - 1.0) <= 1e-12):  # a NaN weight fails too
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
        # only JSON numbers: float() would also take true and "1", and raises OverflowError on a huge integer
        if any(type(v) not in (int, float) for pair in pairs for v in pair):
            raise TypeError
        c = np.array([complex(float(re), float(im)) for re, im in pairs])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError("coefficients must be [re, im] pairs of finite numbers") from exc
    return TruncatedSeries(c)
