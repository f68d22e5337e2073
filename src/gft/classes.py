"""Positive-real-part classes, their members, extremals, and sharp bounds.

Membership is decided on circle grids with an explicit truncation allowance:
a truncated member can dip below the threshold near the boundary purely
because of the dropped tail, so the boolean tests fail only when the margin
is negative by more than tail + tolerance.  The growth, distortion and
covering bounds are affine images of one untruncated series,
multiplier_series, so they carry no truncation order and no tail pad; the
verification suites check members and extremals against these same bounds.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .kernels import OperatorParams, _check_multiplier_params, multiplier_row
from .operators import _quadrature_nodes, apply_L, deiterate, iterate_closed
from .series import (
    HerglotzMixture,
    SchlichtSeries,
    TruncatedSeries,
    default_order,
    evaluate_circle,
    herglotz_expand,
    require_unit_constant,
    tail_bound,
)


@dataclass(frozen=True)
class ClassSpec:
    """Class label (sigma, n, beta): members have raised ratio with real part above beta."""

    params: OperatorParams
    beta: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.beta < 1.0:
            raise ValueError("beta must lie in [0, 1)")

    @property
    def sigma(self) -> float:
        return self.params.sigma

    @property
    def n(self) -> int:
        return self.params.n


@dataclass(frozen=True)
class CircleGrid:
    """Sampling grid for circle checks: radii, angular resolution, slack."""

    radii: tuple = (0.5, 0.9, 0.99)
    angular_samples: int = 720
    tolerance: float = 1e-9

    def __post_init__(self) -> None:
        radii = tuple(float(r) for r in self.radii)
        if not radii or any(not 0.0 < r < 1.0 for r in radii):
            raise ValueError("radii must lie strictly between 0 and 1")
        if self.angular_samples < 16:
            raise ValueError("need at least 16 angular samples")
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        object.__setattr__(self, "radii", radii)

    def describe(self) -> dict:
        return {
            "radii": list(self.radii),
            "angular_samples": self.angular_samples,
            "tolerance": self.tolerance,
        }


@dataclass(frozen=True)
class MembershipResult:
    """Per-radius margins of a sampled real-part threshold test.

    observed[i] is (min sampled real part on circle i) - threshold; padded[i]
    adds the truncation-tail allowance for that radius plus the grid
    tolerance.  verdict is "fail" when some padded margin is negative,
    "pass" when every observed margin is already positive, and
    "inconclusive" in between, where the sign is a truncation artifact.
    The boolean view treats only decisive failures as False, so genuine
    members are never rejected for tail reasons.
    """

    radii: tuple
    observed: tuple
    padded: tuple
    verdict: str

    def __bool__(self) -> bool:
        return self.verdict != "fail"

    @property
    def margin(self) -> float:
        return min(self.padded)

    @property
    def allowance(self) -> tuple:
        """Per-radius slack the padded margins add: truncation-tail allowance plus grid tolerance."""
        return tuple(p - o for p, o in zip(self.padded, self.observed))


def circle_points(r: float, samples: int) -> np.ndarray:
    """Equally spaced points on |z| = r, starting at the positive real axis."""
    theta = 2.0 * np.pi * np.arange(samples) / samples
    return r * np.exp(1j * theta)


def min_re_on_circle(s, r: float, samples: int) -> float:
    """Minimum sampled real part of the series on the circle |z| = r."""
    return float(np.min(evaluate_circle(s, r, samples).real))


def real_part_test(s, threshold: float, grid: CircleGrid | None = None, coeff_bound: float = 2.0) -> MembershipResult:
    """Threshold test Re s > threshold on every grid circle, tail-aware."""
    grid = CircleGrid() if grid is None else grid
    lows = np.min(evaluate_circle(s, grid.radii, grid.angular_samples).real, axis=-1)
    observed = [float(low) - threshold for low in lows]
    padded = [o + tail_bound(coeff_bound, s.order, r) + grid.tolerance for o, r in zip(observed, grid.radii)]
    verdict = "fail" if any(p < 0.0 for p in padded) else (
        "pass" if all(o > 0.0 for o in observed) else "inconclusive"
    )
    return MembershipResult(tuple(grid.radii), tuple(observed), tuple(padded), verdict)


def membership_in_P(p: TruncatedSeries, beta: float = 0.0, grid: CircleGrid | None = None) -> MembershipResult:
    """Sampled test for real part above beta; coefficient bound 2 fixes the tail."""
    require_unit_constant(p)
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must lie in [0, 1)")
    return real_part_test(p, beta, grid)


def membership_in_iterated_P(q: TruncatedSeries, params: OperatorParams, grid: CircleGrid | None = None) -> MembershipResult:
    """Test for the iterated family: undo the iteration, then test real part > 0."""
    require_unit_constant(q)
    return real_part_test(deiterate(params, q), 0.0, grid)


def p_series_of(f: SchlichtSeries, beta: float) -> TruncatedSeries:
    """Unit-constant series (f / z - beta) / (1 - beta) behind a class member."""
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must lie in [0, 1)")
    c = f.coeffs[1:] / (1.0 - beta)
    c[0] = 1.0
    return TruncatedSeries(c)


def member_from_p(spec: ClassSpec, p_iter: TruncatedSeries) -> SchlichtSeries:
    """Normalized series z (beta + (1 - beta) p) from an already-iterated unit-constant series."""
    require_unit_constant(p_iter)
    c = np.zeros(p_iter.order + 2, dtype=np.complex128)
    c[1] = 1.0
    c[2:] = (1.0 - spec.beta) * p_iter.coeffs[1:]
    return SchlichtSeries(TruncatedSeries(c))


def membership_in_B(f: SchlichtSeries, spec: ClassSpec, grid: CircleGrid | None = None) -> MembershipResult:
    """Class test through the iterated family: (f / z - beta) / (1 - beta) must pass it."""
    return membership_in_iterated_P(p_series_of(f, spec.beta), spec.params, grid)


def is_in_B(f: SchlichtSeries, spec: ClassSpec, grid: CircleGrid | None = None) -> bool:
    return bool(membership_in_B(f, spec, grid))


def membership_in_B_direct(f: SchlichtSeries, spec: ClassSpec, grid: CircleGrid | None = None) -> MembershipResult:
    """Route through the raising operator: Re((L f) / z) > beta on the grid.

    Must agree with membership_in_B: the two observed margins differ by the
    exact factor (1 - beta), and the tail allowances scale the same way.
    """
    g = apply_L(spec.params, f)
    ratio = TruncatedSeries(g.coeffs[1:])
    return real_part_test(ratio, spec.beta, grid, coeff_bound=2.0 * (1.0 - spec.beta))


def random_mixture(rng: np.random.Generator, max_atoms: int = 8) -> HerglotzMixture:
    """Random finite mixture of circle point masses with convex weights."""
    count = int(rng.integers(1, max_atoms + 1))
    angles = rng.uniform(0.0, 2.0 * np.pi, count)
    raw = rng.random(count) + 1e-9
    w = raw / raw.sum()
    w[-1] = 1.0 - float(w[:-1].sum())  # kill rounding drift before the convexity check
    return HerglotzMixture(tuple((complex(np.exp(1j * a)), float(wi)) for a, wi in zip(angles, w)))


def random_member_B(spec: ClassSpec, seed, order: int | None = None) -> SchlichtSeries:
    """Seeded random class member built from a mixture pushed through the iteration."""
    n = default_order() if order is None else int(order)
    rng = np.random.default_rng(seed)
    p0 = herglotz_expand(random_mixture(rng), n - 1)
    return member_from_p(spec, iterate_closed(spec.params, p0))


def inflate_to_non_member(spec: ClassSpec, seed, order: int | None = None, grid: CircleGrid | None = None) -> SchlichtSeries:
    """Doubles one early coefficient of a random member until membership decisively fails."""
    f = random_member_B(spec, seed, order)
    rng = np.random.default_rng((0xBAD, seed) if np.isscalar(seed) else (0xBAD, *seed))
    idx = int(rng.integers(2, min(7, f.order + 1)))
    c = np.array(f.coeffs)
    for _ in range(64):
        c[idx] = 2.0 * c[idx] if c[idx] != 0 else 1.0
        candidate = SchlichtSeries(TruncatedSeries(c))
        if not membership_in_B(candidate, spec, grid):
            return candidate
    raise RuntimeError("coefficient inflation failed to leave the class")


def _extremal_B(spec: ClassSpec, order: int | None, sign: float) -> SchlichtSeries:
    """Class member with a_k = 2 (1 - beta) multiplier(sigma, n, k - 1) sign**(k - 1)."""
    n = default_order() if order is None else int(order)
    row = multiplier_row(spec.sigma, spec.n, n - 1)
    k = np.arange(2, n + 1)
    c = np.zeros(n + 1, dtype=np.complex128)
    c[1] = 1.0
    c[2:] = 2.0 * (1.0 - spec.beta) * row * sign ** (k - 1)
    return SchlichtSeries(TruncatedSeries(c))


def extremal_B_upper(spec: ClassSpec, order: int | None = None) -> SchlichtSeries:
    """Member with every coefficient on its sharp bound: a_k = 2 (1 - beta) multiplier(sigma, n, k - 1)."""
    return _extremal_B(spec, order, 1.0)


def extremal_B_lower(spec: ClassSpec, order: int | None = None) -> SchlichtSeries:
    """Alternating-sign extremal; its modulus on the positive axis attains the lower growth bound."""
    return _extremal_B(spec, order, -1.0)


def multiplier_series(sigma: float, n: int, x) -> np.ndarray:
    """S(x) = sum_{k >= 1} multiplier(sigma, n, k) x**k, untruncated, for -1 <= x < 1 (array x too).

    Geometric for n = 0 and n = -1.  For n >= 1, Euler's integral (DLMF 15.6.1)
    gives S(x) = x a / (a + n) E[1 / (1 - x T)] with a = sigma - n + 1 and
    T ~ Beta(a + 1, n): a ratio of two integrals of t**a (1 - t)**(n - 1) on
    the panels of _quadrature_nodes mirrored so they halve toward t = 0 and t = 1,
    where 1 / (1 - x t) nears its pole as x -> 1.  1 - t is the mirrored node
    and 1 - x t is (1 - x) + x (1 - t), so nothing cancels.  The ratio needs no
    (a)_n / (n - 1)!, so it stays finite; it is exact to rounding while
    min(a, n) <= 30 (2e-5 relative at a = n = 1000).  At x = -1 it is the Abel
    limit, the sum of the alternating series.
    """
    _check_multiplier_params(sigma, n)
    x = np.asarray(x, dtype=np.float64)
    if not np.all((x >= -1.0) & (x < 1.0)):
        raise ValueError("the multiplier series needs -1 <= x < 1")
    if n <= 0:
        geometric = x / (1.0 - x)
        return geometric if n == 0 else geometric + x / (1.0 - x) ** 2 / (sigma + 1.0)
    a = sigma - (n - 1.0)
    u, w = _quadrature_nodes()
    t, s = np.concatenate([u / 2.0, 1.0 - u / 2.0]), np.concatenate([1.0 - u / 2.0, u / 2.0])
    with np.errstate(over="ignore"):  # a weight below exp(-1e308) is exactly 0
        log_weight = a * np.log(t) + (n - 1.0) * np.log(s)
    weight = np.concatenate([w, w]) * np.exp(log_weight - log_weight.max())
    xs = x[..., None]
    mean = np.sum(weight / ((1.0 - xs) + xs * s), axis=-1) / np.sum(weight)
    return x * a / (sigma + 1.0) * mean


def _envelope(spec: ClassSpec, n: int, r: float, factor: float) -> tuple:
    """factor (1 + 2 (1 - beta) S_n(x)) at x = -r and x = +r: the shape of every radial bound."""
    if not 0.0 < r < 1.0:
        raise ValueError("radius must lie strictly between 0 and 1")
    s = multiplier_series(spec.sigma, n, np.array([-r, r]))
    lower, upper = (factor * (1.0 + 2.0 * (1.0 - spec.beta) * float(v)) for v in s)
    if not np.isfinite(upper):
        raise ValueError(f"a bound overflows at sigma={spec.sigma}, n={spec.n}, r={r}")
    return lower, upper


def growth_bounds(spec: ClassSpec, r: float) -> tuple:
    """Sharp modulus envelope (lower, upper) for members at |z| = r: r (1 + 2 (1 - beta) S_n(-+r))."""
    return _envelope(spec, spec.n, r, r)


def covering_constant(spec: ClassSpec) -> float:
    """Radius of the disk around 0 contained in every member image.

    1 + 2 (1 - beta) S_n(-1), the sum of the alternating series
    1 + 2 (1 - beta) sum_{j >= 1} (-1)**j multiplier(sigma, n, j).  Its terms
    decrease to zero only for n >= 1, so n = 0 is rejected.
    """
    if spec.n < 1:
        raise ValueError("the covering series diverges for n = 0")
    return float(1.0 + 2.0 * (1.0 - spec.beta) * multiplier_series(spec.sigma, spec.n, -1.0))


def distortion_bounds(spec: ClassSpec, r: float) -> tuple:
    """Envelope (m, M) for |(sigma - n) f / z + f'| over the class at |z| = r.

    Both ends are lam * (1 + 2 (1 - beta) S(x)) with lam = sigma - (n - 1),
    S(x) = sum_{k >= 1} multiplier(sigma, n - 1, k) x**k, and x = -r, +r.
    The n = 0 case runs through the n = -1 multiplier extension.

    M is always a valid upper bound and is attained on the positive axis by
    the maximal-coefficient extremal.  m is a valid class-wide floor for
    n >= 1 (sharp, attained by the alternating extremal); for n = 0 it is
    the value the alternating extremal attains but not a floor, since there
    is no shallower iterate whose real-part bound would enforce it.
    """
    return _envelope(spec, spec.n - 1, r, spec.sigma - (spec.n - 1))


BOUNDS_COLUMNS = (
    "sigma",
    "n",
    "beta",
    "r",
    "m_lower",
    "M_upper",
    "growth_lower",
    "growth_upper",
    "covering_constant",
)


def bounds_rows(specs, radii) -> list:
    """Closed-form bound table, one row per (spec, radius); covering blank for n = 0."""
    rows = []
    for spec in specs:
        cov = covering_constant(spec) if spec.n >= 1 else None
        for r in map(float, radii):
            values = (spec.sigma, spec.n, spec.beta, r, *distortion_bounds(spec, r), *growth_bounds(spec, r), cov)
            rows.append(dict(zip(BOUNDS_COLUMNS, values)))
    return rows


def write_bounds_csv(rows, stream) -> None:
    """Write bound rows as CSV with the fixed column order; None becomes empty."""
    writer = csv.DictWriter(stream, fieldnames=BOUNDS_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({key: ("" if row[key] is None else repr(row[key])) for key in BOUNDS_COLUMNS})
