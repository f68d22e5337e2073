"""Positive-real-part classes, their members, extremals, and sharp bounds.

Membership is decided on one fixed circle grid, ANGULAR_SAMPLES points on
each circle |z| = r for r in RADII, with an explicit truncation allowance:
a truncated member can dip below the threshold near the boundary purely
because of the dropped tail, so the boolean tests fail only when the margin
is negative by more than tail + GRID_TOLERANCE.  The growth, distortion and
covering bounds are affine images of one untruncated series,
multiplier_series, so they carry no truncation order and no tail pad; the
verification suites check members and extremals against these same bounds.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .kernels import OperatorParams, _check_multiplier_params, extremal_iterate, multiplier_row
from .operators import _quadrature_nodes, apply_L, deiterate
from .series import (
    HerglotzMixture,
    SchlichtSeries,
    TruncatedSeries,
    default_order,
    evaluate_circle,
    herglotz_rows,
    require_unit_constant,
    tail_bound,
)

# The fixed circle grid every membership test samples: radii, points per circle, slack.
RADII = (0.5, 0.9, 0.99)
ANGULAR_SAMPLES = 720
GRID_TOLERANCE = 1e-9

_MAX_ATOMS = 8  # random mixtures have 1 to 8 atoms


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
class MembershipResult:
    """Per-radius margins of a sampled real-part threshold test.

    observed[i] is (min sampled real part on circle RADII[i]) - threshold; padded[i]
    adds the truncation-tail allowance for that radius plus the grid
    tolerance.  verdict is "fail" when some padded margin is negative,
    "pass" when every observed margin is already positive, and
    "inconclusive" in between, where the sign is a truncation artifact.
    The boolean view treats only decisive failures as False, so genuine
    members are never rejected for tail reasons.
    """

    observed: tuple
    padded: tuple
    verdict: str

    def __bool__(self) -> bool:
        return self.verdict != "fail"

    @property
    def margin(self) -> float:
        return min(self.padded)


def circle_points(r: float, samples: int) -> np.ndarray:
    """Equally spaced points on |z| = r, starting at the positive real axis."""
    theta = 2.0 * np.pi * np.arange(samples) / samples
    return r * np.exp(1j * theta)


def min_re_on_circle(s, r: float, samples: int) -> float:
    """Minimum sampled real part of the series on the circle |z| = r."""
    return float(np.min(evaluate_circle(s, r, samples).real))


def circle_values(rows: np.ndarray) -> np.ndarray:
    """Values of a stack of coefficient rows on the grid: evaluate_circle(rows, RADII, ANGULAR_SAMPLES).

    The shape is (rows, len(RADII), ANGULAR_SAMPLES), all from one FFT, so
    callers keep stacks small and reduce the values themselves, over the
    last axis for one extremum per circle.  Non-finite coefficients are
    rejected, as TruncatedSeries rejects them.
    """
    if not np.all(np.isfinite(rows)):
        raise ValueError("series coefficients must be finite")
    return evaluate_circle(rows, RADII, ANGULAR_SAMPLES)


def grid_tails(coeff_bound, order: int) -> np.ndarray:
    """tail_bound(coeff_bound, order, r) for every r in RADII, along a new last axis; coeff_bound may be an array."""
    return tail_bound(np.asarray(coeff_bound)[..., None], order, np.array(RADII))


def real_part_margins(rows: np.ndarray, threshold, coeff_bound=2.0) -> tuple:
    """Stacked real_part_test: (observed, padded), each of shape (rows, len(RADII)).

    threshold and coeff_bound are scalars or one value per row; row i's
    margins are bit-identical to real_part_test on that row alone.
    """
    observed = circle_values(rows).real.min(axis=-1) - np.asarray(threshold)[..., None]
    return observed, observed + grid_tails(coeff_bound, rows.shape[-1] - 1) + GRID_TOLERANCE


def verdicts(observed: np.ndarray, padded: np.ndarray) -> np.ndarray:
    """Per-row MembershipResult verdicts of real_part_margins output."""
    passed = np.where((observed > 0.0).all(axis=-1), "pass", "inconclusive")
    return np.where((padded < 0.0).any(axis=-1), "fail", passed)


def real_part_test(s, threshold: float, coeff_bound: float = 2.0) -> MembershipResult:
    """Threshold test Re s > threshold on every grid circle, tail-aware."""
    observed, padded = real_part_margins(s.coeffs[None], threshold, coeff_bound)
    verdict = str(verdicts(observed, padded)[0])
    return MembershipResult(tuple(map(float, observed[0])), tuple(map(float, padded[0])), verdict)


def membership_in_P(p: TruncatedSeries, beta: float = 0.0) -> MembershipResult:
    """Sampled test for real part above beta; coefficient bound 2 fixes the tail."""
    require_unit_constant(p)
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must lie in [0, 1)")
    return real_part_test(p, beta)


def membership_in_iterated_P(q: TruncatedSeries, params: OperatorParams) -> MembershipResult:
    """Test for the iterated family: undo the iteration, then test real part > 0."""
    require_unit_constant(q)
    return real_part_test(deiterate(params, q), 0.0)


def p_rows(members: np.ndarray, betas) -> np.ndarray:
    """Stacked p_series_of: unit-constant rows (f / z - beta) / (1 - beta), one beta per row."""
    c = members[:, 1:] / (1.0 - np.asarray(betas))[:, None]
    c[:, 0] = 1.0
    return c


def p_series_of(f: SchlichtSeries, beta: float) -> TruncatedSeries:
    """Unit-constant series (f / z - beta) / (1 - beta) behind a class member."""
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must lie in [0, 1)")
    return TruncatedSeries(p_rows(f.coeffs[None], [beta])[0])


def member_rows(p_iter: np.ndarray, betas) -> np.ndarray:
    """Stacked member_from_p: rows z (beta + (1 - beta) p) from iterated unit-constant rows, one beta per row."""
    c = np.zeros((p_iter.shape[0], p_iter.shape[1] + 1), dtype=np.complex128)
    c[:, 1] = 1.0
    c[:, 2:] = (1.0 - np.asarray(betas))[:, None] * p_iter[:, 1:]
    return c


def member_from_p(spec: ClassSpec, p_iter: TruncatedSeries) -> SchlichtSeries:
    """Normalized series z (beta + (1 - beta) p) from an already-iterated unit-constant series."""
    require_unit_constant(p_iter)
    return SchlichtSeries(TruncatedSeries(member_rows(p_iter.coeffs[None], [spec.beta])[0]))


def membership_in_B(f: SchlichtSeries, spec: ClassSpec) -> MembershipResult:
    """Class test through the iterated family: (f / z - beta) / (1 - beta) must pass it."""
    return membership_in_iterated_P(p_series_of(f, spec.beta), spec.params)


def is_in_B(f: SchlichtSeries, spec: ClassSpec) -> bool:
    return bool(membership_in_B(f, spec))


def membership_in_B_direct(f: SchlichtSeries, spec: ClassSpec) -> MembershipResult:
    """Route through the raising operator: Re((L f) / z) > beta on the grid.

    Must agree with membership_in_B: the two observed margins differ by the
    exact factor (1 - beta), and the tail allowances scale the same way.
    """
    g = apply_L(spec.params, f)
    ratio = TruncatedSeries(g.coeffs[1:])
    return real_part_test(ratio, spec.beta, coeff_bound=2.0 * (1.0 - spec.beta))


def _draw_atoms(rng: np.random.Generator) -> tuple:
    """Points and convex weights of one to _MAX_ATOMS random circle point masses."""
    count = int(rng.integers(1, _MAX_ATOMS + 1))
    angles = rng.uniform(0.0, 2.0 * np.pi, count)
    raw = rng.random(count) + 1e-9
    w = raw / raw.sum()
    w[-1] = 1.0 - float(w[:-1].sum())  # kill rounding drift before the convexity check
    return np.exp(1j * angles), w


def random_mixture(rng: np.random.Generator) -> HerglotzMixture:
    """Random finite mixture of one to eight circle point masses with convex weights."""
    return HerglotzMixture(tuple(zip(*_draw_atoms(rng))))


def random_mixtures(rngs) -> tuple:
    """Stacked random_mixture, one per generator: (points, weights), each (len(rngs), _MAX_ATOMS).

    Rows with fewer atoms are padded with point 1 and weight 0, which add
    nothing in herglotz_rows.  Each generator makes the same draws as random_mixture.
    """
    points = np.ones((len(rngs), _MAX_ATOMS), dtype=np.complex128)
    weights = np.zeros((len(rngs), _MAX_ATOMS))
    for i, rng in enumerate(rngs):
        x, w = _draw_atoms(rng)
        points[i, : x.size], weights[i, : w.size] = x, w
    return points, weights


def random_members(seeds, mults: np.ndarray, betas) -> np.ndarray:
    """Stacked random_member_B: row i is the member of seed seeds[i], iterated by mults[i] and shifted by betas[i].

    mults[i] is multiplier_row(sigma, n, order - 1) of row i's class, so the rows have order
    mults.shape[-1] + 1 and each equals random_member_B of that class and seed, bit for bit.
    """
    p = herglotz_rows(*random_mixtures([np.random.default_rng(seed) for seed in seeds]), mults.shape[-1])
    p[:, 1:] *= mults
    return member_rows(p, betas)


def random_member_B(spec: ClassSpec, seed, order: int | None = None) -> SchlichtSeries:
    """Seeded random class member built from a mixture pushed through the iteration."""
    n = default_order() if order is None else int(order)
    if n < 2:
        raise ValueError(f"members need order >= 2, got {n}")
    mults = multiplier_row(spec.sigma, spec.n, n - 1)[None]
    return SchlichtSeries(TruncatedSeries(random_members([seed], mults, [spec.beta])[0]))


def inflate_to_non_member(spec: ClassSpec, seed, order: int | None = None) -> SchlichtSeries:
    """Doubles one early coefficient of a random member until membership decisively fails."""
    f = random_member_B(spec, seed, order)
    rng = np.random.default_rng((0xBAD, seed) if np.isscalar(seed) else (0xBAD, *seed))
    idx = int(rng.integers(2, min(7, f.order + 1)))
    c = np.array(f.coeffs)
    for _ in range(64):
        c[idx] = 2.0 * c[idx] if c[idx] != 0 else 1.0
        candidate = SchlichtSeries(TruncatedSeries(c))
        if not membership_in_B(candidate, spec):
            return candidate
    raise RuntimeError("coefficient inflation failed to leave the class")


def _extremal_B(spec: ClassSpec, order: int | None, sign: int) -> SchlichtSeries:
    """Class member with a_k = 2 (1 - beta) multiplier(sigma, n, k - 1) sign**(k - 1)."""
    n = default_order() if order is None else int(order)
    return member_from_p(spec, extremal_iterate(spec.params, n - 1, sign))


def extremal_B_upper(spec: ClassSpec, order: int | None = None) -> SchlichtSeries:
    """Member with every coefficient on its sharp bound: a_k = 2 (1 - beta) multiplier(sigma, n, k - 1)."""
    return _extremal_B(spec, order, 1)


def extremal_B_lower(spec: ClassSpec, order: int | None = None) -> SchlichtSeries:
    """Alternating-sign extremal; its modulus on the positive axis attains the lower growth bound."""
    return _extremal_B(spec, order, -1)


def multiplier_series(sigma: float, n: int, x) -> np.ndarray:
    """S(x) = sum_{k >= 1} multiplier(sigma, n, k) x**k, untruncated, for -1 <= x < 1 (array x too).

    Geometric for n = 0 and n = -1.  For n >= 1, Euler's integral (DLMF 15.6.1)
    gives S(x) = x a / (a + n) E[1 / (1 - x T)] with a = sigma - n + 1 and
    T ~ Beta(a + 1, n): a ratio of two integrals of t**a (1 - t)**(n - 1).
    For n >= 2 both are split at the weight's mode m = a / (a + n - 1), and
    [0, m] and [m, 1] each carry the panels of _quadrature_nodes, which halve
    toward their ends, so a narrow peak is resolved, and so is
    the pole of 1 / (1 - x t) near t = 1 as x -> 1.  At n = 1 the mode is t = 1
    and [0, 1] is one piece.  1 - t comes from the mirrored node of its piece,
    log t and log(1 - t) from the smaller of t and 1 - t, and 1 - x t is
    (1 - x) + x (1 - t), so nothing cancels.  The ratio needs no
    (a)_n / (n - 1)!, so it stays finite; it is exact to rounding for a and n
    up to 1e4 at least.  At x = -1 it is the Abel limit, the sum of the
    alternating series.
    """
    _check_multiplier_params(sigma, n)
    x = np.asarray(x, dtype=np.float64)
    if not np.all((x >= -1.0) & (x < 1.0)):
        raise ValueError("the multiplier series needs -1 <= x < 1")
    if n <= 0:
        geometric = x / (1.0 - x)
        return geometric if n == 0 else geometric + x / (1.0 - x) ** 2 / (sigma + 1.0)
    a = sigma - (n - 1.0)
    t, s, w = _quadrature_nodes()
    if n >= 2:
        m, rest = a / (a + n - 1.0), (n - 1.0) / (a + n - 1.0)  # the mode and 1 - m, both without cancellation
        t, s = np.concatenate([m * t, m + rest * t]), np.concatenate([rest + m * s, rest * s])
        w = np.concatenate([m * w, rest * w])
    near_0, small = t < s, np.minimum(t, s)
    # rest * s underflows to 0 at a huge sigma, and a weight below exp(-1e308) is exactly 0
    with np.errstate(divide="ignore", over="ignore"):
        log_small, log_large = np.log(small), np.log1p(-small)
        log_weight = a * np.where(near_0, log_small, log_large) + (n - 1.0) * np.where(near_0, log_large, log_small)
    weight = w * np.exp(log_weight - log_weight.max())
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
