"""Positive-real-part classes, their members, extremals, and sharp bounds.

Membership is decided on one fixed circle grid, ANGULAR_SAMPLES points on
each circle |z| = r for r in RADII, with an explicit truncation allowance:
a truncated member can dip below the threshold near the boundary purely
because of the dropped tail, so the boolean tests fail only when the margin
is negative by more than tail + GRID_TOLERANCE.  The bound layer lives in
gft.bounds, which loads no series code: the grid constants, ClassSpec, the
default lattice, multiplier_series and envelope_table, the table `gft
bounds` prints.  growth_bounds, distortion_bounds and covering_constant map
that table and series for one spec.  Each class is a diagonal image of P,
so every sampled row, a member's or a test's, is one mixture_rows call: a
seeded Herglotz mixture scaled by a diagonal row.
"""

from __future__ import annotations

import numpy as np

from . import _Frozen, _count
from .bounds import ANGULAR_SAMPLES, GRID_TOLERANCE, RADII, ClassSpec, _shift, envelope_table, multiplier_series
from .kernels import OperatorParams, multiplier_row
from .operators import apply_L, deiterate, extremal_iterate
from .series import (
    HerglotzMixture,
    SchlichtSeries,
    TruncatedSeries,
    default_order,
    evaluate_circle_real,
    herglotz_rows,
    require_unit_constant,
    tail_bound,
)

_MAX_ATOMS = 8  # random mixtures have 1 to 8 atoms
# Uniforms one random mixture reads: its atom count, then _MAX_ATOMS angles and _MAX_ATOMS raw weights.
_DRAWS = 1 + 2 * _MAX_ATOMS


class MembershipResult(_Frozen):
    """Per-radius margins of a sampled real-part threshold test.

    observed[i] is (min sampled real part on circle RADII[i]) - threshold; padded[i]
    adds the truncation-tail allowance for that radius plus the grid
    tolerance.  verdict is "fail" when some padded margin is negative,
    "pass" when every observed margin is already positive, and
    "inconclusive" in between, where the sign is a truncation artifact.
    The boolean view treats only decisive failures as False, so genuine
    members are never rejected for tail reasons.
    """

    __slots__ = ("observed", "padded", "verdict")

    def __init__(self, observed: tuple, padded: tuple, verdict: str) -> None:
        object.__setattr__(self, "observed", observed)
        object.__setattr__(self, "padded", padded)
        object.__setattr__(self, "verdict", verdict)

    def __bool__(self) -> bool:
        return self.verdict != "fail"

    @property
    def margin(self) -> float:
        return min(self.padded)


def circle_points(r: float, samples: int) -> np.ndarray:
    """Equally spaced points on |z| = r, starting at the positive real axis."""
    samples = _count(samples, "samples", 1)
    theta = 2.0 * np.pi * np.arange(samples) / samples
    return r * np.exp(1j * theta)


def min_re_on_circle(s, r: float, samples: int) -> float:
    """Minimum sampled real part of the series on the circle |z| = r."""
    return float(np.min(evaluate_circle_real(s, r, samples)))


def grid_tails(coeff_bound, order: int) -> np.ndarray:
    """tail_bound(coeff_bound, order, r) for every r in RADII, along a new last axis; coeff_bound may be an array."""
    return tail_bound(np.asarray(coeff_bound)[..., None], order, np.array(RADII))


def real_part_margins(rows: np.ndarray, threshold: float, coeff_bound: float = 2.0) -> tuple:
    """Stacked real_part_test: (observed, padded), each of shape (rows, len(RADII)).

    Row i's margins are bit-identical to real_part_test on that row alone, and a non-finite row is rejected.
    """
    observed = evaluate_circle_real(rows, RADII, ANGULAR_SAMPLES).min(axis=-1) - threshold
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
    """Test for the iterated family: undo the iteration (deiterate checks the constant), then test real part > 0."""
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
    """Stacked member_from_p: rows z (beta + (1 - beta) p) from iterated unit-constant rows p along the last axis.

    The betas broadcast against the rows' leading axes, so one row can take many betas.  Complex rows give
    complex members and real rows real ones, with the same bits as their real parts.
    """
    scale = 1.0 - np.asarray(betas)
    rows = np.broadcast_shapes(p_iter.shape[:-1], scale.shape)
    c = np.zeros((*rows, p_iter.shape[-1] + 1), dtype=np.result_type(p_iter, 0.0))
    c[..., 1] = 1.0
    np.multiply(scale[..., None], p_iter[..., 1:], out=c[..., 2:])  # a temporary stack would fault in fresh pages
    return c


def member_from_p(spec: ClassSpec, p_iter: TruncatedSeries) -> SchlichtSeries:
    """Normalized series z (beta + (1 - beta) p) from an already-iterated unit-constant series."""
    require_unit_constant(p_iter)
    return SchlichtSeries(member_rows(p_iter.coeffs, spec.beta))


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


def random_mixtures(u: np.ndarray) -> tuple:
    """The mixtures read from rows of _DRAWS uniforms: (points, weights), each (rows, _MAX_ATOMS).

    u[:, 0] sets the atom count, 1 + floor(_MAX_ATOMS u); the next _MAX_ATOMS columns are the angles, as
    fractions of a turn, and the last _MAX_ATOMS the raw weights, each plus 1e-9.  Atoms past the count get
    weight 0, which adds exact zeros in herglotz_rows.  The weights are normalised by their sum and the
    last one takes what the others leave; both sums run left to right, so a row sums as it would alone.
    """
    rows = np.arange(u.shape[0])
    last = (_MAX_ATOMS * u[:, 0]).astype(np.intp)
    raw = np.where(np.arange(_MAX_ATOMS) <= last[:, None], u[:, 1 + _MAX_ATOMS : _DRAWS] + 1e-9, 0.0)
    weights = raw / raw.cumsum(axis=1)[:, -1:]
    weights[rows, last] = 0.0
    weights[rows, last] = 1.0 - weights.cumsum(axis=1)[:, -1]  # kill rounding drift before the convexity check
    return np.exp(1j * (2.0 * np.pi * u[:, 1 : 1 + _MAX_ATOMS])), weights


def random_mixture(rng: np.random.Generator) -> HerglotzMixture:
    """Random finite mixture of one to eight circle point masses with convex weights: one row of random_mixtures."""
    points, weights = random_mixtures(rng.random((1, _DRAWS)))
    live = weights[0] > 0.0
    return HerglotzMixture(tuple(zip(points[0, live], weights[0, live])))


def mixture_rows(u: np.ndarray, diagonal: np.ndarray) -> np.ndarray:
    """Row i is the mixture read from u[i], to order diagonal.shape[-1], with c_k scaled by diagonal[i, k - 1].

    u holds rows of _DRAWS uniforms and diagonal one row for each, or one row for all.  Every sampled check
    builds its rows here: with multiplier_row(sigma, n, order - 1) of a class as diagonal[i], member_rows of
    row i and beta is random_member_B(spec, seed), bit for bit, when u[i] is default_rng(seed).random(_DRAWS).
    """
    p = herglotz_rows(*random_mixtures(u), diagonal.shape[-1])
    p[:, 1:] *= diagonal
    return p


def random_member_B(spec: ClassSpec, seed, order: int | None = None) -> SchlichtSeries:
    """Seeded random class member: the mixture read from default_rng(seed).random((1, _DRAWS)), iterated."""
    n = default_order() if order is None else _count(order, "order", 2)
    u = np.random.default_rng(seed).random((1, _DRAWS))
    return SchlichtSeries(member_rows(mixture_rows(u, multiplier_row(spec.sigma, spec.n, n - 1)), spec.beta)[0])


def inflate_to_non_member(spec: ClassSpec, seed, order: int | None = None) -> SchlichtSeries:
    """Doubles one early coefficient of a random member until membership decisively fails."""
    f = random_member_B(spec, seed, order)
    rng = np.random.default_rng((0xBAD, seed) if np.isscalar(seed) else (0xBAD, *seed))
    idx = int(rng.integers(2, min(7, f.order + 1)))
    c = np.array(f.coeffs)
    for _ in range(64):
        c[idx] = 2.0 * c[idx] if c[idx] != 0 else 1.0
        candidate = SchlichtSeries(c)
        if not membership_in_B(candidate, spec):
            return candidate
    raise RuntimeError("coefficient inflation failed to leave the class")


def _extremal_B(spec: ClassSpec, order: int | None, sign: int) -> SchlichtSeries:
    """Class member with a_k = 2 (1 - beta) multiplier(sigma, n, k - 1) sign**(k - 1)."""
    n = default_order() if order is None else _count(order, "order", 2)
    return member_from_p(spec, extremal_iterate(spec.params, n - 1, sign))


def extremal_B_upper(spec: ClassSpec, order: int | None = None) -> SchlichtSeries:
    """Member with every coefficient on its sharp bound: a_k = 2 (1 - beta) multiplier(sigma, n, k - 1)."""
    return _extremal_B(spec, order, 1)


def extremal_B_lower(spec: ClassSpec, order: int | None = None) -> SchlichtSeries:
    """Alternating-sign extremal; its modulus on the positive axis attains the lower growth bound."""
    return _extremal_B(spec, order, -1)


def _envelope(spec: ClassSpec, n: int, r, factor) -> tuple:
    """envelope_table's bounds (lower, upper) of one spec, through S_n: two floats for one radius, or two arrays."""
    lower, upper = envelope_table([spec], n - spec.n, r, factor)[:, 0]
    return (float(lower), float(upper)) if np.ndim(r) == 0 else (lower, upper)


def growth_bounds(spec: ClassSpec, r) -> tuple:
    """Sharp modulus envelope (lower, upper) for members at |z| = r: r (1 + 2 (1 - beta) S_n(-+r)).

    r may be an array of radii, as in envelope_table.
    """
    return _envelope(spec, spec.n, r, r)


def covering_constant(spec: ClassSpec) -> float:
    """Radius of the disk around 0 contained in every member image.

    1 + 2 (1 - beta) S_n(-1), the sum of the alternating series
    1 + 2 (1 - beta) sum_{j >= 1} (-1)**j multiplier(sigma, n, j).  Its terms
    decrease to zero only for n >= 1, so n = 0 is rejected.
    """
    if spec.n < 1:
        raise ValueError("the covering series diverges for n = 0")
    return float(_shift(spec.beta, multiplier_series(spec.sigma, spec.n, -1.0)))


def distortion_bounds(spec: ClassSpec, r) -> tuple:
    """Envelope (m, M) for |(sigma - n) f / z + f'| over the class at |z| = r.

    Both ends are lam * (1 + 2 (1 - beta) S(x)) with lam = sigma - (n - 1),
    S(x) = sum_{k >= 1} multiplier(sigma, n - 1, k) x**k, and x = -r, +r.
    The n = 0 case runs through the n = -1 multiplier extension.

    M is always a valid upper bound and is attained on the positive axis by
    the maximal-coefficient extremal.  m is a valid class-wide floor for
    n >= 1 (sharp, attained by the alternating extremal); for n = 0 it is
    the value the alternating extremal attains but not a floor, since there
    is no shallower iterate whose real-part bound would enforce it.
    r may be an array of radii, as in envelope_table.
    """
    return _envelope(spec, spec.n - 1, r, spec.sigma - (spec.n - 1))
