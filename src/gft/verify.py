"""Theorem-keyed verification suites producing machine-readable reports.

Each suite re-derives one sharp bound or inclusion numerically over a
lattice of (sigma, n, beta) triples and reports the worst tolerance-adjusted
margin; a suite passes iff that margin is nonnegative.  Margins already
include the truncation-tail allowance and grid tolerance, so a negative
value is a genuine violation, not a sampling artifact.  The envelope suites
compare against the untruncated bounds that `gft bounds` prints: a truncated
member stays below the exact upper bound with no allowance, and may undershoot
the exact lower bound by at most its own dropped tail.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .classes import (
    CircleGrid,
    ClassSpec,
    _envelope,
    covering_constant,
    distortion_bounds,
    extremal_B_lower,
    extremal_B_upper,
    growth_bounds,
    member_from_p,
    membership_in_B,
    membership_in_iterated_P,
    p_series_of,
    random_member_B,
    random_mixture,
    real_part_test,
)
from .kernels import OperatorParams, extremal_iterate, multiplier, multiplier_row
from .operators import (
    bernardi,
    iterate_closed,
    iterate_step_closed,
    recurrence_residual,
    salagean_iterate,
)
from .series import (
    SchlichtSeries,
    TruncatedSeries,
    _scaled,
    combine_convex,
    default_order,
    differentiate,
    evaluate_circle,
    herglotz_expand,
    tail_bound,
)

DEFAULT_SIGMAS = (0.5, 1.0, 2.0, 3.5)
DEFAULT_NS = (0, 1, 2, 3)
DEFAULT_BETAS = (0.0, 0.25, 0.5, 0.9)

COEFF_TOL = 1e-12
SHARPNESS_TOL = 1e-7


def default_lattice(sigmas=DEFAULT_SIGMAS, ns=DEFAULT_NS, betas=DEFAULT_BETAS) -> tuple:
    """Every valid (sigma, n, beta) from the given sets; invalid (sigma, n) pairs are skipped."""
    out = []
    for sigma in sigmas:
        for n in ns:
            if sigma - (n - 1) <= 0.0:
                continue
            for beta in betas:
                out.append(ClassSpec(OperatorParams(sigma, n), beta))
    return tuple(out)


@dataclass
class VerificationReport:
    """Outcome of one suite: worst margin over every check it ran."""

    theorem: str
    title: str
    verdict: str
    worst_margin: float
    trials: int
    seed: int
    lattice: list
    grid: dict
    notes: list

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


class _Margins:
    """Running minimum of tolerance-adjusted margins, plus free-form notes."""

    def __init__(self) -> None:
        self.worst = math.inf
        self.notes: list = []
        self.allowance: dict = {}  # radius -> smallest slack any real-part test added there

    def add(self, value: float) -> None:
        v = float(value)
        if v < self.worst:
            self.worst = v

    def add_test(self, result) -> None:
        """Add a real-part test's margin and keep, per radius, the smallest slack it was given."""
        self.add(result.margin)
        for r, slack in zip(result.radii, result.allowance):
            self.allowance[r] = min(slack, self.allowance.get(r, math.inf))

    def note(self, text: str) -> None:
        if text not in self.notes:
            self.notes.append(text)


def _entries(lattice, pred):
    return [spec for spec in lattice if pred(spec)]


def _pairs(lattice, pred):
    return sorted({(spec.sigma, spec.n) for spec in lattice if pred(spec)})


def _sharp_order(grid: CircleGrid) -> int:
    """Order past which r**k < 1e-14 at every grid radius, so extremals cut there are exact on the axis."""
    return max(2, math.ceil(math.log(1e-14) / math.log(max(grid.radii))))


@functools.lru_cache(maxsize=32)
def _axis_powers(x: float, size: int) -> np.ndarray:
    """x**k for k < size, built once per (x, size) and shared read-only."""
    powers = x ** np.arange(size)
    powers.setflags(write=False)
    return powers


def _on_axis(s, x: float) -> complex:
    """The truncated series at a real point, as one dot product."""
    return complex(s.coeffs @ _axis_powers(x, s.coeffs.size))


def _member_tail(spec: ClassSpec, n: int, order: int, r: float, factor: float) -> float:
    """Bound at |x| = r on terms past order of factor * q(x), |q_k| <= 2 (1 - beta) multiplier(sigma, n, k).

    Needs n >= 0, where the multipliers do not increase in k.
    """
    return factor * tail_bound(2.0 * (1.0 - spec.beta) * multiplier(spec.sigma, n, order), order, r)


def _suite_1(lattice, trials, seed, grid, out):
    """One integration step keeps a test function on its side of Re = gamma."""
    pairs = _pairs(lattice, lambda s: s.n >= 1)
    if not pairs:
        out.note("no lattice entries with n >= 1")
        return
    gammas = (0.0, 0.3, 0.7, 1.2, 2.0)
    order = default_order()
    for t in range(trials):
        sigma, n = pairs[t % len(pairs)]
        gamma = gammas[t % len(gammas)]
        rng = np.random.default_rng((seed, 1, t))
        h = herglotz_expand(random_mixture(rng), order)
        scale = rng.uniform(0.05, 1.0)
        q = iterate_step_closed(sigma, n, _scaled(h, 1, (1.0 - gamma) * scale))
        bound = 2.0 * abs(1.0 - gamma) * scale
        for r, vals in zip(grid.radii, evaluate_circle(q, grid.radii, grid.angular_samples).real):
            pad = tail_bound(bound, q.order, r) + grid.tolerance
            if gamma < 1.0:
                out.add(vals.min() - gamma + pad)
            else:
                out.add(gamma - vals.max() + pad)


def _suite_2(lattice, trials, seed, grid, out):
    """An (n+1)-fold iterate passes the n-level family test."""
    pairs = _pairs(lattice, lambda s: s.n >= 1 and s.sigma - s.n > 0)
    if not pairs:
        out.note("no lattice entries with n >= 1 and sigma - n > 0")
        return
    order = default_order()
    for t in range(trials):
        sigma, n = pairs[t % len(pairs)]
        rng = np.random.default_rng((seed, 2, t))
        p0 = herglotz_expand(random_mixture(rng), order)
        deep = iterate_closed(OperatorParams(sigma, n + 1), p0)
        out.add_test(membership_in_iterated_P(deep, OperatorParams(sigma, n), grid))


def _suite_3(lattice, trials, seed, grid, out):
    """Modulus/real-part envelopes for iterates, sharp at the axis extremals."""
    pairs = _pairs(lattice, lambda s: True)
    order = default_order()
    envelopes = {}
    for sigma, n in pairs:
        spec = ClassSpec(OperatorParams(sigma, n))
        ext = extremal_iterate(spec.params, _sharp_order(grid), 1)
        for r in grid.radii:
            lower, upper = _envelope(spec, n, r, 1.0)
            envelopes[sigma, n, r] = lower, upper, _member_tail(spec, n, order, r, 1.0)
            out.add(SHARPNESS_TOL - abs(abs(_on_axis(ext, r)) - upper))
            out.add(SHARPNESS_TOL - abs(_on_axis(ext, -r).real - lower))
    for t in range(trials):
        sigma, n = pairs[t % len(pairs)]
        rng = np.random.default_rng((seed, 3, t))
        p = iterate_closed(OperatorParams(sigma, n), herglotz_expand(random_mixture(rng), order))
        for r, vals in zip(grid.radii, evaluate_circle(p, grid.radii, grid.angular_samples)):
            lower, upper, tail = envelopes[sigma, n, r]
            out.add(upper + grid.tolerance - float(np.max(np.abs(vals))))
            out.add(float(np.min(vals.real)) - lower + tail + grid.tolerance)


def _suite_4(lattice, trials, seed, grid, out):
    """Convex combinations of iterates stay in the iterated family."""
    pairs = _pairs(lattice, lambda s: s.n >= 1)
    if not pairs:
        out.note("no lattice entries with n >= 1")
        return
    order = default_order()
    for t in range(trials):
        sigma, n = pairs[t % len(pairs)]
        params = OperatorParams(sigma, n)
        rng = np.random.default_rng((seed, 4, t))
        p = iterate_closed(params, herglotz_expand(random_mixture(rng), order))
        q = iterate_closed(params, herglotz_expand(random_mixture(rng), order))
        mu = float(rng.uniform(0.0, 1.0))
        combo = combine_convex(mu, p, 1.0 - mu, q)
        out.add_test(membership_in_iterated_P(combo, params, grid))


def _suite_5(lattice, trials, seed, grid, out):
    """Members of the deeper class pass the shallower class test."""
    entries = _entries(lattice, lambda s: s.sigma - s.n > 0)
    if not entries:
        out.note("no lattice entries with sigma - n > 0")
        return
    for t in range(trials):
        spec = entries[t % len(entries)]
        deeper = ClassSpec(OperatorParams(spec.sigma, spec.n + 1), spec.beta)
        f = random_member_B(deeper, (seed, 5, t))
        out.add_test(membership_in_B(f, spec, grid))


def _suite_6(lattice, trials, seed, grid, out):
    """Random members have bounded turning, Re f' > beta, hence are univalent.

    Only entries with n - 1 < sigma <= n are tested: there lam = sigma - n + 1
    lies in (0, 1] and f' = beta + (1 - beta) ((1 - lam) p_n + lam p_{n-1}) is
    a convex combination of the positive-real-part iterates p_n and p_{n-1},
    so Re f' > beta and the coefficients of f' are at most 2 (1 - beta).  For
    sigma > n that argument breaks down and members genuinely lose
    injectivity (e.g. at (sigma, n, beta) = (2, 1, 0) a member exists with
    f'(z) = 0 at |z| = 0.756, and a zero of f' inside the disk certifies
    that f is not univalent there), so those entries are excluded with a
    note rather than reported as failures.
    """
    if any(spec.n >= 1 and spec.sigma > spec.n for spec in lattice):
        out.note(
            "entries with sigma > n excluded: members there can have vanishing "
            "derivative inside the disk, so injectivity is not guaranteed"
        )
    entries = _entries(lattice, lambda s: s.n >= 1 and s.sigma <= s.n)
    if not entries:
        out.note("no lattice entries with n >= 1 and sigma <= n")
        return
    for t in range(trials):
        spec = entries[t % len(entries)]
        f = random_member_B(spec, (seed, 6, t))
        result = real_part_test(differentiate(f), spec.beta, grid, coeff_bound=2.0 * (1.0 - spec.beta))
        out.add_test(result)
        if result.verdict == "inconclusive":
            out.note("inconclusive for some members: Re f' dips below beta by less than the truncation allowance")


def _suite_7(lattice, trials, seed, grid, out):
    """Coefficient size bound, attained exactly by the upper extremal."""
    for spec in lattice:
        ext = extremal_B_upper(spec)
        bound = 2.0 * (1.0 - spec.beta) * multiplier_row(spec.sigma, spec.n, ext.order - 1)
        out.add(COEFF_TOL - float(np.max(np.abs(np.abs(ext.coeffs[2:]) - bound))))
    for t in range(trials):
        spec = lattice[t % len(lattice)]
        f = random_member_B(spec, (seed, 7, t))
        bound = 2.0 * (1.0 - spec.beta) * multiplier_row(spec.sigma, spec.n, f.order - 1)
        out.add(float(np.min(bound + COEFF_TOL - np.abs(f.coeffs[2:]))))


def _suite_8(lattice, trials, seed, grid, out):
    """The weighted integral mean with c + 1 = sigma - n maps the class into itself."""
    entries = _entries(lattice, lambda s: s.sigma - s.n > 0)
    if not entries:
        out.note("no lattice entries with sigma - n > 0")
        return
    for t in range(trials):
        spec = entries[t % len(entries)]
        f = random_member_B(spec, (seed, 8, t))
        transformed = bernardi(spec.sigma - spec.n - 1.0, f)
        out.add_test(membership_in_B(transformed, spec, grid))


def _suite_9(lattice, trials, seed, grid, out):
    """Growth envelope for members, attained on the axis by the two extremals."""
    order = default_order()
    envelopes = {}
    for spec in lattice:
        up = extremal_B_upper(spec, _sharp_order(grid))
        low = extremal_B_lower(spec, _sharp_order(grid))
        for r in grid.radii:
            lower, upper = growth_bounds(spec, r)
            envelopes[spec, r] = lower, upper, _member_tail(spec, spec.n, order - 1, r, r)
            out.add(SHARPNESS_TOL - abs(_on_axis(up, r).real - upper))
            out.add(SHARPNESS_TOL - abs(_on_axis(low, r).real - lower))
    for t in range(trials):
        spec = lattice[t % len(lattice)]
        f = random_member_B(spec, (seed, 9, t), order)
        for r, vals in zip(grid.radii, np.abs(evaluate_circle(f, grid.radii, grid.angular_samples))):
            lower, upper, tail = envelopes[spec, r]
            out.add(upper + grid.tolerance - float(vals.max()))
            out.add(float(vals.min()) - lower + tail + grid.tolerance)


def _suite_10(lattice, trials, seed, grid, out):
    """The lower extremal's minimum modulus near the boundary matches the covered-disk radius.

    It is attained on the axis, so it equals the exact lower growth bound up to the dropped tail.
    """
    if any(spec.n == 0 for spec in lattice):
        out.note("n = 0 entries skipped: the covering series diverges there")
    entries = _entries(lattice, lambda s: s.n >= 1)
    if not entries:
        return
    out.note("deterministic per lattice entry; trials parameter not used")
    r, order = 0.999, 8192
    for spec in entries:
        constant = covering_constant(spec)
        f = extremal_B_lower(spec, order)
        low = float(np.min(np.abs(evaluate_circle(f, r, grid.angular_samples))))
        out.add(5e-3 - abs(low - constant))
        tail = _member_tail(spec, spec.n, order - 1, r, r)
        out.add(SHARPNESS_TOL + tail - abs(low - growth_bounds(spec, r)[0]))


def _derivative_combo(spec: ClassSpec, f: SchlichtSeries) -> TruncatedSeries:
    """Series of (sigma - n) f / z + f': coefficient j is (sigma - n + 1 + j) a_{j+1}."""
    j = np.arange(0, f.order)
    return TruncatedSeries((spec.sigma - spec.n + 1.0 + j) * f.coeffs[1:])


def _suite_11(lattice, trials, seed, grid, out):
    """Step recurrence residual plus the envelope for (sigma - n) f / z + f'.

    The lower envelope is enforced only for n >= 1: it comes from the
    real-part floor of the one-level-shallower iterate, which exists only
    when that shallower object is itself an iterate.  At n = 0 the m-series
    formula is still attained by the alternating extremal (checked), but
    random members can dip below it, so the class-wide floor check is
    skipped there with a note.
    """
    if any(spec.n == 0 for spec in lattice):
        out.note(
            "n = 0 entries: lower envelope not enforced (no shallower iterate "
            "to supply the real-part floor; members can undershoot the formula)"
        )
    order = default_order()
    envelopes = {}
    for spec in lattice:
        up = _derivative_combo(spec, extremal_B_upper(spec, _sharp_order(grid)))
        low = _derivative_combo(spec, extremal_B_lower(spec, _sharp_order(grid)))
        for r in grid.radii:
            lower, upper = distortion_bounds(spec, r)
            # the member tail is needed only where the lower envelope is enforced
            tail = _member_tail(spec, spec.n - 1, order - 1, r, spec.sigma - spec.n + 1) if spec.n >= 1 else None
            envelopes[spec, r] = lower, upper, tail
            out.add(SHARPNESS_TOL - abs(_on_axis(up, r).real - upper))
            out.add(SHARPNESS_TOL - abs(_on_axis(low, r).real - lower))
    for t in range(trials):
        spec = lattice[t % len(lattice)]
        rng = np.random.default_rng((seed, 11, t))
        p0 = herglotz_expand(random_mixture(rng), order - 1)
        if spec.n >= 1:
            prev = p0
            for m in range(1, spec.n + 1):
                cur = iterate_step_closed(spec.sigma, m, prev)
                out.add(COEFF_TOL - recurrence_residual(OperatorParams(spec.sigma, m), cur, prev))
                prev = cur
        f = member_from_p(spec, iterate_closed(spec.params, p0))
        combo = _derivative_combo(spec, f)
        for r, vals in zip(grid.radii, np.abs(evaluate_circle(combo, grid.radii, grid.angular_samples))):
            lower, upper, tail = envelopes[spec, r]
            out.add(upper + grid.tolerance - float(vals.max()))
            if spec.n >= 1:
                out.add(float(vals.min()) - lower + tail + grid.tolerance)


def _suite_12(lattice, trials, seed, grid, out):
    """Convex combinations of members stay in the class."""
    for t in range(trials):
        spec = lattice[t % len(lattice)]
        f = random_member_B(spec, (seed, 12, t))
        h = random_member_B(spec, (seed, 120, t))
        rng = np.random.default_rng((seed, 121, t))
        mu = float(rng.uniform(0.0, 1.0))
        combo = combine_convex(mu, p_series_of(f, spec.beta), 1.0 - mu, p_series_of(h, spec.beta))
        out.add_test(membership_in_iterated_P(combo, spec.params, grid))


def _suite_remark22(lattice, trials, seed, grid, out):
    """One closed iteration step equals the single-parameter transform with alpha = sigma."""
    sigmas = sorted({spec.sigma for spec in lattice})
    order = default_order()
    for t in range(trials):
        sigma = sigmas[t % len(sigmas)]
        rng = np.random.default_rng((seed, 22, t))
        p = herglotz_expand(random_mixture(rng), order)
        a = iterate_closed(OperatorParams(sigma, 1), p)
        b = salagean_iterate(sigma, 1, p)
        out.add(COEFF_TOL - float(np.max(np.abs(a.coeffs - b.coeffs))))


SUITES = {
    "1": ("one integration step preserves the half-plane side", _suite_1),
    "2": ("deeper iterate families nest into shallower ones", _suite_2),
    "3": ("size and real-part envelopes for iterates", _suite_3),
    "4": ("the iterate family is convex", _suite_4),
    "5": ("deeper member classes nest into shallower ones", _suite_5),
    "6": ("members have bounded turning, Re f' > beta, where sigma <= n", _suite_6),
    "7": ("coefficient bound with sharp extremal", _suite_7),
    "8": ("closure under the weighted integral mean", _suite_8),
    "9": ("growth envelope with sharp extremals", _suite_9),
    "10": ("covered-disk radius matches the lower extremal", _suite_10),
    "11": ("derivative-combination envelope and step recurrence", _suite_11),
    "12": ("the member class is convex", _suite_12),
    "remark22": ("one-step iterate matches the single-parameter transform", _suite_remark22),
}

SUITE_ORDER = tuple(SUITES)


def run_suite(theorem, lattice=None, trials: int = 200, seed: int = 0, grid: CircleGrid | None = None) -> VerificationReport:
    """Run one suite and report the worst tolerance-adjusted margin."""
    key = str(theorem)
    if key not in SUITES:
        known = ", ".join(SUITE_ORDER)
        raise ValueError(f"unknown theorem id {theorem!r}; known ids: {known}")
    if int(trials) < 1:
        raise ValueError("trials must be >= 1")
    lattice = default_lattice() if lattice is None else tuple(lattice)
    if not lattice:
        raise ValueError("lattice must contain at least one entry")
    grid = CircleGrid() if grid is None else grid
    title, suite = SUITES[key]
    margins = _Margins()
    suite(lattice, int(trials), seed, grid, margins)
    if math.isinf(margins.worst):
        margins.worst = 0.0
        margins.note("no checks ran for this lattice")
    loose = [f"r = {r:g} (at least {slack:.4g})" for r, slack in sorted(margins.allowance.items()) if slack >= 1.0]
    if loose:
        margins.note(
            "truncation allowance of 1 or more at " + ", ".join(loose) + ": a real-part test fails on such "
            "a circle only where the real part dips below the threshold by more than the allowance"
        )
    verdict = "pass" if margins.worst >= 0.0 else "fail"
    return VerificationReport(
        theorem=key,
        title=title,
        verdict=verdict,
        worst_margin=margins.worst,
        trials=int(trials),
        seed=int(seed) if np.isscalar(seed) else seed,
        lattice=[{"sigma": s.sigma, "n": s.n, "beta": s.beta} for s in lattice],
        grid=grid.describe(),
        notes=margins.notes,
    )


def run_all(lattice=None, trials: int = 200, seed: int = 0, grid: CircleGrid | None = None) -> list:
    """Run every suite in id order."""
    return [run_suite(key, lattice, trials, seed, grid) for key in SUITE_ORDER]
