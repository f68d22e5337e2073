"""Theorem-keyed verification suites producing machine-readable reports.

Each suite re-derives one sharp bound or inclusion numerically over a
lattice of (sigma, n, beta) triples and reports the worst tolerance-adjusted
margin; a suite passes iff that margin is nonnegative, and a NaN margin
fails it.  Every circle check samples the fixed grid of classes (RADII,
ANGULAR_SAMPLES), and margins already include the truncation-tail
allowance and GRID_TOLERANCE, so a negative value is a genuine violation,
not a sampling artifact.  The envelope suites 3, 9 and 11 share one path:
one (lower, upper) table per entry and radius of the untruncated bounds that
`gft bounds` prints, which the two axis extremals must attain at x = +r,
each summed against one table of r**k.  A truncated member stays below the
exact upper bound with no allowance, and may undershoot the exact lower
bound by at most its own dropped tail.  Suites 3 and 9 read the tail's
coefficient bound off the last column of their multiplier tables, suite 11
from one multiplier per entry; its tail is infinite at n = 0, where no
lower envelope holds.

Trial t of a suite draws its random members from the generator seeded
(seed, suite, t).  Trials run in fixed blocks of _BLOCK: a block's members
are drawn trial by trial, then expanded, iterated and tested as one stack of
coefficient rows, all of whose circle values come from one FFT.  A suite
builds the factors of its iterations once, one multiplier row per lattice
entry (a row of ones for n = 0), and scales each block's rows by them.
Memory therefore does not depend on the trial count, and since every row
gets the same elementwise operations as a member built on its own, reports
are byte-identical to evaluating one member at a time.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .classes import (
    ANGULAR_SAMPLES,
    GRID_TOLERANCE,
    RADII,
    ClassSpec,
    _envelope,
    circle_values,
    covering_constant,
    distortion_bounds,
    extremal_B_lower,
    extremal_B_upper,
    grid_tails,
    growth_bounds,
    member_rows,
    p_rows,
    random_members,
    random_mixtures,
    real_part_margins,
    verdicts,
)
from .kernels import OperatorParams, extremal_iterate, multiplier, multiplier_row
from .operators import bernardi, iterate_step_closed, recurrence_residuals, salagean_iterate
from .series import (
    SchlichtSeries,
    TruncatedSeries,
    default_order,
    evaluate_circle,
    herglotz_rows,
    tail_bound,
)

DEFAULT_SIGMAS = (0.5, 1.0, 2.0, 3.5)
DEFAULT_NS = (0, 1, 2, 3)
DEFAULT_BETAS = (0.0, 0.25, 0.5, 0.9)

COEFF_TOL = 1e-12
SHARPNESS_TOL = 1e-7
# Order past which r**k < 1e-14 at every grid radius, so extremals cut there are exact on the axis.
SHARP_ORDER = math.ceil(math.log(1e-14) / math.log(max(RADII)))
# Trials drawn, built and tested together, one FFT per stack.  Memory grows with the block, not with the trial count.
_BLOCK = 4


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
        """The report as JSON-ready data: a non-finite worst_margin, such as a NaN check's, becomes None."""
        data = asdict(self)
        if not math.isfinite(data["worst_margin"]):
            data["worst_margin"] = None
        return data

    def to_json(self) -> str:
        """Strict JSON (no NaN or Infinity tokens), keys sorted, indented by 2."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2, allow_nan=False)


class _Margins:
    """Running minimum of tolerance-adjusted margins, plus free-form notes."""

    def __init__(self) -> None:
        self.worst = math.inf
        self.notes: list = []
        self.allowance = np.full(len(RADII), math.inf)  # per radius, the smallest slack any real-part test added

    def add(self, value: float) -> None:
        """Keep the smallest margin; a NaN margin sticks, so the suite fails."""
        v = float(value)
        if v < self.worst or math.isnan(v):
            self.worst = v

    def add_tests(self, observed: np.ndarray, padded: np.ndarray) -> None:
        """Add real-part tests' margins, arrays (tests, len(RADII)) as real_part_margins gives them.

        Keeps the smallest padded margin and, per radius, the smallest slack any test was given.
        """
        self.add(np.min(padded))
        self.allowance = np.minimum(self.allowance, np.min(padded - observed, axis=0))

    def note(self, text: str) -> None:
        if text not in self.notes:
            self.notes.append(text)


def _entries(lattice, pred):
    return [spec for spec in lattice if pred(spec)]


def _pairs(lattice, pred):
    return sorted({(spec.sigma, spec.n) for spec in lattice if pred(spec)})


def _blocks(trials: int, size: int):
    """(trial indices, entry index per trial) for each block of _BLOCK consecutive trials.

    Trial t tests entry t % size, as every suite cycles through its entries.
    """
    for start in range(0, trials, _BLOCK):
        ts = range(start, min(start + _BLOCK, trials))
        yield ts, np.array([t % size for t in ts])


def _rngs(seed, suite: int, ts) -> list:
    """Trial t's generator, seeded (seed, suite, t)."""
    return [np.random.default_rng((seed, suite, t)) for t in ts]


def _factors(image, start: int) -> np.ndarray:
    """The factors a diagonal operator multiplies coefficients start.. by, read off its image of all ones there.

    (1 + 0i) x is x exactly, so these are the operator's own factors, bit for bit.
    """
    return image.coeffs[start:].real


def _mults(pairs, kmax: int) -> np.ndarray:
    """The iteration's factors for each (sigma, n) pair: multiplier_row(sigma, n, kmax), one row per pair."""
    return np.array([multiplier_row(sigma, n, kmax) for sigma, n in pairs])


def _member_tables(specs, kmax: int) -> tuple:
    """(_mults of each spec's (sigma, n), betas): the rows random_members and the class test take."""
    return _mults([(spec.sigma, spec.n) for spec in specs], kmax), np.array([spec.beta for spec in specs])


def _iterated_P_margins(rows: np.ndarray, mults: np.ndarray) -> tuple:
    """Stacked membership_in_iterated_P, in place: real-part margins of rows[:, 1:] / mults."""
    rows[:, 1:] /= mults
    return real_part_margins(rows, 0.0)


def _class_margins(members: np.ndarray, betas: np.ndarray, mults: np.ndarray) -> tuple:
    """Stacked membership_in_B: members -> (f / z - beta) / (1 - beta), then the iterated-family test."""
    return _iterated_P_margins(p_rows(members, betas), mults)


def _sharp_envelopes(out, entries, bounds, extremals) -> np.ndarray:
    """The table bounds(entry, r) of (lower, upper), shape (2, len(entries), len(RADII)), checked for sharpness.

    The rows (lows, ups) = extremals(entry) must attain lower and upper at x = +r, to SHARPNESS_TOL.  Each row
    is summed against one r**k table by one dot product per circle, bit-identical to summing it on its own.
    """
    env = np.array([[bounds(entry, r) for r in RADII] for entry in entries]).transpose(2, 0, 1)
    powers = np.array(RADII)[:, None] ** np.arange(SHARP_ORDER + 1)
    for i, entry in enumerate(entries):
        axis = np.array([[row @ circle[: row.size] for circle in powers] for row in extremals(entry)]).real
        out.add(np.min(SHARPNESS_TOL - np.abs(axis - env[:, i])))
    return env


def _B_extremals(spec: ClassSpec) -> np.ndarray:
    """Coefficient rows of spec's lower and upper extremal members, cut at SHARP_ORDER."""
    return np.array([extremal_B_lower(spec, SHARP_ORDER).coeffs, extremal_B_upper(spec, SHARP_ORDER).coeffs])


def _envelope_margins(out, low, high, env, tails) -> None:
    """Add a block's margins: circle maxima high below upper, minima low above lower less the member tail."""
    lower, upper = env
    out.add(np.min(upper + GRID_TOLERANCE - high))
    out.add(np.min(low - lower + tails + GRID_TOLERANCE))


def _suite_1(lattice, trials, seed, out):
    """One integration step keeps a test function on its side of Re = gamma."""
    pairs = _pairs(lattice, lambda s: s.n >= 1)
    if not pairs:
        out.note("no lattice entries with n >= 1")
        return
    gammas = (0.0, 0.3, 0.7, 1.2, 2.0)
    order = default_order()
    ones = TruncatedSeries(np.ones(order + 1))
    steps = np.array([_factors(iterate_step_closed(sigma, n, ones), 1) for sigma, n in pairs])
    for ts, idx in _blocks(trials, len(pairs)):
        rngs = _rngs(seed, 1, ts)
        q = herglotz_rows(*random_mixtures(rngs), order)
        scale = np.array([rng.uniform(0.05, 1.0) for rng in rngs])
        gamma = np.array([gammas[t % len(gammas)] for t in ts])
        q[:, 1:] *= ((1.0 - gamma) * scale)[:, None]
        q[:, 1:] *= steps[idx]
        # Re q < gamma is Re(-q) > -gamma
        flip = gamma >= 1.0
        q[flip] *= -1.0
        out.add_tests(*real_part_margins(q, np.where(flip, -gamma, gamma), 2.0 * np.abs(1.0 - gamma) * scale))


def _suite_2(lattice, trials, seed, out):
    """An (n+1)-fold iterate passes the n-level family test."""
    pairs = _pairs(lattice, lambda s: s.n >= 1 and s.sigma - s.n > 0)
    if not pairs:
        out.note("no lattice entries with n >= 1 and sigma - n > 0")
        return
    order = default_order()
    deeper = _mults([(sigma, n + 1) for sigma, n in pairs], order)
    mults = _mults(pairs, order)
    for ts, idx in _blocks(trials, len(pairs)):
        p = herglotz_rows(*random_mixtures(_rngs(seed, 2, ts)), order)
        p[:, 1:] *= deeper[idx]
        out.add_tests(*_iterated_P_margins(p, mults[idx]))


def _suite_3(lattice, trials, seed, out):
    """Modulus/real-part envelopes for iterates, sharp at the axis extremals."""
    pairs = _pairs(lattice, lambda s: True)
    env = _sharp_envelopes(
        out,
        [ClassSpec(OperatorParams(sigma, n)) for sigma, n in pairs],
        lambda spec, r: _envelope(spec, spec.n, r, 1.0),
        lambda spec: [extremal_iterate(spec.params, SHARP_ORDER, sign).coeffs for sign in (-1, 1)],
    )
    order = default_order()
    mults = _mults(pairs, order)
    tails = grid_tails(2.0 * mults[:, -1], order)
    for ts, idx in _blocks(trials, len(pairs)):
        p = herglotz_rows(*random_mixtures(_rngs(seed, 3, ts)), order)
        p[:, 1:] *= mults[idx]
        values = circle_values(p)
        _envelope_margins(out, values.real.min(axis=-1), np.abs(values).max(axis=-1), env[:, idx], tails[idx])


def _suite_4(lattice, trials, seed, out):
    """Convex combinations of iterates stay in the iterated family."""
    pairs = _pairs(lattice, lambda s: s.n >= 1)
    if not pairs:
        out.note("no lattice entries with n >= 1")
        return
    order = default_order()
    mults = _mults(pairs, order)
    for ts, idx in _blocks(trials, len(pairs)):
        rngs = _rngs(seed, 4, ts)
        p = herglotz_rows(*random_mixtures(rngs), order)
        q = herglotz_rows(*random_mixtures(rngs), order)
        p[:, 1:] *= mults[idx]
        q[:, 1:] *= mults[idx]
        mu = np.array([rng.uniform(0.0, 1.0) for rng in rngs])[:, None]
        out.add_tests(*_iterated_P_margins(mu * p + (1.0 - mu) * q, mults[idx]))


def _suite_5(lattice, trials, seed, out):
    """Members of the deeper class pass the shallower class test."""
    entries = _entries(lattice, lambda s: s.sigma - s.n > 0)
    if not entries:
        out.note("no lattice entries with sigma - n > 0")
        return
    order = default_order()
    deeper = _mults([(spec.sigma, spec.n + 1) for spec in entries], order - 1)
    mults, betas = _member_tables(entries, order - 1)
    for ts, idx in _blocks(trials, len(entries)):
        f = random_members([(seed, 5, t) for t in ts], deeper[idx], betas[idx])
        out.add_tests(*_class_margins(f, betas[idx], mults[idx]))


def _suite_6(lattice, trials, seed, out):
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
    mults, betas = _member_tables(entries, default_order() - 1)
    for ts, idx in _blocks(trials, len(entries)):
        beta = betas[idx]
        f = random_members([(seed, 6, t) for t in ts], mults[idx], beta)
        derivative = np.arange(1, f.shape[-1]) * f[:, 1:]  # differentiate, row by row
        observed, padded = real_part_margins(derivative, beta, 2.0 * (1.0 - beta))
        out.add_tests(observed, padded)
        if "inconclusive" in verdicts(observed, padded):
            out.note("inconclusive for some members: Re f' dips below beta by less than the truncation allowance")


def _suite_7(lattice, trials, seed, out):
    """Coefficient size bound, attained exactly by the upper extremal."""
    order = default_order()
    mults, betas = _member_tables(lattice, order - 1)
    bounds = 2.0 * (1.0 - betas)[:, None] * mults
    for spec, bound in zip(lattice, bounds):
        ext = extremal_B_upper(spec, order)
        out.add(COEFF_TOL - float(np.max(np.abs(np.abs(ext.coeffs[2:]) - bound))))
    for ts, idx in _blocks(trials, len(lattice)):
        f = random_members([(seed, 7, t) for t in ts], mults[idx], betas[idx])
        out.add(np.min(bounds[idx] + COEFF_TOL - np.abs(f[:, 2:])))


def _suite_8(lattice, trials, seed, out):
    """The weighted integral mean with c + 1 = sigma - n maps the class into itself."""
    entries = _entries(lattice, lambda s: s.sigma - s.n > 0)
    if not entries:
        out.note("no lattice entries with sigma - n > 0")
        return
    order = default_order()
    ones = SchlichtSeries.from_coeffs(np.r_[0.0, np.ones(order)])
    means = np.array([_factors(bernardi(spec.sigma - spec.n - 1.0, ones), 2) for spec in entries])
    mults, betas = _member_tables(entries, order - 1)
    for ts, idx in _blocks(trials, len(entries)):
        f = random_members([(seed, 8, t) for t in ts], mults[idx], betas[idx])
        f[:, 2:] *= means[idx]
        out.add_tests(*_class_margins(f, betas[idx], mults[idx]))


def _suite_9(lattice, trials, seed, out):
    """Growth envelope for members, attained on the axis by the two extremals."""
    env = _sharp_envelopes(out, lattice, growth_bounds, _B_extremals)
    order = default_order()
    mults, betas = _member_tables(lattice, order - 1)
    tails = np.array(RADII) * grid_tails(2.0 * (1.0 - betas) * mults[:, -1], order - 1)
    for ts, idx in _blocks(trials, len(lattice)):
        f = random_members([(seed, 9, t) for t in ts], mults[idx], betas[idx])
        modulus = np.abs(circle_values(f))
        _envelope_margins(out, modulus.min(axis=-1), modulus.max(axis=-1), env[:, idx], tails[idx])


def _suite_10(lattice, trials, seed, out):
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
        low = float(np.min(np.abs(evaluate_circle(f, r, ANGULAR_SAMPLES))))
        out.add(5e-3 - abs(low - constant))
        # the extremal's last coefficient is the bound 2 (1 - beta) multiplier(sigma, n, order - 1) on the dropped ones
        tail = r * tail_bound(abs(f.coeffs[-1]), order - 1, r)
        out.add(SHARPNESS_TOL + tail - abs(low - growth_bounds(spec, r)[0]))


def _derivative_combo(shift, coeffs: np.ndarray) -> np.ndarray:
    """Coefficients of (sigma - n) f / z + f' for shift = sigma - n: coefficient j is (sigma - n + 1 + j) a_{j+1}.

    coeffs is one member's coefficients, or rows of them with one shift per row.
    """
    j = np.arange(0, coeffs.shape[-1] - 1)
    return (np.asarray(shift)[..., None] + 1.0 + j) * coeffs[..., 1:]


def _suite_11(lattice, trials, seed, out):
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
    env = _sharp_envelopes(out, lattice, distortion_bounds, lambda s: _derivative_combo(s.sigma - s.n, _B_extremals(s)))
    order = default_order()
    # combination coefficients are at most (sigma - n + 1) 2 (1 - beta) multiplier(sigma, n - 1, k)
    bound = [2.0 * (1.0 - s.beta) * multiplier(s.sigma, s.n - 1, order - 1) if s.n >= 1 else 0.0 for s in lattice]
    tails = np.array([s.sigma - s.n + 1 for s in lattice])[:, None] * grid_tails(bound, order - 1)
    # n = 0 has no floor; the infinite tail goes in after grid_tails, where inf * r**order would be NaN once r**order underflows
    tails[[s.n == 0 for s in lattice]] = math.inf
    ones = TruncatedSeries(np.ones(order))
    steps = {
        (spec.sigma, m): _factors(iterate_step_closed(spec.sigma, m, ones), 1)
        for spec in lattice
        for m in range(1, spec.n + 1)
    }
    mults, betas = _member_tables(lattice, order - 1)
    for ts, idx in _blocks(trials, len(lattice)):
        specs = [lattice[i] for i in idx]
        p0 = herglotz_rows(*random_mixtures(_rngs(seed, 11, ts)), order - 1)
        # the step chain p0 -> p1 -> .. -> p_n of every row, one level at a time
        live, prev = np.arange(len(specs)), p0
        for m in range(1, max(spec.n for spec in specs) + 1):
            keep = [specs[i].n >= m for i in live]
            live, prev = live[keep], prev[keep]
            cur = prev.copy()
            cur[:, 1:] *= np.array([steps[specs[i].sigma, m] for i in live])
            lam = np.array([specs[i].sigma - (m - 1) for i in live])
            out.add(np.min(COEFF_TOL - recurrence_residuals(lam, cur, prev)))
            prev = cur
        p0[:, 1:] *= mults[idx]
        f = member_rows(p0, betas[idx])
        combo = _derivative_combo(np.array([spec.sigma - spec.n for spec in specs]), f)
        modulus = np.abs(circle_values(combo))
        _envelope_margins(out, modulus.min(axis=-1), modulus.max(axis=-1), env[:, idx], tails[idx])


def _suite_12(lattice, trials, seed, out):
    """Convex combinations of members stay in the class."""
    mults, betas = _member_tables(lattice, default_order() - 1)
    for ts, idx in _blocks(trials, len(lattice)):
        f = p_rows(random_members([(seed, 12, t) for t in ts], mults[idx], betas[idx]), betas[idx])
        h = p_rows(random_members([(seed, 120, t) for t in ts], mults[idx], betas[idx]), betas[idx])
        mu = np.array([rng.uniform(0.0, 1.0) for rng in _rngs(seed, 121, ts)])[:, None]
        out.add_tests(*_iterated_P_margins(mu * f + (1.0 - mu) * h, mults[idx]))


def _suite_remark22(lattice, trials, seed, out):
    """One closed iteration step equals the single-parameter transform with alpha = sigma."""
    sigmas = sorted({spec.sigma for spec in lattice})
    order = default_order()
    ones = TruncatedSeries(np.ones(order + 1))
    single = np.array([_factors(salagean_iterate(sigma, 1, ones), 1) for sigma in sigmas])
    mults = _mults([(sigma, 1) for sigma in sigmas], order)
    for ts, idx in _blocks(trials, len(sigmas)):
        p = herglotz_rows(*random_mixtures(_rngs(seed, 22, ts)), order)
        a = p.copy()
        a[:, 1:] *= mults[idx]
        p[:, 1:] *= single[idx]
        out.add(np.min(COEFF_TOL - np.max(np.abs(a - p), axis=-1)))


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


def run_suite(theorem, lattice=None, trials: int = 200, seed: int = 0) -> VerificationReport:
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
    title, suite = SUITES[key]
    margins = _Margins()
    suite(lattice, int(trials), seed, margins)
    if math.isinf(margins.worst):
        margins.worst = 0.0
        margins.note("no checks ran for this lattice")
    # a suite with no real-part test leaves every slack at inf
    loose = [f"r = {r:g} (at least {s:.4g})" for r, s in zip(RADII, margins.allowance) if 1.0 <= s < math.inf]
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
        grid={"radii": list(RADII), "angular_samples": ANGULAR_SAMPLES, "tolerance": GRID_TOLERANCE},
        notes=margins.notes,
    )


def run_all(lattice=None, trials: int = 200, seed: int = 0) -> list:
    """Run every suite in id order."""
    return [run_suite(key, lattice, trials, seed) for key in SUITE_ORDER]
