"""Theorem-keyed verification suites producing machine-readable reports.

Each suite re-derives one sharp bound or inclusion numerically over a lattice
of (sigma, n, beta) triples and reports the worst tolerance-adjusted margin; a
suite passes iff that margin is nonnegative, and a NaN margin fails it.  Every
circle check samples the fixed grid of gft.bounds (RADII, ANGULAR_SAMPLES), and
margins already include the truncation-tail allowance and GRID_TOLERANCE, so a
negative value is a genuine violation, not a sampling artifact; a real-part
suite notes the trials its allowance leaves inconclusive.

The envelope suites 3, 9 and 11 share one driver, _envelopes.  Each tests
w = beta + (1 - beta) p, with p a mixture scaled by multiplier(sigma, n +
depth, k), against factor (1 + 2 (1 - beta) S_{n + depth}(-+r)), read from
envelope_table, the table `gft bounds` prints: factor |w| below the upper
bound, and factor Re w, least at theta = pi, above the lower.  Suite 3 takes
its (sigma, n) pairs at beta = 0, depth 0 and factor 1; suite 9 depth 0 and
factor r, as |f| = r |w| on |z| = r; suite 11 depth -1 and factor lam =
sigma - (n - 1), as the step recurrence turns (sigma - n) f / z + f' into
lam (beta + (1 - beta) p_{n-1}).  The driver checks the table's sharpness
too: the two axis extremals of each (sigma, n) pair, built once as real rows
by operators._extremal_rows to SHARP_ORDER (suites 7 and 10 read their upper
and alternating rows there too) and mapped for all its betas by one
member_rows call, must attain it at x = +r, summed at every radius by one
product with the table of r**k.  A truncated row stays below the exact upper
bound with no allowance, and may undershoot the exact lower bound by at most
its own dropped tail, whose coefficient bound is the last column of its
multiplier table; that tail is infinite where n + depth < 0, in suite 11 at
n = 0, where no lower envelope holds.  Suite 11's step recurrence and
remark22's transform act on each coefficient alone, so each is checked once
on its factor rows, not per trial.

Every trial row is one classes.mixture_rows call, the trial's mixture with
coefficient k >= 1 scaled by a diagonal: in suites 3, 7, 9 and 11 the entry's
multiplier row, at depth n - 1 in suite 11, before member_rows adds beta.
The real-part suites 1, 2, 4, 5, 6, 8 and 12 test one statement through one
driver, _real_parts: a diagonal d maps P into P, Re(1 + sum_k d_k c_k z^k) >
0 with coefficient bound 2, so no suite builds a member only to undo it.
Suite 1 takes the integration step's factors, read off iterate_step_closed;
suites 2 and 5 one step of depth, multiplier(sigma, n + 1, k) over
multiplier(sigma, n, k), at orders N and N - 1; suite 8 the integral mean's
factors (sigma - n) / (sigma - n + k), read off bernardi; suite 6 those of
(f' - beta) / (1 - beta), (k + 1) multiplier(sigma, n, k).  Suites 4 and 12
take a row of ones on each of p and q, so mu p + (1 - mu) q is a mixture
again: only rounding can fail them, and their reports say so.

Trial t of suite k reads row t of one table of uniforms, default_rng((seed,
k)).random((trials, width)): classes._DRAWS columns per random mixture, for
its atom count, angles and weights, then suites 4 and 12's second mixture
and weight mu.  Trial t alone is the one row drawn after advancing the
generator by t * width.  Trials run in blocks of _BLOCK, drawn with one call
and tested as one stack of coefficient rows whose circle values come from
one FFT (a real FFT of half the length for the real-part tests).  Each suite
builds its factors once, each distinct (sigma, n) multiplier row once (ones
for n = 0), gathered by index.  Memory does not depend on the trial count,
and every row gets the same elementwise operations as a member built on its
own, so reports are byte-identical to evaluating one member at a time.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import _Frozen, _count
from .bounds import (
    ANGULAR_SAMPLES,
    GRID_TOLERANCE,
    RADII,
    ClassSpec,
    _shift,
    by_pair,
    default_lattice,
    envelope_table,
    multiplier_series,
)
from .classes import _DRAWS, grid_tails, member_rows, mixture_rows, real_part_margins, verdicts
from .kernels import OperatorParams, multiplier_row
from .operators import _extremal_rows, bernardi, iterate_step_closed, recurrence_residuals, salagean_iterate
from .series import SchlichtSeries, TruncatedSeries, default_order, evaluate_circle, tail_bound

COEFF_TOL = 1e-12
SHARPNESS_TOL = 1e-7
# Order past which r**k < 1e-14 at every grid radius.  Extremals cut there drop an axis tail below SHARPNESS_TOL:
# at r = 0.99 about 2.0e-12 in suites 3 and 9, and 6.5e-9 in suite 11, whose lam w grows like k.
SHARP_ORDER = math.ceil(math.log(1e-14) / math.log(max(RADII)))
# Trials drawn, built and tested together, one FFT per stack.  Memory grows with the block, not with the trial count.
_BLOCK = 16
_MAX_TRIALS = 10**5  # the most trials run_suite takes: all 13 suites at 0.3 ms per trial take under a minute
# The note of suites 10 and remark22, which run no trials.
_DETERMINISTIC_NOTE = "deterministic per lattice entry; trials parameter not used"
# The note of suites 4 and 12, whose sampled test only rounding can fail.
_CONVEXITY_NOTE = (
    "rounding check: a convex combination of two Herglotz mixtures is again one, so only rounding can fail the "
    "sampled test"
)


class VerificationReport(_Frozen):
    """Outcome of one suite: worst margin over every check it ran."""

    __slots__ = ("theorem", "title", "verdict", "worst_margin", "trials", "seed", "lattice", "grid", "notes")

    def __init__(self, theorem: str, title: str, verdict: str, worst_margin: float, trials: int, seed: int,
                 lattice: list, grid: dict, notes: list) -> None:
        values = (theorem, title, verdict, worst_margin, trials, seed, lattice, grid, notes)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def to_dict(self) -> dict:
        """The report as JSON-ready data: a non-finite worst_margin, such as a NaN check's, becomes None.

        A shallow copy: its lists and dicts are the report's own.
        """
        data = {name: getattr(self, name) for name in self.__slots__}
        if not math.isfinite(data["worst_margin"]):
            data["worst_margin"] = None
        return data

    def to_json(self) -> str:
        """Strict JSON (no NaN or Infinity tokens), keys sorted, indented by 2."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2, allow_nan=False)


class _Margins:
    """Running minimum of tolerance-adjusted margins, plus the notes the suites and their drivers write."""

    def __init__(self) -> None:
        self.worst = math.inf
        self.notes: list = []

    def add(self, value: float) -> None:
        """Keep the smallest margin; a NaN margin sticks, so the suite fails."""
        v = float(value)
        if v < self.worst or math.isnan(v):
            self.worst = v

    def note(self, text: str) -> None:
        if text not in self.notes:
            self.notes.append(text)


def _pairs(lattice, pred):
    return sorted({(spec.sigma, spec.n) for spec in lattice if pred(spec)})


def _blocks(trials: int, size: int, seed, suite: int, width: int):
    """(entry index per trial, their rows of uniforms) for each block of _BLOCK trials.

    Trial t tests entry t % size, as every suite cycles through its entries, and reads row t of the table
    default_rng((seed, suite)).random((trials, width)): each block draws the table's next rows.
    """
    rng = np.random.default_rng((seed, suite))
    for start in range(0, trials, _BLOCK):
        ts = range(start, min(start + _BLOCK, trials))
        yield np.array([t % size for t in ts]), rng.random((len(ts), width))


def _mults(pairs, kmax: int) -> np.ndarray:
    """The iteration's factors for each (sigma, n) pair: multiplier_row(sigma, n, kmax), one row per pair.

    Each distinct pair's row is built once and gathered by index, so repeated pairs get the same bits.
    """
    index: dict = {}
    picks = [index.setdefault(pair, len(index)) for pair in pairs]
    return np.array([multiplier_row(sigma, n, kmax) for sigma, n in index])[picks]


def _depth_step(pairs, kmax: int) -> np.ndarray:
    """The factors of one step of depth, n to n + 1, per (sigma, n) pair: _mults of (sigma, n + 1) over _mults."""
    return _mults([(sigma, n + 1) for sigma, n in pairs], kmax) / _mults(pairs, kmax)


def _real_parts(out, suite, entries, trials, seed, diagonal, pair=False) -> None:
    """The real-part test of suites 1, 2, 4, 5, 6, 8 and 12: the entry's diagonal maps P into P.

    Trial t reads the mixture of its row of _blocks through mixture_rows with its entry's diagonal (with pair,
    two mixtures and the weight mu, each scaled, then combined as mu p + (1 - mu) q), in P wherever the
    diagonal maps P into P, and adds the margins of real_part_margins(rows, 0.0): Re(1 + sum_k diagonal[i,
    k - 1] c_k z^k) > 0, with coefficient bound 2.  It notes any trial verdicts finds inconclusive, and each radius
    whose allowance, padded - observed, is 1 or more: all rows share one order and bound, so the last block's is all.
    """
    inconclusive = False
    for idx, u in _blocks(trials, len(entries), seed, suite, 2 * _DRAWS + 1 if pair else _DRAWS):
        p = mixture_rows(u[:, :_DRAWS], diagonal[idx])
        if pair:
            mu = u[:, -1:]
            p = mu * p + (1.0 - mu) * mixture_rows(u[:, _DRAWS:-1], diagonal[idx])
        observed, padded = real_part_margins(p, 0.0)
        out.add(np.min(padded))
        inconclusive |= "inconclusive" in verdicts(observed, padded)
    if inconclusive:
        out.note("inconclusive for some trials: the real part dips below 0 by less than the truncation allowance")
    loose = [f"r = {r:g} (at least {s:.4g})" for r, s in zip(RADII, np.min(padded - observed, axis=0)) if s >= 1.0]
    if loose:
        out.note(
            "truncation allowance of 1 or more at " + ", ".join(loose) + ": a real-part test fails on such "
            "a circle only where the real part dips below the threshold by more than the allowance"
        )


def _sharp_envelopes(out, entries, env, depth, factor) -> None:
    """Check that the bounds env, an envelope_table of the entries at RADII, are attained on the axis.

    The table is the one `gft bounds` prints, built once in gft.bounds; this only checks its sharpness, one
    (sigma, n) pair at a time.  The pair's two axis rows, 1 + 2 sum_k multiplier(sigma, n + depth, k) (-+z)^k
    for k <= SHARP_ORDER, are one _extremal_rows of gft.operators; one member_rows call maps them for its betas,
    column 0 dropped.  Their sums at x = +r times factor, one row per entry against RADII, must attain lower
    and upper to SHARPNESS_TOL.  One product with the r**k table sums every row at every radius, and one
    minimum adds the pair's margins, one per entry, side and radius.
    """
    powers = np.array(RADII)[:, None] ** np.arange(SHARP_ORDER + 1)
    for params, group in by_pair(entries).items():
        rows = _extremal_rows(params.sigma, params.n + depth, SHARP_ORDER)
        rows = member_rows(rows, np.array([[entries[i].beta] for i in group]))[..., 1:]
        axis = factor[group][:, None] * (rows @ powers.T)
        out.add(np.min(SHARPNESS_TOL - np.abs(axis - env[:, group].transpose(1, 0, 2))))


def _envelopes(out, suite, entries, trials, seed, depth, factor, order) -> None:
    """The envelope test of suites 3, 9 and 11: factor w within factor (1 + 2 (1 - beta) S_{n + depth}(-+r)).

    w = beta + (1 - beta) p, with p the trial's mixture scaled by multiplier(sigma, n + depth, k) for
    k <= order: member_rows' row of the entry at depth n + depth, column 0 dropped.  The bounds are
    envelope_table's, and _sharp_envelopes checks that they are attained; factor broadcasts against (entries,
    RADII).  On every circle factor max |w| must stay below upper, and factor min Re w (a floor of |w| too)
    above lower less the dropped tail, factor grid_tails of 2 (1 - beta) multiplier(sigma, n + depth, order),
    infinite where n + depth < 0, as no lower envelope holds there.
    """
    env = envelope_table(entries, depth, RADII, factor)
    factor = np.broadcast_to(factor, (len(entries), len(RADII)))
    _sharp_envelopes(out, entries, env, depth, factor)
    mults = _mults([(spec.sigma, spec.n + depth) for spec in entries], order)
    betas = np.array([spec.beta for spec in entries])
    tails = factor * grid_tails(2.0 * (1.0 - betas) * mults[:, -1], order)
    # set after grid_tails, where inf * r**order would be NaN once r**order underflows
    tails[np.array([spec.n + depth < 0 for spec in entries])] = math.inf
    lower, upper = env
    for idx, u in _blocks(trials, len(entries), seed, suite, _DRAWS):
        values = evaluate_circle(member_rows(mixture_rows(u, mults[idx]), betas[idx])[:, 1:], RADII, ANGULAR_SAMPLES)
        out.add(np.min(upper[idx] + GRID_TOLERANCE - factor[idx] * np.abs(values).max(axis=-1)))
        out.add(np.min(factor[idx] * values.real.min(axis=-1) - lower[idx] + tails[idx] + GRID_TOLERANCE))


def _suite_1(lattice, trials, seed, out):
    """One integration step keeps a test function on its side of Re = gamma: the step S maps P into P.

    S fixes constants, so it takes q = 1 + (1 - gamma) s (p - 1) to 1 + (1 - gamma) s (S p - 1), on q's side of
    gamma exactly when Re S p > 1 - 1 / s, which Re S p > 0 implies for every gamma and every s <= 1.
    """
    pairs = _pairs(lattice, lambda s: s.n >= 1)
    if not pairs:
        out.note("no lattice entries with n >= 1")
        return
    ones = TruncatedSeries(np.ones(default_order() + 1))
    # an operator's factors read off its image of all ones: (1 + 0i) x is x exactly, so these are its own, bit for bit
    steps = np.array([iterate_step_closed(sigma, n, ones).coeffs[1:].real for sigma, n in pairs])
    _real_parts(out, 1, pairs, trials, seed, steps)


def _suite_2(lattice, trials, seed, out):
    """An (n+1)-fold iterate passes the n-level family test: one step of depth on a mixture."""
    pairs = _pairs(lattice, lambda s: s.n >= 1 and s.sigma - s.n > 0)
    if not pairs:
        out.note("no lattice entries with n >= 1 and sigma - n > 0")
        return
    _real_parts(out, 2, pairs, trials, seed, _depth_step(pairs, default_order()))


def _suite_3(lattice, trials, seed, out):
    """Modulus/real-part envelopes for iterates, sharp at the axis extremals."""
    entries = [ClassSpec(OperatorParams(sigma, n)) for sigma, n in _pairs(lattice, lambda s: True)]
    _envelopes(out, 3, entries, trials, seed, 0, 1.0, default_order())


def _suite_4(lattice, trials, seed, out):
    """Convex combinations of iterates stay in the iterated family."""
    pairs = _pairs(lattice, lambda s: s.n >= 1)
    if not pairs:
        out.note("no lattice entries with n >= 1")
        return
    out.note(_CONVEXITY_NOTE)
    _real_parts(out, 4, pairs, trials, seed, np.ones((len(pairs), default_order())), pair=True)


def _suite_5(lattice, trials, seed, out):
    """Members of the deeper class pass the shallower class test: one step of depth, for every beta."""
    entries = [spec for spec in lattice if spec.sigma - spec.n > 0]
    if not entries:
        out.note("no lattice entries with sigma - n > 0")
        return
    step = _depth_step([(spec.sigma, spec.n) for spec in entries], default_order() - 1)
    _real_parts(out, 5, entries, trials, seed, step)


def _suite_6(lattice, trials, seed, out):
    """Random members have bounded turning, Re f' > beta, hence are univalent.

    Only entries with n - 1 < sigma <= n are tested: there lam = sigma - n + 1 lies in (0, 1], and
    (f' - beta) / (1 - beta) = (1 - lam) p_n + lam p_{n-1}, a convex combination of iterates in P, has real part
    > 0, which is Re f' > beta; its coefficient k is (k + 1) multiplier(sigma, n, k) c_k, with no beta.  For
    sigma > n that argument breaks down and members genuinely lose injectivity (e.g. at (sigma, n, beta) =
    (2, 1, 0) a member exists with f'(z) = 0 at |z| = 0.766, and a zero of f' inside the disk certifies that f
    is not univalent there), so those entries are excluded with a note rather than reported as failures.
    """
    if any(spec.n >= 1 and spec.sigma > spec.n for spec in lattice):
        out.note(
            "entries with sigma > n excluded: members there can have vanishing "
            "derivative inside the disk, so injectivity is not guaranteed"
        )
    entries = [spec for spec in lattice if spec.n >= 1 and spec.sigma <= spec.n]
    if not entries:
        out.note("no lattice entries with n >= 1 and sigma <= n")
        return
    order = default_order()
    derivative = np.arange(2, order + 1) * _mults([(spec.sigma, spec.n) for spec in entries], order - 1)
    _real_parts(out, 6, entries, trials, seed, derivative)


def _suite_7(lattice, trials, seed, out):
    """Coefficient size bound, attained exactly by the upper extremal.

    A member's a_{k+1} is (1 - beta) multiplier(sigma, n, k) c_k, with c_k = 2 sum_j w_j x_j^k over at most 8 atoms
    and x_j^k a running product of k rounded factors (herglotz_rows).  With u = 2**-53, |x_j| rounds to within u of 1
    and each complex product adds at most sqrt(5) u, so |x_j^k| <= exp((1 + sqrt(5)) k u) < 1 + 4 k u while k u < 0.1;
    the weights, the atom sum, the scalings and the bound's own rounding add under 32 u.  So the sampled check allows
    max(COEFF_TOL, 2 (1 - beta) multiplier(sigma, n, k) (4 k + 32) u) at a_{k+1}: COEFF_TOL alone up to k = 1117.
    """
    out.note("rounding check: a mixture has |c_k| <= 2, so only rounding can fail the sampled member test")
    order = default_order()
    mults = _mults([(spec.sigma, spec.n) for spec in lattice], order - 1)
    betas = np.array([spec.beta for spec in lattice])
    bounds = 2.0 * (1.0 - betas)[:, None] * mults
    tols = np.maximum(COEFF_TOL, bounds * (4.0 * np.arange(1, order) + 32.0) * 2.0**-53)
    # each pair's upper iterate gives the extremal_B_upper rows of all its betas, bit for bit
    for params, group in by_pair(lattice).items():
        ext = member_rows(_extremal_rows(params.sigma, params.n, order - 1)[1], betas[group])
        out.add(COEFF_TOL - np.max(np.abs(np.abs(ext[:, 2:]) - bounds[group])))
    for idx, u in _blocks(trials, len(lattice), seed, 7, _DRAWS):
        f = member_rows(mixture_rows(u, mults[idx]), betas[idx])
        out.add(np.min(bounds[idx] + tols[idx] - np.abs(f[:, 2:])))


def _suite_8(lattice, trials, seed, out):
    """The weighted integral mean with c + 1 = sigma - n maps the class into itself."""
    entries = [spec for spec in lattice if spec.sigma - spec.n > 0]
    if not entries:
        out.note("no lattice entries with sigma - n > 0")
        return
    order = default_order()
    ones = SchlichtSeries(np.r_[0.0, np.ones(order)])
    # the mean's own factors, read off its image of all ones, act on the p behind the member
    means = np.array([bernardi(spec.sigma - spec.n - 1.0, ones).coeffs[2:].real for spec in entries])
    _real_parts(out, 8, entries, trials, seed, means)


def _suite_9(lattice, trials, seed, out):
    """Growth envelope for members, attained on the axis by the two extremals."""
    # growth_bounds: r (1 + 2 (1 - beta) S_n(-+r)), and |f| = r |f / z| on |z| = r
    _envelopes(out, 9, lattice, trials, seed, 0, RADII, default_order() - 1)


def _suite_10(lattice, trials, seed, out):
    """The lower extremal's minimum modulus near the boundary matches the covered-disk radius.

    It is attained on the axis, so it equals the exact lower growth bound up to the dropped tail, read from
    one envelope_table.  Entries are taken one (sigma, n) pair at a time: the pair's covering series and
    lower iterate are built once, and each beta's value and extremal member are mapped from them, bit for
    bit as covering_constant and extremal_B_lower give them.
    """
    if any(spec.n == 0 for spec in lattice):
        out.note("n = 0 entries skipped: the covering series diverges there")
    entries = [spec for spec in lattice if spec.n >= 1]
    if not entries:
        return
    out.note(_DETERMINISTIC_NOTE)
    r, order = 0.999, 8192
    lows = envelope_table(entries, 0, r, r)[0]  # growth_bounds' lower bound
    for params, group in by_pair(entries).items():
        covering = multiplier_series(params.sigma, params.n, -1.0)
        lower = _extremal_rows(params.sigma, params.n, order - 1)[0]
        # one member at a time: a stack of order-8192 rows would pass the allocator's threshold and fault its pages in
        for i in group:
            spec = entries[i]
            f = member_rows(lower, spec.beta)
            low = np.abs(evaluate_circle(f, r, ANGULAR_SAMPLES)).min()
            out.add(5e-3 - abs(low - float(_shift(spec.beta, covering))))
            # the extremal's last coefficient, 2 (1 - beta) multiplier(sigma, n, order - 1), bounds the dropped ones
            tail = r * tail_bound(abs(f[-1]), order - 1, r)
            out.add(SHARPNESS_TOL + tail - abs(low - lows[i]))


def _suite_11(lattice, trials, seed, out):
    """Step recurrence plus the envelope for (sigma - n) f / z + f'.

    The recurrence lam p_m + z p_m' = lam p_{m-1}, lam = sigma - (m - 1), acts
    on each coefficient alone, so it is checked once per (sigma, n) and step
    m = 1..n, on the factor rows of a mixture's largest coefficients, |c_k| = 2.
    At m = n it turns (sigma - n) f / z + f' into lam (beta + (1 - beta)
    p_{n-1}), so the envelope is checked on the member rows of depth n - 1.

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
    for sigma, n in _pairs(lattice, lambda s: s.n >= 1):
        # steps m = 1..n: the rows [1, 2 multiplier(sigma, m, k)] and [1, 2 multiplier(sigma, m - 1, k)]
        ends = np.insert(2.0 * np.array([multiplier_row(sigma, m, order - 1) for m in range(n + 1)]), 0, 1.0, axis=1)
        out.add(np.min(COEFF_TOL - recurrence_residuals(sigma - np.arange(n), ends[1:], ends[:-1])))
    # distortion_bounds: lam (1 + 2 (1 - beta) S_{n - 1}(-+r)), lam = sigma - (n - 1)
    lams = np.array([[spec.sigma - (spec.n - 1)] for spec in lattice])
    _envelopes(out, 11, lattice, trials, seed, -1, lams, order - 1)


def _suite_12(lattice, trials, seed, out):
    """Convex combinations of members stay in the class."""
    out.note(_CONVEXITY_NOTE)
    _real_parts(out, 12, lattice, trials, seed, np.ones((len(lattice), default_order() - 1)), pair=True)


def _suite_remark22(lattice, trials, seed, out):
    """One closed iteration step equals the single-parameter transform with alpha = sigma, checked on their factors."""
    if any(spec.sigma <= 0.0 for spec in lattice):
        out.note("entries with sigma <= 0 skipped: the single-parameter transform needs alpha = sigma > 0")
    sigmas = sorted({spec.sigma for spec in lattice if spec.sigma > 0.0})
    if not sigmas:
        return
    out.note(_DETERMINISTIC_NOTE)
    order = default_order()
    ones = TruncatedSeries(np.ones(order + 1))
    single = np.array([salagean_iterate(sigma, 1, ones).coeffs[1:].real for sigma in sigmas])
    # both act on each coefficient alone, and a mixture has |c_k| <= 2: twice the factors' difference bounds it
    out.add(COEFF_TOL - 2.0 * np.max(np.abs(single - _mults([(sigma, 1) for sigma in sigmas], order))))


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
    trials = _count(trials, "trials", 1, _MAX_TRIALS)
    lattice = default_lattice() if lattice is None else tuple(lattice)
    if not lattice:
        raise ValueError("lattice must contain at least one entry")
    title, suite = SUITES[key]
    margins = _Margins()
    suite(lattice, trials, seed, margins)
    if margins.worst == math.inf:
        margins.worst = 0.0
        margins.note("no checks ran for this lattice")
    verdict = "pass" if margins.worst >= 0.0 else "fail"
    return VerificationReport(
        theorem=key,
        title=title,
        verdict=verdict,
        worst_margin=margins.worst,
        trials=trials,
        seed=int(seed) if isinstance(seed, np.integer) else seed,  # numpy integers as int, for JSON
        lattice=[{"sigma": s.sigma, "n": s.n, "beta": s.beta} for s in lattice],
        grid={"radii": list(RADII), "angular_samples": ANGULAR_SAMPLES, "tolerance": GRID_TOLERANCE},
        notes=margins.notes,
    )


def run_all(lattice=None, trials: int = 200, seed: int = 0) -> list:
    """Run every suite in id order, on one lattice, the default one built once when lattice is None."""
    lattice = default_lattice() if lattice is None else tuple(lattice)
    return [run_suite(key, lattice, trials, seed) for key in SUITE_ORDER]
