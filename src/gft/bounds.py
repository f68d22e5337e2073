"""The closed-form bound layer: class labels, the default lattice, and the growth, distortion and covering bounds.

Every bound is an affine image of one untruncated series, multiplier_series,
S(x) = sum_{k >= 1} multiplier(sigma, n, k) x**k, so it carries no truncation
order and no tail pad.  The radial ones are built in one place,
envelope_table, one series per (sigma, n) pair over all radii; `gft bounds`
prints that table through bounds_rows and write_bounds_csv, and the
verification suites check members and extremals against it.  The layer
needs only gft.kernels, for OperatorParams, the multiplier domain and the
quadrature nodes, so `gft bounds` loads no series, operator, class-test or
suite code.
"""

from __future__ import annotations

import numpy as np

from . import _Frozen, _real
from .kernels import _QUADRATURE_NODES, OperatorParams, _check_multiplier_params

# The fixed circle grid every membership test samples: radii, points per circle, slack.
RADII = (0.5, 0.9, 0.99)
ANGULAR_SAMPLES = 720
GRID_TOLERANCE = 1e-9

# The default (sigma, n, beta) lattice of `gft bounds` and the verification suites.
DEFAULT_SIGMAS = (0.5, 1.0, 2.0, 3.5)
DEFAULT_NS = (0, 1, 2, 3)
DEFAULT_BETAS = (0.0, 0.25, 0.5, 0.9)


class ClassSpec(_Frozen):
    """Class label (sigma, n, beta): members have raised ratio with real part above beta; equal labels are one key."""

    __slots__ = ("params", "beta")

    def __init__(self, params: OperatorParams, beta: float = 0.0) -> None:
        beta = _real(beta, "beta")
        if not 0.0 <= beta < 1.0:
            raise ValueError("beta must lie in [0, 1)")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "beta", beta)

    def __eq__(self, other):
        return (self.params, self.beta) == (other.params, other.beta) if type(other) is ClassSpec else NotImplemented

    def __hash__(self) -> int:
        return hash((self.params, self.beta))

    @property
    def sigma(self) -> float:
        return self.params.sigma

    @property
    def n(self) -> int:
        return self.params.n


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


def multiplier_series(sigma: float, n: int, x) -> np.ndarray:
    """S(x) = sum_{k >= 1} multiplier(sigma, n, k) x**k, untruncated, for -1 <= x < 1 (array x too).

    Geometric for n = 0 and n = -1.  For n >= 1, Euler's integral (DLMF 15.6.1)
    gives S(x) = x a / (a + n) E[1 / (1 - x T)] with a = sigma - n + 1 and
    T ~ Beta(a + 1, n): a ratio of two integrals of t**a (1 - t)**(n - 1).
    For n >= 2 both are split at the weight's mode m = a / (a + n - 1), and
    [0, m] and [m, 1] each carry the panels of _QUADRATURE_NODES, which halve
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
    t, s, w, _ = _QUADRATURE_NODES
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
    # one x at a time into one buffer, so no temporary grows with x
    sums, row = np.empty(x.shape), np.empty_like(s)
    for i, xi in enumerate(x.flat):
        np.multiply(xi, s, out=row)
        row += 1.0 - xi
        np.divide(weight, row, out=row)
        sums.flat[i] = row.sum()
    return x * a / (sigma + 1.0) * (sums / np.sum(weight))


def _shift(beta: float, s):
    """1 + 2 (1 - beta) s: a bound of the class at beta from a multiplier series value s."""
    return 1.0 + 2.0 * (1.0 - beta) * s


def by_pair(specs) -> dict:
    """The indices of the specs of each (sigma, n), keyed by its OperatorParams in order of first appearance."""
    groups: dict = {}
    for i, spec in enumerate(specs):
        groups.setdefault(spec.params, []).append(i)
    return groups


def envelope_table(specs, depth: int, r, factor) -> np.ndarray:
    """factor (1 + 2 (1 - beta) S_{n + depth}(x)) at x = -r and x = +r for each spec: the shape of every radial bound.

    The table has shape (2, len(specs), *r.shape), lower then upper, and factor broadcasts against
    (len(specs), *r.shape).  Every bound is an affine map of a series that depends on (sigma, n) alone, so
    each pair's series comes from one multiplier_series call over all radii and is mapped for each of its
    specs; each value is bit-identical to the call for its spec and radius alone.  An overflow names the
    first overflowing spec and its first overflowing radius.
    """
    radii = np.asarray(r, dtype=np.float64)
    if not np.all((radii > 0.0) & (radii < 1.0)):
        raise ValueError("radius must lie strictly between 0 and 1")
    series = np.empty((2, len(specs), *radii.shape))
    for params, group in by_pair(specs).items():
        series[:, group] = multiplier_series(params.sigma, params.n + depth, np.stack([-radii, radii]))[:, None]
    betas = np.array([spec.beta for spec in specs]).reshape(-1, *(1,) * radii.ndim)
    table = factor * _shift(betas, series)
    overflow = ~np.isfinite(table[1])
    if np.any(overflow):
        i, *at = np.argwhere(overflow)[0]
        raise ValueError(f"a bound overflows at sigma={specs[i].sigma}, n={specs[i].n}, r={radii[tuple(at)]}")
    return table


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
    """Closed-form bound table, one row per (spec, radius); covering blank for n = 0.

    The m and growth columns are two envelope_table calls, as distortion_bounds and growth_bounds map them,
    and each by_pair group's covering series is computed once and mapped for each of its betas, as
    covering_constant maps it.  At n = 0 m_lower is only the alternating extremal's value, not a floor for
    the class: some members undercut it (ROADMAP item 10).
    """
    radii = np.array(radii, dtype=np.float64)
    lam = np.array([spec.sigma - (spec.n - 1) for spec in specs])[:, None]
    m, growth = envelope_table(specs, -1, radii, lam), envelope_table(specs, 0, radii, radii)
    covering = np.empty(len(specs))
    for params, group in by_pair(specs).items():
        covering[group] = multiplier_series(params.sigma, params.n, -1.0) if params.n >= 1 else np.nan
    rows = []
    for i, spec in enumerate(specs):
        cov = float(_shift(spec.beta, covering[i])) if spec.n >= 1 else None
        columns = [radii, *m[:, i], *growth[:, i]]
        for values in zip(*(column.tolist() for column in columns)):
            rows.append(dict(zip(BOUNDS_COLUMNS, (spec.sigma, spec.n, spec.beta, *values, cov))))
    return rows


def write_bounds_csv(rows, stream) -> None:
    """Write bound rows as CSV with the fixed column order; None becomes empty.

    Every field is a column name, a number's repr or empty, none of which needs quoting, so each line is
    its fields joined by commas, the bytes csv.writer would write.
    """
    stream.write(",".join(BOUNDS_COLUMNS) + "\n")
    for row in rows:
        stream.write(",".join("" if row[key] is None else repr(row[key]) for key in BOUNDS_COLUMNS) + "\n")
