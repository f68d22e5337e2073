"""Acceptance gate: the eleven package-level criteria, one test (and one line) each.

Each test prints "[criterion NN] PASS/FAIL - ..." before asserting, so a
plain pytest -v run gives one line per criterion and -s shows the details.
Tolerances and trial counts are fixed here on purpose; loosening them is a
behavior change, not a test tweak.
"""

import math
import subprocess
import sys
import time

import numpy as np

from gft.classes import (
    ClassSpec,
    circle_points,
    covering_constant,
    distortion_bounds,
    extremal_B_lower,
    extremal_B_upper,
    growth_bounds,
    membership_in_B,
    random_member_B,
    random_mixture,
)
from gft.kernels import OperatorParams, multiplier, multiplier_row, pochhammer
from gft.operators import (
    apply_L,
    apply_l,
    bernardi,
    iterate_closed,
    iterate_quadrature_step,
    iterate_step_closed,
    recurrence_residual,
    salagean_iterate,
)
from gft.series import (
    SchlichtSeries,
    evaluate,
    evaluate_grid,
    herglotz_expand,
    tail_bound,
)
from gft.verify import run_suite

LATTICE_PAIRS = [
    (sigma, n)
    for sigma in (0.5, 1.0, 2.0, 3.5)
    for n in (0, 1, 2, 3)
    if sigma - (n - 1) > 0.0
]
LATTICE = [
    ClassSpec(OperatorParams(sigma, n), beta)
    for sigma, n in LATTICE_PAIRS
    for beta in (0.0, 0.25, 0.5, 0.9)
]


def report(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def random_schlicht(seed, order=64):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1)
    c[0], c[1] = 0.0, 1.0
    return SchlichtSeries(c)


def test_criterion_01_multiplier_dual_formula():
    t0 = time.perf_counter()
    worst = 0.0
    for sigma in (0.5, 1.0, 2.0, 3.5, 9.0):
        for n in range(0, 9):
            if sigma - (n - 1) <= 0.0:
                continue
            for k in range(1, 65):
                direct = multiplier(sigma, n, k)
                ratio = pochhammer(sigma - n + 1.0, k) / pochhammer(sigma + 1.0, k)
                worst = max(worst, abs(direct - ratio) / abs(ratio))
    elapsed = time.perf_counter() - t0
    report(1, worst <= 1e-12 and elapsed < 1.0,
           f"dual formula rel err {worst:.2e} (tol 1e-12), {elapsed:.2f}s < 1s")


def test_criterion_02_raise_lower_round_trip():
    t0 = time.perf_counter()
    worst = 0.0
    for t in range(200):
        f = random_schlicht((2, t))
        for sigma, n in LATTICE_PAIRS:
            params = OperatorParams(sigma, n)
            back_a = apply_l(params, apply_L(params, f))
            back_b = apply_L(params, apply_l(params, f))
            worst = max(worst, float(np.max(np.abs(back_a.coeffs - f.coeffs))))
            worst = max(worst, float(np.max(np.abs(back_b.coeffs - f.coeffs))))
    elapsed = time.perf_counter() - t0
    report(2, worst <= 1e-12 and elapsed < 5.0,
           f"round-trip residual {worst:.2e} on 200 series x {len(LATTICE_PAIRS)} pairs "
           f"(tol 1e-12), {elapsed:.2f}s < 5s")


def test_criterion_03_closed_form_vs_quadrature():
    t0 = time.perf_counter()
    steps = sorted({(sigma, m) for sigma, n in LATTICE_PAIRS for m in range(1, n + 1)})
    worst = 0.0
    for si, (sigma, m) in enumerate(steps):
        for pt in range(20):
            rng = np.random.default_rng((3, si, pt))
            p = herglotz_expand(random_mixture(rng), 32)
            closed = iterate_step_closed(sigma, m, p)
            radii = 0.8 * np.sqrt(rng.uniform(0.01, 1.0, 10))
            angles = rng.uniform(0.0, 2.0 * np.pi, 10)
            for z in radii * np.exp(1j * angles):
                diff = abs(iterate_quadrature_step(sigma, m, p, z) - evaluate(closed, z))
                worst = max(worst, diff)
    elapsed = time.perf_counter() - t0
    report(3, worst <= 1e-8 and elapsed < 30.0,
           f"quadrature vs coefficient action {worst:.2e} over {len(steps)} steps "
           f"(tol 1e-8), {elapsed:.2f}s < 30s")


def test_criterion_04_coefficient_bound_and_sharpness():
    worst_violation = -math.inf
    for t in range(1000):
        spec = LATTICE[t % len(LATTICE)]
        f = random_member_B(spec, (4, t))
        bound = 2.0 * (1.0 - spec.beta) * multiplier_row(spec.sigma, spec.n, f.order - 1)
        worst_violation = max(worst_violation, float(np.max(np.abs(f.coeffs[2:]) - bound)))
    worst_gap = 0.0
    for spec in LATTICE:
        ext = extremal_B_upper(spec, order=64)
        bound = 2.0 * (1.0 - spec.beta) * multiplier_row(spec.sigma, spec.n, 63)
        worst_gap = max(worst_gap, float(np.max(np.abs(np.abs(ext.coeffs[2:]) - bound))))
    report(4, worst_violation <= 1e-12 and worst_gap <= 1e-12,
           f"1000 members: worst bound violation {worst_violation:.2e}; "
           f"extremal equality gap {worst_gap:.2e} for k <= 64 (tol 1e-12)")


def test_criterion_05_recurrence_and_distortion_samples():
    worst = 0.0
    for idx, (sigma, n) in enumerate(LATTICE_PAIRS):
        if n < 1:
            continue
        rng = np.random.default_rng((5, idx))
        prev = herglotz_expand(random_mixture(rng), 64)
        for m in range(1, n + 1):
            cur = iterate_step_closed(sigma, m, prev)
            worst = max(worst, recurrence_residual(OperatorParams(sigma, m), cur, prev))
            prev = cur
    m_val, big_m = distortion_bounds(ClassSpec(OperatorParams(1.0, 1)), 0.5)
    ok = worst <= 1e-12 and abs(big_m - 3.0) <= 1e-12 and abs(m_val - 1.0 / 3.0) <= 1e-12
    report(5, ok,
           f"chain recurrence residual {worst:.2e} (tol 1e-12); "
           f"M={big_m:.12f}, m={m_val:.12f} vs 3 and 1/3")


def test_criterion_06_covering_constant():
    spec = ClassSpec(OperatorParams(1.0, 1))
    constant = covering_constant(spec)
    closed = 2.0 * math.log(2.0) - 1.0
    f = extremal_B_lower(spec, order=8192)
    min_mod = float(np.min(np.abs(evaluate_grid(f, circle_points(0.999, 720)))))
    ok = abs(constant - closed) <= 1e-6 and abs(min_mod - constant) <= 5e-3
    report(6, ok,
           f"covering {constant:.8f} vs 2ln2-1 (err {abs(constant - closed):.2e}, tol 1e-6); "
           f"extremal min modulus at r=0.999 off by {abs(min_mod - constant):.2e} (tol 5e-3)")


def test_criterion_07_growth_bounds():
    spec = ClassSpec(OperatorParams(1.0, 1))
    lower, upper = growth_bounds(spec, 0.5)
    u_err = abs(upper - (2.0 * math.log(2.0) - 0.5))
    l_err = abs(lower - (2.0 * math.log(1.5) - 0.5))
    worst = math.inf
    for t in range(200):
        f = random_member_B(spec, (7, t))
        # f = z (1 + p): each dropped a_k = p_{k-1} is at most 2 multiplier(1, 1, order - 1)
        tail = 0.5 * tail_bound(2.0 * multiplier(1.0, 1, f.order - 1), f.order - 1, 0.5)
        vals = np.abs(evaluate_grid(f, circle_points(0.5, 720)))
        worst = min(worst, upper + 1e-9 - float(vals.max()))
        worst = min(worst, float(vals.min()) - lower + tail + 1e-9)
    ok = u_err <= 1e-6 and l_err <= 1e-6 and worst >= 0.0
    report(7, ok,
           f"upper/lower errs {u_err:.2e}/{l_err:.2e} (tol 1e-6); "
           f"200 members inside the exact envelope less one member tail, worst margin {worst:.2e}")


def test_criterion_08_integral_mean_closure():
    entries = [s for s in LATTICE if s.sigma - s.n > 0.0 and s.n < s.sigma + 1.0]
    worst = math.inf
    for t in range(200):
        spec = entries[t % len(entries)]
        f = random_member_B(spec, (8, t))
        transformed = bernardi(spec.sigma - spec.n - 1.0, f)
        worst = min(worst, membership_in_B(transformed, spec).margin)
    report(8, worst >= 0.0,
           f"200 transformed members stay in class, worst padded margin {worst:.2e}")


def test_criterion_09_inclusions_and_convexity():
    inclusion = [run_suite(key, trials=200, seed=9) for key in ("2", "5")]
    convexity = [run_suite(key, trials=200, seed=9) for key in ("4", "12")]
    ok = all(r.verdict == "pass" for r in inclusion + convexity)
    margins = ", ".join(f"{r.theorem}:{r.worst_margin:.2e}" for r in inclusion + convexity)
    report(9, ok, f"200-trial inclusion and convexity suites pass ({margins})")


def test_criterion_10_single_step_transform_identity():
    sigmas = (0.5, 1.0, 2.0, 3.5)
    worst = 0.0
    for t in range(100):
        sigma = sigmas[t % len(sigmas)]
        p = herglotz_expand(random_mixture(np.random.default_rng((10, t))), 64)
        a = iterate_closed(OperatorParams(sigma, 1), p)
        b = salagean_iterate(sigma, 1, p)
        worst = max(worst, float(np.max(np.abs(a.coeffs - b.coeffs))))
    report(10, worst <= 1e-12,
           f"one-step iterate vs single-parameter transform {worst:.2e} on 100 inputs (tol 1e-12)")


def test_criterion_11_verify_determinism():
    cmd = [sys.executable, "-m", "gft.cli", "verify", "--theorem", "7", "--seed", "42"]
    first = subprocess.run(cmd, capture_output=True, timeout=300)
    second = subprocess.run(cmd, capture_output=True, timeout=300)
    ok = first.returncode == 0 and second.returncode == 0 and first.stdout == second.stdout
    report(11, ok,
           f"two verify runs byte-identical ({len(first.stdout)} bytes, exit {first.returncode})")
