"""One benchmark invocation in a fresh process.

Protocol on stdout: the line ``ready`` once gft is imported, then one JSON
object.  Untraced, it holds the host's speed, each calibration kernel's
mean time and the time they took (calibrate.py); with a workload, also its
exit code and output text (hashed and checked by run.py).  Traced, it holds
the exit code, the output, per-span-name self times and work counts, and
no calibration.

    python3 perfbench/child.py WORKLOAD SEED TRACE     # TRACE is 0 or 1
    python3 perfbench/child.py --setup-only
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import numpy as np

import calibrate
import gft
import gft.cli

# member-sweep uses the CLI's default trial count; one invocation then takes
# 1.3-2.5 s on a 2-vCPU Xeon VM, so a run holds about ten of them.
MEMBER_TRIALS = 200
MEMBER_SUITES = ("1", "2", "3", "4", "5", "7", "8", "9", "11", "12", "remark22")

# The 7 valid (sigma, m) integration steps of the default lattice.
QUAD_STEPS = ((0.5, 1), (1.0, 1), (2.0, 1), (2.0, 2), (3.5, 1), (3.5, 2), (3.5, 3))
QUAD_POINTS_PER_STEP = 24
QUAD_ORDER = 64


def run_cli(argv) -> tuple:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = gft.cli.main(argv)
    return code, buffer.getvalue()


def verify_all(seed: int) -> tuple:
    return run_cli(["verify", "--theorem", "all", "--trials", "200", "--seed", str(seed)])


def bounds_table(seed: int) -> tuple:
    return run_cli(["bounds"])


def member_sweep(seed: int) -> tuple:
    reports = [gft.verify.run_suite(key, trials=MEMBER_TRIALS, seed=seed) for key in MEMBER_SUITES]
    return 0, json.dumps([r.to_dict() for r in reports], sort_keys=True)


def _mixture(rng: np.random.Generator) -> gft.HerglotzMixture:
    count = int(rng.integers(1, 9))
    angles = rng.uniform(0.0, 2.0 * np.pi, count)
    w = rng.random(count) + 1e-9
    w /= w.sum()
    w[-1] = 1.0 - float(w[:-1].sum())
    return gft.HerglotzMixture(tuple((complex(np.exp(1j * a)), float(x)) for a, x in zip(angles, w)))


def quadrature_check(seed: int) -> tuple:
    """Quadrature against closed form; each row is [re, im, |quadrature - closed|]."""
    rng = np.random.default_rng((seed, 0x9AD))
    rows = []
    for sigma, m in QUAD_STEPS:
        for _ in range(QUAD_POINTS_PER_STEP):
            p = gft.herglotz_expand(_mixture(rng), QUAD_ORDER)
            z = 0.8 * np.sqrt(rng.uniform(0.01, 1.0)) * np.exp(2j * np.pi * rng.random())
            quad = gft.operators.iterate_quadrature_step(sigma, m, p, z)
            closed = gft.series.evaluate(gft.operators.iterate_step_closed(sigma, m, p), z)
            rows.append([quad.real, quad.imag, abs(quad - closed)])
    return 0, json.dumps(rows)


WORKLOADS = {
    "verify-all": verify_all,
    "bounds-table": bounds_table,
    "member-sweep": member_sweep,
    "quadrature-check": quadrature_check,
}


def main(argv) -> int:
    print("ready", flush=True)
    result = {}
    if argv[2:] == ["1"]:
        import spans

        recorder = spans.Recorder()
        recorder.install()
        result["exit"], result["output"] = WORKLOADS[argv[0]](int(argv[1]))
        result["self_s"] = spans.self_times(recorder.spans)
        result["counts"] = recorder.counts
    else:
        calibrator = calibrate.Calibrator()
        calibrator.block()
        if argv != ["--setup-only"]:
            calibrator.start_ticks()
            try:
                result["exit"], result["output"] = WORKLOADS[argv[0]](int(argv[1]))
            finally:
                calibrator.stop_ticks()
            calibrator.block()
        result.update(speed=calibrator.speed(), cal_s=calibrator.spent_s, kernel_s=calibrator.means())
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
