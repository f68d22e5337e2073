"""Command-line front end.

Subcommands: kernel (expand a binomial kernel), apply (run an operator over
a normalized series file), iterate (closed-form iteration of a unit-constant
series), extremal (emit extremal series), bounds (closed-form bound table as
CSV), verify (run a theorem suite).  Exit codes: 0 success, 1 suite failure,
2 usage or validation error.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

import numpy as np

from .classes import (
    CircleGrid,
    ClassSpec,
    bounds_rows,
    extremal_B_lower,
    extremal_B_upper,
    write_bounds_csv,
)
from .kernels import OperatorParams, extremal_iterate, tau_coeffs, tau_inv_coeffs
from .operators import apply_L, apply_l, bernardi, deiterate, iterate_closed, noor, ruscheweyh
from .series import SchlichtSeries, from_json, to_json
from .verify import (
    DEFAULT_BETAS,
    DEFAULT_NS,
    DEFAULT_SIGMAS,
    SUITE_ORDER,
    default_lattice,
    run_all,
    run_suite,
)


def _joined(values) -> str:
    """Comma-separated flag default that _parse_floats reads back exactly."""
    return ",".join(map(str, values))


class _Parser(argparse.ArgumentParser):
    """Usage errors print one `prog: error: message` line and exit 2; subparsers inherit the class."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gft",
        description="Truncated-series operator calculus and sharp-bound verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    kernel = sub.add_parser("kernel", help="emit kernel coefficients as series JSON")
    kernel.add_argument("--sigma", type=float, required=True)
    kernel.add_argument("--n", type=int, required=True)
    kernel.add_argument("--order", type=int, default=None)
    kernel.add_argument("--inverse", action="store_true", help="emit the Hadamard-inverse kernel")
    kernel.add_argument("--out", default=None)

    apply_cmd = sub.add_parser("apply", help="apply an operator to a normalized series file")
    apply_cmd.add_argument("--op", required=True, choices=("L", "l", "ruscheweyh", "noor", "bernardi"))
    apply_cmd.add_argument("--sigma", type=float, default=None)
    apply_cmd.add_argument("--n", type=int, default=None)
    apply_cmd.add_argument("--c", type=float, default=None)
    apply_cmd.add_argument("--in", dest="infile", required=True)
    apply_cmd.add_argument("--out", default=None)

    iterate = sub.add_parser("iterate", help="closed-form iteration of a unit-constant series file")
    iterate.add_argument("--sigma", type=float, required=True)
    iterate.add_argument("--n", type=int, required=True)
    iterate.add_argument("--inverse", action="store_true", help="undo the iteration instead")
    iterate.add_argument("--in", dest="infile", required=True)
    iterate.add_argument("--out", default=None)

    extremal = sub.add_parser("extremal", help="emit an extremal series")
    extremal.add_argument("--family", choices=("iterate", "upper", "lower"), default="iterate")
    extremal.add_argument("--sigma", type=float, required=True)
    extremal.add_argument("--n", type=int, required=True)
    extremal.add_argument("--beta", type=float, default=0.0)
    extremal.add_argument("--sign", type=int, choices=(1, -1), default=1)
    extremal.add_argument("--order", type=int, default=None)
    extremal.add_argument("--out", default=None)

    bounds = sub.add_parser("bounds", help="closed-form bound table as CSV")
    bounds.add_argument("--sigma", default=_joined(DEFAULT_SIGMAS), help="comma-separated values")
    bounds.add_argument("--n", default=_joined(DEFAULT_NS), help="comma-separated values")
    bounds.add_argument("--beta", default=_joined(DEFAULT_BETAS), help="comma-separated values")
    bounds.add_argument("--radii", default=_joined(CircleGrid().radii), help="comma-separated values")
    bounds.add_argument("--out", default=None)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("--theorem", required=True, help=f"one of {', '.join(SUITE_ORDER)}, or 'all'")
    verify.add_argument("--trials", type=int, default=200)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--out", default=None)

    return parser


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")


def _read_schlicht(path: str) -> SchlichtSeries:
    with open(path, "r", encoding="utf-8") as handle:
        return SchlichtSeries(from_json(handle.read()))


def _parse_floats(text: str, flag: str) -> list:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"{flag} expects comma-separated numbers, got {text!r}") from exc


def _cmd_kernel(args) -> int:
    params = OperatorParams(args.sigma, args.n)
    series = tau_inv_coeffs(params, args.order) if args.inverse else tau_coeffs(params, args.order)
    _emit(to_json(series), args.out)
    return 0


def _cmd_apply(args) -> int:
    f = _read_schlicht(args.infile)
    if args.op in ("L", "l"):
        if args.sigma is None or args.n is None:
            raise ValueError(f"--op {args.op} requires --sigma and --n")
        params = OperatorParams(args.sigma, args.n)
        result = apply_L(params, f) if args.op == "L" else apply_l(params, f)
    elif args.op in ("ruscheweyh", "noor"):
        if args.sigma is None:
            raise ValueError(f"--op {args.op} requires --sigma")
        result = ruscheweyh(args.sigma, f) if args.op == "ruscheweyh" else noor(args.sigma, f)
    else:
        if args.c is None:
            raise ValueError("--op bernardi requires --c")
        result = bernardi(args.c, f)
    _emit(to_json(result), args.out)
    return 0


def _cmd_iterate(args) -> int:
    with open(args.infile, "r", encoding="utf-8") as handle:
        p = from_json(handle.read())
    params = OperatorParams(args.sigma, args.n)
    result = deiterate(params, p) if args.inverse else iterate_closed(params, p)
    _emit(to_json(result), args.out)
    return 0


def _cmd_extremal(args) -> int:
    minimum = 1 if args.family == "iterate" else 2
    if args.order is not None and args.order < minimum:
        raise ValueError(f"--order must be >= {minimum} for --family {args.family}, got {args.order}")
    if args.family == "iterate":
        series = extremal_iterate(OperatorParams(args.sigma, args.n), args.order, args.sign)
    else:
        spec = ClassSpec(OperatorParams(args.sigma, args.n), args.beta)
        maker = extremal_B_upper if args.family == "upper" else extremal_B_lower
        series = maker(spec, args.order)
    _emit(to_json(series), args.out)
    return 0


def _cmd_bounds(args) -> int:
    sigmas = _parse_floats(args.sigma, "--sigma")
    ns = _parse_floats(args.n, "--n")
    if not all(v.is_integer() for v in ns):
        raise ValueError(f"--n expects comma-separated integers, got {args.n!r}")
    betas = _parse_floats(args.beta, "--beta")
    radii = _parse_floats(args.radii, "--radii")
    if any(not 0.0 < r < 1.0 for r in radii):
        raise ValueError("--radii values must lie strictly between 0 and 1")
    specs = default_lattice(sigmas, [int(v) for v in ns], betas)
    if not specs:
        raise ValueError("no valid (sigma, n) pairs in the requested lattice")
    rows = bounds_rows(specs, radii)
    buffer = io.StringIO()
    write_bounds_csv(rows, buffer)
    _emit(buffer.getvalue(), args.out)
    return 0


def _cmd_verify(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    if args.theorem == "all":
        reports = run_all(trials=args.trials, seed=args.seed)
        text = json.dumps([r.to_dict() for r in reports], sort_keys=True, indent=2)
        failed = any(r.verdict != "pass" for r in reports)
    else:
        if str(args.theorem) not in SUITE_ORDER:
            raise ValueError(
                f"unknown theorem id {args.theorem!r}; known ids: {', '.join(SUITE_ORDER)}, all"
            )
        report = run_suite(args.theorem, trials=args.trials, seed=args.seed)
        text = report.to_json()
        failed = report.verdict != "pass"
    _emit(text, args.out)
    return 1 if failed else 0


_COMMANDS = {
    "kernel": _cmd_kernel,
    "apply": _cmd_apply,
    "iterate": _cmd_iterate,
    "extremal": _cmd_extremal,
    "bounds": _cmd_bounds,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # an overflowing result is rejected as non-finite in one line; numpy's warning would add two more
        with np.errstate(over="ignore"):
            return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"gft: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
