"""Command-line front end.

Subcommands: kernel (expand a binomial kernel), apply (run an operator over
a normalized series file), iterate (closed-form iteration of a unit-constant
series), extremal (emit extremal series), bounds (closed-form bound table as
CSV), verify (run a theorem suite).  Exit codes: 0 success, 1 suite failure,
2 usage or validation error, an order too large to allocate included.

Each subcommand imports the parts of gft it uses when it runs, so `gft
bounds` loads only gft.bounds and gft.kernels, and never the series,
operator, class-test or verification code.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

import numpy as np


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
    # each family reads one of these two flags; the other is rejected, not ignored
    extremal.add_argument("--beta", type=float, default=None, help="class level of upper and lower (default 0)")
    extremal.add_argument("--sign", type=int, choices=(1, -1), default=None, help="sign of iterate (default 1)")
    extremal.add_argument("--order", type=int, default=None)
    extremal.add_argument("--out", default=None)

    bounds = sub.add_parser("bounds", help="closed-form bound table as CSV")
    # the defaults are the lattice and radii of gft.bounds, filled in by _cmd_bounds
    for flag in ("--sigma", "--n", "--beta", "--radii"):
        bounds.add_argument(flag, default=None, help="comma-separated values")
    bounds.add_argument("--out", default=None)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument(
        "--theorem",
        required=True,
        help="a suite id, such as 7 or remark22, or 'all'; an unknown id lists the known ones",
    )
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
    from .series import SchlichtSeries, from_json

    with open(path, "r", encoding="utf-8") as handle:
        return SchlichtSeries(from_json(handle.read()).coeffs)


def _parse_floats(text: str | None, flag: str, default) -> list:
    """A flag's comma-separated numbers, or its default values when the flag is absent; an empty list is an error."""
    if text is None:
        return [float(v) for v in default]
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"{flag} expects comma-separated numbers, got {text!r}") from exc
    if not values:
        raise ValueError(f"{flag} needs at least one value, got {text!r}")
    return values


def _cmd_kernel(args) -> int:
    from .kernels import OperatorParams
    from .operators import tau_coeffs, tau_inv_coeffs
    from .series import to_json

    params = OperatorParams(args.sigma, args.n)
    series = tau_inv_coeffs(params, args.order) if args.inverse else tau_coeffs(params, args.order)
    _emit(to_json(series), args.out)
    return 0


def _cmd_apply(args) -> int:
    from .kernels import OperatorParams
    from .operators import apply_L, apply_l, bernardi, noor, ruscheweyh
    from .series import to_json

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
    from .kernels import OperatorParams
    from .operators import deiterate, iterate_closed
    from .series import from_json, to_json

    with open(args.infile, "r", encoding="utf-8") as handle:
        p = from_json(handle.read())
    params = OperatorParams(args.sigma, args.n)
    result = deiterate(params, p) if args.inverse else iterate_closed(params, p)
    _emit(to_json(result), args.out)
    return 0


def _cmd_extremal(args) -> int:
    from .classes import ClassSpec, extremal_B_lower, extremal_B_upper
    from .kernels import OperatorParams
    from .operators import extremal_iterate
    from .series import to_json

    minimum = 1 if args.family == "iterate" else 2
    if args.order is not None and args.order < minimum:
        raise ValueError(f"--order must be >= {minimum} for --family {args.family}, got {args.order}")
    if args.family == "iterate":
        if args.beta is not None:
            raise ValueError("--beta does not apply to --family iterate")
        series = extremal_iterate(OperatorParams(args.sigma, args.n), args.order, args.sign or 1)
    else:
        if args.sign is not None:
            raise ValueError(f"--sign does not apply to --family {args.family}")
        spec = ClassSpec(OperatorParams(args.sigma, args.n), 0.0 if args.beta is None else args.beta)
        maker = extremal_B_upper if args.family == "upper" else extremal_B_lower
        series = maker(spec, args.order)
    _emit(to_json(series), args.out)
    return 0


def _cmd_bounds(args) -> int:
    from .bounds import (
        DEFAULT_BETAS,
        DEFAULT_NS,
        DEFAULT_SIGMAS,
        RADII,
        bounds_rows,
        default_lattice,
        write_bounds_csv,
    )

    sigmas = _parse_floats(args.sigma, "--sigma", DEFAULT_SIGMAS)
    ns = _parse_floats(args.n, "--n", DEFAULT_NS)
    if not all(v.is_integer() for v in ns):
        raise ValueError(f"--n expects comma-separated integers, got {args.n!r}")
    betas = _parse_floats(args.beta, "--beta", DEFAULT_BETAS)
    radii = _parse_floats(args.radii, "--radii", RADII)
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
    from .verify import SUITE_ORDER, run_all, run_suite

    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    if args.theorem == "all":
        reports = run_all(trials=args.trials, seed=args.seed)
        text = json.dumps([r.to_dict() for r in reports], sort_keys=True, indent=2, allow_nan=False)
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
    except (ValueError, OSError, MemoryError) as exc:
        print(f"gft: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
