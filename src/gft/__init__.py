"""Truncated power series, disk convolution operators, and sharp-bound verification.

Submodules load on first use (PEP 562): each public name below is read from
its home module the first time it is accessed, and then kept here, so
`import gft` compiles and runs none of them.  `gft.verify`, `gft.classes`
and the other submodules load the same way, on first attribute access.
_Frozen, the base of every value type, and the argument rules _count and
_real live here, so each layer shares them without loading another.
"""

import importlib
import numbers

__version__ = "0.1.0"

# Home module of every public name.
_HOMES = {
    "bounds": ("ClassSpec", "bounds_rows", "default_lattice", "write_bounds_csv"),
    "classes": (
        "MembershipResult",
        "covering_constant",
        "distortion_bounds",
        "extremal_B_lower",
        "extremal_B_upper",
        "growth_bounds",
        "inflate_to_non_member",
        "is_in_B",
        "membership_in_B",
        "membership_in_B_direct",
        "membership_in_P",
        "membership_in_iterated_P",
        "min_re_on_circle",
        "random_member_B",
    ),
    "kernels": ("OperatorParams", "multiplier", "pochhammer"),
    "operators": (
        "apply_L",
        "apply_l",
        "bernardi",
        "deiterate",
        "extremal_iterate",
        "iterate_closed",
        "iterate_quadrature_step",
        "iterate_step_closed",
        "noor",
        "recurrence_residual",
        "ruscheweyh",
        "salagean_iterate",
        "tau_coeffs",
        "tau_inv_coeffs",
    ),
    "series": (
        "HerglotzMixture",
        "SchlichtSeries",
        "TruncatedSeries",
        "combine_convex",
        "convolve",
        "default_order",
        "differentiate",
        "evaluate",
        "from_json",
        "herglotz_expand",
        "shift_to_beta",
        "to_json",
    ),
    "verify": ("VerificationReport", "run_all", "run_suite"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = ("bounds", "classes", "cli", "kernels", "operators", "series", "verify")

__all__ = sorted(_HOME)


class _Frozen:
    """Base of gft's value types: each __init__ sets its __slots__ once, through object.__setattr__."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _count(value, name: str, least: int, most: int | None = None) -> int:
    """A count argument as an int: a non-bool integer or integral float in [least, most], else a named ValueError."""
    try:
        count = int(value)
    except (TypeError, ValueError, OverflowError):  # NaN, an infinity or not a number
        count = float("nan")  # equal to no value, so it is refused below
    # a bool, numpy's too, is no count, nor is an array, which count != value would compare elementwise
    refused = isinstance(value, bool) or getattr(value, "dtype", None) == bool or getattr(value, "ndim", 0) > 0
    if refused or count != value or count < least or most is not None and count > most:
        bound = "" if most is None else f" and <= {most}"
        raise ValueError(f"{name} must be an integer >= {least}{bound}, got {value!r}")
    return count


def _real(value, name: str) -> float:
    """A real field as a float; a bool (numpy's too), a string or a complex value raises a ValueError naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):  # numpy's bool is no numbers.Real
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def __getattr__(name):
    """Load a public name or a submodule the first time it is asked for."""
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))
