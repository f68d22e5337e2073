"""Every count argument follows one rule: an integer, or an integral float, of at least its least value.

A bool, a non-integral value, NaN, an infinity, a value below the least one or an array raises one ValueError
that names the argument, and numpy integers and integral floats give the same result as the plain integer.
"""

import math
import pickle
import re

import numpy as np
import pytest

from gft.bounds import ClassSpec, multiplier_series
from gft.classes import circle_points, extremal_B_lower, extremal_B_upper, min_re_on_circle, random_member_B
from gft.kernels import OperatorParams, multiplier, multiplier_row, pochhammer
from gft.operators import (
    extremal_iterate,
    iterate_quadrature_step,
    iterate_step_closed,
    salagean_iterate,
    tau_coeffs,
)
from gft.series import HerglotzMixture, TruncatedSeries, evaluate_circle, evaluate_circle_real, herglotz_expand
from gft.verify import run_suite

_PARAMS = OperatorParams(2.5, 1)
_SPEC = ClassSpec(_PARAMS, 0.25)
_MIXTURE = HerglotzMixture(((1.0, 0.5), (1j, 0.5)))
_UNIT = TruncatedSeries(np.r_[1.0, np.linspace(-1.0, 1.0, 9)])

# (argument name, its least value, a valid count, a call with the count as its only free argument)
_COUNTS = {
    "OperatorParams-n": ("n", 0, 2, lambda v: OperatorParams(2.5, v)),
    "pochhammer-n": ("n", 0, 3, lambda v: pochhammer(2.5, v)),
    "multiplier-n": ("n", -1, 2, lambda v: multiplier(2.5, v, 5)),
    "multiplier-k": ("k", 1, 5, lambda v: multiplier(2.5, 1, v)),
    "multiplier_row-n": ("n", -1, 2, lambda v: multiplier_row(2.5, v, 5)),
    "multiplier_row-kmax": ("kmax", 1, 5, lambda v: multiplier_row(2.5, 1, v)),
    "multiplier_series-n": ("n", -1, 2, lambda v: multiplier_series(2.5, v, np.array([-1.0, 0.5]))),
    "tau_coeffs-order": ("order", 1, 6, lambda v: tau_coeffs(_PARAMS, v)),
    "extremal_iterate-order": ("order", 1, 6, lambda v: extremal_iterate(_PARAMS, v, -1)),
    "salagean_iterate-n": ("n", 0, 2, lambda v: salagean_iterate(1.5, v, _UNIT)),
    "iterate_step_closed-m": ("m", 1, 2, lambda v: iterate_step_closed(2.5, v, _UNIT)),
    "iterate_quadrature_step-m": ("m", 1, 2, lambda v: iterate_quadrature_step(2.5, v, _UNIT, 0.3 + 0.2j)),
    "herglotz_expand-order": ("order", 1, 6, lambda v: herglotz_expand(_MIXTURE, v)),
    "evaluate_circle-samples": ("samples", 1, 7, lambda v: evaluate_circle(_UNIT, [0.5, 0.9], v)),
    "evaluate_circle_real-samples": ("samples", 1, 7, lambda v: evaluate_circle_real(_UNIT, [0.5, 0.9], v)),
    "min_re_on_circle-samples": ("samples", 1, 7, lambda v: min_re_on_circle(_UNIT, 0.5, v)),
    "circle_points-samples": ("samples", 1, 7, lambda v: circle_points(0.5, v)),
    "random_member_B-order": ("order", 2, 6, lambda v: random_member_B(_SPEC, 0, v)),
    "extremal_B_upper-order": ("order", 2, 6, lambda v: extremal_B_upper(_SPEC, v)),
    "extremal_B_lower-order": ("order", 2, 6, lambda v: extremal_B_lower(_SPEC, v)),
    "run_suite-trials": ("trials", 1, 2, lambda v: run_suite("3", trials=v)),
}


@pytest.mark.parametrize("site", _COUNTS)
def test_count_arguments_follow_one_rule(site):
    name, least, k, call = _COUNTS[site]
    for bad in (2.7, True, np.True_, math.nan, math.inf, least - 1, np.array([3, 4])):
        with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be an integer >= {least}')}"):
            call(bad)
    expected = pickle.dumps(call(k))
    assert pickle.dumps(call(np.int64(k))) == expected
    assert pickle.dumps(call(float(k))) == expected
