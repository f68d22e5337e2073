"""Series layer: construction contracts, Hadamard arithmetic, evaluation, JSON."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gft.classes import ClassSpec, circle_points, extremal_B_lower
from gft.kernels import OperatorParams
from gft.operators import apply_L, bernardi, salagean_iterate
from gft.series import (
    HerglotzMixture,
    SchlichtSeries,
    TruncatedSeries,
    combine_convex,
    convolve,
    default_order,
    differentiate,
    evaluate,
    evaluate_circle,
    evaluate_circle_real,
    evaluate_grid,
    from_json,
    herglotz_expand,
    require_unit_constant,
    shift_to_beta,
    tail_bound,
    to_json,
)


def test_default_order_env_override(monkeypatch):
    monkeypatch.setenv("GFT_DEFAULT_ORDER", "32")
    assert default_order() == 32
    for bad in ("1", "abc", "-5", "2.5", ""):
        monkeypatch.setenv("GFT_DEFAULT_ORDER", bad)
        with pytest.raises(ValueError, match=f"GFT_DEFAULT_ORDER must be an integer >= 2, got '{bad}'"):
            default_order()
    monkeypatch.delenv("GFT_DEFAULT_ORDER")
    assert default_order() == 64


def test_tail_bound_geometric_value():
    # 2 * 0.5**5 / (1 - 0.5), exact in binary
    assert tail_bound(2.0, 4, 0.5) == 0.125


def test_truncated_series_needs_two_coefficients():
    with pytest.raises(ValueError):
        TruncatedSeries(np.array([1.0]))
    s = TruncatedSeries(np.array([1.0, 2.0]))
    assert s.order == 1


def test_truncated_series_rejects_nonfinite():
    with pytest.raises(ValueError):
        TruncatedSeries(np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        TruncatedSeries(np.array([np.nan, 1.0]))


def test_coefficients_are_read_only():
    s = TruncatedSeries(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        s.coeffs[0] = 5.0


def test_truncated_copy_and_noop():
    s = TruncatedSeries(np.arange(6, dtype=float))
    assert s.truncated(2).order == 2
    assert np.array_equal(s.truncated(2).coeffs, s.coeffs[:3])
    assert s.truncated(10) is s


def test_schlicht_normalization_is_exact():
    f = SchlichtSeries([0.0, 1.0, 0.5])
    assert f.order == 2 and f.coeffs[1] == 1.0
    with pytest.raises(ValueError):
        SchlichtSeries([1e-16, 1.0, 0.5])
    with pytest.raises(ValueError):
        SchlichtSeries([0.0, 1.0 + 1e-12, 0.5])
    with pytest.raises(ValueError):
        SchlichtSeries([1.0, 1.0])


def test_schlicht_series_is_a_truncated_series_and_operators_keep_it_normalized():
    f = SchlichtSeries([0.0, 1.0, 0.5, -0.25j])
    assert isinstance(f, TruncatedSeries)
    with pytest.raises(ValueError):
        SchlichtSeries([0.0, np.nan, 0.5])  # the series checks run first
    for g in (apply_L(OperatorParams(2.0, 1), f), bernardi(1.0, f), f.truncated(2)):
        assert type(g) is SchlichtSeries
    assert np.array_equal(f.truncated(2).coeffs, f.coeffs[:3])


def test_mixture_validation():
    HerglotzMixture(((1.0 + 0.0j, 0.5), (-1.0 + 0.0j, 0.5)))
    with pytest.raises(ValueError):
        HerglotzMixture(())
    with pytest.raises(ValueError):
        HerglotzMixture(((0.5 + 0.0j, 1.0),))  # atom off the circle
    with pytest.raises(ValueError):
        HerglotzMixture(((1.0 + 0.0j, -0.25), (-1.0 + 0.0j, 1.25)))
    with pytest.raises(ValueError):
        HerglotzMixture(((1.0 + 0.0j, 0.7),))  # weights must sum to 1


_UNIT = TruncatedSeries(np.r_[1.0, np.full(8, 2.0)])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: HerglotzMixture(((complex(np.nan), 1.0),)), "atom locations must lie on the unit circle"),
        (lambda: HerglotzMixture(((1.0, 0.5), (-1.0, np.nan))), "atom weights must be nonnegative and sum to 1"),
        (lambda: combine_convex(np.nan, _UNIT, 1.0, _UNIT), "weights must be nonnegative and sum to 1"),
        (lambda: salagean_iterate(np.nan, 1, _UNIT), "require a finite alpha > 0"),
        (lambda: salagean_iterate(np.inf, 1, _UNIT), "require a finite alpha > 0"),
        (lambda: salagean_iterate(1.0, np.nan, _UNIT), "n must be an integer >= 0, got nan"),
        (lambda: salagean_iterate(1.0, np.inf, _UNIT), "n must be an integer >= 0, got inf"),
    ],
    ids=["atom-nan", "weight-nan", "mu-nan", "alpha-nan", "alpha-inf", "n-nan", "n-inf"],
)
def test_validators_reject_nan_and_inf(build, message):
    """A NaN or infinite parameter fails its own check with its one-line message, before numpy can warn."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            build()
    assert str(info.value) == message


def test_convolve_with_all_ones_is_identity():
    f = TruncatedSeries(np.array([0.0, 1.0, -2.0, 3.5j]))
    ones = TruncatedSeries(np.ones(4))
    assert np.array_equal(convolve(f, ones).coeffs, f.coeffs)


def test_convolve_truncates_to_smaller_order():
    f = TruncatedSeries(np.arange(8, dtype=float))
    g = TruncatedSeries(np.ones(4))
    out = convolve(f, g)
    assert out.order == 3
    assert np.array_equal(out.coeffs, f.coeffs[:4])


small_coeffs = st.lists(
    st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=12,
)


@given(small_coeffs, small_coeffs)
@settings(max_examples=100, deadline=None)
def test_convolve_commutes(a, b):
    # fused-multiply paths make the product commutative only up to an ulp
    f, g = TruncatedSeries(np.array(a)), TruncatedSeries(np.array(b))
    assert np.allclose(convolve(f, g).coeffs, convolve(g, f).coeffs, rtol=5e-16, atol=1e-300)


@given(small_coeffs, small_coeffs, small_coeffs)
@settings(max_examples=100, deadline=None)
def test_convolve_associates(a, b, c):
    f, g, h = (TruncatedSeries(np.array(v)) for v in (a, b, c))
    left = convolve(convolve(f, g), h).coeffs
    right = convolve(f, convolve(g, h)).coeffs
    assert np.allclose(left, right, rtol=1e-13, atol=1e-300)


def test_evaluate_geometric_partial_sum():
    s = TruncatedSeries(np.ones(33))
    assert evaluate(s, 0.5) == pytest.approx(2.0 - 0.5**32, rel=1e-15)


def test_evaluate_rejects_boundary_points():
    s = TruncatedSeries(np.ones(3))
    with pytest.raises(ValueError):
        evaluate(s, 1.0)
    with pytest.raises(ValueError):
        evaluate_grid(s, [0.5, 1.0j])
    # a NaN compares False both ways, so the checks are written to fail it
    for z in (np.nan, complex(0.5, np.nan)):
        with pytest.raises(ValueError, match="must satisfy"):
            evaluate(s, z)
        with pytest.raises(ValueError, match="must satisfy"):
            evaluate_grid(s, [z, 0.5])


@given(order=st.integers(1, 200), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_evaluate_grid_equals_the_allocating_horner_loop(order, seed):
    """The in-place loop gives the bytes of acc = acc * pts + c, at 0 and at points near the unit circle."""
    rng = np.random.default_rng(seed)
    s = TruncatedSeries(rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1))
    angles = 2.0 * np.pi * rng.random(40)
    radii = np.concatenate([[0.0], rng.random(19), 1.0 - 10.0 ** -rng.uniform(3, 14, 20)])
    pts = radii * np.exp(1j * angles)
    expected = np.zeros_like(pts)
    for c in s.coeffs[::-1]:
        expected = expected * pts + c
    assert evaluate_grid(s, pts).tobytes() == expected.tobytes()


def test_evaluate_grid_matches_scalar():
    rng = np.random.default_rng(7)
    s = TruncatedSeries(rng.normal(size=9) + 1j * rng.normal(size=9))
    pts = 0.8 * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 11))
    grid = evaluate_grid(s, pts)
    for z, got in zip(pts, grid):
        assert got == pytest.approx(evaluate(s, z), rel=1e-14)


def _circle_gap(s, r, samples):
    """Largest |evaluate_circle - Horner on circle_points| over the scale sum_k |c_k| r**k."""
    gap = np.max(np.abs(evaluate_circle(s, r, samples) - evaluate_grid(s, circle_points(r, samples))))
    return gap / np.sum(np.abs(s.coeffs) * r ** np.arange(s.coeffs.size))


def test_evaluate_circle_matches_horner():
    rng = np.random.default_rng(11)
    s = TruncatedSeries(rng.normal(size=65) + 1j * rng.normal(size=65))
    for r in (0.5, 0.9, 0.99):
        assert _circle_gap(s, r, 720) <= 1e-12
    # order 8192 on 720 points folds twelve blocks of coefficients onto each sample
    lower = extremal_B_lower(ClassSpec(OperatorParams(1.0, 1)), 8192)
    assert _circle_gap(lower, 0.999, 720) <= 1e-12
    # fewer samples than coefficients, with a partial last block
    assert _circle_gap(s, 0.9, 24) <= 1e-12


def test_evaluate_circle_shapes_and_radii():
    s = TruncatedSeries(np.array([1.0, 2.0, 2.0]))
    assert evaluate_circle(s, 0.5, 16).shape == (16,)
    both = evaluate_circle(s, (0.5, 0.9), 32)
    assert both.shape == (2, 32)
    assert np.array_equal(both[1], evaluate_circle(s, 0.9, 32))
    for r in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError, match="strictly between 0 and 1"):
            evaluate_circle(s, r, 16)
    with pytest.raises(ValueError):
        evaluate_circle(s, (0.5, 1.0), 16)


@pytest.mark.parametrize("order", [64, 1000])
def test_evaluate_circle_on_a_stack_equals_per_row_calls(order):
    """Rows stack bit for bit; at order 1,000 the coefficients fold past the 720 samples."""
    rng = np.random.default_rng(order)
    rows = rng.normal(size=(5, order + 1)) + 1j * rng.normal(size=(5, order + 1))
    stacked = evaluate_circle(rows, (0.5, 0.9, 0.99), 720)
    assert stacked.shape == (5, 3, 720)
    on_one_circle = evaluate_circle(rows, 0.9, 720)
    assert on_one_circle.shape == (5, 720)
    for row, values, values_at_09 in zip(rows, stacked, on_one_circle):
        alone = evaluate_circle(TruncatedSeries(row), (0.5, 0.9, 0.99), 720)
        assert values.tobytes() == alone.tobytes()
        assert values_at_09.tobytes() == alone[1].tobytes()


@given(
    size=st.integers(2, 1500),
    samples=st.sampled_from([1, 2, 7, 64, 361, 720]),
    radii=st.sampled_from([0.5, 0.999, (0.5, 0.9, 0.99), (0.3,)]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_evaluate_circle_real_is_the_real_part(size, samples, radii, seed):
    """The half-length real FFT gives evaluate_circle's real parts, to 1e-14 of sum_k |c_k| r**k.

    Sizes reach past 2 * samples, so coefficients fold; rows stack bit for bit, and both kernels reject the
    same radii, sample counts and rows holding a NaN.
    """
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(3, size)) + 1j * rng.normal(size=(3, size))
    real = evaluate_circle_real(rows, radii, samples)
    expected = evaluate_circle(rows, radii, samples).real
    assert real.shape == expected.shape
    r = np.asarray(radii)[..., None]
    scale = (np.abs(rows).reshape(3, *(1,) * (r.ndim - 1), size) * r ** np.arange(size)).sum(axis=-1)
    assert np.all(np.abs(real - expected) <= 1e-14 * scale[..., None])
    for row, values in zip(rows, real):
        assert values.tobytes() == evaluate_circle_real(TruncatedSeries(row), radii, samples).tobytes()
    nan_row = rows.copy()
    nan_row[1, rng.integers(size)] = np.nan
    bad = ((rows, 0.0, samples), (rows, (0.5, 1.0), samples), (rows, np.nan, samples), (rows, radii, 0),
           (nan_row, radii, samples))
    for bad_rows, bad_radii, bad_samples in bad:
        for kernel in (evaluate_circle, evaluate_circle_real):
            with pytest.raises(ValueError):
                kernel(bad_rows, bad_radii, bad_samples)


def test_differentiate_values_and_order():
    s = TruncatedSeries(np.array([0.0, 1.0, 1.0, 4.0]))
    d = differentiate(s)
    assert d.order == 2
    assert np.array_equal(d.coeffs, np.array([1.0, 2.0, 12.0]))
    with pytest.raises(ValueError):
        differentiate(TruncatedSeries(np.array([0.0, 1.0])))


def test_herglotz_single_atom_expands_to_twos():
    p = herglotz_expand(HerglotzMixture(((1.0 + 0.0j, 1.0),)), order=6)
    assert np.allclose(p.coeffs, [1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0])


def test_herglotz_symmetric_pair_kills_odd_coefficients():
    m = HerglotzMixture(((1.0 + 0.0j, 0.5), (-1.0 + 0.0j, 0.5)))
    p = herglotz_expand(m, order=5)
    assert np.allclose(p.coeffs, [1.0, 0.0, 2.0, 0.0, 2.0, 0.0])


def test_mixture_coefficient_bound_bulk():
    # 1000 seeded mixtures; every expansion obeys |c_k| <= 2 with c_0 = 1
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        count = int(rng.integers(1, 9))
        angles = rng.uniform(0.0, 2.0 * np.pi, count)
        raw = rng.random(count) + 1e-9
        w = raw / raw.sum()
        w[-1] = 1.0 - float(w[:-1].sum())
        m = HerglotzMixture(tuple((complex(np.exp(1j * a)), float(wi)) for a, wi in zip(angles, w)))
        p = herglotz_expand(m, order=64)
        assert p.coeffs[0] == 1.0
        assert np.max(np.abs(p.coeffs[1:])) <= 2.0 + 1e-12


@given(
    st.lists(st.floats(0.0, 2.0 * np.pi), min_size=1, max_size=6),
    st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=6),
)
@settings(max_examples=100, deadline=None)
def test_mixture_coefficient_bound_property(angles, raw):
    k = min(len(angles), len(raw))
    w = np.array(raw[:k]) / np.sum(raw[:k])
    w[-1] = 1.0 - float(w[:-1].sum())
    m = HerglotzMixture(tuple((complex(np.exp(1j * a)), float(wi)) for a, wi in zip(angles[:k], w)))
    p = herglotz_expand(m, order=32)
    assert np.max(np.abs(p.coeffs[1:])) <= 2.0 + 1e-12


def test_require_unit_constant():
    require_unit_constant(TruncatedSeries(np.array([1.0, 5.0])))
    with pytest.raises(ValueError):
        require_unit_constant(TruncatedSeries(np.array([1.1, 5.0])))


def test_shift_to_beta_scales_tail_only():
    p = TruncatedSeries(np.array([1.0, 2.0, -2.0]))
    q = shift_to_beta(p, 0.25)
    assert q.coeffs[0] == 1.0
    assert np.allclose(q.coeffs[1:], [1.5, -1.5])
    with pytest.raises(ValueError):
        shift_to_beta(p, 1.0)
    with pytest.raises(ValueError):
        shift_to_beta(TruncatedSeries(np.array([0.5, 1.0])), 0.25)


def test_combine_convex_values_and_validation():
    f = TruncatedSeries(np.array([1.0, 2.0, 2.0]))
    g = TruncatedSeries(np.array([1.0, 0.0, -2.0, 1.0]))
    out = combine_convex(0.25, f, 0.75, g)
    assert out.order == 2
    assert np.allclose(out.coeffs, [1.0, 0.5, -1.0])
    with pytest.raises(ValueError):
        combine_convex(0.5, f, 0.6, g)
    with pytest.raises(ValueError):
        combine_convex(-0.1, f, 1.1, g)


def test_json_round_trip_is_exact():
    rng = np.random.default_rng(11)
    s = TruncatedSeries(rng.normal(size=17) + 1j * rng.normal(size=17))
    back = from_json(to_json(s))
    assert back.order == s.order
    assert np.array_equal(back.coeffs, s.coeffs)


def test_from_json_rejects_malformed_input():
    with pytest.raises(ValueError):
        from_json("not json at all")
    with pytest.raises(ValueError):
        from_json('{"coeffs": [[0, 0], [1, 0]]}')
    with pytest.raises(ValueError):
        from_json('{"order": 2, "coeffs": [[0, 0], [1, 0]]}')  # length mismatch
    with pytest.raises(ValueError):
        from_json('{"order": 1.0, "coeffs": [[0, 0], [1, 0]]}')
    with pytest.raises(ValueError):
        from_json('{"order": true, "coeffs": [[0, 0], [1, 0]]}')  # bool is not an order
    with pytest.raises(ValueError):
        from_json('{"order": 1, "coeffs": [[0, 0], [1, 0, 0]]}')
    with pytest.raises(ValueError):
        from_json('{"order": 1, "coeffs": [[0, 0], [Infinity, 0]]}')
    with pytest.raises(ValueError, match="pairs of finite numbers"):
        from_json('{"order": 1, "coeffs": [[0, 0], [1%s, 0]]}' % ("0" * 400))  # too large for a float
    with pytest.raises(ValueError, match="pairs of finite numbers"):
        from_json('{"order": 1, "coeffs": [[0, 0], [true, 0]]}')  # bool is not a number
    with pytest.raises(ValueError, match="pairs of finite numbers"):
        from_json('{"order": 1, "coeffs": [[0, 0], ["1", 0]]}')  # nor is a numeric string
