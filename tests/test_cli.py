"""Command-line surface: JSON in/out, exit codes, determinism."""

import contextlib
import csv
import io
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gft.classes import CircleGrid, bounds_rows, write_bounds_csv
from gft.cli import main
from gft.series import SchlichtSeries, from_json, to_json
from gft.verify import SUITE_ORDER, default_lattice


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_series(tmp_path, name, coeffs):
    path = tmp_path / name
    path.write_text(to_json(SchlichtSeries.from_coeffs(coeffs)) + "\n")
    return str(path)


def test_kernel_geometric(capsys):
    code, out, _ = run_cli(capsys, "kernel", "--sigma", "1", "--n", "1", "--order", "4")
    assert code == 0
    assert np.allclose(from_json(out).coeffs, [0, 1, 1, 1, 1])


def test_kernel_counting_and_inverse(capsys):
    code, out, _ = run_cli(capsys, "kernel", "--sigma", "1", "--n", "0", "--order", "4")
    assert code == 0
    assert np.allclose(from_json(out).coeffs, [0, 1, 2, 3, 4])
    code, out, _ = run_cli(capsys, "kernel", "--sigma", "1", "--n", "0", "--order", "4", "--inverse")
    assert code == 0
    assert np.allclose(from_json(out).coeffs, [0, 1, 0.5, 1 / 3, 0.25])


def test_kernel_rejects_invalid_parameters(capsys):
    for argv in (("--sigma", "0.5", "--n", "2"), ("--sigma", "1", "--n", "1", "--order", "0"),
                 ("--sigma", "1", "--n", "1", "--order", "-3")):
        code, out, err = run_cli(capsys, "kernel", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("gft: error:") and "Traceback" not in err


def test_default_order_env_is_honored(capsys, monkeypatch):
    monkeypatch.setenv("GFT_DEFAULT_ORDER", "16")
    code, out, _ = run_cli(capsys, "kernel", "--sigma", "1", "--n", "1")
    assert code == 0
    assert from_json(out).order == 16


def test_apply_raising_operator(capsys, tmp_path):
    infile = write_series(tmp_path, "f.json", [0.0, 1.0, 1.0])
    code, out, _ = run_cli(capsys, "apply", "--op", "L", "--sigma", "1", "--n", "1", "--in", infile)
    assert code == 0
    assert np.allclose(from_json(out).coeffs, [0, 1, 2])


def test_apply_round_trip_through_files(capsys, tmp_path):
    infile = write_series(tmp_path, "f.json", [0.0, 1.0, 0.5, -0.25, 0.125])
    lowered = tmp_path / "lowered.json"
    code, _, _ = run_cli(capsys, "apply", "--op", "l", "--sigma", "3.5", "--n", "2",
                         "--in", infile, "--out", str(lowered))
    assert code == 0
    code, out, _ = run_cli(capsys, "apply", "--op", "L", "--sigma", "3.5", "--n", "2",
                           "--in", str(lowered))
    assert code == 0
    original = from_json((tmp_path / "f.json").read_text())
    assert np.allclose(from_json(out).coeffs, original.coeffs, rtol=1e-13)


def test_apply_bernardi(capsys, tmp_path):
    infile = write_series(tmp_path, "f.json", [0.0, 1.0, 1.0])
    code, out, _ = run_cli(capsys, "apply", "--op", "bernardi", "--c", "1", "--in", infile)
    assert code == 0
    assert np.allclose(from_json(out).coeffs, [0, 1, 2 / 3])


def test_apply_flag_validation(capsys, tmp_path):
    infile = write_series(tmp_path, "f.json", [0.0, 1.0, 1.0])
    code, _, err = run_cli(capsys, "apply", "--op", "L", "--sigma", "1", "--in", infile)
    assert code == 2 and "requires --sigma and --n" in err
    code, _, err = run_cli(capsys, "apply", "--op", "bernardi", "--in", infile)
    assert code == 2 and "requires --c" in err


def test_apply_rejects_unnormalized_input(capsys, tmp_path):
    path = tmp_path / "p.json"
    path.write_text('{"order": 1, "coeffs": [[1.0, 0.0], [2.0, 0.0]]}')
    code, _, err = run_cli(capsys, "apply", "--op", "L", "--sigma", "1", "--n", "1", "--in", str(path))
    assert code == 2 and "gft: error:" in err


def test_apply_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "apply", "--op", "L", "--sigma", "1", "--n", "1",
                           "--in", str(tmp_path / "absent.json"))
    assert code == 2 and "gft: error:" in err


def test_iterate_and_inverse(capsys, tmp_path):
    path = tmp_path / "p.json"
    pairs = [[1.0, 0.0]] + [[2.0, 0.0]] * 4
    path.write_text(json.dumps({"order": 4, "coeffs": pairs}))
    code, out, _ = run_cli(capsys, "iterate", "--sigma", "1", "--n", "1", "--in", str(path))
    assert code == 0
    assert np.allclose(from_json(out).coeffs, [1.0, 1.0, 2 / 3, 0.5, 0.4])
    back = tmp_path / "q.json"
    back.write_text(out)
    code, out, _ = run_cli(capsys, "iterate", "--sigma", "1", "--n", "1", "--inverse", "--in", str(back))
    assert code == 0
    assert np.allclose(from_json(out).coeffs, [1.0, 2.0, 2.0, 2.0, 2.0])


def test_extremal_families(capsys):
    code, out, _ = run_cli(capsys, "extremal", "--family", "upper", "--sigma", "1", "--n", "1",
                           "--order", "4")
    assert code == 0
    assert np.allclose(from_json(out).coeffs, [0, 1, 1, 2 / 3, 0.5])  # a_k = 2/k
    code, out, _ = run_cli(capsys, "extremal", "--family", "iterate", "--sigma", "1", "--n", "1",
                           "--order", "3", "--sign", "-1")
    assert code == 0
    assert np.allclose(from_json(out).coeffs, [1, -1, 2 / 3, -0.5])
    code, out, _ = run_cli(capsys, "extremal", "--family", "lower", "--sigma", "1", "--n", "1",
                           "--order", "4", "--beta", "0.5")
    assert code == 0
    assert np.allclose(from_json(out).coeffs, [0, 1, -0.5, 1 / 3, -0.25])


def test_extremal_with_huge_depth_finishes():
    """A depth far past the order costs no more than the order: the row is a product over k."""
    argv = ["extremal", "--family", "iterate", "--sigma", "1e9", "--n", "100000000", "--order", "8"]
    done = subprocess.run([sys.executable, "-m", "gft.cli", *argv], capture_output=True, timeout=2.0)
    assert done.returncode == 0
    coeffs = from_json(done.stdout.decode()).coeffs
    assert np.all(np.isfinite(coeffs))
    a = 1e9 - 1e8 + 1.0  # multiplier(sigma, n, 1) = a / (a + n)
    assert coeffs[1].real == pytest.approx(2.0 * a / (a + 1e8), rel=1e-15)


def test_bounds_csv(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--sigma", "1", "--n", "1", "--beta", "0",
                           "--radii", "0.5")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    assert lines[0].split(",")[0] == "sigma"
    row = lines[1].split(",")
    assert float(row[4]) == pytest.approx(1 / 3, abs=1e-9)   # m at r = 0.5
    assert float(row[5]) == pytest.approx(3.0, abs=1e-9)     # M at r = 0.5


def test_bounds_skips_invalid_pairs_but_rejects_empty(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--sigma", "0.5,1", "--n", "1,2", "--beta", "0",
                           "--radii", "0.5")
    assert code == 0
    # (0.5, 2) and (1, 2) are invalid; only (0.5, 1) and (1, 1) survive
    assert len(out.strip().split("\n")) == 3
    code, _, err = run_cli(capsys, "bounds", "--sigma", "0.5", "--n", "2", "--radii", "0.5")
    assert code == 2 and "no valid" in err
    code, _, err = run_cli(capsys, "bounds", "--radii", "1.5")
    assert code == 2
    code, _, err = run_cli(capsys, "bounds", "--sigma", "1;2")
    assert code == 2 and "comma-separated" in err
    for sigma in ("inf", "nan"):  # used to loop forever in covering_constant
        code, _, err = run_cli(capsys, "bounds", "--sigma", sigma, "--n", "1", "--beta", "0",
                               "--radii", "0.5")
        assert code == 2 and "finite" in err
    for n in ("inf", "1.5"):  # inf used to raise OverflowError; 1.5 was tabulated as n = 1
        code, out, err = run_cli(capsys, "bounds", "--sigma", "1", "--n", n, "--beta", "0",
                                 "--radii", "0.5")
        assert code == 2 and out == "" and "integers" in err and len(err.strip().split("\n")) == 1


def test_bounds_defaults_are_the_verification_lattice(capsys):
    code, out, _ = run_cli(capsys, "bounds")
    expected = io.StringIO()
    write_bounds_csv(bounds_rows(default_lattice(), CircleGrid().radii), expected)
    assert code == 0
    assert out == expected.getvalue()


_JUNK = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(("inf", "-inf", "nan", "1e308", "-1", "1.5", "junk", "", " ", "0x10")),
)


def _flag_values(valid):
    """Comma-joined lists of mostly plausible values, with about one junk item in ten."""
    item = st.integers(0, 9).flatmap(lambda i: _JUNK if i == 0 else valid)
    return st.lists(item, min_size=1, max_size=3).map(",".join)


def _run_fuzzed(argv) -> tuple:
    """Run the CLI in-process and return (exit code, stdout), checking what every exit shares.

    No traceback, and exactly one stderr line on exit 2.  A numpy warning
    would print further stderr lines in a real run, so none may be raised.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects values such as "-inf" that look like flags
            code = exc.code
    assert "Traceback" not in err.getvalue()
    assert [str(w.message) for w in caught] == []
    if code == 2:
        assert err.getvalue().strip() != ""
        assert len(err.getvalue().splitlines()) == 1
    return code, out.getvalue()


@given(
    sigma=_flag_values(st.one_of(st.floats(-1.0, 12.0).map(repr), st.sampled_from(("1e300", "1.7e308")))),
    n=_flag_values(st.one_of(st.integers(0, 5).map(str), st.sampled_from(("1e300", "3.0")))),
    beta=_flag_values(st.floats(0.0, 0.999).map(repr)),
    radii=_flag_values(st.one_of(st.floats(1e-6, 0.999999).map(repr), st.just("0.9999999999999999"))),
)
@settings(max_examples=60, deadline=2000)
@example(sigma="-inf", n="1", beta="0.0", radii="0.5")
def test_bounds_fuzzed_flags_finish_cleanly(sigma, n, beta, radii):
    """Any flag text exits 0 with finite values or 2 with a one-line message, never a traceback or a hang."""
    code, out = _run_fuzzed(["bounds", "--sigma", sigma, "--n", n, "--beta", beta, "--radii", radii])
    assert code in (0, 2)
    if code == 0:
        for row in csv.DictReader(io.StringIO(out)):
            assert all(v == "" or math.isfinite(float(v)) for v in row.values())


_NUMBER = st.one_of(
    st.floats(-2.0, 12.0).map(repr),
    st.sampled_from(("nan", "inf", "-inf", "1e308", "-1e308", "0", "-1", "junk")),
)
_DEPTH = st.one_of(st.integers(-3, 6), st.just(100_000_000)).map(str)
_ORDER = st.integers(-3, 40).map(str)  # kept small: a fuzzed order never allocates much

# --in files for apply and iterate, by name; "directory" and "missing" are added by the fixture
_INPUT_TEXTS = {
    "member": to_json(SchlichtSeries.from_coeffs([0.0, 1.0, 0.5, -0.25, 1e-3])),
    "unit": json.dumps({"order": 3, "coeffs": [[1.0, 0.0], [2.0, 0.0], [-2.0, 0.0], [0.0, 2.0]]}),
    "huge member": json.dumps({"order": 3, "coeffs": [[0.0, 0.0], [1.0, 0.0], [1e308, 0.0], [-1e308, 0.0]]}),
    "huge unit": json.dumps({"order": 2, "coeffs": [[1.0, 0.0], [1e308, 0.0], [1e308, 0.0]]}),
    "array": "[1, 2]",
    "number": "3",
    "null": "null",
    "nan": '{"order": 1, "coeffs": [[NaN, 0.0], [1.0, 0.0]]}',
    "short": '{"order": 3, "coeffs": [[0.0, 0.0], [1.0, 0.0]]}',
    "broken": "{",
}
_SOURCES = st.sampled_from((*_INPUT_TEXTS, "directory", "missing"))


def _optional(flag, values):
    """Either no flag at all or the flag with one generated value."""
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    paths = {"directory": str(root), "missing": str(root / "absent.json")}
    for name, text in _INPUT_TEXTS.items():
        path = root / f"{name.replace(' ', '_')}.json"
        path.write_text(text)
        paths[name] = str(path)
    return paths


@given(sigma=_NUMBER, n=_DEPTH, order=_optional("--order", _ORDER), inverse=st.sampled_from(([], ["--inverse"])))
@settings(max_examples=60, deadline=2000)
@example(sigma="1e308", n="1", order=["--order", "4"], inverse=[])
@example(sigma="1e-212", n="1", order=[], inverse=["--inverse"])
def test_kernel_fuzzed_flags_finish_cleanly(sigma, n, order, inverse):
    code, out = _run_fuzzed(["kernel", "--sigma", sigma, "--n", n, *order, *inverse])
    assert code in (0, 2)
    if code == 0:
        from_json(out)  # rejects non-finite coefficients


@given(
    op=st.sampled_from(("L", "l", "ruscheweyh", "noor", "bernardi", "bogus")),
    sigma=_optional("--sigma", _NUMBER),
    n=_optional("--n", _DEPTH),
    c=_optional("--c", _NUMBER),
    source=_SOURCES,
)
@settings(max_examples=80, deadline=2000)
@example(op="L", sigma=["--sigma", "1"], n=["--n", "1"], c=[], source="huge member")
@example(op="ruscheweyh", sigma=["--sigma", "5"], n=[], c=[], source="huge member")
@example(op="bernardi", sigma=[], n=[], c=["--c", "inf"], source="member")
def test_apply_fuzzed_flags_finish_cleanly(fuzz_inputs, op, sigma, n, c, source):
    code, out = _run_fuzzed(["apply", "--op", op, *sigma, *n, *c, "--in", fuzz_inputs[source]])
    assert code in (0, 2)
    if code == 0:
        from_json(out)  # rejects non-finite coefficients


@given(sigma=_NUMBER, n=_DEPTH, inverse=st.sampled_from(([], ["--inverse"])), source=_SOURCES)
@settings(max_examples=60, deadline=2000)
@example(sigma="0.5", n="1", inverse=["--inverse"], source="huge unit")
@example(sigma="1e-80", n="1", inverse=["--inverse"], source="member")
def test_iterate_fuzzed_flags_finish_cleanly(fuzz_inputs, sigma, n, inverse, source):
    code, out = _run_fuzzed(["iterate", "--sigma", sigma, "--n", n, *inverse, "--in", fuzz_inputs[source]])
    assert code in (0, 2)
    if code == 0:
        from_json(out)  # rejects non-finite coefficients


@given(
    family=st.sampled_from(("iterate", "upper", "lower", "bogus")),
    sigma=_NUMBER,
    n=_DEPTH,
    beta=_optional("--beta", st.one_of(st.floats(0.0, 0.999).map(repr), _NUMBER)),
    sign=_optional("--sign", st.sampled_from(("1", "-1", "0", "x"))),
    order=_optional("--order", _ORDER),
)
@settings(max_examples=60, deadline=2000)
def test_extremal_fuzzed_flags_finish_cleanly(family, sigma, n, beta, sign, order):
    code, out = _run_fuzzed(["extremal", "--family", family, "--sigma", sigma, "--n", n, *beta, *sign, *order])
    assert code in (0, 2)
    if code == 0:
        from_json(out)  # rejects non-finite coefficients


@given(
    theorem=st.sampled_from((*SUITE_ORDER, "all", "0", "bogus")),
    trials=st.integers(-3, 2).map(str),
    seed=st.one_of(st.integers(-3, 3).map(str), st.sampled_from(("1e3", "", "18446744073709551616"))),
)
@settings(max_examples=30, deadline=2000)
def test_verify_fuzzed_flags_finish_cleanly(theorem, trials, seed):
    code, out = _run_fuzzed(["verify", "--theorem", theorem, "--trials", trials, "--seed", seed])
    assert code in (0, 1, 2)
    if code != 2:
        reports = json.loads(out)
        reports = reports if isinstance(reports, list) else [reports]
        assert all(math.isfinite(r["worst_margin"]) for r in reports)
        assert code == int(any(r["verdict"] != "pass" for r in reports))


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bounds", "--sigma", "-inf"], "gft bounds: error: argument --sigma: expected one argument"),
        (["verify"], "gft verify: error: the following arguments are required: --theorem"),
        (["bogus"], "gft: error: argument command: invalid choice: 'bogus'"),
        (["extremal", "--sigma", "1", "--n", "1", "--order", "0"],
         "gft: error: --order must be >= 1 for --family iterate"),
        (["verify", "--theorem", "7", "--seed", "-1"], "gft: error: --seed must be >= 0"),
    ],
)
def test_usage_errors_are_one_line(capsys, argv, message):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's own errors exit from inside main; validation errors return
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.splitlines() == [captured.err.rstrip("\n")]
    assert captured.err.startswith(message)


def test_verify_single_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--theorem", "7", "--trials", "5")
    assert code == 0
    report = json.loads(out)
    assert report["theorem"] == "7" and report["verdict"] == "pass"


def test_verify_reports_are_byte_identical(capsys):
    _, first, _ = run_cli(capsys, "verify", "--theorem", "7", "--seed", "42", "--trials", "20")
    _, second, _ = run_cli(capsys, "verify", "--theorem", "7", "--seed", "42", "--trials", "20")
    assert first == second


def test_verify_all(capsys):
    code, out, _ = run_cli(capsys, "verify", "--theorem", "all", "--trials", "1")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 13
    assert all(r["verdict"] == "pass" for r in reports)


def test_verify_unknown_theorem(capsys):
    code, _, err = run_cli(capsys, "verify", "--theorem", "99")
    assert code == 2
    assert "unknown theorem id" in err


def test_output_file_written(capsys, tmp_path):
    target = tmp_path / "kernel.json"
    code, out, _ = run_cli(capsys, "kernel", "--sigma", "2", "--n", "1", "--order", "3",
                           "--out", str(target))
    assert code == 0 and out == ""
    assert np.allclose(from_json(target.read_text()).coeffs, [0, 1, 2, 3])
