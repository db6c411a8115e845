import json
import math
import subprocess
import sys
import warnings
from fractions import Fraction

import pytest

from mapflow.cli import main
from mapflow.logistic import (
    logistic2_chart_coefficients,
    logistic2_iterate,
    logistic4_chart_coefficients,
    logistic4_iterate,
    logistic4_iterate_second,
)


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- matrix ------------------------------------------------------------------

def test_matrix_logistic_row_one(tmp_path, capsys):
    out = tmp_path / "m.csv"
    code, _, _ = run(
        ["matrix", "--preset", "logistic:4", "--dim", "4", "--output", str(out)],
        capsys,
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("carleman dim=4")
    row1 = lines[2].split(",")
    assert row1 == ["0+0i", "4+0i", "-4+0i", "0+0i"]


def test_matrix_identity_map(capsys):
    code, out, _ = run(["matrix", "--coeffs", "0,1", "--dim", "4"], capsys)
    assert code == 0
    rows = out.splitlines()[1:]
    assert rows[0].split(",")[0] == "1+0i"
    assert rows[1].split(",")[1] == "1+0i"
    assert rows[2].split(",")[2] == "1+0i"


@pytest.mark.parametrize("argv, message", [
    # 1e200 squared overflows to inf at (2, 2), and inf times 0 is nan in row 3.
    (["--coeffs", "0,1e200", "--dim", "4"], "3 matrix entries are not finite, the first at (2, 2)"),
    (["--coeffs", "0,1e200", "--dim", "4", "--check-quadrature"],
     "3 matrix entries are not finite, the first at (2, 2)"),
    # The truncated powers stay finite, but the quadrature samples f^4 ~ 1e400.
    (["--coeffs", "0.5,0,0,1e100", "--dim", "5", "--check-quadrature"],
     "5 quadrature matrix entries are not finite, the first at (4, 0)"),
])
def test_a_matrix_past_the_float_range_is_refused(argv, message, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(["matrix", *argv], capsys)
    assert (code, out) == (1, "")
    assert err == (f"error: ValueError: {message}: the powers of the map are too "
                   "large for floats at this order\n")


def test_matrix_check_quadrature(capsys):
    code, out, _ = run(
        ["matrix", "--preset", "logistic:4", "--dim", "8", "--check-quadrature"],
        capsys,
    )
    assert code == 0
    dev_line = [ln for ln in out.splitlines() if ln.startswith("quadrature_deviation=")]
    assert len(dev_line) == 1
    assert float(dev_line[0].split("=")[1]) <= 1e-10


# --- iterate -----------------------------------------------------------------

def test_iterate_time_one_is_map_value(capsys):
    code, out, _ = run(
        ["iterate", "--preset", "logistic:4", "--guess", "0", "--t", "1",
         "--x", "0.05"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,x_re,x_im,ft_re,ft_im,route,converged,ref_re,ref_im"
    chart_row = [ln for ln in lines[1:] if ",chart," in ln][0]
    fields = chart_row.split(",")
    assert abs(float(fields[3]) - 0.19) < 1e-9
    assert abs(float(fields[7]) - 0.19) < 1e-9  # reference column


def test_iterate_half_time_matches_reference(capsys):
    code, out, _ = run(
        ["iterate", "--preset", "logistic:4", "--guess", "0", "--t", "0.5",
         "--x", "0.05"],
        capsys,
    )
    assert code == 0
    for ln in out.splitlines()[1:]:
        fields = ln.split(",")
        assert abs(float(fields[3]) - float(fields[7])) < 1e-6


def test_iterate_second_fixed_point_complex(capsys):
    code, out, _ = run(
        ["iterate", "--preset", "logistic:4", "--guess", "0.75", "--t", "0.5",
         "--x", "0.7", "--route", "chart"],
        capsys,
    )
    assert code == 0
    fields = out.splitlines()[1].split(",")
    assert abs(float(fields[4])) > 1e-3  # imaginary part


def test_iterate_json_format(capsys):
    code, out, _ = run(
        ["iterate", "--preset", "logistic:2", "--guess", "0", "--t", "0.5,1.5",
         "--x", "0.01", "--format", "json", "--route", "chart"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 2
    assert payload[0]["route"] == "chart"
    assert payload[0]["converged"] is True
    assert abs(payload[0]["ft_re"] - payload[0]["ref_re"]) < 1e-7


def _csv_cell(value) -> str:
    """The CSV cell a value of iterate's JSON stands for."""
    if value is None:
        return ""
    if isinstance(value, (bool, str)):
        return str(value).lower()
    assert type(value) is float, value
    return f"{value:.17g}"


@pytest.mark.parametrize("argv", [
    ["--preset", "logistic:4", "--guess", "0", "--dim", "40", "--r-eval", "0.95",
     "--t", "0.25,0.5,1.5,-0.5,4,1000", "--x", "0.01,0.3,0.9,-0.4,1.2,0.5+0.1j,inf,nan"],
    ["--preset", "logistic:4", "--fixed-point", "0.75", "--dim", "40", "--r-eval", "0.6",
     "--t", "0.25,3.9,nan", "--x", "0.3,1.2,0.7,0.9"],
    ["--preset", "logistic:2", "--guess", "0", "--dim", "40", "--r-eval", "0.45",
     "--t", "0.5,1,inf", "--x", "0.5,0.1,-0.3,-0.0"],
    ["--coeffs", "0,1.5,0.3,-0.2", "--dim", "40", "--t", "0.5,1,2,-0.0",
     "--x", "0.01,0.1+0.1j,-0.2,-0.0-0.0j"],
    ["--preset", "logistic:4+0.5j", "--dim", "40", "--t", "0.5", "--x", "0.01",
     "--route", "matrix"],
], ids=["mu4-at-0", "mu4-at-3/4", "mu2-at-0", "coeffs", "complex-mu"])
def test_iterate_json_objects_are_its_csv_rows_cell_for_cell(argv, capsys):
    code, out, err = run(["iterate", *argv], capsys)
    assert (code, err) == (0, "")
    header, *rows = out.splitlines()
    code, out, err = run(["iterate", *argv, "--format", "json"], capsys)
    assert (code, err) == (0, "")
    objects = json.loads(out)
    assert len(objects) == len(rows) > 0
    for row, obj in zip(rows, objects):
        assert ",".join(obj) == header
        assert ",".join(map(_csv_cell, obj.values())) == row


def test_iterate_fixed_point_flag_overrides_guess(capsys):
    code, out, _ = run(
        ["iterate", "--preset", "logistic:4", "--guess", "0",
         "--fixed-point", "0.75", "--t", "1", "--x", "0.7", "--route", "chart"],
        capsys,
    )
    assert code == 0
    fields = out.splitlines()[1].split(",")
    assert abs(float(fields[3]) - 0.84) < 1e-8


def test_complex_coefficients_and_grid_points(capsys):
    code, out, _ = run(
        ["iterate", "--coeffs", "0,1.5+0.5j,0.3", "--guess", "0",
         "--t", "0.5", "--x", "0.01+0.005j", "--route", "chart",
         "--r-eval", "0.3"],
        capsys,
    )
    assert code == 0
    fields = out.splitlines()[1].split(",")
    assert abs(float(fields[2]) - 0.005) < 1e-15  # x_im column
    assert float(fields[4]) != 0.0  # complex result


def test_iterate_unconverged_points_flagged(capsys):
    # x far outside the default radius: chart evaluation refuses
    code, out, _ = run(
        ["iterate", "--preset", "logistic:4", "--guess", "0", "--t", "0.5",
         "--x", "0.5", "--route", "chart"],
        capsys,
    )
    assert code == 0
    fields = out.splitlines()[1].split(",")
    assert fields[6] == "false"
    assert fields[3] == ""


L4_ORIGIN = ["--preset", "logistic:4", "--fixed-point", "0", "--dim", "40", "--r-eval", "0.6"]


@pytest.mark.parametrize("argv", [
    [*L4_ORIGIN, "--route", "chart", "--t", "1000", "--x", "0.3"],
    [*L4_ORIGIN, "--route", "matrix", "--t", "100", "--x", "0.3"],
    ["--preset", "logistic:0.5", "--fixed-point", "0", "--r-eval", "0.3", "--route",
     "chart", "--t=-2000", "--x", "0.1"],
], ids=["chart-t1000", "matrix-t100", "chart-contracting-t-2000"])
def test_iterate_refuses_a_time_whose_multiplier_power_overflows(argv, capsys):
    code, out, _ = run(["iterate", *argv], capsys)
    assert code == 0
    fields = out.splitlines()[1].split(",")
    assert fields[3:7] == ["", "", argv[argv.index("--route") + 1], "false"]


def test_iterate_refuses_a_continuation_whose_tail_overflows(capsys):
    # A Newton iterate wanders far enough for a trailing term of the inverse
    # series to overflow: this ended in an OverflowError traceback before.
    code, out, err = run(
        ["iterate", "--preset", "logistic:4", "--fixed-point", "0.75", "--dim", "160",
         "--r-eval", "0.6", "--route", "chart", "--t", "0.5", "--x=1.011"],
        capsys,
    )
    assert (code, err) == (0, "")
    assert out.splitlines()[1].split(",")[3:7] == ["", "", "chart", "false"]


def test_iterate_refuses_points_the_continuation_reaches_only_slowly(capsys):
    # These values (f^0.5(0.0861) = 1083.6+32.1i, f^1.5 = -4.3e6) were once
    # printed as converged after 21-58 Newton passes at a waypoint.
    code, out, _ = run(
        ["iterate", "--preset", "logistic:3.7", "--guess", "0.7", "--dim", "160",
         "--r-eval", "0.66", "--route", "chart", "--t", "0.5,1,1.5",
         "--x=0.08610810810810798,1.0646756756756757,0.9595945945945946"],
        capsys,
    )
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 9
    assert all(row[3:7] == ["", "", "chart", "false"] for row in rows)


def test_iterate_leaves_the_reference_empty_where_the_closed_form_overflows(capsys):
    code, out, _ = run(
        ["iterate", *L4_ORIGIN, "--route", "chart", "--t", "12", "--x", "0.1j"], capsys
    )
    assert code == 0
    assert out.splitlines()[1].split(",")[3:] == ["", "", "chart", "false", "", ""]


def test_iterate_leaves_the_reference_empty_where_the_closed_form_has_a_domain_error(capsys):
    # The mu=2 closed form takes log(1 - 2x), which is log(0) at x = 1/2.
    code, out, err = run(
        ["iterate", "--preset", "logistic:2", "--dim", "60", "--r-eval", "0.45",
         "--route", "both", "--t", "0.5", "--x", "0.5"],
        capsys,
    )
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == [
        "0.5,0.5,0,,,chart,false,,",
        "0.5,0.5,0,,,matrix,false,,",
    ]


@pytest.mark.parametrize("args, bad_row", [
    (["--t", "0.5", "--x", "0.1,inf"], "0.5,inf,0,,,chart,false,,"),
    (["--t", "0.5", "--x", "0.1,nan"], "0.5,nan,0,,,chart,false,,"),
    (["--t", "inf,0.5", "--x", "0.1"], "inf,0.10000000000000001,0,,,chart,false,,"),
], ids=["x-inf", "x-nan", "t-inf"])
def test_iterate_leaves_the_reference_empty_where_t_or_x_is_not_finite(args, bad_row, capsys):
    # The closed form is nan there; README promises empty cells, not nan.
    argv = ["iterate", "--preset", "logistic:4", "--route", "chart", *args]
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    assert bad_row in out.splitlines()
    code, out, err = run([*argv, "--format", "json"], capsys)
    assert (code, err) == (0, "")
    refs = [(row["ref_re"], row["ref_im"]) for row in json.loads(out)]
    assert refs.count((None, None)) == 1
    assert all(math.isfinite(part) for ref in refs if ref != (None, None) for part in ref)


@pytest.mark.parametrize("argv, reference, x", [
    (["--preset", "logistic:4", "--fixed-point", "0"], logistic4_iterate, 0.3),
    (["--preset", "logistic:4", "--fixed-point", "0.75"], logistic4_iterate_second, 0.7),
    (["--preset", "logistic:2", "--fixed-point", "0"], logistic2_iterate, 0.1),
], ids=["mu4-at-0", "mu4-at-3/4", "mu2-at-0"])
def test_iterate_takes_the_reference_from_the_closed_form_of_its_map_and_fixed_point(
    argv, reference, x, capsys
):
    times = (0.5, 1.5, -0.5)
    grid = ["--t", ",".join(map(str, times)), "--x", str(x), "--route", "chart"]
    code, out, _ = run(["iterate", *argv, *grid, "--format", "json"], capsys)
    assert code == 0
    expected = [reference(t, complex(x)) for t in times]
    assert [complex(row["ref_re"], row["ref_im"]) for row in json.loads(out)] == expected
    code, out, _ = run(["iterate", *argv, *grid], capsys)
    assert code == 0
    assert [line.split(",")[7:] for line in out.splitlines()[1:]] == [
        [f"{r.real:.17g}", f"{r.imag:.17g}"] for r in expected
    ]


@pytest.mark.parametrize("argv", [
    ["--preset", "logistic:3.7"],
    ["--preset", "logistic:4+0.5j"],
    ["--coeffs", "0,4,-4"],
], ids=["mu3.7", "complex-mu", "coeffs"])
def test_iterate_leaves_the_reference_empty_where_no_closed_form_is_known(argv, capsys):
    grid = ["--fixed-point", "0", "--t", "0.5,1", "--x", "0.01", "--route", "both"]
    code, out, _ = run(["iterate", *argv, *grid], capsys)
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 4
    assert all(row.endswith(",,") for row in rows)
    code, out, _ = run(["iterate", *argv, *grid, "--format", "json"], capsys)
    assert code == 0
    assert all(row["ref_re"] is row["ref_im"] is None for row in json.loads(out))


def test_mode_route_refuses_points_outside_r_eval(capsys):
    # 0.48 is past r_eval; the mode sum there once passed its last-term test
    # with a value 6e-4 off the closed form.
    code, out, _ = run(
        ["iterate", "--preset", "logistic:2", "--fixed-point", "0", "--r-eval", "0.45",
         "--route", "matrix", "--t=-0.5", "--x", "0.48"],
        capsys,
    )
    assert code == 0
    fields = out.splitlines()[1].split(",")
    assert fields[3:7] == ["", "", "matrix", "false"]
    assert fields[7] != ""  # the closed form is still reported


@pytest.mark.parametrize("argv", [
    ["--fixed-point", "0.75", "--r-eval", "0.6", "--t", "0.25", "--x", "1.2"],
    ["--fixed-point", "0.75", "--r-eval", "0.6", "--t", "0.5", "--x", "0.3"],
    ["--fixed-point", "0", "--r-eval", "0.95", "--t", "0.5", "--x", "0.9"],
], ids=["34-x1.2", "34-x0.3", "0-x0.9"])
def test_chart_route_continues_past_the_series_radius(argv, capsys):
    # Inside r_eval but past the series radius of u (0.14 about 3/4 and 0.53
    # about 0 at dim 40): the chart route continues u to 0.3 and 0.9 and
    # refuses 1.2, where no path from 3/4 reaches the principal branch.
    code, out, _ = run(
        ["iterate", "--preset", "logistic:4", "--dim", "40", "--route", "chart", *argv],
        capsys,
    )
    assert code == 0
    chart = out.splitlines()[1].split(",")
    assert chart[6] == ("false" if "1.2" in argv else "true")
    if chart[6] == "true":
        value = complex(float(chart[3]), float(chart[4]))
        assert abs(value - complex(float(chart[7]), float(chart[8]))) < 1e-10


# --- chart / field / integrate -------------------------------------------------

def test_chart_dump(capsys):
    code, out, _ = run(
        ["chart", "--preset", "logistic:4", "--guess", "0", "--dim", "8"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("chart x_star=0+0i lambda=4+0i dim=8")
    assert lines[1] == "k,u_re,u_im,uinv_re,uinv_im"
    k1 = lines[3].split(",")
    assert abs(float(k1[1]) - 1.0) < 1e-12
    k2 = lines[4].split(",")
    assert abs(float(k2[1]) - 1 / 3) < 1e-12
    assert abs(float(k2[3]) + 1 / 3) < 1e-12


def test_field_dump(capsys):
    code, out, _ = run(
        ["field", "--preset", "logistic:4", "--guess", "0", "--dim", "8"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "k,g_re,g_im"
    g1 = float(lines[3].split(",")[1])
    assert abs(g1 - math.log(4.0)) < 1e-12


def test_integrate_endpoint(capsys):
    code, out, _ = run(
        ["integrate", "--preset", "logistic:4", "--guess", "0", "--x0", "0.01",
         "--t-end", "1", "--dt", "0.001"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,x_re,x_im"
    assert len(lines) == 1002
    last = lines[-1].split(",")
    assert abs(float(last[0]) - 1.0) < 1e-12
    assert abs(float(last[1]) - 0.0396) < 1e-6


def test_integrate_to_time_zero_prints_the_start_once(capsys):
    code, out, _ = run(["integrate", "--preset", "logistic:4", "--guess", "0",
                        "--r-eval", "0.6", "--x0", "0.01", "--t-end", "0"], capsys)
    assert (code, out) == (0, "t,x_re,x_im\n0,0.01,0\n")


def test_field_at_order_160_is_built(capsys):
    # The matrix recursion's cancellation once failed this with BranchMismatch.
    code, out, _ = run(["field", "--preset", "logistic:4", "--dim", "160"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 162
    assert abs(float(lines[3].split(",")[1]) - math.log(4.0)) < 1e-12


@pytest.mark.parametrize("argv, message", [
    # At order 80 the chart series of lambda = 1.001 are too large for the
    # field row's sums, which overflow from k = 31 on.
    (["field", "--dim", "80"],
     "49 field coefficients are not finite, the first at k = 31: the chart "
     "series are too large to sum at this order"),
    (["integrate", "--dim", "80", "--x0", "0.01", "--t-end", "0.1"],
     "49 field coefficients are not finite, the first at k = 31: the chart "
     "series are too large to sum at this order"),
    (["field", "--dim", "40"],
     "field coefficients disagree with Log(lambda)*u/u' by 1.490e-01; check "
     "the logarithm branch / chart pairing"),
])
def test_a_field_that_fails_its_cross_check_is_refused(argv, message, capsys):
    # Outside pytest a numpy warning would print to stderr beside the error.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run([*argv, "--coeffs=0,1.001,-1"], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: BranchMismatch: {message}\n"


@pytest.mark.parametrize("argv, message", [
    # lambda^k overflows past k ~ 1024 and spoils h, whose reciprocal spreads
    # nan through the block products of Lagrange inversion down to k = 33.
    (["--preset", "logistic:4", "--guess", "0.7", "--dim", "1100"],
     "1067 chart coefficients are not finite, the first at k = 33"),
    (["--coeffs=0,1.8+0.9j,0.5-0.4j,0.2+0.1j", "--dim", "1200"],
     "1166 chart coefficients are not finite, the first at k = 34"),
], ids=["mu4-at-3/4-dim1100", "complex-cubic-dim1200"])
def test_a_chart_past_the_float_range_is_refused(argv, message, capsys):
    # Outside pytest a numpy warning would print to stderr beside the error.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(["chart", *argv], capsys)
    assert (code, out) == (1, "")
    assert err == (
        f"error: ValueError: {message}: the chart series are too large to sum at this order\n"
    )


def test_chart_builds_neither_the_expansion_nor_the_field(monkeypatch, capsys):
    import mapflow.flow

    def refuse(*args, **kwargs):
        raise AssertionError("chart built the mode expansion or the field")

    monkeypatch.setattr(mapflow.flow, "build_expansion", refuse)
    monkeypatch.setattr(mapflow.flow, "log_row", refuse)
    code, out, _ = run(["chart", "--preset", "logistic:4", "--dim", "40"], capsys)
    assert code == 0
    assert out.startswith("chart x_star=0+0i")


def _exact_chart(mu: int, n: int) -> tuple:
    """Coefficients 1 .. n-1 of the chart u and its inverse h at 0."""
    if mu == 4:  # u = arcsin(sqrt x)^2, h = sin(sqrt w)^2
        u = logistic4_chart_coefficients(n - 1)
        h = [Fraction((-1) ** (k + 1) * 2 ** (2 * k - 1), math.factorial(2 * k))
             for k in range(1, n)]
    else:  # u = -log(1 - 2x)/2, h = (1 - exp(-2w))/2
        u = logistic2_chart_coefficients(n - 1)
        h = [Fraction((-1) ** (k + 1) * 2 ** (k - 1), math.factorial(k))
             for k in range(1, n)]
    return u, h


def _assert_chart_is_exact(out: str, mu: int, dim: int):
    """The chart rows 1 .. dim-1 of ``out`` match the exact series."""
    rows = [line.split(",") for line in out.splitlines()[3:]]
    assert len(rows) == dim - 1
    for row, *exact in zip(rows, *_exact_chart(mu, dim)):
        for value, ref in zip((row[1:3], row[3:5]), exact):
            got = complex(float(value[0]), float(value[1]))
            ref = float(ref)
            if abs(ref) < 1e-290:  # below double's normal range
                assert abs(got) < 1e-290, row[0]
            else:
                assert abs(got - ref) <= 1e-12 * abs(ref), row[0]


@pytest.mark.parametrize("dim", [80, 160])
@pytest.mark.parametrize("mu", [4, 2])
def test_high_order_chart_matches_the_exact_series(mu, dim, capsys):
    code, out, _ = run(
        ["chart", "--preset", f"logistic:{mu}", "--guess", "0", "--dim", str(dim)], capsys
    )
    assert code == 0
    _assert_chart_is_exact(out, mu, dim)


def test_chart_whose_multiplier_powers_overflow_is_right_and_quiet(capsys):
    # 4^k leaves the float range at k = 512; the recursion divides by it,
    # which only sends the tiny h_k there to 0, and must not warn.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(["chart", "--preset", "logistic:4", "--dim", "600"], capsys)
    assert (code, err) == (0, "")
    _assert_chart_is_exact(out, 4, 600)


def test_cli_paths_build_no_matrix(monkeypatch, tmp_path):
    import mapflow.carleman
    import mapflow.cli
    import mapflow.spectral

    def refuse(*args, **kwargs):
        raise AssertionError("a Carleman matrix was built or diagonalized")

    monkeypatch.setattr(mapflow.carleman, "build_matrix", refuse)
    monkeypatch.setattr(mapflow.cli, "build_matrix", refuse)
    monkeypatch.setattr(mapflow.spectral, "diagonalize", refuse)
    l4 = ["--preset", "logistic:4", "--guess", "0", "--dim", "40", "--r-eval", "0.6"]
    for argv in (
        ["chart", *l4],
        ["field", *l4],
        ["integrate", *l4, "--x0", "0.01", "--t-end", "0.1", "--dt", "0.01"],
        ["iterate", *l4, "--route", "both", "--t", "0.5", "--x", "0.05"],
    ):
        assert main([*argv, "--output", str(tmp_path / "out")]) == 0


# --- lyapunov / verify ----------------------------------------------------------

def test_lyapunov_json_schema(capsys):
    code, out, _ = run(["lyapunov", "--n", "2000", "--x0", "0.3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"n", "x0", "sigma_hat", "reference"}
    assert payload["reference"] == 0.6931471805599453
    assert payload["n"] == 2000


def test_lyapunov_rejects_a_complex_x0(capsys):
    code, out, err = run(["lyapunov", "--n", "2000", "--x0", "0.3+0.2j"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ValueError: lyapunov needs a real --x0")


def test_lyapunov_accepts_a_zero_imaginary_part(capsys):
    _, real, _ = run(["lyapunov", "--n", "2000", "--x0", "0.3"], capsys)
    code, zero_imag, _ = run(["lyapunov", "--n", "2000", "--x0", "0.3+0j"], capsys)
    assert code == 0
    assert zero_imag == real
    assert json.loads(real)["x0"] == 0.3


@pytest.mark.parametrize("x0", ["0.500000001", "0.5"])
def test_lyapunov_refuses_a_seed_that_collapses_onto_zero(capsys, x0):
    code, out, err = run(["lyapunov", "--n", "100000", "--x0", x0], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ValueError: orbit from ")
    assert "collapses onto x = 0" in err


def test_verify_lyapunov_suite(capsys):
    code, out, _ = run(["verify", "--suite", "lyapunov"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert payload["results"][0]["name"] == "lyapunov"


def test_verify_logistic4_suite_all_pass(capsys):
    code, out, err = run(["verify", "--suite", "logistic4"], capsys)
    assert code == 0, err
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert len(payload["results"]) == 10
    assert err.count("PASS") == 10


@pytest.mark.parametrize("argv", [
    ["--suite", "semigroup"],
    ["--suite", "lyapunov"],
], ids=["semigroup", "lyapunov"])
def test_verify_csv_and_json_report_the_same_checks(argv, capsys):
    code, out, err = run(["verify", *argv, "--format", "csv"], capsys)
    assert code == 0
    csv_rows = [line.split(",") for line in out.splitlines()[1:]]
    code, out, json_err = run(["verify", *argv, "--format", "json"], capsys)
    assert code == 0
    assert json_err == err
    results = json.loads(out)["results"]
    assert set(results[0]) == {"name", "passed", "deviation", "tolerance", "detail"}
    assert csv_rows == [
        [r["name"], str(r["passed"]).lower(), f"{r['deviation']:.17g}", f"{r['tolerance']:.17g}"]
        for r in results
    ]


def test_verify_csv_format(capsys):
    code, out, _ = run(
        ["verify", "--suite", "semigroup", "--format", "csv"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "name,passed,deviation,tolerance"
    assert lines[1].startswith("semigroup,true,")


# --- config file and determinism -------------------------------------------------

def test_config_file_supplies_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# demo config\npreset=logistic:4\nguess=0\nt=1\nx=0.05\nroute=chart\n"
    )
    code, out, _ = run(["iterate", "--config", str(cfg)], capsys)
    assert code == 0
    assert abs(float(out.splitlines()[1].split(",")[3]) - 0.19) < 1e-9


def test_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset=logistic:4\nguess=0\nt=1\nx=0.05\nroute=chart\n")
    code, out, _ = run(
        ["iterate", "--config", str(cfg), "--x", "0.02"], capsys
    )
    assert code == 0
    assert abs(float(out.splitlines()[1].split(",")[3]) - 0.0784) < 1e-9


def test_unknown_config_key_is_an_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    # run is the namespace slot of the command function, not a flag, and no
    # subcommand takes a fixed-point tolerance.
    for key in ("width", "run", "tol"):
        cfg.write_text(f"preset=logistic:4\n{key}=3\n")
        code, _, err = run(["chart", "--config", str(cfg)], capsys)
        assert code == 1
        assert err.startswith(f"error: ValueError: unknown config key '{key}'")


def test_config_file_fixed_point_is_the_guess_and_an_explicit_flag_wins(tmp_path, capsys):
    # fixed_point= is the config key of --fixed-point, the second spelling of
    # --guess.  At t = 0.5 the two charts of mu=4 give different values at
    # x = 0.3.  suite belongs to verify only and is ignored here.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset=logistic:4\nfixed_point=0.75\nr_eval=0.6\nt=0.5\nx=0.3\n"
                   "route=chart\nsuite=all\n")
    second, origin = logistic4_iterate_second(0.5, 0.3), logistic4_iterate(0.5, 0.3)
    assert abs(second - origin) > 0.1
    for flags, want in (([], second), (["--guess", "0"], origin),
                        (["--fixed-point", "0"], origin)):
        code, out, _ = run(["iterate", "--config", str(cfg), *flags], capsys)
        assert code == 0
        cells = out.splitlines()[1].split(",")
        assert abs(complex(float(cells[3]), float(cells[4])) - want) < 1e-9, flags


def test_config_key_of_another_subcommand_is_ignored(tmp_path, capsys):
    # format belongs to iterate and verify; chart prints its CSV as ever.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset=logistic:4\ndim=8\nformat=json\nguess=0\n")
    code, out, _ = run(["chart", "--config", str(cfg)], capsys)
    assert code == 0
    assert out.splitlines()[1] == "k,u_re,u_im,uinv_re,uinv_im"
    code, out, _ = run(["matrix", "--config", str(cfg)], capsys)
    assert code == 0
    assert out.startswith("carleman dim=8 ")


def test_config_file_switches_on_a_flag(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset=logistic:4\ndim=8\ncheck_quadrature=yes\n")
    code, out, _ = run(["matrix", "--config", str(cfg)], capsys)
    assert code == 0
    assert out.splitlines()[-1].startswith("quadrature_deviation=")


@pytest.mark.parametrize("command, body, message, allowed", [
    ("iterate", "preset=logistic:4\nt=1\nx=0.05\nroute=diagonal\n",
     "config key 'route': 'diagonal'", "'chart', 'matrix', 'both'"),
    ("verify", "suite=lyapunov\nn=1000\nformat=xml\n",
     "config key 'format': 'xml'", "'csv', 'json'"),
])
def test_config_value_outside_choices_is_an_error(command, body, message, allowed,
                                                  tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(body)
    code, out, err = run([command, "--config", str(cfg)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ValueError: " + message)
    assert allowed in err


# --- one parser shared by every call ------------------------------------------------

def test_config_file_does_not_leak_into_the_next_call(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dim=8\n")
    code, out, _ = run(["chart", "--preset", "logistic:4", "--config", str(cfg)], capsys)
    assert code == 0
    assert " dim=8 " in out.splitlines()[0]
    code, out, _ = run(["chart", "--preset", "logistic:4"], capsys)
    assert code == 0
    assert " dim=32 " in out.splitlines()[0]


def test_config_map_spec_does_not_leak_into_the_next_call(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset=logistic:4\nroute=chart\n")
    code, _, _ = run(["iterate", "--config", str(cfg), "--t", "1", "--x", "0.05"], capsys)
    assert code == 0
    code, _, err = run(["iterate", "--t", "1", "--x", "0.05"], capsys)
    assert code == 1
    assert "exactly one of --coeffs / --preset" in err


def test_main_builds_no_parser(monkeypatch, tmp_path, capsys):
    import mapflow.cli

    def refuse():
        raise AssertionError("main() built a parser")

    monkeypatch.setattr(mapflow.cli, "build_parser", refuse)
    test_config_file_does_not_leak_into_the_next_call(tmp_path, capsys)


def test_identical_config_byte_identical_output(tmp_path, capsys):
    args = ["iterate", "--preset", "logistic:4", "--guess", "0",
            "--t", "0.25,0.75", "--x", "0.01,0.03"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


# --- error paths ------------------------------------------------------------------

def test_restrictive_condition_exit_code(capsys):
    # identity-like map: multiplier 1 is a root of unity
    code, _, err = run(
        ["iterate", "--preset", "logistic:1", "--guess", "0", "--t", "1",
         "--x", "0.01"],
        capsys,
    )
    assert code == 3
    assert err.startswith("error: ")
    assert "\n" not in err.strip()


def test_chart_escape_exit_code(capsys):
    code, _, err = run(
        ["integrate", "--preset", "logistic:4", "--guess", "0", "--x0", "0.2",
         "--t-end", "2"],
        capsys,
    )
    assert code == 4
    assert err == ("error: ChartEscape: trajectory left the chart at t = 0: "
                   "|x - x*| = 0.2 exceeds the chart radius 0.075\n")


@pytest.mark.parametrize("x0", ["3", "3-0j"])
def test_an_overflow_escape_names_the_overflow(capsys, x0):
    # A float run (x0 = 3) and a complex one (3-0j) end on the same line.
    code, _, err = run(
        ["integrate", "--preset", "logistic:4", "--guess", "0", "--r-eval", "1e9",
         f"--x0={x0}", "--t-end", "1", "--dt", "0.1"],
        capsys,
    )
    assert code == 4
    assert err == ("error: ChartEscape: the field sum overflowed at t = 0.1: "
                   "the state is not finite\n")


@pytest.mark.parametrize("flags, message", [
    (["--t-end", "inf"], "t_end must be finite, got inf"),
    (["--t-end", "nan"], "t_end must be finite, got nan"),
    (["--dt", "nan"], "dt must be positive and finite, got nan"),
    (["--x0", "nan"], "x0 must be finite, got (nan+0j)"),
])
def test_integrate_refuses_a_non_finite_time_step_or_state(flags, message, capsys):
    code, out, err = run(["integrate", "--preset", "logistic:4", *flags], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: ValueError: {message}\n"


@pytest.mark.parametrize("flags, steps", [
    (["--dt", "1e-9"], "1000000000"),
    (["--dt", "5e-324", "--t-end", "1e300"], "inf"),
])
def test_integrate_refuses_more_steps_than_a_trajectory_may_hold(flags, steps, capsys):
    code, out, err = run(["integrate", "--preset", "logistic:4", *flags], capsys)
    assert code == 1
    assert out == ""
    assert err == (
        f"error: ValueError: |t_end|/dt asks for {steps} RK4 steps, more than the "
        "1000000 a trajectory may hold; raise dt or shorten t_end\n"
    )


@pytest.mark.parametrize("argv, message", [
    (["iterate", "--preset", "logistic:4", "--r-eval", "nan", "--t", "0.5", "--x", "0.01"],
     "r_eval must be positive, got nan"),
    (["chart", "--preset", "logistic:4", "--r-eval", "nan"], "r_eval must be positive, got nan"),
    (["chart", "--preset", "logistic:4", "--r-eval", "0"], "r_eval must be positive, got 0.0"),
    (["integrate", "--preset", "logistic:4", "--r-eval", "-1"], "r_eval must be positive, got -1.0"),
])
def test_nonsensical_radius_or_node_count_is_refused(argv, message, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any warning
        code, _, err = run(argv, capsys)
    assert code == 1
    assert err == f"error: ValueError: {message}\n"


@pytest.mark.parametrize("argv", [
    ["iterate", "--preset", "logistic:4", "--t", "0.5", "--x", "0.1", "--dim", "1000000000"],
    ["matrix", "--preset", "logistic:4", "--dim", "1000000000"],
], ids=["iterate", "matrix"])
def test_running_out_of_memory_is_one_error_line(argv, monkeypatch, capsys):
    import mapflow.cli

    def out_of_memory(*args):
        raise MemoryError("Unable to allocate 14.9 GiB")

    # The stand-in raises where the map would be allocated; nothing large is.
    monkeypatch.setattr(mapflow.cli, "logistic_series", out_of_memory)
    code, out, err = run(argv, capsys)
    assert code == 1
    assert out == ""
    assert err == "error: MemoryError: Unable to allocate 14.9 GiB\n"


def test_infinite_r_eval_is_accepted(capsys):
    code, out, _ = run(["chart", "--preset", "logistic:4", "--r-eval", "inf"], capsys)
    assert code == 0
    assert " r_eval=inf\n" in out


@pytest.mark.parametrize("argv", [
    ["matrix", "--guess", "0"],
    ["matrix", "--tol", "1e-9"],
    ["matrix", "--r-eval", "0.5"],
    ["matrix", "--format", "csv"],
    ["chart", "--format", "json"],
    ["field", "--format", "csv"],
    ["integrate", "--format", "json"],
    # No subcommand takes a fixed-point tolerance.
    ["iterate", "--tol", "1e-9"],
    ["chart", "--tol", "1e-9"],
    ["field", "--tol", "1e-9"],
    ["integrate", "--tol", "1e-9"],
    # Each verify check runs at the order and sample count of its tolerance,
    # and --check-quadrature always takes the exact default node count.
    ["verify", "--dim", "7"],
    ["verify", "--n", "5000"],
    ["matrix", "--quadrature-nodes", "3"],
])
def test_flag_the_subcommand_does_not_take_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--preset", "logistic:4", "--dim", "8"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.startswith("usage: mapflow ")
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in captured.err


@pytest.mark.parametrize("flag, text, message", [
    ("--t", "a", "'a' is not a number"),
    ("--t", "0.5, 2x", "' 2x' is not a number"),
    ("--x", "0.1,1+", "'1+' is not a complex number"),
    ("--coeffs", "0,4,-4j4", "'-4j4' is not a complex number"),
], ids=["t", "t-second-item", "x", "coeffs"])
def test_a_bad_list_item_is_a_usage_error_naming_the_flag_and_the_item(
    flag, text, message, capsys
):
    with pytest.raises(SystemExit) as exc:
        main(["iterate", "--t", "0.5", "--x", "0.1", flag, text])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.startswith("usage: mapflow iterate ")
    assert captured.err.endswith(f"error: argument {flag}: {message}\n")


@pytest.mark.parametrize("entry, message", [
    ("t=a", "config key 't': 'a' is not a number"),
    ("x=0.1,1+", "config key 'x': '1+' is not a complex number"),
], ids=["t", "x"])
def test_a_bad_list_item_in_a_config_file_is_one_error_line_naming_the_item(
    entry, message, tmp_path, capsys
):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"preset=logistic:4\nt=0.5\nx=0.1\n{entry}\n")
    code, out, err = run(["iterate", "--config", str(cfg)], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: ValueError: {message}\n"


def test_map_spec_required(capsys):
    code, _, err = run(["matrix", "--dim", "8"], capsys)
    assert code == 1
    assert err.startswith("error: ")


def test_both_map_specs_rejected(capsys):
    code, _, err = run(
        ["matrix", "--dim", "8", "--preset", "logistic:4", "--coeffs", "0,1"],
        capsys,
    )
    assert code == 1


def test_small_dim_rejected(capsys):
    code, _, _ = run(["matrix", "--preset", "logistic:4", "--dim", "2"], capsys)
    assert code == 1


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mapflow", "lyapunov", "--n", "1000"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n"] == 1000
