"""Byte-for-byte regression tests of ``mapflow`` output.

Each file under ``tests/golden`` is the output of the command line next to
its name.  The ``chart``, ``field`` and ``integrate`` files were written
before the spectral routines stopped carrying the shift matrices.  The
files whose last digits changed when the chart series came to be computed
by the Poincare recursion and Lagrange inversion were written again, after
their coefficients were checked against the closed forms (or a 50-digit run
for the cubic) and their iterates against the reference column.  The
``iterate`` files were written again when the forward series came to be
summed directly only within its series radius and the grid evaluators
moved to numpy complex arithmetic; every converged value was checked
against the reference column (the cubic's integer times against the map
applied by hand).  The chart and field files at 3/4 and the cubic's field
were written again when Lagrange inversion and the field row came to share
baby-step/giant-step powers; every coefficient was checked first, u and
Log(lambda) u/u' at 3/4 against the closed form, the cubic's field against
a 50-digit run.  Worst relative error over k >= 1, old -> new:
chart_34_d40 u 1.65e-15 -> 1.86e-15 (u^-1 unchanged, 7.05e-16);
chart_34_d80 u 2.83e-15 -> 3.57e-15 (u^-1 unchanged, 1.38e-15);
field_34_d40 1.79e-15 -> 1.69e-15; field_34_d80 3.25e-15 -> 3.61e-15;
field_cubic 4.75e-15 -> 5.53e-15.  No coefficient moved by more than
2.3e-15 relative.
The iterate grids cover chart continuation at 3/4, time-shift steps,
refusals by the evaluation radius and by the tail test, negative times, a
complex cubic given by coefficients, both routes side by side and JSON
output.  The two ``json_*`` files hold every kind of JSON cell: converged
and refused values, filled and empty references, a time or point that is
not finite, -0.0 and complex points; they were written before iterate's
JSON came to be read from its CSV rows.  The six files with mode-route rows
were written again when the mode route came to sum row 1 of M^t in the
power basis, after the audit test below had passed on the old files and on
the new: no point changed status, every chart row stayed byte-identical,
and no mode-route value moved by more than 9.9e-15 relative, except the
known fault at t = 4, x = 0.25 (7.5e-11).  ``time_shift.csv`` and
``mode_refusals.json`` were written again when the time shift came to aim
inside the chart's conditioned ``inverse_radius``, after the audit test
below had passed on the old files and on the new: no point changed status,
only chart-route values moved (16 and 6 of them), and the worst chart-route
error fell from 6.6e-11 to 1.8e-14 and from 2.1e-11 to 2.5e-13 relative
(t = 4, x = 0.66: 6.6e-11 -> 1.1e-16; t = 6, x = 0.6: 2.1e-11 -> 2.1e-14).
No error rose by more than 1.8e-14 relative.  Every other file stayed
byte-identical.  Command lines that reproduce known
wrong mode-route values are left out.  The chart, field and integrate files pin the fixed point 3/4
(a negative multiplier, so a complex field) at two orders and the complex
cubic's field.  ``lyapunov.json`` pins the bits of the Lyapunov estimate at
verify's first seed; it was written while the orbit chunks were still
gathered in a Python list, before they came to be written into a reused
numpy buffer.
"""

import csv
import json
from pathlib import Path

import pytest

from mapflow.cli import main

GOLDEN = Path(__file__).parent / "golden"

L4_0 = ["--preset", "logistic:4", "--fixed-point", "0", "--dim", "40", "--r-eval", "0.95"]
L4_34 = ["--preset", "logistic:4", "--fixed-point", "0.75", "--dim", "40", "--r-eval", "0.6"]
L2_0 = ["--preset", "logistic:2", "--fixed-point", "0", "--dim", "40", "--r-eval", "0.45"]
CUBIC = ["--coeffs=0,1.8+0.9j,0.5-0.4j,0.2+0.1j", "--fixed-point", "0", "--dim", "40",
         "--r-eval", "0.65"]
L4_GUESS_34 = ["--preset", "logistic:4", "--guess", "0.7"]

COMMANDS = {
    "continuation.csv": ["iterate", *L4_34, "--route", "chart", "--t=0.3,1.1,2.5",
                         "--x=0.15,0.22,0.3,0.38,0.45"],
    "time_shift.csv": ["iterate", *L4_0, "--route", "chart", "--t=0.5,1.7,2.9,3.6,4",
                       "--x=-0.45,-0.1,0.2,0.5,0.66"],
    "refusals.csv": ["iterate", *L4_34, "--route", "chart", "--t=0.5,3.9",
                     "--x=0.3,0.8,1.2,1.4"],
    "negative_t.csv": ["iterate", *L4_0, "--route", "chart", "--t=-2.5,-1,-0.3",
                       "--x=-0.4,0.1,0.5,0.9"],
    "cubic.csv": ["iterate", *CUBIC, "--route", "both", "--t=0.5,1,2",
                  "--x=0.1+0.05j,-0.15+0.1j,0.02-0.18j,0.19j"],
    "route_both.csv": ["iterate", *L2_0, "--route", "both", "--t=-0.5,0.5,1.5",
                       "--x=-0.3,0.05,0.3,0.4"],
    "mode_refusals.json": ["iterate", *L4_0, "--route", "both", "--format", "json",
                           "--t=0.5,4,6", "--x=-0.5,0.25,0.6"],
    "second_chart.json": ["iterate", *L4_34, "--route", "both", "--format", "json",
                          "--t=0.25,1.5", "--x=0.7,0.85"],
    "json_cells.json": ["iterate", *L4_0, "--route", "both", "--format", "json",
                        "--t=0.5,1.5,inf,-0.0", "--x=-0.0,0.25,0.5+0.1j,1.2,nan"],
    "json_cubic.json": ["iterate", *CUBIC, "--route", "both", "--format", "json",
                        "--t=0.5,2,nan", "--x=0.1+0.05j,-0.0,0.9,inf"],
    "chart_34_d40.csv": ["chart", *L4_GUESS_34, "--dim", "40"],
    "chart_34_d80.csv": ["chart", *L4_GUESS_34, "--dim", "80"],
    "field_34_d40.csv": ["field", *L4_GUESS_34, "--dim", "40"],
    "field_34_d80.csv": ["field", *L4_GUESS_34, "--dim", "80"],
    "field_cubic.csv": ["field", "--coeffs=0,1.8+0.9j,0.5-0.4j,0.2+0.1j", "--guess", "0",
                        "--dim", "40"],
    "integrate_34.csv": ["integrate", *L4_GUESS_34, "--dim", "40", "--r-eval", "0.6",
                         "--x0", "0.8", "--t-end", "0.5", "--dt", "0.01"],
    "lyapunov.json": ["lyapunov", "--n", "100000", "--x0", "0.123456"],
}


def _names(iterate: bool) -> list:
    return sorted(n for n, argv in COMMANDS.items() if (argv[0] == "iterate") == iterate)


def _assert_byte_identical(name, tmp_path):
    out = tmp_path / name
    assert main([*COMMANDS[name], "--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", _names(iterate=True))
def test_iterate_output_is_byte_identical(name, tmp_path):
    _assert_byte_identical(name, tmp_path)


@pytest.mark.parametrize("name", _names(iterate=False))
def test_chart_field_integrate_output_is_byte_identical(name, tmp_path):
    _assert_byte_identical(name, tmp_path)


# Converged values that are known to be off their reference by more than the
# audit's 1e-9, each with the ROADMAP item or CHANGES.md FOUND line that
# names the fault: (file, route, t, x).
KNOWN_FAULTS = {
    # Item 1: the mode sum is summed out to r_eval, past the series radius of
    # u (1.2e-7 and 1.5e-8).
    ("route_both.csv", "matrix", -0.5, 0.4): "ROADMAP item 1",
    ("route_both.csv", "matrix", 0.5, 0.4): "ROADMAP item 1",
    # The last-mode test does not see cancellation among large terms (1.4e-9).
    ("mode_refusals.json", "matrix", 4.0, 0.25): "FOUND: the mode route's last-mode test",
}
AUDIT_TOL = 1e-9


def _golden_rows(name: str) -> list:
    """The rows of an iterate golden as dicts of typed cells, as iterate's
    JSON gives them: floats, booleans, the route name and None for empty."""
    path = GOLDEN / name
    if name.endswith(".json"):
        return json.loads(path.read_text())
    words = {"": None, "true": True, "false": False}
    return [{k: words[v] if v in words else v if k == "route" else float(v)
             for k, v in row.items()} for row in csv.DictReader(path.open())]


def _cubic(x: complex) -> complex:
    return (1.8 + 0.9j) * x + (0.5 - 0.4j) * x**2 + (0.2 + 0.1j) * x**3


def _audit_error(row) -> float | None:
    """|f^t - reference| / max(1, |reference|) of a converged row, the
    reference being the closed form's column, or the cubic applied by hand
    at an integer time; None where there is neither."""
    if not row["converged"]:
        return None
    value = complex(row["ft_re"], row["ft_im"])
    if row["ref_re"] is not None:
        ref = complex(row["ref_re"], row["ref_im"])
    elif row["t"] in (1.0, 2.0):
        ref = complex(row["x_re"], row["x_im"])
        for _ in range(int(row["t"])):
            ref = _cubic(ref)
    else:
        return None
    return abs(value - ref) / max(1.0, abs(ref))


def test_every_converged_golden_value_is_within_1e_9_of_its_reference():
    audited, faults = 0, {}
    for name in _names(iterate=True):
        cubic = "--coeffs=0,1.8+0.9j,0.5-0.4j,0.2+0.1j" in COMMANDS[name]
        for row in _golden_rows(name):
            error = _audit_error(row)
            if error is None:
                continue
            assert cubic or row["ref_re"] is not None
            audited += 1
            key = (name, row["route"], row["t"], complex(row["x_re"], row["x_im"]))
            if key in KNOWN_FAULTS:
                faults[key] = error
            else:
                assert error <= AUDIT_TOL, (key, error)
    assert audited > 100
    # A known fault that no longer shows must leave the list.
    assert set(faults) == set(KNOWN_FAULTS)
    assert min(faults.values()) > AUDIT_TOL
