"""Command-line front end.

Subcommands: matrix, iterate, chart, field, integrate, lyapunov, verify.
Outputs are deterministic CSV (or JSON where noted) intended for plotting;
complex values in CSV grids are always split into re/im columns.  A
subcommand accepts only the flags it reads: the chart flags ``--guess``
(also spelled ``--fixed-point``) and ``--r-eval`` belong to iterate, chart,
field and integrate, and ``--format`` to iterate and verify.  verify takes
no order or sample count: each check runs at the settings its tolerance was
pinned for.
Every flag can also be given in a key=value config file (``--config``),
keyed by any of its long names with ``_`` for ``-``; explicit flags win over
file entries, and file values are checked like flags (type and allowed
choices).

Each subcommand is made by one helper, ``command`` (``map_command`` adds the
map and chart flags), which gives it ``--output`` and ``--config`` and names
its command function as the ``run`` default; ``main`` calls ``ns.run(ns)``:
the parser's table of subcommands is the only one.  A command function writes
its output and returns None, or the exit code of a failed verification.  The
CSV tables of chart, field, integrate and verify come from one writer,
``_table``, and every JSON output from ``_emit_json``.  iterate makes one
pass over its grid, forming CSV rows; its JSON is those same rows, keyed by
the CSV header and each cell typed.  The closed forms that fill
iterate's reference columns sit in one table of (mu, x*, f^t),
``_REFERENCES``.  The parser is built once, when this module is imported
(after the command functions it names), so ``main(argv)`` may be called many
times in one process and each call pays only for parsing and its own
command.  A config file applies to its own call only: it never changes the
shared parser.

Exit codes: 0 success (verify: all checks passed), 1 generic error or failed
verification, 2 usage error, 3 restrictive-condition violations (zero /
root-of-unity multiplier, resonant eigenvalues), 4 out-of-chart or chart
escape, 5 non-convergent series sum.  Errors print a single machine-parsable
line ``error: <Type>: <message>`` on stderr.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import io
import json
import sys
from itertools import chain

from . import verify as verify_mod
from .carleman import (
    build_matrix,
    build_matrix_quadrature,
    format_complex,
    scaled_deviation,
    write_matrix_csv,
)
from .errors import (
    ChartEscape,
    MapflowError,
    NonConvergent,
    OutOfChart,
    RestrictiveConditionViolated,
)
from .flow import integrate_flow, lyapunov_logistic, pipeline
from .iterate import PointStatus
from .logistic import (
    LN2,
    logistic2_iterate,
    logistic4_iterate,
    logistic4_iterate_second,
    logistic_series,
)
from .series import PowerSeries

EXIT_OK = 0
EXIT_ERROR = 1

# The exit code of each error type, first match wins; other errors exit 1
# (argparse exits 2 on a usage error).
_ERROR_EXITS = (
    (RestrictiveConditionViolated, 3),
    ((OutOfChart, ChartEscape), 4),
    (NonConvergent, 5),
)

DEFAULT_DIM = 32
DEFAULT_LYAPUNOV_N = 100_000


def _comma_list(kind, noun: str):
    """The argparse type of a comma list of ``kind`` items; blank items are
    skipped.  argparse's usage error names the flag and the bad item."""
    def item(text: str):
        try:
            return kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not {noun}") from None
    return lambda text: [item(s) for s in text.split(",") if s.strip()]


def load_config_file(path: str) -> dict:
    """key=value lines; blank lines and # comments ignored."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line (need key=value): {line!r}")
            key, _, val = line.partition("=")
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def build_parser() -> tuple:
    """The parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="mapflow",
        description="continuous iterates and flows of analytic 1-D maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, run):
        """A subcommand that runs ``run``, with ``--output`` and ``--config``."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        p.add_argument("--output", default=None, help="output path (default stdout)")
        p.add_argument("--config", default=None,
                       help="key=value file mirroring these flags")
        return p

    def map_command(name, summary, run, chart=True):
        """A subcommand that reads a map; ``chart`` adds the chart's flags."""
        p = command(name, summary, run)
        p.add_argument("--coeffs", type=_comma_list(complex, "a complex number"),
                       default=None,
                       help="map coefficients, lowest degree first, e.g. 0,4,-4")
        p.add_argument("--preset", default=None, help="named map, e.g. logistic:4")
        p.add_argument("--dim", type=int, default=DEFAULT_DIM,
                       help=f"truncation order (default {DEFAULT_DIM})")
        if chart:
            p.add_argument("--guess", "--fixed-point", type=complex, default=0j,
                           help="fixed-point search start (default 0)")
            p.add_argument("--r-eval", type=float, default=None, dest="r_eval",
                           help="chart evaluation radius override")
        return p

    p = map_command("matrix", "dump the embedding matrix", cmd_matrix, chart=False)
    p.add_argument("--check-quadrature", action="store_true",
                   help="also report the builder-agreement deviation")

    p = map_command("iterate", "evaluate f^t over a (t, x) grid", cmd_iterate)
    p.add_argument("--format", default=None, choices=("csv", "json"),
                   help="output format (default csv)")
    p.add_argument("--t", type=_comma_list(float, "a number"), default=None,
                   help="comma list of times")
    p.add_argument("--x", type=_comma_list(complex, "a complex number"), default=None,
                   help="comma list of evaluation points")
    p.add_argument("--route", default="both", choices=("chart", "matrix", "both"))

    map_command("chart", "dump the linearizing chart series", cmd_chart)
    map_command("field", "dump the flow field coefficients", cmd_field)
    p = map_command("integrate", "integrate dx/dt = G(x)", cmd_integrate)
    p.add_argument("--x0", type=complex, default=None, help="initial state")
    p.add_argument("--t-end", type=float, default=1.0, dest="t_end")
    p.add_argument("--dt", type=float, default=1e-3)

    p = command("lyapunov", "chain-rule Lyapunov estimate (mu=4)", cmd_lyapunov)
    p.add_argument("--n", type=int, default=DEFAULT_LYAPUNOV_N)
    p.add_argument("--x0", type=complex, default=0.123456)

    p = command("verify", "run a verification suite", cmd_verify)
    p.add_argument("--suite", default="all", choices=sorted(verify_mod.SUITES))
    p.add_argument("--format", default=None, choices=("csv", "json"))

    return parser, sub.choices


def _apply_config_file(ns, argv) -> argparse.Namespace:
    """Parse the arguments after the command name again, over the config
    file's entries.

    Each entry is converted by the ``type`` of the command's own flag (a
    switch reads 1/true/yes as on) and must be one of its ``choices``.  Keys
    that only other subcommands accept are ignored; keys no subcommand
    accepts raise ``ValueError``.  The entries pre-fill the namespace, and
    argparse fills in defaults only for attributes not yet set, so explicit
    flags still win and the shared parser is left unchanged.
    """
    command = _SUBPARSERS[ns.command]
    own = {key: a for a in command._actions for key in _config_keys(a)}
    values = {}
    for key, text in load_config_file(ns.config).items():
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        action = own.get(key)
        if action is None:
            continue
        if action.nargs == 0:
            value = text.lower() in {"1", "true", "yes"}
        else:
            try:
                value = text if action.type is None else action.type(text)
            except argparse.ArgumentTypeError as exc:
                raise ValueError(f"config key {key!r}: {exc}") from None
        if action.choices is not None and value not in action.choices:
            allowed = ", ".join(map(repr, action.choices))
            raise ValueError(f"config key {key!r}: {value!r} is not one of {allowed}")
        values[action.dest] = value
    rest = argv[argv.index(ns.command) + 1:]
    return command.parse_args(rest, argparse.Namespace(command=ns.command, **values))


def _preset_mu(ns) -> complex | None:
    if ns.preset is None:
        return None
    name, _, param = ns.preset.partition(":")
    if name != "logistic":
        raise ValueError(f"unknown preset {ns.preset!r}")
    return complex(param) if param else complex(4.0)


def _map_series(ns) -> PowerSeries:
    """The map of ``--coeffs`` or ``--preset``, truncated at ``--dim``."""
    if (ns.coeffs is None) == (ns.preset is None):
        raise ValueError("exactly one of --coeffs / --preset must be given")
    if ns.dim < 4:
        raise ValueError("--dim must be at least 4")
    mu = _preset_mu(ns)
    if mu is not None:
        return logistic_series(mu, ns.dim)
    return PowerSeries.from_coefficients(ns.coeffs, 0j, order=ns.dim)


def _pipeline(ns):
    """The pipeline of the map and chart flags."""
    return pipeline(_map_series(ns), ns.guess, r_eval=ns.r_eval)


def _emit(ns, text: str):
    if ns.output:
        with open(ns.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(ns, payload):
    _emit(ns, json.dumps(payload, indent=2) + "\n")


def cmd_matrix(ns) -> None:
    f = _map_series(ns)
    # Both matrices are built, and refused if not finite, before any output.
    M = build_matrix(f, ns.dim)
    if ns.check_quadrature:
        Q = build_matrix_quadrature(f, ns.dim)
    buf = io.StringIO()
    write_matrix_csv(M, buf)
    _emit(ns, buf.getvalue())
    if ns.check_quadrature:
        dev = scaled_deviation(M.entries, Q.entries)
        sys.stdout.write(f"quadrature_deviation={dev:.17g}\n")


# The closed forms of the logistic iterate: (mu, x*, f^t).
_REFERENCES = (
    (4.0, 0.0, logistic4_iterate),
    (4.0, 0.75, logistic4_iterate_second),
    (2.0, 0.0, logistic2_iterate),
)


def _reference_fn(ns, x_star: complex):
    """The closed form of ``--preset``'s map at x*, or None."""
    mu = _preset_mu(ns)
    if mu is None or mu.imag != 0:
        return None
    return next((
        fn for m, x, fn in _REFERENCES if abs(mu - m) < 1e-12 and abs(x_star - x) < 1e-6
    ), None)


def _reference_value(reference, t, x) -> complex | None:
    """The closed form at (t, x), or None where there is none, where it has no
    finite value (an x off the real segment of the map escapes to infinity;
    a t or x that is not finite) or where it cannot be evaluated (a logarithm
    of 0, as at x = 1/2 on the mu=2 map)."""
    if reference is None:
        return None
    try:
        value = reference(t, x)
    except (OverflowError, ValueError):
        return None
    return value if cmath.isfinite(value) else None


# The columns of iterate's CSV header, and the keys of its JSON objects.
_ITERATE_COLUMNS = (
    "t", "x_re", "x_im", "ft_re", "ft_im", "route", "converged", "ref_re", "ref_im",
)
# iterate's JSON value of each CSV cell that is not a %.17g number.
_JSON_WORDS = {"": None, "true": True, "false": False, "chart": "chart", "matrix": "matrix"}


def _json_cell(cell: str):
    """iterate's JSON value of a CSV cell; a %.17g number reads back as the
    very float it was formatted from."""
    return _JSON_WORDS[cell] if cell in _JSON_WORDS else float(cell)


def cmd_iterate(ns) -> None:
    if not ns.t or not ns.x:
        raise ValueError("iterate needs non-empty --t and --x grids")
    p = _pipeline(ns)
    routes = []
    for name in ("chart", "matrix") if ns.route == "both" else (ns.route,):
        grid = p.grid(name, ns.t, ns.x)
        routes.append((name, grid.values.tolist(), (grid.status == PointStatus.OK).tolist()))
    reference = _reference_fn(ns, p.chart.x_star)

    # Each t and x is formatted once; a row joins the cached cells.
    x_cells = [f"{x.real:.17g},{x.imag:.17g}" for x in ns.x]
    lines = [",".join(_ITERATE_COLUMNS)]
    for i, t in enumerate(ns.t):
        t_cell = f"{t:.17g}"
        for j, x in enumerate(ns.x):
            r = _reference_value(reference, t, x)
            ref_cells = "," if r is None else f"{r.real:.17g},{r.imag:.17g}"
            for name, values, converged in routes:
                if converged[i][j]:
                    v = values[i][j]
                    cells = f"{v.real:.17g},{v.imag:.17g},{name},true"
                else:
                    cells = f",,{name},false"
                lines.append(f"{t_cell},{x_cells[j]},{cells},{ref_cells}")
    if ns.format == "json":
        _emit_json(ns, [dict(zip(_ITERATE_COLUMNS, map(_json_cell, line.split(","))))
                        for line in lines[1:]])
    else:
        _emit(ns, "\n".join(lines) + "\n")


def _table(header: str, fmt: str, rows) -> str:
    """``header``, then one ``fmt`` line per row of cells.  One % pass formats
    every cell; ``%.17g`` gives what f"{v:.17g}" would."""
    rows = list(rows)
    return f"{header}\n" + f"{fmt}\n" * len(rows) % tuple(chain.from_iterable(rows))


def cmd_chart(ns) -> None:
    chart = _pipeline(ns).chart
    _emit(ns, _table(
        f"chart x_star={format_complex(chart.x_star)} "
        f"lambda={format_complex(chart.multiplier)} "
        f"dim={chart.forward.order} r_eval={chart.r_eval:.17g}\n"
        "k,u_re,u_im,uinv_re,uinv_im",
        "%d,%.17g,%.17g,%.17g,%.17g",
        ((k, u.real, u.imag, v.real, v.imag) for k, (u, v) in
         enumerate(zip(chart.forward.coeffs.tolist(), chart.inverse.coeffs.tolist()))),
    ))


def cmd_field(ns) -> None:
    field_ = _pipeline(ns).field
    _emit(ns, _table(
        f"field x_star={format_complex(field_.x_star)} "
        f"lambda={format_complex(field_.chart.multiplier)} dim={field_.series.order}\n"
        "k,g_re,g_im",
        "%d,%.17g,%.17g",
        ((k, c.real, c.imag) for k, c in enumerate(field_.series.coeffs.tolist())),
    ))


def cmd_integrate(ns) -> None:
    field_ = _pipeline(ns).field
    x0 = ns.x0 if ns.x0 is not None else field_.x_star
    trajectory = integrate_flow(field_, x0, ns.t_end, dt=ns.dt)
    _emit(ns, _table("t,x_re,x_im", "%.17g,%.17g,%.17g",
                     ((t, x.real, x.imag) for t, x in trajectory)))


def cmd_lyapunov(ns) -> None:
    if ns.x0.imag != 0:
        raise ValueError(f"lyapunov needs a real --x0, got {ns.x0!r}")
    x0 = ns.x0.real
    sigma = lyapunov_logistic(ns.n, x0)
    _emit_json(ns, {
        "n": ns.n,
        "x0": x0,
        "sigma_hat": sigma,
        "reference": LN2,
    })


def cmd_verify(ns) -> int | None:
    results = verify_mod.run_suite(ns.suite)
    all_passed = all(r.passed for r in results)
    if ns.format == "csv":
        _emit(ns, _table(
            "name,passed,deviation,tolerance", "%s,%s,%.17g,%.17g",
            ((r.name, str(r.passed).lower(), r.deviation, r.tolerance) for r in results),
        ))
    else:
        _emit_json(ns, {
            "suite": ns.suite,
            "results": [dataclasses.asdict(r) for r in results],
            "all_passed": all_passed,
        })
    for r in results:
        sys.stderr.write(r.line() + "\n")
    return None if all_passed else EXIT_ERROR


def _config_keys(action) -> list:
    """The config-file keys of a flag: its long names, with ``_`` for ``-``."""
    return [s[2:].replace("-", "_") for s in action.option_strings if s.startswith("--")]


_PARSER, _SUBPARSERS = build_parser()
_CONFIG_KEYS = frozenset(
    key for p in _SUBPARSERS.values() for a in p._actions for key in _config_keys(a)
) - {"help", "config"}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    ns = _PARSER.parse_args(argv)
    try:
        if ns.config:
            ns = _apply_config_file(ns, argv)
        return ns.run(ns) or EXIT_OK
    except (MapflowError, ValueError, OSError, MemoryError) as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return next((code for kind, code in _ERROR_EXITS if isinstance(exc, kind)), EXIT_ERROR)


if __name__ == "__main__":
    sys.exit(main())
