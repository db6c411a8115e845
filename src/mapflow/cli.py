"""Command-line front end.

Subcommands: matrix, iterate, chart, field, integrate, lyapunov, verify.
Outputs are deterministic CSV (or JSON where noted) intended for plotting;
complex values in CSV grids are always split into re/im columns.  Every flag
can also be given in a key=value config file (``--config``); explicit flags
win over file entries, and file values are checked like flags (type and
allowed choices).

The parser is built once, when this module is imported, so ``main(argv)`` may
be called many times in one process and each call pays only for parsing and
its own command.  A config file applies to its own call only: it never
changes the shared parser.

Exit codes: 0 success (verify: all checks passed), 1 generic error or failed
verification, 2 usage error, 3 restrictive-condition violations (zero /
root-of-unity multiplier, resonant eigenvalues), 4 out-of-chart or chart
escape, 5 non-convergent series sum.  Errors print a single machine-parsable
line ``error: <Type>: <message>`` on stderr.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

from . import verify as verify_mod
from .carleman import (
    build_matrix,
    build_matrix_quadrature,
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
from .flow import field_pipeline, integrate_flow, lyapunov_logistic
from .iterate import (
    PointStatus,
    build_expansion,
    chart_pipeline,
    evaluate_chart_grid,
    evaluate_matrix_grid,
)
from .logistic import (
    logistic2_iterate,
    logistic4_iterate,
    logistic4_iterate_second,
    logistic_series,
)
from .series import PowerSeries

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_RESTRICTIVE = 3
EXIT_OUT_OF_CHART = 4
EXIT_NONCONVERGENT = 5

DEFAULT_DIM = 32
DEFAULT_LYAPUNOV_N = 100_000


def _parse_complex_list(text: str) -> list:
    return [complex(item) for item in text.split(",") if item.strip()]


def _parse_float_list(text: str) -> list:
    return [float(item) for item in text.split(",") if item.strip()]


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

    def common(p, grids=False):
        p.add_argument("--coeffs", type=_parse_complex_list, default=None,
                       help="map coefficients, lowest degree first, e.g. 0,4,-4")
        p.add_argument("--preset", default=None, help="named map, e.g. logistic:4")
        p.add_argument("--dim", type=int, default=DEFAULT_DIM,
                       help=f"truncation order (default {DEFAULT_DIM})")
        p.add_argument("--guess", type=complex, default=0j,
                       help="fixed-point search start (default 0)")
        p.add_argument("--tol", type=float, default=None,
                       help="fixed-point residual tolerance override")
        p.add_argument("--r-eval", type=float, default=None, dest="r_eval",
                       help="chart evaluation radius override")
        p.add_argument("--output", default=None, help="output path (default stdout)")
        p.add_argument("--format", default=None, choices=("csv", "json"),
                       help="output format where supported")
        p.add_argument("--config", default=None,
                       help="key=value file mirroring these flags")
        if grids:
            p.add_argument("--t", type=_parse_float_list, default=None,
                           help="comma list of times")
            p.add_argument("--x", type=_parse_complex_list, default=None,
                           help="comma list of evaluation points")

    p = sub.add_parser("matrix", help="dump the embedding matrix")
    common(p)
    p.add_argument("--check-quadrature", action="store_true",
                   help="also report the builder-agreement deviation")
    p.add_argument("--quadrature-nodes", type=int, default=None)

    p = sub.add_parser("iterate", help="evaluate f^t over a (t, x) grid")
    common(p, grids=True)
    p.add_argument("--route", default="both", choices=("chart", "matrix", "both"))
    p.add_argument("--fixed-point", type=complex, default=None, dest="fixed_point",
                   help="which fixed point's chart to use (overrides --guess)")

    p = sub.add_parser("chart", help="dump the linearizing chart series")
    common(p)

    p = sub.add_parser("field", help="dump the flow field coefficients")
    common(p)

    p = sub.add_parser("integrate", help="integrate dx/dt = G(x)")
    common(p)
    p.add_argument("--x0", type=complex, default=None, help="initial state")
    p.add_argument("--t-end", type=float, default=1.0, dest="t_end")
    p.add_argument("--dt", type=float, default=1e-3)

    p = sub.add_parser("lyapunov", help="chain-rule Lyapunov estimate (mu=4)")
    p.add_argument("--n", type=int, default=DEFAULT_LYAPUNOV_N)
    p.add_argument("--x0", type=complex, default=0.123456)
    p.add_argument("--output", default=None)
    p.add_argument("--config", default=None)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", default="all", choices=sorted(verify_mod.SUITES))
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--output", default=None)
    p.add_argument("--format", default=None, choices=("csv", "json"))
    p.add_argument("--config", default=None)

    return parser, sub.choices


_PARSER, _SUBPARSERS = build_parser()
_CONFIG_KEYS = frozenset(
    a.dest for p in _SUBPARSERS.values() for a in p._actions
) - {"help", "config"}


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
    own = {a.dest: a for a in command._actions}
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
            value = text if action.type is None else action.type(text)
        if action.choices is not None and value not in action.choices:
            allowed = ", ".join(map(repr, action.choices))
            raise ValueError(f"config key {key!r}: {value!r} is not one of {allowed}")
        values[key] = value
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


def _emit(ns, text: str):
    if ns.output:
        with open(ns.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_matrix(ns) -> int:
    f = _map_series(ns)
    M = build_matrix(f, ns.dim)
    buf = io.StringIO()
    write_matrix_csv(M, buf)
    _emit(ns, buf.getvalue())
    if ns.check_quadrature:
        Q = build_matrix_quadrature(f, ns.dim, nodes=ns.quadrature_nodes)
        dev = scaled_deviation(M.entries, Q.entries)
        sys.stdout.write(f"quadrature_deviation={dev:.17g}\n")
    return EXIT_OK


def _reference_fn(ns, x_star: complex):
    mu = _preset_mu(ns)
    if mu is None or mu.imag != 0:
        return None
    if abs(mu - 4.0) < 1e-12:
        if abs(x_star) < 1e-6:
            return logistic4_iterate
        if abs(x_star - 0.75) < 1e-6:
            return logistic4_iterate_second
    if abs(mu - 2.0) < 1e-12 and abs(x_star) < 1e-6:
        return logistic2_iterate
    return None


def _reference_value(reference, t, x) -> complex | None:
    """The closed form at (t, x), or None where it has no finite value
    (an x off the real segment of the map escapes to infinity)."""
    try:
        return reference(t, x)
    except OverflowError:
        return None


def cmd_iterate(ns) -> int:
    f = _map_series(ns)
    if not ns.t or not ns.x:
        raise ValueError("iterate needs non-empty --t and --x grids")
    guess = ns.guess if ns.fixed_point is None else ns.fixed_point
    frame, fact, chart = chart_pipeline(f, guess, ns.dim, r_eval=ns.r_eval, tol_fix=ns.tol)
    grids = []
    if ns.route in ("chart", "both"):
        grids.append(("chart", evaluate_chart_grid(chart, ns.t, ns.x)))
    if ns.route in ("matrix", "both"):
        expansion = build_expansion(fact, frame, r_eval=chart.r_eval)
        grids.append(("matrix", evaluate_matrix_grid(expansion, ns.t, ns.x)))
    routes = [
        (name, grid.values.tolist(), (grid.status == PointStatus.OK).tolist())
        for name, grid in grids
    ]
    reference = _reference_fn(ns, frame.x_star)

    def ref_at(t, x):
        return _reference_value(reference, t, x) if reference is not None else None

    if ns.format == "json":
        rows = []
        for i, t in enumerate(ns.t):
            for j, x in enumerate(ns.x):
                ref = ref_at(t, x)
                for name, values, converged in routes:
                    value = values[i][j] if converged[i][j] else None
                    rows.append((t, complex(x), value, name, converged[i][j], ref))
        payload = [
            {
                "t": t,
                "x_re": x.real,
                "x_im": x.imag,
                "ft_re": None if v is None else v.real,
                "ft_im": None if v is None else v.imag,
                "route": name,
                "converged": converged,
                "ref_re": None if r is None else r.real,
                "ref_im": None if r is None else r.imag,
            }
            for (t, x, v, name, converged, r) in rows
        ]
        _emit(ns, json.dumps(payload, indent=2) + "\n")
        return EXIT_OK

    # Each t and x is formatted once; a row joins the cached cells.
    x_cells = [f"{x.real:.17g},{x.imag:.17g}" for x in map(complex, ns.x)]
    lines = ["t,x_re,x_im,ft_re,ft_im,route,converged,ref_re,ref_im"]
    for i, t in enumerate(ns.t):
        t_cell = f"{t:.17g}"
        for j, x in enumerate(ns.x):
            r = ref_at(t, x)
            ref_cells = "," if r is None else f"{r.real:.17g},{r.imag:.17g}"
            for name, values, converged in routes:
                if converged[i][j]:
                    v = values[i][j]
                    cells = f"{v.real:.17g},{v.imag:.17g},{name},true"
                else:
                    cells = f",,{name},false"
                lines.append(f"{t_cell},{x_cells[j]},{cells},{ref_cells}")
    _emit(ns, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_chart(ns) -> int:
    _, _, chart = chart_pipeline(
        _map_series(ns), ns.guess, ns.dim, r_eval=ns.r_eval, tol_fix=ns.tol
    )
    lines = [
        f"chart x_star={chart.x_star.real:.17g}{chart.x_star.imag:+.17g}i "
        f"lambda={chart.multiplier.real:.17g}{chart.multiplier.imag:+.17g}i "
        f"dim={chart.forward.order} r_eval={chart.r_eval:.17g}",
        "k,u_re,u_im,uinv_re,uinv_im",
    ]
    for k, (u, v) in enumerate(zip(chart.forward.coeffs.tolist(), chart.inverse.coeffs.tolist())):
        lines.append(f"{k},{u.real:.17g},{u.imag:.17g},{v.real:.17g},{v.imag:.17g}")
    _emit(ns, "\n".join(lines) + "\n")
    return EXIT_OK


def _field(ns):
    return field_pipeline(_map_series(ns), ns.guess, ns.dim, r_eval=ns.r_eval, tol_fix=ns.tol)


def cmd_field(ns) -> int:
    field_ = _field(ns)
    lines = [
        f"field x_star={field_.x_star.real:.17g}{field_.x_star.imag:+.17g}i "
        f"lambda={field_.multiplier.real:.17g}{field_.multiplier.imag:+.17g}i "
        f"dim={field_.series.order}",
        "k,g_re,g_im",
    ]
    for k, c in enumerate(field_.series.coeffs.tolist()):
        lines.append(f"{k},{c.real:.17g},{c.imag:.17g}")
    _emit(ns, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_integrate(ns) -> int:
    field_ = _field(ns)
    x0 = ns.x0 if ns.x0 is not None else field_.x_star
    trajectory = integrate_flow(field_, x0, ns.t_end, dt=ns.dt)
    lines = ["t,x_re,x_im"]
    for t, x in trajectory:
        lines.append(f"{t:.17g},{x.real:.17g},{x.imag:.17g}")
    _emit(ns, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_lyapunov(ns) -> int:
    if ns.x0.imag != 0:
        raise ValueError(f"lyapunov needs a real --x0, got {ns.x0!r}")
    x0 = ns.x0.real
    sigma = lyapunov_logistic(ns.n, x0)
    payload = {
        "n": ns.n,
        "x0": x0,
        "sigma_hat": sigma,
        "reference": 0.6931471805599453,
    }
    _emit(ns, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def cmd_verify(ns) -> int:
    suite = ns.suite
    results = verify_mod.run_suite(suite, dim=ns.dim, n=ns.n)
    all_passed = all(r.passed for r in results)
    if ns.format == "csv":
        lines = ["name,passed,deviation,tolerance"]
        for r in results:
            lines.append(
                f"{r.name},{str(r.passed).lower()},{r.deviation:.17g},"
                f"{r.tolerance:.17g}"
            )
        _emit(ns, "\n".join(lines) + "\n")
    else:
        payload = {
            "suite": suite,
            "results": [
                {
                    "name": r.name,
                    "passed": r.passed,
                    "deviation": r.deviation,
                    "tolerance": r.tolerance,
                    "detail": r.detail,
                }
                for r in results
            ],
            "all_passed": all_passed,
        }
        _emit(ns, json.dumps(payload, indent=2) + "\n")
    for r in results:
        sys.stderr.write(r.line() + "\n")
    return EXIT_OK if all_passed else EXIT_ERROR


_COMMANDS = {
    "matrix": cmd_matrix,
    "iterate": cmd_iterate,
    "chart": cmd_chart,
    "field": cmd_field,
    "integrate": cmd_integrate,
    "lyapunov": cmd_lyapunov,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    ns = _PARSER.parse_args(argv)
    try:
        if getattr(ns, "config", None):
            ns = _apply_config_file(ns, argv)
        return _COMMANDS[ns.command](ns)
    except RestrictiveConditionViolated as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return EXIT_RESTRICTIVE
    except (OutOfChart, ChartEscape) as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return EXIT_OUT_OF_CHART
    except NonConvergent as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return EXIT_NONCONVERGENT
    except (MapflowError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
