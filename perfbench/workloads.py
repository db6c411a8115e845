"""The four seeded workloads: the CLI calls of one round and their checks.

A round is a fixed list of jobs.  Each job is one ``mapflow`` command line;
the benchmark runs it through ``mapflow.cli.main`` with ``--output`` pointing
at a file, then checks the file against references from ``oracles`` (which
never touches ``mapflow``).  Every round of a run repeats the same jobs, so
the number of operations per round does not depend on the seed or on how
long the run lasts.

Operations (``ops``) are what ``attempted`` and ``failed`` count: one per
(t, x) row of an ``iterate`` call, one per ``chart``/``field``/``integrate``/
``lyapunov`` call, and 13 per ``verify`` call (one per pinned check plus the
exit status).  A value the program refuses (``converged=false``) is an
operation done correctly; a value reported as converged but outside the
tolerance, an unexpected exit code or a malformed output is a failed one.

Jobs marked ``known_fault`` reproduce faults of the program on inputs that
do not depend on the seed; they fail the same way in every round.

This module imports neither ``mapflow`` nor ``mpmath`` at load time, so a
set-up probe that builds the inputs pays only for the program's own import.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

DIM = 40
# Relative tolerance for every value the program reports as converged: the
# ~6 digits that the program's evaluation tail test (EVAL_TAIL_TOL) promises.
TOL = 1e-6
# Lyapunov estimates must land within this share of ln 2.
LYAPUNOV_TOL = 0.02
# Absolute tolerance on fixed points and on coefficients that are exactly 0.
TOL_ZERO = 1e-12

# The twelve checks of ``mapflow verify --suite all`` and their pinned
# tolerances, in suite order.
VERIFY_PINNED = {
    "matrix-exact": 0.0,
    "builder-equivalence": 1e-10,
    "chart-coefficients": 1e-10,
    "iterate-oracle": 1e-6,
    "mu2-oracle": 1e-7,
    "semigroup": 1e-7,
    "non-uniqueness": 1e-6,
    "field-extraction": 1e-6,
    "flow-consistency": 1e-6,
    "validity-window": 1e-4,
    "lyapunov": 0.02,
    "truncation-convergence": 1e-12,
}

# Preset, fixed point and chart radius of each logistic chart.
LOGISTIC = {
    "l4_0": ("logistic:4", 0.0),
    "l4_34": ("logistic:4", 0.75),
    "l2_0": ("logistic:2", 0.0),
}

# Seeded sampling regions.  Chart route: x ranges where every converged
# value is right to TOL at dim 40 for t in (0.05, 4), with continuation
# (beyond the forward series radius) and time-shift steps included; the
# last l4_34 range lies past the chart's reach and is refused.  Mode route:
# ranges where the mode sum is right or refuses.
GRID_T = (0.05, 4.0)
GRID_CHART = {
    "l4_0": (0.95, [(-0.45, 0.66)]),
    "l4_34": (0.6, [(0.15, 0.45), (0.62, 0.87), (1.05, 1.3)]),
    "l2_0": (0.45, [(-0.3, 0.34)]),
}
GRID_MODE = {
    "l4_0": (0.95, [(-0.6, 0.25)]),
    "l4_34": (0.6, [(0.64, 0.86)]),
    "l2_0": (0.45, [(-0.3, 0.3)]),
}
GRID_CHART_SHAPE = (20, 60)  # (times, points) per logistic chart
# Calls each chart's times are dealt over.  The continuation points make the
# grid at 3/4 the costliest job of a round; split, no timed call is long.
GRID_CHART_CALLS = {"l4_0": 1, "l4_34": 5, "l2_0": 1}
GRID_MODE_SHAPE = (12, 24)
CUBIC_CHART_POINTS = 100
CUBIC_MODE_POINTS = 40
CUBIC_TIMES = (0.5, 1.0, 2.0)

ORDERS_DIMS = (20, 40, 80, 160)

# integrate: (chart, r_eval, x0 offsets from the fixed point, t_end).  The
# trajectories stay inside the chart radius and the validity window.
FLOW = {
    "l4_0": (0.6, [(0.005, 0.04)], 1.5),
    "l4_34": (0.2, [(-0.05, -0.02), (0.02, 0.05)], 1.0),
    "l2_0": (0.45, [(0.005, 0.04)], 1.5),
}
DT = 1e-3
FLOW_CHECK_EVERY = 25
FLOW_CALLS = 2  # trajectories per chart
LYAPUNOV_N = 100_000
LYAPUNOV_CALLS = 2

# Rate bucket of each job kind and the end-to-end metric it feeds.
RATE_METRICS = {
    "chart_eval": "chart_evals_per_s",
    "mode_eval": "mode_evals_per_s",
    "build": "builds_per_s",
    "field_build": "field_builds_per_s",
    "rk4": "rk4_steps_per_s",
    "lyapunov": "lyapunov_iters_per_s",
}


@dataclass
class Outcome:
    """What the check of one job's output found."""

    ops: int
    work: int
    failed: int = 0
    refused: int = 0
    digits: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def fail(self, count: int, why: str):
        self.failed += count
        if len(self.notes) < 5:
            self.notes.append(why)


@dataclass
class Job:
    """One CLI call of a round.

    ``spec`` describes the call in library terms for the traced run.
    ``probe`` jobs only feed rate metrics; their values stay out of
    ``median_digits``.
    ``make_argv`` builds the argument list from earlier outputs of the same
    round (the second stage of the cubic half-iterate check); ``prepare``
    computes the oracle values once, before anything is timed.
    """

    name: str
    kind: str
    argv: list | None
    ops: int
    check: Callable
    spec: dict
    known_fault: bool = False
    probe: bool = False
    make_argv: Callable | None = None
    prepare: Callable | None = None


# --- argument formatting ------------------------------------------------------

def _num(z) -> str:
    """Exact text form of a real or complex input (parsed by complex())."""
    z = complex(z)
    return repr(z.real) if z.imag == 0 else repr(z)


def _list(values) -> str:
    return ",".join(_num(v) for v in values)


def _map_args(spec) -> list:
    if "coeffs" in spec:
        return [f"--coeffs={_list(spec['coeffs'])}"]
    return ["--preset", spec["preset"]]


def _stratified(rng, lo, hi, n):
    """n points of [lo, hi), one at a seeded place in each of n equal slices.

    The cost of an evaluation depends on where its point lies, so iid draws
    would change a round's work from seed to seed; one point per slice keeps
    it nearly the same."""
    points = lo + (np.arange(n) + rng.uniform(0.0, 1.0, n)) * ((hi - lo) / n)
    return [float(v) for v in points]


def _uniform(rng, ranges, n):
    """n points spread over several [lo, hi) ranges in proportion to width."""
    widths = np.array([hi - lo for lo, hi in ranges])
    counts = np.floor(n * widths / widths.sum()).astype(int)
    counts[0] += n - counts.sum()
    return [v for (lo, hi), c in zip(ranges, counts) for v in _stratified(rng, lo, hi, c)]


def relative_error(value: complex, ref) -> float:
    ref = complex(ref)
    return abs(complex(value) - ref) / max(abs(ref), 1e-300)


def digits(value: complex, ref) -> float:
    """-log10 of the relative error, capped at 16 (an exact match reads 16)."""
    err = relative_error(value, ref)
    return 16.0 if err <= 1e-16 else min(16.0, -math.log10(err))


# --- output parsing -------------------------------------------------------------

def parse_iterate_csv(text):
    """Rows (t, x, value or None) of an iterate CSV in output order."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("t,x_re,x_im,ft_re,ft_im"):
        raise ValueError("missing iterate header")
    rows = []
    for line in lines[1:]:
        p = line.split(",")
        x = complex(float(p[1]), float(p[2]))
        if p[6] == "true":
            value = complex(float(p[3]), float(p[4]))
        elif p[6] == "false":
            value = None
        else:
            raise ValueError(f"bad converged flag {p[6]!r}")
        rows.append((float(p[0]), x, value))
    return rows


def _header_fields(line):
    return dict(item.split("=", 1) for item in line.split(" ")[1:])


def _cell(text) -> complex:
    return complex(text[:-1] + "j") if text.endswith("i") else complex(text)


# --- iterate jobs ---------------------------------------------------------------

def _iterate_argv(spec):
    return [
        "iterate", *_map_args(spec), "--fixed-point", _num(spec["x_star"]),
        "--dim", str(DIM), "--r-eval", repr(spec["r_eval"]),
        "--route", spec["route"], f"--t={_list(spec['ts'])}",
        f"--x={_list(spec['xs'])}", "--format", "csv",
    ]


def _check_value(out: Outcome, value, ref, where):
    err = abs(value - ref)
    if err > TOL * max(1.0, abs(ref)):
        out.fail(1, f"{where}: {value!r} vs reference {ref!r} (error {err:.2e})")
    out.digits.append(digits(value, ref))


def iterate_job(name, spec, reference, known_fault=False) -> Job:
    """A (t, x) grid on one route; ``reference(t, x)`` gives the oracle."""
    ts, xs = spec["ts"], spec["xs"]
    kind = "chart_eval" if spec["route"] == "chart" else "mode_eval"
    refs = {}

    def prepare():
        for i, t in enumerate(ts):
            for j, x in enumerate(xs):
                refs[i, j] = reference(t, x)

    def check(rc, text, outputs):
        n = len(ts) * len(xs)
        out = Outcome(ops=n, work=n)
        if rc != 0:
            out.fail(n, f"exit code {rc}")
            return out
        rows = parse_iterate_csv(text)
        if len(rows) != n:
            out.fail(n, f"{len(rows)} rows instead of {n}")
            return out
        for k, (_, _, value) in enumerate(rows):
            i, j = divmod(k, len(xs))
            if value is None:
                out.refused += 1
            else:
                _check_value(out, value, refs[i, j], f"t={ts[i]!r} x={xs[j]!r}")
        return out

    return Job(name, kind, _iterate_argv(spec), len(ts) * len(xs), check,
               dict(spec, cmd="iterate"), known_fault=known_fault, prepare=prepare)


def cubic_jobs(prefix, spec) -> list:
    """Integer times against the map applied by hand, and the half-iterate
    property f^(1/2)(f^(1/2)(x)) = f(x) through a second call fed with the
    first call's t = 1/2 values."""
    refs = {}
    xs = spec["xs"]
    ts = list(CUBIC_TIMES)
    kind = "chart_eval" if spec["route"] == "chart" else "mode_eval"
    integer_ts = [i for i, t in enumerate(ts) if t == int(t)]
    half = ts.index(0.5)

    def prepare():
        from oracles import cubic_apply

        for i in integer_ts:
            for j, x in enumerate(xs):
                refs[i, j] = cubic_apply(spec["coeffs"], x, int(ts[i]))
        for j, x in enumerate(xs):
            refs["f", j] = cubic_apply(spec["coeffs"], x, 1)

    def check_first(rc, text, outputs):
        n = len(integer_ts) * len(xs)
        out = Outcome(ops=n, work=len(ts) * len(xs))
        if rc != 0:
            out.fail(n, f"exit code {rc}")
            return out
        rows = parse_iterate_csv(text)
        if len(rows) != len(ts) * len(xs):
            out.fail(n, f"{len(rows)} rows instead of {len(ts) * len(xs)}")
            return out
        for k, (_, _, value) in enumerate(rows):
            i, j = divmod(k, len(xs))
            if i not in integer_ts:
                continue
            if value is None:
                out.refused += 1
            else:
                _check_value(out, value, refs[i, j], f"t={ts[i]} x={xs[j]!r}")
        return out

    def half_values(outputs):
        """x index -> f^(1/2)(x) for the first call's converged t = 1/2 rows."""
        rc, text = outputs.get(prefix + "-1", (None, None))
        if rc != 0 or text is None:
            return {}
        rows = parse_iterate_csv(text)
        if len(rows) != len(ts) * len(xs):
            return {}
        base = half * len(xs)
        return {j: rows[base + j][2] for j in range(len(xs)) if rows[base + j][2] is not None}

    def make_argv(outputs, job):
        ys = half_values(outputs)
        job.spec["xs"] = [ys[j] for j in sorted(ys)]
        if not ys:
            return None
        return _iterate_argv(job.spec)

    def check_second(rc, text, outputs):
        n = len(xs)
        ys = half_values(outputs)
        out = Outcome(ops=n, work=len(ys), refused=n - len(ys))
        if not ys:
            return out
        if rc != 0:
            out.fail(len(ys), f"exit code {rc}")
            return out
        rows = parse_iterate_csv(text)
        if len(rows) != len(ys):
            out.fail(len(ys), f"{len(rows)} rows instead of {len(ys)}")
            return out
        for (_, _, value), j in zip(rows, sorted(ys)):
            if value is None:
                out.refused += 1
            else:
                _check_value(out, value, refs["f", j], f"half-half x={xs[j]!r}")
        return out

    first = dict(spec, cmd="iterate", ts=ts)
    second = dict(spec, cmd="iterate", ts=[0.5], xs=[])
    return [
        Job(prefix + "-1", kind, _iterate_argv(first), len(integer_ts) * len(xs),
            check_first, first, prepare=prepare),
        Job(prefix + "-2", kind, None, len(xs), check_second, second,
            make_argv=make_argv),
    ]


def _logistic_spec(chart, route, r_eval, ts, xs):
    preset, x_star = LOGISTIC[chart]
    return {"preset": preset, "chart": chart, "x_star": x_star, "r_eval": r_eval,
            "route": route, "ts": ts, "xs": xs}


def _logistic_reference(chart):
    def reference(t, x):
        from oracles import iterate

        return iterate(chart, t, x)

    return reference


def seeded_cubic(rng):
    """x -> lam x + a x^2 + b x^3 with complex coefficients, |lam| in [1.5, 3].

    Returns the coefficients and the distance from 0 to the nearest other
    fixed point, which scales the evaluation radius and the sample disc.
    """
    lam = rng.uniform(1.5, 3.0) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
    a = rng.uniform(0.3, 1.0) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
    b = rng.uniform(0.1, 0.5) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
    dist = min(abs(r) for r in np.roots([b, a, lam - 1.0]))
    return [0j, lam, a, b], float(dist)


def _disc(rng, radius, n):
    r = radius * np.sqrt(_stratified(rng, 0.0, 1.0, n))
    phi = rng.uniform(-math.pi, math.pi, n)
    return [complex(z) for z in r * np.exp(1j * phi)]


# --- chart / field jobs -----------------------------------------------------------

def _build_argv(cmd, chart, guess, dim):
    preset, _ = LOGISTIC[chart]
    return [cmd, "--preset", preset, f"--guess={guess!r}", "--dim", str(dim)]


def build_job(cmd, chart, guess, dim, known_fault=False) -> Job:
    """``mapflow chart`` or ``mapflow field``: one operation per call, every
    coefficient checked against the oracle series."""
    _, x_star = LOGISTIC[chart]
    refs = {}

    def prepare():
        from oracles import chart_coefficients, field_coefficients, multiplier

        refs["lambda"] = multiplier(chart)
        if cmd == "chart":
            refs["u"], refs["h"] = chart_coefficients(chart, dim)
        else:
            refs["g"] = field_coefficients(chart, dim)

    def check(rc, text, outputs):
        out = Outcome(ops=1, work=1)
        if rc != 0:
            out.fail(1, f"exit code {rc}")
            return out
        lines = text.splitlines()
        head = _header_fields(lines[0])
        if abs(_cell(head["x_star"]) - x_star) > TOL_ZERO:
            out.fail(1, f"fixed point {head['x_star']}")
            return out
        if relative_error(_cell(head["lambda"]), refs["lambda"]) > TOL_ZERO:
            out.fail(1, f"multiplier {head['lambda']}")
            return out
        columns = ("u", "h") if cmd == "chart" else ("g",)
        rows = lines[2:]
        if len(rows) != dim:
            out.fail(1, f"{len(rows)} coefficients instead of {dim}")
            return out
        worst = (0.0, None)
        for line in rows:
            p = line.split(",")
            k = int(p[0])
            for c, col in enumerate(columns):
                value = complex(float(p[1 + 2 * c]), float(p[2 + 2 * c]))
                ref = complex(refs[col][k])
                if ref == 0:
                    err = abs(value)
                    bad = err > TOL_ZERO
                else:
                    err = relative_error(value, ref)
                    bad = err > TOL
                    out.digits.append(digits(value, ref))
                if bad and err > worst[0]:
                    worst = (err, f"{col}[{k}]")
        if worst[1] is not None:
            out.fail(1, f"{cmd} dim={dim}: {worst[1]} off by {worst[0]:.2e}")
        return out

    kind = "build" if cmd == "chart" else "field_build"
    spec = {"cmd": cmd, "chart": chart, "preset": LOGISTIC[chart][0],
            "guess": guess, "dim": dim}
    return Job(f"{cmd}-{chart}-d{dim}", kind, _build_argv(cmd, chart, guess, dim),
               1, check, spec, known_fault=known_fault, prepare=prepare)


def _seeded_guess(rng, chart):
    return float(LOGISTIC[chart][1] + rng.uniform(-0.1, 0.1))


# --- flow jobs ---------------------------------------------------------------------

def integrate_job(name, chart, r_eval, x0, t_end) -> Job:
    """RK4 from x0; every FLOW_CHECK_EVERY-th row and the endpoint against
    the closed-form iterate."""
    preset, x_star = LOGISTIC[chart]
    steps = round(t_end / DT)
    checked = sorted(set(range(0, steps + 1, FLOW_CHECK_EVERY)) | {steps})
    refs = {}

    def prepare():
        from oracles import iterate

        for i in checked:
            refs[i] = iterate(chart, i * (t_end / steps), x0)

    def check(rc, text, outputs):
        out = Outcome(ops=1, work=steps)
        if rc != 0:
            out.fail(1, f"exit code {rc}")
            return out
        lines = text.splitlines()
        if lines[0] != "t,x_re,x_im" or len(lines) != steps + 2:
            out.fail(1, f"malformed trajectory ({len(lines)} lines)")
            return out
        for i in checked:
            p = lines[1 + i].split(",")
            value = complex(float(p[1]), float(p[2]))
            _check_value(out, value, refs[i], f"{name} step {i}")
        out.failed = min(out.failed, 1)  # one operation per trajectory
        return out

    argv = ["integrate", "--preset", preset, f"--guess={x_star!r}", "--dim", str(DIM),
            "--r-eval", repr(r_eval), f"--x0={_num(x0)}", "--t-end", repr(t_end),
            "--dt", repr(DT)]
    spec = {"cmd": "integrate", "chart": chart, "preset": preset, "guess": x_star,
            "dim": DIM, "r_eval": r_eval, "x0": x0, "t_end": t_end, "dt": DT}
    return Job(name, "rk4", argv, 1, check, spec, prepare=prepare)


def lyapunov_job(name, x0, n=LYAPUNOV_N) -> Job:
    def check(rc, text, outputs):
        out = Outcome(ops=1, work=n)
        if rc != 0:
            out.fail(1, f"exit code {rc}")
            return out
        sigma = json.loads(text)["sigma_hat"]
        if abs(sigma - math.log(2.0)) > LYAPUNOV_TOL * math.log(2.0):
            out.fail(1, f"sigma_hat {sigma!r} from x0={x0!r}")
        return out

    argv = ["lyapunov", "--n", str(n), f"--x0={x0!r}"]
    return Job(name, "lyapunov", argv, 1, check,
               {"cmd": "lyapunov", "n": n, "x0": x0})


# --- verify ---------------------------------------------------------------------------

def verify_job(name) -> Job:
    """``verify --suite all``: each pinned check present, passed, at its
    pinned tolerance and within it, plus exit status 0."""
    ops = len(VERIFY_PINNED) + 1

    def check(rc, text, outputs):
        out = Outcome(ops=ops, work=1)
        if rc != 0:
            out.fail(1, f"exit code {rc}")
        try:
            results = {r["name"]: r for r in json.loads(text)["results"]}
        except (TypeError, ValueError, KeyError):
            out.fail(ops - out.failed, "unreadable verify report")
            return out
        for check_name, tol in VERIFY_PINNED.items():
            r = results.get(check_name)
            if r is None:
                out.fail(1, f"{check_name} missing")
            elif r["tolerance"] != tol:
                out.fail(1, f"{check_name} tolerance {r['tolerance']!r} != {tol!r}")
            elif not (r["passed"] and r["deviation"] <= tol):
                out.fail(1, f"{check_name} failed: deviation {r['deviation']!r}")
            else:
                dev = r["deviation"]
                out.digits.append(16.0 if dev <= 1e-16 else min(16.0, -math.log10(dev)))
        if set(results) - set(VERIFY_PINNED):
            out.notes.append(f"extra checks {sorted(set(results) - set(VERIFY_PINNED))}")
        return out

    argv = ["verify", "--suite", "all", "--format", "json"]
    return Job(name, "verify", argv, ops, check, {"cmd": "verify"})


# --- workloads ---------------------------------------------------------------------------

def _grid(rng) -> list:
    jobs = []
    nt, nx = GRID_CHART_SHAPE
    for chart, (r_eval, ranges) in GRID_CHART.items():
        ts = _stratified(rng, *GRID_T, nt)
        xs = _uniform(rng, ranges, nx)
        calls = GRID_CHART_CALLS[chart]
        for i in range(calls):
            spec = _logistic_spec(chart, "chart", r_eval, ts[i::calls], xs)
            name = f"iterate-chart-{chart}" + (f"-{i}" if calls > 1 else "")
            jobs.append(iterate_job(name, spec, _logistic_reference(chart)))
    nt, nx = GRID_MODE_SHAPE
    for chart, (r_eval, ranges) in GRID_MODE.items():
        ts = _stratified(rng, *GRID_T, nt)
        spec = _logistic_spec(chart, "matrix", r_eval, ts, _uniform(rng, ranges, nx))
        jobs.append(iterate_job(f"iterate-mode-{chart}", spec, _logistic_reference(chart)))
    coeffs, dist = seeded_cubic(rng)
    for route, frac, n in (("chart", 0.15, CUBIC_CHART_POINTS),
                           ("matrix", 0.12, CUBIC_MODE_POINTS)):
        spec = {"coeffs": coeffs, "x_star": 0.0, "r_eval": 0.5 * dist,
                "route": route, "xs": _disc(rng, frac * dist, n)}
        jobs += cubic_jobs(f"iterate-{route}-cubic", spec)
    # Known fault: the mode sum reports converged values that are wrong
    # (it tests only the last mode and never tail-checks the mode series).
    for chart, r_eval, x in (("l4_34", 0.6, 0.3), ("l4_0", 0.95, 0.9)):
        spec = _logistic_spec(chart, "matrix", r_eval, [0.5], [x])
        jobs.append(iterate_job(f"fault-mode-{chart}", spec,
                                _logistic_reference(chart), known_fault=True))
    return jobs


def _orders(rng) -> list:
    jobs = []
    for chart in LOGISTIC:
        for dim in ORDERS_DIMS:
            for cmd in ("chart", "field"):
                # Known fault: cancellation in the forward recursion of the
                # factorization spoils the chart and field from dim 80 on.
                jobs.append(build_job(cmd, chart, _seeded_guess(rng, chart), dim,
                                      known_fault=dim >= 80))
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order]


def _flow(rng) -> list:
    jobs = []
    for chart, (r_eval, ranges, t_end) in FLOW.items():
        for i in range(FLOW_CALLS):
            offset = _uniform(rng, [ranges[rng.integers(len(ranges))]], 1)[0]
            jobs.append(integrate_job(f"integrate-{chart}-{i}", chart, r_eval,
                                      LOGISTIC[chart][1] + offset, t_end))
    for i in range(LYAPUNOV_CALLS):
        jobs.append(lyapunov_job(f"lyapunov-{i}", float(rng.uniform(0.05, 0.95))))
    return jobs


def _probes(rng, kinds) -> list:
    """One small call of each rate kind the workload's own jobs lack, so
    that every workload reports every rate metric."""
    jobs = []
    if "chart_eval" in kinds:
        # Fixed extras: 0.3 needs continuation and, at t = 3.9, time-shift
        # steps; 1.2 is past the chart's reach and is refused.
        xs = _uniform(rng, [(0.62, 0.87)], 12) + [0.3, 1.2]
        ts = _stratified(rng, *GRID_T, 3) + [3.9]
        spec = _logistic_spec("l4_34", "chart", 0.6, ts, xs)
        jobs.append(iterate_job("probe-chart-eval", spec, _logistic_reference("l4_34")))
    if "mode_eval" in kinds:
        spec = _logistic_spec("l4_0", "matrix", 0.95,
                              _stratified(rng, *GRID_T, 4),
                              _uniform(rng, GRID_MODE["l4_0"][1], 12))
        jobs.append(iterate_job("probe-mode-eval", spec, _logistic_reference("l4_0")))
    if "build" in kinds:
        jobs.append(build_job("chart", "l2_0", _seeded_guess(rng, "l2_0"), DIM))
    if "field_build" in kinds:
        jobs.append(build_job("field", "l4_0", _seeded_guess(rng, "l4_0"), DIM))
    if "rk4" in kinds:
        x0 = float(rng.uniform(0.005, 0.04))
        jobs.append(integrate_job("probe-integrate", "l2_0", 0.45, x0, 0.5))
    if "lyapunov" in kinds:
        for i in range(LYAPUNOV_CALLS):
            jobs.append(lyapunov_job(f"probe-lyapunov-{i}", float(rng.uniform(0.05, 0.95))))
    return jobs


WORKLOADS = {
    "grid": _grid,
    "orders": _orders,
    "flow": _flow,
    "verify": lambda rng: [verify_job("verify-all")],
}


def build_workload(name: str, seed: int) -> list:
    """The jobs of one round of ``name``, all inputs drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    jobs = WORKLOADS[name](rng)
    own = {job.kind for job in jobs}
    for job in _probes(rng, [k for k in RATE_METRICS if k not in own]):
        job.probe = True
        jobs.append(job)
    names = [job.name for job in jobs]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate job names in {name}")
    return jobs


def prepare_oracles(jobs) -> None:
    for job in jobs:
        if job.prepare is not None:
            job.prepare()


def sweep_jobs(seed: int) -> list:
    """Every layer at every order once: the orders builds, one verify run and
    one small call of each rate kind (for the traced run's coverage)."""
    rng = np.random.default_rng(seed)
    return _orders(rng) + [verify_job("sweep-verify")] + _probes(rng, list(RATE_METRICS))
