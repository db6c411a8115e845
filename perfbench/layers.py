"""Traced run: spans around the public functions of each ``mapflow`` layer.

For every job of a round the traced run calls, from this file, the same
library functions that ``mapflow.cli.main`` calls for that command line
(flagged ``cli``), plus a few layer calls the CLI makes only internally
(``chart_value``, ``evaluate_with_tail``, ``evaluate_field``).  Each call is
a span: name, start, end, parent span and truncation order.  Spans are kept
in memory and written out when the run ends.

Per-layer metrics are medians over spans.  ``cli.self_ms`` is the time of
one round's ``main()`` calls minus the time of their ``cli`` library calls.
The overhead of tracing is the time of the library calls with spans divided
by the time of the same calls with a tracer that records nothing.
"""

from __future__ import annotations

import cmath
import math
import statistics
import time
from collections import Counter

from workloads import ORDERS_DIMS

FIELD_SAMPLES = 20  # trajectory points at which evaluate_field is timed

# (metric name, span name, scale to the metric's unit, truncation order or None)
_SPAN_METRICS = [
    ("series.find_fixed_point.ms", "series.find_fixed_point", 1e3, None),
    ("series.evaluate_with_tail.us", "series.evaluate_with_tail", 1e6, None),
    *[(f"{span}.ms.d{d}", span, 1e3, d)
      for span in ("carleman.build_matrix", "spectral.diagonalize",
                   "spectral.matrix_log", "iterate.build_chart",
                   "iterate.build_expansion", "flow.build_field")
      for d in ORDERS_DIMS],
    ("iterate.chart_value.us", "iterate.chart_value", 1e6, None),
    ("iterate.evaluate_iterate_chart.us", "iterate.evaluate_iterate_chart", 1e6, None),
    ("iterate.evaluate_iterate_matrix.us", "iterate.evaluate_iterate_matrix", 1e6, None),
    ("flow.evaluate_field.us", "flow.evaluate_field", 1e6, None),
    ("flow.integrate_flow.us_per_step", "flow.integrate_flow", 1e6, None),
    ("flow.lyapunov_logistic.ns_per_iter", "flow.lyapunov_logistic", 1e9, None),
]


class Tracer:
    """In-memory spans; with ``enabled=False`` it only calls through."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.counting = True
        self.spans = []  # (name, start, end, parent, dim, cli, units)
        self.counters = Counter()
        self.gauges = {}
        self._stack = []

    def call(self, name, fn, *args, cli=False, dim=None, units=1, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else None
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append(
                (name, start, time.perf_counter(), parent, dim, cli, units))

    def open(self, name):
        """Open a parent span (a CLI call or a job replica); returns its id."""
        self.spans.append([name, time.perf_counter(), None, None, None, False, 1])
        sid = len(self.spans) - 1
        self._stack.append(sid)
        return sid

    def close(self, sid):
        self._stack.pop()
        self.spans[sid][2] = time.perf_counter()
        self.spans[sid] = tuple(self.spans[sid])

    def count(self, name, n=1):
        if self.enabled and self.counting:
            self.counters[name] += n


def _map_series(mf, spec):
    if "coeffs" in spec:
        return mf.series.PowerSeries.from_coefficients(spec["coeffs"], 0j, order=spec["dim"])
    mu = complex(spec["preset"].partition(":")[2])
    return mf.logistic.logistic_series(mu, spec["dim"])


def replicate(T: Tracer, mf, spec, reset_caches) -> None:
    """The library calls behind one CLI job, each as a span."""
    cmd = spec["cmd"]
    if cmd == "lyapunov":
        T.call("flow.lyapunov_logistic", mf.flow.lyapunov_logistic, spec["n"],
               spec["x0"], cli=True, units=spec["n"])
        return
    if cmd == "verify":
        reset_caches()
        for name in mf.verify.SUITES["all"]:
            T.call(f"verify.{name}", mf.verify.CRITERIA[name], cli=True)
        return
    spec = dict(spec, dim=spec.get("dim", 40))
    dim = spec["dim"]
    f = _map_series(mf, spec)
    guess = spec.get("guess", spec.get("x_star"))
    frame = T.call("series.find_fixed_point", mf.series.find_fixed_point, f, guess, cli=True)
    mg = T.call("carleman.build_matrix", mf.carleman.build_matrix, frame.shifted_map,
                dim, cli=True, dim=dim)
    fact = T.call("spectral.diagonalize", mf.spectral.diagonalize, mg, frame,
                  cli=True, dim=dim)
    chart = T.call("iterate.build_chart", mf.iterate.build_chart, fact, frame,
                   r_eval=spec.get("r_eval"), cli=True, dim=dim)
    if cmd == "iterate":
        expansion = T.call("iterate.build_expansion", mf.iterate.build_expansion,
                           fact, frame, cli=True, dim=dim)
        _evaluate_grid(T, mf, spec, chart, expansion)
        return
    if cmd == "chart":
        if T.enabled:
            T.gauges[f"spectral.factor_bytes.d{dim}"] = (
                fact.chart_matrix.nbytes + fact.chart_matrix_inv.nbytes)
        T.call("iterate.build_expansion", mf.iterate.build_expansion, fact, frame, dim=dim)
        return
    log = T.call("spectral.matrix_log", mf.spectral.matrix_log, fact, cli=True, dim=dim)
    try:
        field = T.call("flow.build_field", mf.flow.build_field, log, chart, cli=True, dim=dim)
    except mf.errors.MapflowError:
        return
    if cmd == "integrate":
        steps = max(1, round(abs(spec["t_end"]) / spec["dt"]))
        trajectory = T.call("flow.integrate_flow", mf.flow.integrate_flow, field,
                            spec["x0"], spec["t_end"], dt=spec["dt"], cli=True, units=steps)
        stride = max(1, len(trajectory) // FIELD_SAMPLES)
        for _, x in trajectory[::stride]:
            T.call("flow.evaluate_field", mf.flow.evaluate_field, field, x)


def _evaluate_grid(T, mf, spec, chart, expansion) -> None:
    it, series = mf.iterate, mf.series
    refused = (mf.errors.OutOfChart, mf.errors.NonConvergent)
    inv_safety = getattr(it, "INV_SAFETY", 0.75)
    tail_tol = getattr(it, "EVAL_TAIL_TOL", 1e-6)
    lam = chart.multiplier
    log_abs = cmath.log(lam).real
    for t in spec["ts"]:
        for x in spec["xs"]:
            if spec["route"] != "chart":
                try:
                    T.call("iterate.evaluate_iterate_matrix", it.evaluate_iterate_matrix,
                           expansion, t, x, cli=True)
                except refused:
                    T.count("iterate.refused")
                continue
            try:
                T.call("iterate.evaluate_iterate_chart", it.evaluate_iterate_chart,
                       chart, t, x, cli=True)
            except refused:
                T.count("iterate.refused")
            value, tail = T.call("series.evaluate_with_tail", series.evaluate_with_tail,
                                 chart.forward, x)
            if abs(complex(x) - chart.x_star) > chart.r_eval * (1 + 1e-12):
                continue
            if tail > tail_tol * max(1.0, abs(value)):
                T.count("iterate.continued")
            try:
                w = T.call("iterate.chart_value", it.chart_value, chart, x)
            except refused:
                continue
            T.call("series.evaluate_with_tail", series.evaluate_with_tail, chart.inverse, w)
            safe = inv_safety * chart.inverse_radius
            if (abs(lam) > 1 and math.isfinite(safe) and abs(w) > 0
                    and abs(w) * math.exp(t * log_abs) > safe > 0):
                T.count("iterate.time_shifted")


def per_layer_metrics(T: Tracer, rounds: list, overhead: list, verify_names) -> dict:
    """Every per-layer metric from the spans, counters and round records."""
    groups = {}
    for name, start, end, _, dim, _, units in T.spans:
        groups.setdefault((name, dim), []).append((end - start) / units)
        if dim is not None:
            groups.setdefault((name, None), []).append((end - start) / units)
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for metric, span, scale, dim in _SPAN_METRICS:
        samples = groups.get((span, dim))
        unit = metric.split(".")[2]
        put(metric, statistics.median(samples) * scale if samples else None, unit)
    for name in verify_names:
        samples = groups.get((f"verify.{name}", None))
        put(f"verify.{name}.ms", statistics.median(samples) * 1e3 if samples else None, "ms")
    n_rounds = max(1, len(rounds))
    for name in ("iterate.continued", "iterate.time_shifted", "iterate.refused"):
        put(name, T.counters[name] / n_rounds, "count")
    put("spectral.factor_bytes.d160", T.gauges.get("spectral.factor_bytes.d160"), "bytes")
    put("cli.self_ms", statistics.median(r["self_s"] for r in rounds) * 1e3, "ms")
    put("cli.bytes_written", rounds[0]["bytes"], "bytes")
    put("trace.overhead_ratio", statistics.median(overhead), "ratio")
    return metrics
