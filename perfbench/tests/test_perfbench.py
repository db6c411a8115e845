"""Tests of the benchmark itself: its oracles, its inputs and its checks.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import math
import os
import sys

import mpmath as mp
import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from mapflow.cli import main as cli_main  # noqa: E402


# --- oracles -------------------------------------------------------------------

def test_chart_at_three_quarters_matches_mpmath_taylor():
    u, _ = oracles.chart_coefficients("l4_34", 10)
    ref = mp.taylor(
        lambda x: mp.sqrt(3) / 2 * (mp.acos(1 - 2 * x) / 2 - mp.pi / 3),
        mp.mpf(3) / 4, 9)
    for a, b in zip(u, ref):
        assert abs(a - b) <= 1e-25 * max(1, abs(b))


@pytest.mark.parametrize("name", ["l4_0", "l4_34", "l2_0"])
def test_inverse_chart_inverts_the_chart(name):
    _, x_star = oracles.CHARTS[name]
    u, h = oracles.chart_coefficients(name, 30)
    for x in (x_star + 0.01, x_star - 0.02):
        w = mp.polyval(u[::-1], mp.mpf(x) - x_star)
        assert abs(mp.polyval(h[::-1], w) - x) < 1e-20


@pytest.mark.parametrize("name", ["l4_0", "l4_34", "l2_0"])
def test_iterate_at_integer_time_is_the_map(name):
    mu, _ = oracles.CHARTS[name]
    for x in (0.1, 0.3, 0.6):
        assert abs(oracles.iterate(name, 1, x) - mu * x * (1 - x)) < 1e-15
        assert abs(oracles.iterate(name, 0, x) - x) < 1e-15


def test_field_of_mu2_matches_closed_form():
    # G = -(ln 2/2)(1 - 2x) ln(1 - 2x) = ln2 x - sum_k (ln 2/2) 2^k x^k/(k(k-1)).
    g = oracles.field_coefficients("l2_0", 12)
    ln2 = mp.log(2)
    assert abs(g[1] - ln2) < 1e-25
    for k in range(2, 12):
        assert abs(g[k] + ln2 / 2 * 2**k / (k * (k - 1))) < 1e-25 * 2**k


def test_cubic_by_hand():
    coeffs = [0, 2 + 1j, 0.5j, -0.25]
    x = 0.1 - 0.05j
    once = sum(c * x**k for k, c in enumerate(coeffs))
    assert abs(oracles.cubic_apply(coeffs, x, 1) - once) < 1e-15
    twice = sum(c * once**k for k, c in enumerate(coeffs))
    assert abs(oracles.cubic_apply(coeffs, x, 2) - twice) < 1e-14


# --- inputs --------------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(W.WORKLOADS))
def test_same_seed_same_inputs_and_fixed_ops(workload):
    a = W.build_workload(workload, 7)
    b = W.build_workload(workload, 7)
    assert [j.argv for j in a] == [j.argv for j in b]
    ops = {sum(j.ops for j in W.build_workload(workload, s)) for s in range(1, 6)}
    assert len(ops) == 1


def test_known_fault_inputs_do_not_depend_on_the_seed():
    for workload in ("grid", "orders"):
        faults = [
            sorted((j.name, tuple(a for a in j.argv if not a.startswith("--guess=")))
                   for j in W.build_workload(workload, s) if j.known_fault)
            for s in (1, 2, 3)
        ]
        assert faults[0] and faults[0] == faults[1] == faults[2]


def test_every_workload_feeds_every_rate_metric():
    for workload in W.WORKLOADS:
        kinds = {j.kind for j in W.build_workload(workload, 3)}
        assert set(W.RATE_METRICS) <= kinds


# --- checks count corrupted outputs as failed ------------------------------------

def _run(job, tmp_path, outputs=None):
    runner = run.Runner(cli_main, str(tmp_path))
    argv, rc, text, _ = runner.call(job, outputs or {})
    return rc, text


def _small_iterate(route="chart"):
    spec = W._logistic_spec("l4_0", route, 0.95, [0.5, 2.5], [0.05, 0.3, 0.64, 1.2])
    job = W.iterate_job("t-iterate", spec, W._logistic_reference("l4_0"))
    job.prepare()
    return job


def test_iterate_check_passes_then_counts_a_corrupted_value(tmp_path):
    job = _small_iterate()
    rc, text = _run(job, tmp_path)
    good = job.check(rc, text, {})
    assert (good.ops, good.failed, good.refused) == (8, 0, 2)
    lines = text.splitlines()
    cells = lines[1].split(",")
    cells[3] = repr(float(cells[3]) + 1e-5)
    lines[1] = ",".join(cells)
    bad = job.check(rc, "\n".join(lines) + "\n", {})
    assert bad.failed == 1


def test_mode_route_known_fault_is_counted(tmp_path):
    spec = W._logistic_spec("l4_34", "matrix", 0.6, [0.5], [0.3])
    job = W.iterate_job("t-fault", spec, W._logistic_reference("l4_34"), known_fault=True)
    job.prepare()
    rc, text = _run(job, tmp_path)
    assert job.check(rc, text, {}).failed == 1


def test_unexpected_exit_code_fails_every_row():
    job = _small_iterate()
    job.prepare()
    assert job.check(4, None, {}).failed == job.ops


def test_chart_check_counts_a_corrupted_coefficient(tmp_path):
    job = W.build_job("chart", "l4_34", 0.7, 20)
    job.prepare()
    rc, text = _run(job, tmp_path)
    assert job.check(rc, text, {}).failed == 0
    lines = text.splitlines()
    cells = lines[12].split(",")
    cells[1] = repr(float(cells[1]) * (1 + 1e-4))
    lines[12] = ",".join(cells)
    assert job.check(rc, "\n".join(lines), {}).failed == 1


def test_field_check_counts_a_corrupted_coefficient(tmp_path):
    job = W.build_job("field", "l2_0", 0.01, 20)
    job.prepare()
    rc, text = _run(job, tmp_path)
    assert job.check(rc, text, {}).failed == 0
    assert job.check(rc, text.replace(",0.69314718", ",0.69314", 1), {}).failed == 1


def test_integrate_check_counts_a_corrupted_endpoint(tmp_path):
    job = W.integrate_job("t-integrate", "l4_0", 0.6, 0.02, 0.2)
    job.prepare()
    rc, text = _run(job, tmp_path)
    assert job.check(rc, text, {}).failed == 0
    lines = text.splitlines()
    t, re_, im = lines[-1].split(",")
    lines[-1] = f"{t},{float(re_) + 1e-4!r},{im}"
    assert job.check(rc, "\n".join(lines), {}).failed == 1


def test_lyapunov_check_counts_a_wrong_estimate():
    job = W.lyapunov_job("t-lyapunov", 0.3)
    good = json.dumps({"sigma_hat": math.log(2) * 1.001})
    bad = json.dumps({"sigma_hat": math.log(2) * 1.05})
    assert job.check(0, good, {}).failed == 0
    assert job.check(0, bad, {}).failed == 1


def _verify_report(**changes):
    results = [{"name": n, "passed": True, "deviation": 0.0, "tolerance": t, "detail": ""}
               for n, t in W.VERIFY_PINNED.items()]
    for r in results:
        r.update(changes.get(r["name"], {}))
    return json.dumps({"suite": "all", "results": results, "all_passed": True})


def test_verify_check_counts_tolerance_drift_and_missing_checks():
    job = W.verify_job("t-verify")
    assert job.check(0, _verify_report(), {}).failed == 0
    assert job.check(0, _verify_report(semigroup={"tolerance": 1e-6}), {}).failed == 1
    assert job.check(0, _verify_report(lyapunov={"passed": False}), {}).failed == 1
    report = json.loads(_verify_report())
    report["results"].pop(3)
    assert job.check(0, json.dumps(report), {}).failed == 1
    assert job.check(1, _verify_report(), {}).failed == 1


def test_unreadable_output_fails_every_operation(tmp_path):
    job = _small_iterate()
    runner = run.Runner(cli_main, str(tmp_path))
    out = runner.outcome(job, job.argv, 0, "t,x_re,x_im,ft_re,ft_im\nnot,a,row\n", {})
    assert out.failed == job.ops


def test_cubic_half_iterate_stage_uses_first_stage_values(tmp_path):
    jobs = [j for j in W.build_workload("grid", 5) if j.name.startswith("iterate-chart-cubic")]
    runner = run.Runner(cli_main, str(tmp_path))
    outputs = {}
    for job in jobs:
        job.prepare and job.prepare()
        argv, rc, text, _ = runner.call(job, outputs)
        outputs[job.name] = (rc, text)
        out = runner.outcome(job, argv, rc, text, outputs)
        assert out.failed == 0 and out.ops == job.ops
    first, second = jobs
    rc, text = outputs[second.name]
    lines = text.splitlines()
    cells = lines[1].split(",")
    cells[4] = repr(float(cells[4]) + 1e-3)
    lines[1] = ",".join(cells)
    assert second.check(rc, "\n".join(lines), outputs).failed == 1
