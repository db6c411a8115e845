"""End-to-end acceptance checks, one per published property of the pipeline.

Each test prints its pass/fail line with the measured deviation next to the
pinned tolerance (run with ``pytest -s`` to see them for passing tests too).
The same checks back the ``mapflow verify`` subcommand.
"""

import dataclasses
import inspect
import math

import pytest

import mapflow.flow
from mapflow import verify
from mapflow.flow import Pipeline, integrate_flow
from mapflow.iterate import build_chart, evaluate_iterate_chart
from mapflow.series import FixedPointFrame, PowerSeries
from mapflow.verify import (
    CRITERIA,
    SUITES,
    CheckResult,
    check_flow_consistency,
    check_paper_matrix,
    run_suite,
)

ORDERED = [
    "matrix-exact",
    "builder-equivalence",
    "chart-coefficients",
    "iterate-oracle",
    "mu2-oracle",
    "semigroup",
    "non-uniqueness",
    "field-extraction",
    "flow-consistency",
    "validity-window",
    "lyapunov",
    "truncation-convergence",
    "order-sweep",
    "paper-matrix",
]


@pytest.mark.parametrize("name", ORDERED)
def test_criterion(name):
    result = CRITERIA[name]()
    print(result.line())
    if result.detail:
        print(f"     {result.detail}")
    assert result.passed, result.line() + (
        f"\n{result.detail}" if result.detail else ""
    )


def test_every_criterion_is_in_a_suite():
    assert set(ORDERED) == set(CRITERIA)
    assert set(SUITES["all"]) == set(CRITERIA)


def test_full_suite_runner():
    results = run_suite("all")
    assert len(results) == len(CRITERIA)
    assert all(r.passed for r in results)


def test_a_suite_run_builds_each_factorization_once(monkeypatch):
    # The checks share verify's one pipeline cache: a run factors each
    # (map, fixed point, order) it uses once, however many checks read it.
    for value in vars(verify).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
    calls = []
    factor = mapflow.flow.factor_from_series

    def counted(*args, **kwargs):
        calls.append(args)
        return factor(*args, **kwargs)

    monkeypatch.setattr(mapflow.flow, "factor_from_series", counted)
    run_suite("all")
    assert calls and len(calls) == verify._pipeline.cache_info().currsize


def test_run_suite_calls_each_check_of_the_suite_with_no_argument(monkeypatch):
    # Each check runs at the settings its tolerance was pinned for: no check
    # takes a parameter, and run_suite has none to pass on.
    assert all(not inspect.signature(check).parameters for check in CRITERIA.values())
    calls = []

    def recorder(name):
        def stand_in():
            calls.append(name)
            return CheckResult(name, True, 0.0, 0.0)

        return stand_in

    for name in list(CRITERIA):
        monkeypatch.setitem(CRITERIA, name, recorder(name))
    for suite, names in SUITES.items():
        calls.clear()
        assert [r.name for r in run_suite(suite)] == names
        assert calls == names
    with pytest.raises(TypeError):
        run_suite("all", dim=20)


def test_run_suite_refuses_an_unknown_suite():
    with pytest.raises(ValueError) as err:
        run_suite("nope")
    assert str(err.value) == f"unknown suite 'nope'; choose from {sorted(SUITES)}"


def test_flow_consistency_reads_both_ends_off_one_run(monkeypatch):
    # A t = 0.5 run has the step of the t = 1 run, 0.5/500 = 1/1000, so it
    # is that run's first 501 rows; the check integrates once and still
    # reports the deviation and detail of two separate runs, bit for bit.
    field = verify._pipeline(4.0, 0.1, 40, 0.6).field
    one = integrate_flow(field, 0.01, 1.0, dt=1e-3)
    half = integrate_flow(field, 0.01, 0.5, dt=1e-3)
    assert one[:501] == half
    dev_map = abs(one[-1][1] - 0.0396)
    dev_chart = abs(half[-1][1] - evaluate_iterate_chart(field.chart, 0.5, 0.01))
    runs = []

    def counted(*args, **kwargs):
        runs.append(args[1:])
        return integrate_flow(*args, **kwargs)

    monkeypatch.setattr(verify, "integrate_flow", counted)
    result = check_flow_consistency()
    assert runs == [(0.01, 1.0)]
    assert result.deviation == max(dev_map, dev_chart)
    assert result.detail == (
        f"RK4 endpoint vs f(0.01) ({dev_map:.3e}) and vs chart at t=0.5 "
        f"({dev_chart:.3e})"
    )


def test_paper_matrix_fails_on_a_scaled_log_row(monkeypatch):
    log_row = verify.log_row

    def scaled(S):
        row = log_row(S)
        return PowerSeries(tuple(c * (1 + 1e-6) for c in row.coeffs), row.base_point)

    monkeypatch.setattr(verify, "log_row", scaled)
    assert not check_paper_matrix().passed


class _WrongBranchFrame(FixedPointFrame):
    """A frame whose Log(lambda) is off the principal branch by 2 pi i."""

    @property
    def log_multiplier(self):
        return super().log_multiplier + 2j * math.pi


def test_paper_matrix_fails_on_the_wrong_branch_of_log_lambda(monkeypatch):
    # Only the chart route raises lambda^t with Log(lambda) + 2 pi i; the
    # paper's matrices keep the principal branch of the true frame.
    pipeline = verify._pipeline

    def wrong_chart(*args):
        p = pipeline(*args)
        frame = p.factorization.frame
        wrong = _WrongBranchFrame(frame.x_star, frame.multiplier, frame.shifted_map)
        # The chart reads its frame from its factorization.
        chart_fact = dataclasses.replace(p.factorization, frame=wrong)
        return Pipeline(p.factorization, build_chart(chart_fact, wrong, r_eval=p.chart.r_eval))

    monkeypatch.setattr(verify, "_pipeline", wrong_chart)
    result = check_paper_matrix()
    assert not result.passed
    assert result.deviation > result.tolerance
