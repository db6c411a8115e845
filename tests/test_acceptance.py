"""End-to-end acceptance checks, one per published property of the pipeline.

Each test prints its pass/fail line with the measured deviation next to the
pinned tolerance (run with ``pytest -s`` to see them for passing tests too).
The same checks back the ``mapflow verify`` subcommand.
"""

import pytest

from mapflow.verify import CRITERIA, SUITES, run_suite

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
