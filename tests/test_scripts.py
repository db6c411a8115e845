"""Smoke test of the experiment scripts: each runs to completion on small
arguments and writes its CSV.  The benchmark-pairs script, which runs
perfbench for minutes, is tested through its summariser on canned runs, and
the code-line counter on two small modules."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPTS = {
    "branch_ambiguity.py": ["--dim", "20", "--steps", "5"],
    "flow_vs_map.py": ["--dim", "20", "--t-end", "0.1"],
    "large_t_sweep.py": ["--dims", "20,40"],
    "truncation_sweep.py": ["--dims", "8,12"],
}


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_script_runs(name, tmp_path):
    out = tmp_path / "out.csv"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    # A subprocess escapes pytest's filterwarnings: fail on numpy's warnings
    # here too.
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "scripts" / name),
         *SCRIPTS[name], "--output", str(out)],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().count("\n") > 1


def _bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ENVIRONMENT = ('environment: {"nproc": 2, "python": "3.11.7", "numpy": "2.4.6", '
               '"blas": {"name": "scipy-openblas", "version": "0.3.31"}}')


def _run_output(wall, rate, digits, failed=1):
    result = {"correct": True, "attempted": 100, "failed": failed, "metrics": {
        "wall_s": {"value": wall, "unit": "s"},
        "field_builds_per_s": {"value": rate, "unit": "1/s"},
        "median_digits": {"value": digits, "unit": "digits"}}}
    return f"workload orders\n{ENVIRONMENT}\n{json.dumps(result)}\n"


def test_bench_pairs_summarises_canned_runs():
    bench = _bench_pairs()
    parent = [bench.parse_output(_run_output(w, r, 14.9))
              for w, r in ((0.2, 100), (0.3, 110), (0.25, 90), (0.22, 105))]
    change = [bench.parse_output(_run_output(w, r, 14.95))
              for w, r in ((0.1, 200), (0.31, 100), (0.12, 190), (0.11, 210))]
    metrics = [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "field_builds_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "median_digits", "unit": "digits", "better": "higher", "bound": 0.05},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    ]
    summary = bench.summarise_workload(bench._seeds("1201-1204"), parent, change, metrics)
    assert summary["seeds"] == [1201, 1202, 1203, 1204]
    assert summary["pairs"] == 4
    assert summary["correct"] == {"parent": [True] * 4, "change": [True] * 4}
    assert summary["failed_share"]["change"] == [0.01] * 4
    # A metric that no run reports is left out.
    assert list(summary["metrics"]) == ["wall_s", "field_builds_per_s", "median_digits"]
    wall = summary["metrics"]["wall_s"]
    assert wall["parent"]["runs"] == [0.2, 0.3, 0.25, 0.22]
    assert wall["parent"]["median"] == pytest.approx(0.235)
    assert wall["parent"]["q1"] == pytest.approx(0.215)
    assert wall["parent"]["q3"] == pytest.approx(0.2625)
    assert wall["change_better_pairs"] == 3
    assert wall["verdict"] == "within_bound"
    assert "median_digits" not in wall
    rate = summary["metrics"]["field_builds_per_s"]
    assert rate["change"]["median"] == pytest.approx(195)
    assert rate["change_better_pairs"] == 3
    assert rate["median_digits"] == {"parent": 14.9, "change": 14.95}
    assert summary["metrics"]["median_digits"]["change_better_pairs"] == 4
    assert bench.machine(parent[0]["environment"]) == {
        "cpus": 2, "python": "3.11.7", "numpy": "2.4.6",
        "blas": "scipy-openblas 0.3.31", "gpu": None}


# Parent and change values of one lower-is-better and one higher-is-better
# metric, both with bound 0.25, and the verdict each gets.
VERDICTS = {
    # The parent's quartiles span 0.67 of its median: too wide to tell.
    "unresolved": ([1.0, 2.0, 1.0, 2.0], [1.5, 1.4, 1.5, 1.6]),
    # As wide, but every change run beats every parent run.
    "within_bound": ([1.0, 2.0, 1.0, 2.0], [0.9, 0.8, 0.95, 0.9]),
    # A narrow parent and a change that takes 50 % longer.
    "worse": ([1.0, 1.01, 0.99, 1.0], [1.5, 1.51, 1.49, 1.5]),
}


@pytest.mark.parametrize("expected", sorted(VERDICTS))
def test_bench_pairs_gives_each_metric_a_verdict(expected):
    bench = _bench_pairs()
    walls = VERDICTS[expected]
    # The rate is the reciprocal of the time, so it gets the same verdict.
    parent, change = ([bench.parse_output(_run_output(w, 1 / w, 14.9)) for w in side]
                      for side in walls)
    metrics = [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "field_builds_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    ]
    summary = bench.summarise_workload(bench._seeds("1-4"), parent, change, metrics)
    assert {name: m["verdict"] for name, m in summary["metrics"].items()} == {
        "wall_s": expected, "field_builds_per_s": expected}


# The lines marked "code" count: docstrings, comments and blank lines do
# not, but a string that only looks like a docstring does.
CODE_LINES_MODULE = '''"""Module docstring,

over three lines."""
import math  # code

# a comment line
class A:  # code
    """Class docstring."""

    def f(self, x):  # code
        """Function
        docstring."""
        y = """not a
        docstring"""  # code, two lines
        return (x +

                y)  # code, two lines: the one between them is blank
'''


def test_code_lines_counts_code_only(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "a.py").write_text(CODE_LINES_MODULE)
    (tmp_path / "sub" / "b.py").write_text("x = 1\n")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "code_lines.py"), str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"7 {tmp_path / 'a.py'}", f"1 {tmp_path / 'sub' / 'b.py'}", "8 total"]
