"""The CI workflow file parses, so a YAML slip cannot switch CI off unseen,
every job has a time limit, so a hung step cannot hold a runner, and CI
installs every test dependency, so no test is skipped there unseen."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def test_every_workflow_step_runs_or_uses_something():
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    jobs = workflow["jobs"]
    assert jobs
    for name, job in jobs.items():
        assert job["steps"], name
        for step in job["steps"]:
            assert "run" in step or "uses" in step, (name, step)


def test_every_workflow_job_has_a_time_limit():
    yaml = pytest.importorskip("yaml")
    jobs = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))["jobs"]
    for name, job in jobs.items():
        limit = job.get("timeout-minutes")
        assert isinstance(limit, int) and 0 < limit <= 60, (name, limit)


def test_verification_step_fails_on_a_numpy_warning():
    # As pytest's filterwarnings does for the tests, so a warning that leaks
    # out of the CLI path fails CI instead of scrolling past.
    yaml = pytest.importorskip("yaml")
    jobs = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))["jobs"]
    steps = [step for job in jobs.values() for step in job["steps"]
             if step.get("name") == "Verification suite"]
    assert len(steps) == 1
    assert "python3 -W error::RuntimeWarning -m mapflow verify --suite all" in steps[0]["run"]


def test_benchmark_steps_fail_on_a_numpy_warning():
    # The five perfbench/run.py steps run the CLI and the library in-process,
    # so a RuntimeWarning there fails CI as it does in the verification step.
    yaml = pytest.importorskip("yaml")
    jobs = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))["jobs"]
    runs = [step["run"] for job in jobs.values() for step in job["steps"]
            if "perfbench/run.py" in step.get("run", "")]
    assert len(runs) == 5
    for run in runs:
        assert run.strip().startswith("python3 -W error::RuntimeWarning perfbench/run.py "), run


def test_ci_installs_every_package_of_the_test_extra():
    # A package the tests import with importorskip must not be missing in CI.
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    yaml = pytest.importorskip("yaml")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    extra = [re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower()
             for req in project["optional-dependencies"]["test"]]
    assert {"pytest", "hypothesis", "mpmath", "pyyaml"} <= set(extra)
    jobs = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))["jobs"]
    steps = [step for job in jobs.values() for step in job["steps"]
             if step.get("name") == "Install dependencies"]
    assert len(steps) == 1
    installed = steps[0]["run"].lower().split()
    assert [name for name in extra if name not in installed] == []
