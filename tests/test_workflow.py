"""The CI workflow file parses, so a YAML slip cannot switch CI off unseen,
and every job has a time limit, so a hung step cannot hold a runner."""

from pathlib import Path

import pytest

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"


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
