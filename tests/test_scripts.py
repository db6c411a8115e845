"""Smoke test of the experiment scripts: each runs to completion on small
arguments and writes its CSV."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPTS = {
    "branch_ambiguity.py": ["--dim", "20", "--steps", "5"],
    "flow_vs_map.py": ["--dim", "20", "--t-end", "0.1"],
    "truncation_sweep.py": ["--dims", "8,12"],
}


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_script_runs(name, tmp_path):
    out = tmp_path / "out.csv"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *SCRIPTS[name],
         "--output", str(out)],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().count("\n") > 1
