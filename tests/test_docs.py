"""The README's library quick start runs as printed, and its command-line
usage block shows only flags the CLI takes, so the docs cannot keep a name
or a flag the package no longer has."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    assert "import mapflow" in block
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", block], capture_output=True, text=True, env=env, cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr


def _usage_lines():
    """The lines of README's "Command line" usage block."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1]
    return re.search(r"```\n(.*?)```", section, re.DOTALL).group(1).splitlines()


def test_readme_usage_shows_only_flags_the_subcommand_takes():
    from mapflow.cli import _SUBPARSERS

    lines = _usage_lines()
    assert {line.split()[1] for line in lines} == set(_SUBPARSERS)
    for line in lines:
        command = line.split()[1]
        taken = _SUBPARSERS[command]._option_string_actions
        shown = re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", line)
        assert shown, line
        assert [flag for flag in shown if flag not in taken] == [], line
