"""The README's walkthroughs in demos/ and its Quick start run to completion; its config example is the defaults."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from markovup import cli
from helpers import cli_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(args, cwd):
    # the child imports the same package as this process, installed or not
    return subprocess.run([sys.executable, *args], cwd=cwd, env=cli_env(), capture_output=True, text=True)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    proc = _run([str(demo)], tmp_path)
    assert proc.returncode == 0, f"{demo.name} exited {proc.returncode}\nstderr:\n{proc.stderr}"


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^## Quick start\n.*?^```python\n(.*?)^```$", readme, re.DOTALL | re.MULTILINE)
    proc = _run(["-c", block], tmp_path)
    assert proc.returncode == 0, f"Quick start exited {proc.returncode}\nstderr:\n{proc.stderr}"
    # tau and the attempts, the certified m = 2 bound, and verify's all_passed
    assert proc.stdout.splitlines()[-1] == "True", proc.stdout


def test_readme_config_example_is_the_defaults():
    # every key the README documents is one the parser takes, at its default
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^### Config file\n\n```json\n(.*?)^```$", readme, re.DOTALL | re.MULTILINE)
    assert cli.parse_config(json.loads(block)) == cli.ExperimentConfig()
