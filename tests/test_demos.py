"""The README's walkthroughs in demos/ run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import markovup

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    # the child imports the same package as this process, installed or not
    env = dict(os.environ)
    package_root = str(Path(markovup.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH", "")) if p)
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, f"{demo.name} exited {proc.returncode}\nstderr:\n{proc.stderr}"
