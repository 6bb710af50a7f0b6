"""Every script under demos/ runs to completion against the current API."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Run the interpreter from the repo root against the checkout's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    done = run_python(str(demo))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def test_readme_quickstart_runs_and_closes_its_file():
    """The README's one ``python`` block runs as written, leaking no file handle."""
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    done = run_python("-W", "error::ResourceWarning", "-c", block)
    assert done.returncode == 0, done.stderr
    assert "ResourceWarning" not in done.stderr
    assert "'t_after': 8" in done.stdout
