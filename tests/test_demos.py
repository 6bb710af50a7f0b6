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


def run_python(*args: str, env: dict | None = None) -> subprocess.CompletedProcess:
    """Run the interpreter from the repo root against the checkout's ``src``."""
    env = dict(os.environ, **(env or {}))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


# Runs the script named by argv[1] under an audit hook that refuses to open
# any file for writing outside tempfile.gettempdir().
WRITE_GUARD = """
import os, runpy, sys, tempfile
root = os.path.realpath(tempfile.gettempdir())
WRITES = os.O_WRONLY | os.O_RDWR | os.O_CREAT | os.O_APPEND | os.O_TRUNC
def guard(event, args):
    if event == "open" and not isinstance(args[0], int) and args[2] & WRITES:
        path = os.path.realpath(os.fsdecode(args[0]))
        if os.path.commonpath([root, path]) != root:
            raise PermissionError("write outside the temporary directory: " + path)
sys.addaudithook(guard)
runpy.run_path(sys.argv[1], run_name="__main__")
"""


def run_guarded(script: Path, tmp_path: Path) -> subprocess.CompletedProcess:
    """Run a script whose temporary directory is ``tmp_path / "tmp"``; a write
    anywhere else makes it fail."""
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    env = {"TMPDIR": str(tmpdir), "PYTHONDONTWRITEBYTECODE": "1"}
    return run_python("-c", WRITE_GUARD, str(script), env=env)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    """Each demo runs, writes only inside a temporary directory and removes it."""
    done = run_guarded(demo, tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
    assert list((tmp_path / "tmp").iterdir()) == []


def test_a_write_outside_the_temporary_directory_fails(tmp_path):
    outside = tmp_path / "outside.txt"
    script = tmp_path / "writes_outside.py"
    script.write_text(f"open({str(outside)!r}, 'w').close()\n")
    done = run_guarded(script, tmp_path)
    assert done.returncode != 0
    assert "write outside the temporary directory" in done.stderr
    assert not outside.exists()


def test_readme_quickstart_runs_and_closes_its_file():
    """The README's one ``python`` block runs as written, leaking no file handle."""
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    done = run_python("-W", "error::ResourceWarning", "-c", block)
    assert done.returncode == 0, done.stderr
    assert "ResourceWarning" not in done.stderr
    assert "'t_after': 8" in done.stdout


def table_rows(text: str) -> dict[str, list[str]]:
    """A markdown table's rows keyed by the first word of their first cell,
    bold marks dropped; the separator row is skipped."""
    table = {}
    for line in text.splitlines():
        if line.startswith("|") and "---" not in line:
            name, *cells = (cell.replace("*", "").strip() for cell in line.strip("|").split("|"))
            table[name.split()[0]] = cells
    return table


def test_readme_benchmark_table_is_what_the_demo_prints():
    """The README's "Benchmark table" rows, AVERAGE and MAXIMUM included,
    equal the table ``demos/05_family_table.py`` prints."""
    done = run_python(str(ROOT / "demos" / "05_family_table.py"))
    assert done.returncode == 0, done.stderr
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Benchmark table\n", 1)[1].split("\n## ", 1)[0]
    printed, listed = table_rows(done.stdout), table_rows(section)
    assert len(printed.keys() - {"name", "AVERAGE", "MAXIMUM"}) == 16
    assert printed == listed
