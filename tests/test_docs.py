"""Executable documentation: the README's Python blocks and the demos run."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _readme_python_blocks():
    text = (ROOT / "README.md").read_text()
    return re.findall(r"```python\n(.*?)```", text, flags=re.S)


def test_readme_has_python_blocks():
    assert _readme_python_blocks()


@pytest.mark.parametrize("index", range(len(_readme_python_blocks())))
def test_readme_python_block_runs(index):
    code = _readme_python_blocks()[index]
    exec(compile(code, f"README.md python block {index}", "exec"), {})


def test_six_demos_present():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env,
        cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
