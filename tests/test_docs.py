"""Executable documentation: the README's Python blocks, its `supero`
command lines and the demos run."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from supero import cli

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


def _readme_commands():
    """Each `supero ...` line of the README's sh blocks, with the exit code
    its trailing comment names ("# exits 1"), 0 when it names none."""
    text = (ROOT / "README.md").read_text()
    out = []
    for block in re.findall(r"```sh\n(.*?)```", text, flags=re.S):
        for line in block.splitlines():
            if line.startswith("supero "):
                code = re.search(r"#\s*exits (\d+)", line)
                out.append((line, int(code.group(1)) if code else 0))
    return out


def test_readme_has_commands():
    assert _readme_commands()


@pytest.mark.parametrize(
    "argv, expected",
    [(shlex.split(line, comments=True)[1:], code) for line, code in _readme_commands()],
    ids=lambda v: " ".join(v) if isinstance(v, list) else f"exits {v}",
)
def test_readme_command_exits_as_documented(argv, expected, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == expected, capsys.readouterr().err


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
