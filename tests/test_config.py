"""Every resource budget is read by the library code it claims to bound."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from supero.config import DEFAULT_LIMITS, Limits

SRC = Path(__file__).resolve().parent.parent / "src" / "supero"


def test_every_limits_field_is_read_outside_config():
    # cli.py only forwards flags into Limits, so a read there bounds nothing
    text = "\n".join(
        p.read_text() for p in sorted(SRC.glob("*.py"))
        if p.name not in ("config.py", "cli.py")
    )
    unread = [
        name for name in Limits._fields
        if not re.search(rf"\blimits\.{name}\b", text)
    ]
    assert not unread, f"Limits fields no library module reads: {unread}"


def test_limits_holds_the_four_budgets():
    assert list(Limits._fields) == [
        "max_module_dim", "max_end_dim", "max_hom_vars", "iteration_budget",
    ]


def test_limits_is_an_immutable_value():
    # Limits is part of every memo key, so it must hash and compare by value
    with pytest.raises(AttributeError):
        DEFAULT_LIMITS.iteration_budget = 1
    with pytest.raises(AttributeError):
        DEFAULT_LIMITS.extra = 1
    assert Limits() == DEFAULT_LIMITS and hash(Limits()) == hash(DEFAULT_LIMITS)
    assert Limits(iteration_budget=1) != DEFAULT_LIMITS
    assert len({Limits(max_end_dim=7), Limits(max_end_dim=7), DEFAULT_LIMITS}) == 2
    assert repr(DEFAULT_LIMITS) == (
        "Limits(max_module_dim=4096, max_end_dim=512, max_hom_vars=20000, "
        "iteration_budget=48)"
    )


def test_replace_keeps_the_other_budgets():
    # the CLI flags override two budgets through _replace
    changed = DEFAULT_LIMITS._replace(max_module_dim=9, iteration_budget=0)
    assert changed == Limits(9, 512, 20000, 0)
    assert changed.max_end_dim == DEFAULT_LIMITS.max_end_dim
    assert changed.max_hom_vars == DEFAULT_LIMITS.max_hom_vars
    assert DEFAULT_LIMITS == Limits()


def test_importing_the_cli_loads_no_introspection_modules():
    code = (
        "import sys, supero.cli; "
        "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'} "
        "& set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    ).stdout
    assert out == "[]\n"
