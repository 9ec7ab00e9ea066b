"""Every resource budget is read by the library code it claims to bound."""

import dataclasses
import re
from pathlib import Path

from supero.config import Limits

SRC = Path(__file__).resolve().parent.parent / "src" / "supero"


def test_every_limits_field_is_read_outside_config():
    # cli.py only forwards flags into Limits, so a read there bounds nothing
    text = "\n".join(
        p.read_text() for p in sorted(SRC.glob("*.py"))
        if p.name not in ("config.py", "cli.py")
    )
    unread = [
        f.name for f in dataclasses.fields(Limits)
        if not re.search(rf"\blimits\.{f.name}\b", text)
    ]
    assert not unread, f"Limits fields no library module reads: {unread}"


def test_limits_holds_the_four_budgets():
    assert [f.name for f in dataclasses.fields(Limits)] == [
        "max_module_dim", "max_end_dim", "max_hom_vars", "iteration_budget",
    ]
