"""Every resource knob is read by the code it claims to bound."""

import dataclasses
import re
from pathlib import Path

from supero.config import Limits

SRC = Path(__file__).resolve().parent.parent / "src" / "supero"


def test_every_limits_field_is_read_outside_config():
    text = "\n".join(
        p.read_text() for p in sorted(SRC.glob("*.py")) if p.name != "config.py"
    )
    unread = [
        f.name for f in dataclasses.fields(Limits)
        if not re.search(rf"\.{f.name}\b", text)
    ]
    assert not unread, f"Limits fields nothing reads: {unread}"
