"""The benchmark's layer tracer finds every function it wraps.

``perfbench/layertrace.py`` looks its targets up by name
(``vars(owner)[attr]``), so renaming or moving one of them would turn every
``run.py --trace 1`` run into a ``KeyError``.  The tracer is loaded from its
source text, read-only: nothing is written next to it.
"""

import importlib
import types
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def load_layertrace():
    module = types.ModuleType("layertrace")
    module.__file__ = str(LAYERTRACE)
    exec(compile(LAYERTRACE.read_text(), str(LAYERTRACE), "exec"), vars(module))
    return module


def test_every_trace_target_resolves():
    layertrace = load_layertrace()
    missing = []
    for mod_name, path, *_ in layertrace.TARGETS:
        module = importlib.import_module(f"supero.{mod_name}")
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or attr not in vars(owner):
            missing.append(f"supero.{mod_name}.{path}")
    assert missing == []



def test_traced_verify_sees_every_cli_entry_point(capsys):
    """An in-process traced ``verify --which all`` records at least one
    span for each pipeline entry point the tracer wraps in ``cli``: the
    runners must be looked up through the module bindings it patches."""
    from supero.cli import main

    layertrace = load_layertrace()
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        code = main(["verify", "--algebra", "gl:1,1", "--box=-1..1", "--which", "all"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    called = {target for target, *_ in tracer.spans}
    missing = [
        path for index, (mod_name, path, *_) in enumerate(layertrace.TARGETS)
        if mod_name == "cli" and index not in called
    ]
    assert missing == []
