"""No module-level function or class of the library exists for the tests alone.

A top-level name defined in ``src/supero`` counts as used when code outside
its own definition refers to it: its own module, another library module
(the re-export list in ``__init__.py`` does not count), a demo, a code block
of the README or a ``perfbench/`` script (which also looks functions up by
name, so its strings count).  Methods are not checked, because their names
collide across classes.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "supero"


def _docstrings(tree):
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                out.add(id(body[0].value))
    return out


def _references(tree, skip=None):
    """Identifiers a tree refers to, outside the subtree ``skip``."""
    skipped = set() if skip is None else {id(n) for n in ast.walk(skip)}
    docs = _docstrings(tree)
    names = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docs:
            names.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return names


def _external_references():
    names = set()
    for path in [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        names |= _references(ast.parse(path.read_text()))
    readme = (ROOT / "README.md").read_text()
    for block in re.findall(r"```\w*\n(.*?)```", readme, flags=re.S):
        names.update(re.findall(r"[A-Za-z_]\w*", block))
    return names


def orphans():
    """(module, name) for every top-level definition nothing else uses."""
    trees = {
        p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))
        if p.name != "__init__.py"
    }
    refs = {stem: _references(tree) for stem, tree in trees.items()}
    external = _external_references()
    found = []
    for stem, tree in trees.items():
        elsewhere = external.union(*(r for s, r in refs.items() if s != stem))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name not in elsewhere and node.name not in _references(tree, skip=node):
                found.append((stem, node.name))
    return found


def test_no_top_level_helper_only_tests_use():
    assert not orphans(), f"library definitions only tests use: {orphans()}"
