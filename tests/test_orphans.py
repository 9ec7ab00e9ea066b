"""No module-level function, class or constant of the library exists for the
tests alone.

A top-level name defined in ``src/supero`` (by ``def``, ``class`` or an
assignment) counts as used when code outside its own definition refers to
it: its own module, another library module (through an import or an
attribute access; a local variable of the same name does not count, nor
does the re-export list in ``__init__.py``), a demo, a ``python`` or
``sh`` code block of the README (the Layout block is prose) or a
``perfbench/`` script (which also looks functions up by name, so its
strings count).  Methods are not checked, because their names collide
across classes.
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
    for block in re.findall(r"```(?:python|sh)\n(.*?)```", readme, flags=re.S):
        names.update(re.findall(r"[A-Za-z_]\w*", block))
    return names


def _imported(tree):
    """Names a library module imports or reads as attributes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def _defined_names(node):
    """Names a top-level statement defines: a function, a class, or the
    plain-name targets of an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    return []


def orphans():
    """(module, name) for every top-level definition nothing else uses."""
    trees = {
        p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))
        if p.name != "__init__.py"
    }
    refs = {stem: _imported(tree) for stem, tree in trees.items()}
    external = _external_references()
    found = []
    for stem, tree in trees.items():
        elsewhere = external.union(*(r for s, r in refs.items() if s != stem))
        for node in tree.body:
            for name in _defined_names(node):
                if name not in elsewhere and name not in _references(tree, skip=node):
                    found.append((stem, name))
    return found


def test_no_top_level_helper_only_tests_use():
    assert not orphans(), f"library definitions only tests use: {orphans()}"
