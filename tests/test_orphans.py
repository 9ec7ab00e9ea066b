"""No module-level function, class or constant of the library exists for the
tests alone.

A top-level name defined in ``src/supero`` (by ``def``, ``class`` or an
assignment) counts as used when code outside its own definition refers to
it: its own module, another library module (through an import or an
attribute access; a local variable of the same name does not count, nor
does the re-export list in ``__init__.py``), a demo, a ``python`` or
``sh`` code block of the README (the Layout block is prose) or a
``perfbench/`` script (which also looks functions up by name, so its
strings count).  The same holds for a method whose name only one library
class defines (dunder methods aside): a reference to the name anywhere
outside the method counts, since a name two classes share cannot be
traced to one of them.
"""

import ast
import re
from collections import Counter
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


def _methods(tree):
    """(class name, method node) for every method of a top-level class,
    dunder methods aside."""
    return [
        (cls.name, node) for cls in tree.body if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("__")
    ]


def _trees():
    return {
        p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))
        if p.name != "__init__.py"
    }


def orphans(trees):
    """(module, name) for every top-level definition of the library's
    module trees that nothing else uses, and (module, class.method) for
    every method with a name of its own that nothing else uses."""
    refs = {stem: _imported(tree) for stem, tree in trees.items()}
    external = _external_references()
    owners = Counter(node.name for tree in trees.values() for _, node in _methods(tree))
    found = []
    for stem, tree in trees.items():
        elsewhere = external.union(*(r for s, r in refs.items() if s != stem))
        for node in tree.body:
            for name in _defined_names(node):
                if name not in elsewhere and name not in _references(tree, skip=node):
                    found.append((stem, name))
        for cls, node in _methods(tree):
            if owners[node.name] == 1 and node.name not in elsewhere | _references(tree, skip=node):
                found.append((stem, f"{cls}.{node.name}"))
    return found


def test_no_top_level_helper_only_tests_use():
    found = orphans(_trees())
    assert not found, f"library definitions only tests use: {found}"


def test_the_method_check_sees_a_method_only_tests_use():
    """A method added to one class under a name of its own, and called by
    no library code, is reported."""
    trees = _trees()
    tree = trees["linalg"]
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "SparseMatrix")
    cls.body.append(ast.parse("def only_tests_call_this(self):\n    return 0").body[0])
    assert orphans(trees) == [("linalg", "SparseMatrix.only_tests_call_this")]
