"""Exact scalars: an int where the value is integral, a QQ only where it is
not, and never a float."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from supero.algebra import build_gl, install_grading
from supero.characters import window_from_box
from supero.forms import kac_module, simple_module
from supero.linalg import SparseMatrix
from supero.rational import QQ, exact, rat_str
from supero.structure import projective_cover, tilting_module

SRC = Path(__file__).resolve().parent.parent / "src" / "supero"


def is_exact_scalar(v):
    """An int, or a QQ that is not integral."""
    return type(v) is int or (type(v) is QQ and v.denominator != 1)


def test_exact_normalises_to_int_where_integral():
    assert type(exact(4, 2)) is int and exact(4, 2) == 2
    assert exact(3, -2) == QQ(-3, 2) and type(exact(3, -2)) is QQ
    assert type(exact(QQ(6, 3))) is int
    assert type(exact("4/2")) is int and exact("1/2") == QQ(1, 2)
    with pytest.raises(TypeError):
        exact(0.5)
    with pytest.raises(TypeError):
        exact(1, 2.0)


def test_float_entries_are_refused():
    with pytest.raises(TypeError):
        SparseMatrix(1, 2, {(0, 0): 0.1})
    with pytest.raises(TypeError):
        SparseMatrix.from_dense([[1, 0.5]])
    with pytest.raises(TypeError):
        SparseMatrix.identity(2).scale(0.5)


def test_from_dense_takes_strings_and_fractions():
    a = SparseMatrix.from_dense([["1/2", Fraction(4, 2)], ["-3", Fraction(0)]])
    assert a.data == {(0, 0): QQ(1, 2), (0, 1): 2, (1, 0): -3}
    assert all(is_exact_scalar(v) for v in a.data.values())
    assert type(a.data[(0, 1)]) is int


def test_rat_str_prints_int_and_integral_qq_alike():
    assert rat_str(3) == rat_str(QQ(3)) == "3"
    assert rat_str(-2) == rat_str(QQ(-4, 2)) == "-2"


def _has_qq_operand(node):
    return any(
        isinstance(side, ast.Call) and isinstance(side.func, ast.Name)
        and side.func.id == "QQ"
        for side in (node.left, node.right)
    )


def test_every_true_division_has_a_qq_operand():
    """int / int is a float, so each / in the library divides by or into
    an explicit QQ."""
    bare = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                if not _has_qq_operand(node):
                    bare.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
                bare.append(f"{path.name}:{node.lineno}")
    assert not bare, f"true division without a QQ operand at {bare}"


def test_gl21_modules_store_ints_where_integral():
    """Kac, simple, projective and tilting modules of gl(2|1) on the box
    -1..1: every action-matrix entry is an int or a non-integral QQ."""
    g = install_grading(build_gl(2, 1), "compatible")
    checked = 0
    for lam in window_from_box(g, -1, 1, support_closure=False):
        for build in (kac_module, simple_module, projective_cover, tilting_module):
            module = build(g, lam)
            for mat in module.action.values():
                bad = [v for v in mat.data.values() if not is_exact_scalar(v)]
                assert not bad, (build.__name__, lam, bad[:3])
                checked += len(mat.data)
    assert checked
