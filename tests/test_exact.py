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
from supero.weights import parse_weight

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


def _integral_qq_literal(node):
    """A QQ(...) call whose arguments are integer literals and whose value
    is integral, e.g. QQ(0), QQ(-1) or QQ(4, 2)."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "QQ" and node.args and not node.keywords):
        return False
    values = []
    for arg in node.args:
        neg = isinstance(arg, ast.UnaryOp) and isinstance(arg.op, ast.USub)
        arg = arg.operand if neg else arg
        if not (isinstance(arg, ast.Constant) and type(arg.value) is int):
            return False
        values.append(-arg.value if neg else arg.value)
    return len(values) == 1 or values[0] % values[1] == 0


def test_no_integral_qq_literal():
    """An integral scalar is an int at the source: no QQ(0), QQ(1), ...
    in the library, except as an operand of / (int / int is a float)."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        divided = {
            id(side) for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
            for side in (node.left, node.right)
        }
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if _integral_qq_literal(node) and id(node) not in divided
        ]
    assert not found, f"integral QQ literal outside a division at {found}"


def _all_int(coords):
    return all(type(c) is int for c in coords)


@pytest.mark.parametrize("kind", ["compatible", "principal"])
def test_gl21_root_weights_and_degrees_are_ints(kind):
    g = install_grading(build_gl(2, 1), kind)
    assert all(_all_int(b.weight) for b in g.basis)
    assert _all_int(g.degrees)


def test_gl21_module_weights_are_ints():
    """Window, memo keys and the weights of the Kac, simple, projective
    and tilting modules of gl(2|1) on the box -1..1 hold ints."""
    g = install_grading(build_gl(2, 1), "compatible")
    assert all(_all_int(w) for w in window_from_box(g, -1, 1))
    window = window_from_box(g, -1, 1, support_closure=False)
    for lam in window:
        for build in (kac_module, simple_module, projective_cover, tilting_module):
            module = build(g, lam)
            assert all(_all_int(w) for w in module.weights), (build.__name__, lam)
    keys = [key for key in g.memo if len(key) == 3]
    assert keys and all(_all_int(key[1]) for key in keys)


def test_memo_key_is_the_normalised_weight():
    g = install_grading(build_gl(2, 1), "compatible")
    K = kac_module(g, (1, 0, 0))
    assert kac_module(g, (QQ(1), QQ(0), QQ(0))) is K
    assert kac_module(g, ("1", "0", "0")) is K
    keys = [key for key in g.memo if key[0] == "kac_module"]
    assert len(keys) == 1 and keys[0][1] == (1, 0, 0) and _all_int(keys[0][1])


def test_half_integral_weight_keeps_qq():
    w = parse_weight("(1/2|-1/2)")
    assert w == (QQ(1, 2), QQ(-1, 2))
    assert all(type(c) is QQ for c in w)
    assert parse_weight("(2/2|-1)") == (1, -1) and _all_int(parse_weight("(2/2|-1)"))
