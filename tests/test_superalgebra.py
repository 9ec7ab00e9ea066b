"""Structure constants, gradings and semi-infinite characters.

The gl brackets are cross-checked against an independent route: multiply
actual (m+n)x(m+n) matrices in the defining representation and expand the
supercommutator in matrix units.  The q brackets are pinned by hand-computed
special cases on top of the axiom sweep.
"""

import random

import pytest

from supero.algebra import (
    LieSuperAlgebra,
    beta_weight,
    build_gl,
    build_q,
    character_value,
    install_grading,
    rho_weight,
    standard_semiinfinite_character,
    supertrace,
    validate_algebra,
    verify_semiinfinite,
    w0_action,
)
from supero.errors import GradingError, InvalidAlgebraError
from supero.forms import even_levi
from supero.linalg import SparseMatrix, vec_add_into
from supero.rational import QQ
from supero.weights import weight, wneg, wscale, wzero

from full_basis import jacobi_by_triples
from helpers import ad_matrix

GL_SIZES = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1)]


# ---------------------------------------------------------------------------
# gl structure constants against the defining representation


def _gl_indices(m, n):
    return list(range(-m, 0)) + list(range(1, n + 1))


def _dense_supercommutator(m, n, i, j, k, l):
    """[e(i,j), e(k,l)] computed by literal matrix multiplication."""
    idx = _gl_indices(m, n)
    pos = {a: p for p, a in enumerate(idx)}

    def unit(a, b):
        mat = [[0] * len(idx) for _ in range(len(idx))]
        mat[pos[a]][pos[b]] = 1
        return mat

    def mult(x, y):
        size = len(idx)
        return [
            [sum(x[r][t] * y[t][c] for t in range(size)) for c in range(size)]
            for r in range(size)
        ]

    pa = ((i < 0) + (j < 0)) % 2
    pb = ((k < 0) + (l < 0)) % 2
    sign = -1 if pa and pb else 1
    x, y = unit(i, j), unit(k, l)
    xy, yx = mult(x, y), mult(y, x)
    out = {}
    for r, a in enumerate(idx):
        for c, b in enumerate(idx):
            v = xy[r][c] - sign * yx[r][c]
            if v:
                out[(a, b)] = QQ(v)
    return out


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (2, 2)])
def test_gl_bracket_matches_defining_representation(m, n):
    g = build_gl(m, n)
    labels = {}
    for a in range(g.dim):
        inner = g.label(a)[2:-1]
        i, j = (int(p) for p in inner.split(","))
        labels[a] = (i, j)
    for a in range(g.dim):
        for b in range(g.dim):
            expected = _dense_supercommutator(m, n, *labels[a], *labels[b])
            got = {labels[t]: c for t, c in g.bracket(a, b).items()}
            assert got == expected, (g.label(a), g.label(b))


def test_gl11_hand_table():
    g = build_gl(1, 1)
    e = lambda i, j: g.id_of(f"e({i},{j})")
    up, down = e(-1, 1), e(1, -1)
    assert g.parity(up) == 1 and g.parity(down) == 1
    # odd-odd pair anticommutes onto the torus
    assert g.bracket(up, down) == {e(-1, -1): QQ(1), e(1, 1): QQ(1)}
    # odd square vanishes for matrix units off the diagonal
    assert g.bracket(up, up) == {}
    assert g.bracket(e(-1, -1), up) == {up: QQ(1)}
    assert g.bracket(e(1, 1), up) == {up: QQ(-1)}
    assert g.weight_of(up) == weight(1, -1)


def test_gl_weights_and_transpose():
    g = build_gl(2, 1)
    for a in range(g.dim):
        t = g.transpose[a]
        assert g.weight_of(t) == wneg(g.weight_of(a))
        assert g.parity(t) == g.parity(a)
        assert g.transpose[t] == a
    # transpose fixes the torus pointwise
    for t in g.t_ids:
        assert g.transpose[t] == t


@pytest.mark.parametrize("builder", [lambda: build_gl(2, 1), lambda: build_q(2)])
def test_transpose_twists_bracket(builder):
    """theta[x,y] = -(-1)^{|x||y|} [theta x, theta y] on basis pairs."""
    g = builder()
    for a in range(g.dim):
        for b in range(g.dim):
            sign = -1 if g.parity(a) and g.parity(b) else 1
            lhs = {g.transpose[t]: c for t, c in g.bracket(a, b).items()}
            rhs = {}
            vec_add_into(rhs, g.bracket(g.transpose[a], g.transpose[b]), -sign)
            assert lhs == rhs, (g.label(a), g.label(b))


# ---------------------------------------------------------------------------
# axiom sweep and fault injection


@pytest.mark.parametrize("m,n", GL_SIZES)
def test_gl_axioms(m, n):
    report = validate_algebra(build_gl(m, n))
    assert report["passed"], report["failures"][:3]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_q_axioms(n):
    report = validate_algebra(build_q(n))
    assert report["passed"], report["failures"][:3]


def _with_table(g, table):
    return LieSuperAlgebra(
        g.family,
        g.params,
        g.basis,
        table,
        g.t_ids,
        g.t_coord,
        g.weight_len,
        g.transpose,
        grading_kind=g.grading_kind,
        degrees=g.degrees,
        bar_after=g.bar_after,
    )


def _copy_table(table):
    return {k: dict(v) for k, v in table.items()}


def _set_entry(table, a, b, target, value):
    """Set [a, b]_target = value in a copied table, deleting it at 0."""
    entry = table.setdefault((a, b), {})
    if value:
        entry[target] = value
    else:
        entry.pop(target, None)


def _tampered(g, a, b, target, delta):
    table = _copy_table(g.table)
    _set_entry(table, a, b, target, table.get((a, b), {}).get(target, 0) + QQ(delta))
    return _with_table(g, table)


def test_validation_catches_tampering():
    g = build_gl(1, 1)
    up, down = g.id_of("e(-1,1)"), g.id_of("e(1,-1)")
    bad = _tampered(g, up, down, g.id_of("e(1,1)"), 1)
    report = validate_algebra(bad)
    assert not report["passed"]
    kinds = {f.split(":")[0] for f in report["failures"]}
    assert "antisymmetry" in kinds or "jacobi" in kinds
    # injecting a wrong-weight target trips the weight check
    bad2 = _tampered(g, up, down, up, 1)
    report2 = validate_algebra(bad2)
    assert any(f.startswith("weight") for f in report2["failures"])


# ---------------------------------------------------------------------------
# q hand facts


def test_q2_hand_table():
    g = build_q(2)
    e = lambda i, j: g.id_of(f"e({i},{j})")
    ep = lambda i, j: g.id_of(f"e'({i},{j})")
    # odd diagonal squares to twice the even diagonal
    for i in (1, 2):
        assert g.bracket(ep(i, i), ep(i, i)) == {e(i, i): QQ(2)}
    assert g.bracket(ep(1, 2), ep(2, 1)) == {e(1, 1): QQ(1), e(2, 2): QQ(1)}
    assert g.bracket(ep(1, 2), e(2, 1)) == {ep(1, 1): QQ(1), ep(2, 2): QQ(-1)}
    assert g.bracket(e(1, 2), ep(2, 1)) == {ep(1, 1): QQ(1), ep(2, 2): QQ(-1)}
    # even part multiplies like gl(2)
    assert g.bracket(e(1, 2), e(2, 1)) == {e(1, 1): QQ(1), e(2, 2): QQ(-1)}
    assert g.weight_of(ep(1, 2)) == weight(1, -1)
    assert g.parity(ep(1, 2)) == 1 and g.parity(e(1, 2)) == 0


def test_q_grading_built_in():
    g = build_q(3)
    e = lambda i, j: g.id_of(f"e({i},{j})")
    assert g.degree_of(e(1, 3)) == QQ(2)
    assert g.degree_of(e(3, 1)) == QQ(-2)
    ep13 = g.id_of("e'(1,3)")
    assert g.degree_of(ep13) == QQ(2)
    # h is spanned by the diagonal elements of both parities
    h = set(g.h_ids())
    expected = {e(i, i) for i in (1, 2, 3)} | {g.id_of(f"e'({i},{i})") for i in (1, 2, 3)}
    assert h == expected
    with pytest.raises(GradingError):
        install_grading(g, "principal")


# ---------------------------------------------------------------------------
# gradings on gl


def test_principal_grading():
    g = install_grading(build_gl(2, 1), "principal")
    e = lambda i, j: g.id_of(f"e({i},{j})")
    # degree is the position shift
    assert g.degree_of(e(-2, -1)) == QQ(1)
    assert g.degree_of(e(-2, 1)) == QQ(2)
    assert g.degree_of(e(1, -2)) == QQ(-2)
    # h is exactly the torus
    assert set(g.h_ids()) == set(g.t_ids)
    order = g.pbw_order()
    degs = [g.degree_of(i) for i in order]
    assert degs == sorted(degs)


def test_compatible_grading():
    g = install_grading(build_gl(2, 1), "compatible")
    e = lambda i, j: g.id_of(f"e({i},{j})")
    assert g.degree_of(e(-2, 1)) == QQ(1)
    assert g.degree_of(e(1, -1)) == QQ(-1)
    assert g.degree_of(e(-2, -1)) == 0
    # h is the whole even part gl(2) + gl(1)
    assert len(g.h_ids()) == 5
    assert all(g.parity(i) == 0 for i in g.h_ids())
    report = validate_algebra(g)
    assert report["passed"], report["failures"][:3]


def test_grading_errors():
    g = build_gl(1, 1)
    with pytest.raises(GradingError):
        install_grading(g, "exotic")
    with pytest.raises(GradingError):
        g.degree_of(0)
    with pytest.raises(GradingError):
        standard_semiinfinite_character(g)


def test_ad_matrix():
    g = build_gl(1, 1)
    up = g.id_of("e(-1,1)")
    mat = ad_matrix(g, up)
    for b, col in enumerate(mat.cols()):
        assert col == g.bracket(up, b)
    with pytest.raises(ValueError):
        ad_matrix(g, up, domain_ids=[g.id_of("e(1,-1)")])


def test_subalgebra_even_part():
    g = install_grading(build_gl(2, 1), "compatible")
    h = g.subalgebra(g.h_ids())
    assert h.dim == 5
    rep = validate_algebra(h)
    assert rep["passed"], rep["failures"][:3]
    # a non-closed span is rejected
    with pytest.raises(InvalidAlgebraError):
        g.subalgebra([g.id_of("e(-2,-1)"), g.id_of("e(-1,-2)")])


def test_jacobi_only_tamper_is_caught():
    """[e(-2,-1), e(-1,1)] = 2 e(-2,1) and [e(-1,1), e(-2,-1)] = -2 e(-2,1)
    on gl(2|1): antisymmetry, weights and parities still hold, so only
    the Jacobi identity (the adjoint module's bracket relation) fails."""
    g = build_gl(2, 1)
    a, b, k = g.id_of("e(-2,-1)"), g.id_of("e(-1,1)"), g.id_of("e(-2,1)")
    assert g.bracket(a, b) == {k: 1} and g.bracket(b, a) == {k: -1}
    table = _copy_table(g.table)
    _set_entry(table, a, b, k, 2)
    _set_entry(table, b, a, k, -2)
    bad = _with_table(g, table)
    report = validate_algebra(bad)
    assert not report["passed"]
    assert report["failures"]
    assert all(f.startswith("jacobi: bracket relation fails") for f in report["failures"])
    assert not jacobi_by_triples(bad)


def test_checks_count_pairs_and_adjoint_pairs():
    g = build_gl(2, 1)
    report = validate_algebra(g)
    assert report["checks"] == {"pairs": g.dim ** 2, "adjoint_pairs": g.dim * (g.dim + 1) // 2}


def _gl21(kind):
    return install_grading(build_gl(2, 1), kind)


ORACLE_ALGEBRAS = {
    "gl11": lambda: build_gl(1, 1),
    "gl21": lambda: build_gl(2, 1),
    "gl22": lambda: build_gl(2, 2),
    "gl31": lambda: build_gl(3, 1),
    "q2": lambda: build_q(2),
    "q3": lambda: build_q(3),
    "gl21-principal": lambda: _gl21("principal"),
    "gl21-compatible": lambda: _gl21("compatible"),
    "gl21-even-levi": lambda: even_levi(_gl21("compatible"))[0],
}


def _seeded_tamperings(g, seed):
    """Copies of g's table with one entry shifted, deleted or doubled,
    at (a, b) alone and at (a, b) and (b, a) together (antisymmetry
    kept), and with a torus eigenvalue [t, b]_b deleted, at (t, b) alone
    and at both orders."""
    rng = random.Random(seed)
    entries = sorted(
        (a, b, k, c) for (a, b), br in g.table.items() for k, c in br.items()
    )
    out = []
    for a, b, k, c in rng.sample(entries, 4):
        sign = -1 if g.parity(a) and g.parity(b) else 1
        for value in (c + 1 if c + 1 else c + 2, 0, 2 * c):
            one = _copy_table(g.table)
            _set_entry(one, a, b, k, value)
            out.append(one)
            if a != b:
                both = _copy_table(one)
                _set_entry(both, b, a, k, -sign * value)
                out.append(both)
    torus = [
        (t, b) for t in g.t_ids for b in range(g.dim) if g.weight_of(b)[g.t_coord[t]]
    ]
    for t, b in rng.sample(torus, 2):
        one = _copy_table(g.table)
        _set_entry(one, t, b, b, 0)
        both = _copy_table(one)
        _set_entry(both, b, t, b, 0)
        out += [one, both]
    return [_with_table(g, table) for table in out]


@pytest.mark.parametrize("name", sorted(ORACLE_ALGEBRAS))
def test_adjoint_pass_agrees_with_triple_loop(name):
    """validate_algebra's verdict is the one of its table checks and the
    triple-loop Jacobi and torus oracle, on the algebra and on seeded
    tamperings of it; some tamperings only the Jacobi check catches."""
    g = ORACLE_ALGEBRAS[name]()
    only_jacobi = 0
    for h in [g] + _seeded_tamperings(g, seed=sum(map(ord, name))):
        report = validate_algebra(h)
        rest = [f for f in report["failures"] if not f.startswith("jacobi:")]
        oracle = jacobi_by_triples(h)
        assert report["passed"] == (not rest and oracle)
        only_jacobi += not rest and not oracle
    assert validate_algebra(g)["passed"]
    assert only_jacobi


# ---------------------------------------------------------------------------
# supertrace and semi-infinite characters


def test_supertrace():
    mat = SparseMatrix.from_dense([[2, 5], [7, 3]])
    assert supertrace(mat, [0, 0]) == QQ(5)
    assert supertrace(mat, [0, 1]) == QQ(-1)
    assert supertrace(mat, [1, 1]) == QQ(-5)


def test_distinguished_weights():
    assert rho_weight(2, 1) == weight(2, 1, -1)
    assert beta_weight(2, 1) == weight(1, 1, -2)
    assert w0_action(2, 1, weight(3, 1, 0)) == weight(1, 3, 0)
    assert w0_action(2, 2, weight(1, 2, 3, 4)) == weight(2, 1, 4, 3)


@pytest.mark.parametrize("m,n", GL_SIZES)
@pytest.mark.parametrize("kind", ["principal", "compatible"])
def test_standard_characters_are_admissible_gl(m, n, kind):
    g = install_grading(build_gl(m, n), kind)
    report = verify_semiinfinite(g)
    assert report["passed"], report["defects"][:3]
    assert report["pairs_checked"] == len(g.ids_of_degree(1)) * len(g.ids_of_degree(-1))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_zero_character_is_admissible_q(n):
    report = verify_semiinfinite(build_q(n))
    assert report["passed"], report["defects"][:3]
    assert report["gamma"] == ["0"] * n


def test_gl21_compatible_hand_pair():
    """One identity instance checked entirely by hand.

    X = e(-2,1), Y = e(1,-2): [X,Y] = e(-2,-2) + e(1,1), and the supertrace
    of ad X ad Y on the even part is 1, matching -beta on [X,Y]:
    -beta = (-1,-1|2) gives -1 + 2 = 1.
    """
    g = install_grading(build_gl(2, 1), "compatible")
    x, y = g.id_of("e(-2,1)"), g.id_of("e(1,-2)")
    assert g.bracket(x, y) == {g.id_of("e(-2,-2)"): QQ(1), g.id_of("e(1,1)"): QQ(1)}
    gamma = wneg(beta_weight(2, 1))
    assert gamma == weight(-1, -1, 2)
    assert character_value(g, gamma, g.bracket(x, y)) == QQ(1)
    h = g.h_ids()
    index = {b: k for k, b in enumerate(h)}
    mat = {}
    for col, hb in enumerate(h):
        image = {}
        for k, c in g.bracket(y, hb).items():
            vec_add_into(image, g.bracket(x, k), c)
        for t, c in image.items():
            mat[(index[t], col)] = c
    mat = SparseMatrix(len(h), len(h), mat)
    assert supertrace(mat, [g.parity(b) for b in h]) == QQ(1)


def test_q2_supertrace_essential():
    """For q(2) the even and odd diagonal contributions cancel.

    With X = e(1,2), Y = e(2,1) every diagonal entry of ad X ad Y on h is 1,
    so the plain trace is 4 while the supertrace is 0, which is what the zero
    character requires.
    """
    g = build_q(2)
    x, y = g.id_of("e(1,2)"), g.id_of("e(2,1)")
    h = g.h_ids()
    index = {b: k for k, b in enumerate(h)}
    mat = {}
    for col, hb in enumerate(h):
        image = {}
        for k, c in g.bracket(y, hb).items():
            vec_add_into(image, g.bracket(x, k), c)
        for t, c in image.items():
            mat[(index[t], col)] = c
    mat = SparseMatrix(len(h), len(h), mat)
    assert sum(v for (i, j), v in mat.data.items() if i == j) == QQ(4)
    assert supertrace(mat, [g.parity(b) for b in h]) == 0


def test_wrong_characters_rejected():
    gp = install_grading(build_gl(2, 1), "principal")
    assert not verify_semiinfinite(gp, wzero(3))["passed"]
    perturbed = weight(5, 2, -2)  # 2*rho is (4,2|-2)
    assert not verify_semiinfinite(gp, perturbed)["passed"]
    gc = install_grading(build_gl(2, 1), "compatible")
    assert not verify_semiinfinite(gc, wscale(rho_weight(2, 1), 2))["passed"]


def test_character_must_kill_h_commutators():
    gc = install_grading(build_gl(2, 1), "compatible")
    report = verify_semiinfinite(gc, weight(1, 0, 0))
    assert report["hom_defects"]
    assert not report["passed"]


def test_gl11_any_balanced_character_admissible():
    """Rank (1,1) is degenerate: both sides vanish for every balanced gamma."""
    g = install_grading(build_gl(1, 1), "principal")
    for gamma in [weight(0, 0), weight(2, -2), weight(7, -7)]:
        assert verify_semiinfinite(g, gamma)["passed"]
    assert not verify_semiinfinite(g, weight(1, 0))["passed"]
