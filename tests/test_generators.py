"""Lie generating sets, and the hom spaces and submodule closures that act
with them, against the full-basis oracles of `full_basis`."""

import pytest

from supero.algebra import (
    bracket_closure,
    build_gl,
    build_q,
    install_grading,
    lie_generators,
)
from supero.forms import (
    clifford_module,
    even_levi,
    induced_projective,
    kac_module,
    simple_module,
    verma_module_truncated,
)
from supero.homs import hom_space
from supero.linalg import Echelon, SparseMatrix
from supero.modules import (
    ExplicitModule,
    assert_valid_module,
    dual_module,
    intertwining_ids,
    parity_flip,
    quotient_module,
    submodule_module,
    tau_dual,
)
from supero.rational import ONE, QQ
from supero.structure import projective_cover, projective_cover_h, tilting_module

from full_basis import full_basis_closure, full_basis_hom_space
from helpers import ad_matrix, direct_sum


def gl_c(m, n):
    return install_grading(build_gl(m, n), "compatible")


def q_cartan(n):
    q = build_q(n)
    return q.subalgebra(q.h_ids(), family_tag="q-cartan")


def tier1_algebras():
    """Every algebra, grading and subalgebra that tier-1 builds modules or
    checks over."""
    for m in range(1, 4):
        for n in range(1, 4):
            g = build_gl(m, n)
            yield g
            for kind in ("principal", "compatible"):
                yield install_grading(g, kind)
            gc = install_grading(g, "compatible")
            levi, _ = even_levi(gc)
            yield levi
            yield levi.subalgebra(sorted(levi.h_ids() + levi.positive_ids()))
            yield gc.subalgebra(sorted(gc.h_ids() + gc.positive_ids()))
    for n in range(1, 5):
        yield build_q(n)
        h = q_cartan(n)
        yield h
        yield h.subalgebra(sorted(h.t_coord))


def spanned_by_closure(g, ids):
    """Span of iterated brackets of the given ids, by a breadth-first
    search written independently of ``bracket_closure``."""
    ech = Echelon()
    span = []
    todo = [{i: ONE} for i in ids]
    while todo:
        v = todo.pop()
        if ech.add(v) is None:
            continue
        span.append(v)
        for u in span:
            img = g.bracket_vectors(u, v)
            if img:
                todo.append(img)
    return len(ech)


# -- the generating set ------------------------------------------------------


def test_generators_with_the_torus_span_every_tier1_algebra():
    for g in tier1_algebras():
        gens = lie_generators(g)
        assert not set(gens) & set(g.t_ids), g
        assert list(gens) == sorted(set(gens)), g
        assert spanned_by_closure(g, list(g.t_ids) + list(gens)) == g.dim, g
        assert len(bracket_closure(g, list(g.t_ids) + list(gens))) == g.dim


def test_generators_are_greedy_and_minimal_in_order():
    """Each chosen element is outside the closure of the torus and the
    elements chosen before it, and every element left out is inside."""
    for g in (build_gl(2, 1), build_gl(2, 2), build_q(2), build_q(3)):
        gens = lie_generators(g)
        for x in range(g.dim):
            if x in g.t_ids:
                continue
            before = [y for y in gens if y < x]
            inside = bracket_closure(g, list(g.t_ids) + before).contains({x: ONE})
            assert inside == (x not in gens), (g, g.label(x))


def test_generator_counts():
    counts = {(1, 1): 2, (2, 1): 4, (1, 2): 4, (2, 2): 6, (3, 1): 6}
    for (m, n), c in counts.items():
        assert len(lie_generators(build_gl(m, n))) == c
    q = build_q(2)
    assert [q.label(x) for x in lie_generators(q)] == ["e(1,2)", "e(2,1)", "e'(1,1)"]


def test_generators_are_memoised_per_algebra():
    g = build_gl(2, 1)
    assert lie_generators(g) is lie_generators(g)
    assert ("lie_generators",) in g.memo


def test_truncated_slices_act_with_every_basis_element():
    gp = install_grading(build_gl(1, 1), "principal")
    V = verma_module_truncated(gp, (1, 0), 2)
    assert V.truncated
    assert list(intertwining_ids(V)) == list(range(gp.dim))
    g = gl_c(1, 1)
    K = kac_module(g, (1, 0))
    assert intertwining_ids(K) == lie_generators(g)
    assert list(intertwining_ids(K, V)) == list(range(g.dim))


# -- modules over q(n) built by hand ------------------------------------------


def q_natural(q):
    """C^{n|n} with q(n) acting by its matrices inside gl(n|n)."""
    n = q.params[0]
    idx = list(range(-n, 0)) + list(range(1, n + 1))
    pos = {i: p for p, i in enumerate(idx)}
    weights = []
    for i in idx:
        w = [QQ(0)] * n
        w[abs(i) - 1] = QQ(1)
        weights.append(tuple(w))
    parities = [1 if i < 0 else 0 for i in idx]
    action = {}
    for x in range(q.dim):
        label = q.label(x)
        i, j = (int(c) for c in label[label.index("(") + 1 : -1].split(","))
        if label.startswith("e'"):
            entries = {(pos[-i], pos[j]): 1, (pos[i], pos[-j]): 1}
        else:
            entries = {(pos[-i], pos[-j]): 1, (pos[i], pos[j]): 1}
        action[x] = SparseMatrix(2 * n, 2 * n, entries)
    return ExplicitModule(q, weights, parities, action, meta={"kind": "natural"})


def adjoint(g):
    return ExplicitModule(
        g,
        [g.weight_of(b) for b in range(g.dim)],
        [g.parity(b) for b in range(g.dim)],
        {x: ad_matrix(g, x) for x in range(g.dim)},
        labels=[g.label(b) for b in range(g.dim)],
        meta={"kind": "adjoint"},
    )


def q_modules(n):
    q = build_q(n)
    V = q_natural(q)
    A = adjoint(q)
    mods = [V, parity_flip(V), dual_module(V), A, direct_sum(V, dual_module(V))]
    h = q_cartan(n)
    u = clifford_module(h, (1,) + (0,) * (n - 1))
    mods_h = [u, parity_flip(u), projective_cover_h(h, u)]
    for M in mods + mods_h:
        assert_valid_module(M)
    return mods, mods_h


def gl_modules(m, n):
    g = gl_c(m, n)
    if (m, n) == (1, 1):
        lams, tilt = [(1, 0), (0, 0)], (0, 0)
    else:
        lams, tilt = [(1, 0, 0), (0, 0, -1)], (1, 0, 0)
    mods = []
    for lam in lams:
        K = kac_module(g, lam)
        mods += [K, tau_dual(K), simple_module(g, lam), projective_cover(g, lam)]
    U = tilting_module(g, tilt)
    assert len(U.meta["flag_bottom_up"]) > 1  # glued
    mods.append(U)
    return mods


# -- hom spaces ----------------------------------------------------------------


def assert_homs_match(mods):
    for A in mods:
        for B in mods:
            for s in (0, 1):
                assert hom_space(A, B, parity=s) == full_basis_hom_space(A, B, s), (
                    A, B, s,
                )


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1)])
def test_gl_hom_bases_match_full_basis(m, n):
    assert_homs_match(gl_modules(m, n))


@pytest.mark.parametrize("n", [2, 3])
def test_q_hom_bases_match_full_basis(n):
    mods, mods_h = q_modules(n)
    assert_homs_match(mods)
    assert_homs_match(mods_h)


def test_q_natural_has_the_odd_involution():
    V = q_natural(build_q(2))
    assert [len(b) for b in (hom_space(V, V, 0), hom_space(V, V, 1))] == [1, 1]


# -- submodule closure ----------------------------------------------------------


def assert_closures_match(M, step=1):
    """submodule_module and quotient_module on every step-th basis vector
    and on one combination of two vectors of equal weight and parity."""
    vecs = [{i: ONE} for i in range(0, M.dim, step)]
    graded = [(M.weights[i], M.parities[i]) for i in range(M.dim)]
    pairs = [
        (i, j) for i in range(M.dim) for j in range(i + 1, M.dim)
        if graded[i] == graded[j]
    ]
    if pairs:
        i, j = pairs[0]
        vecs.append({i: ONE, j: QQ(-2)})
    for v in vecs:
        rows = full_basis_closure(M, [v])
        sub, inc = submodule_module(M, [v])
        assert inc.cols() == rows
        for x in range(M.g.dim):
            assert inc @ sub.action[x] == M.action[x] @ inc
        quot, proj = quotient_module(M, [v])
        assert quot.dim == M.dim - len(rows)
        assert proj @ inc == SparseMatrix(quot.dim, sub.dim)
        for x in range(M.g.dim):
            assert proj @ M.action[x] == quot.action[x] @ proj


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1)])
def test_gl_submodules_match_full_basis(m, n):
    g = gl_c(m, n)
    for M in gl_modules(m, n):
        assert_closures_match(M, step=1 if M.dim <= 24 else 5)
    assert_closures_match(induced_projective(g, (0,) * (m + n)), step=7)


@pytest.mark.parametrize("n", [2, 3])
def test_q_submodules_match_full_basis(n):
    mods, mods_h = q_modules(n)
    for M in mods + mods_h:
        assert_closures_match(M)
