"""Tests for hom spaces, endomorphism rings, and Fitting decomposition."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supero.algebra import build_gl, build_q, install_grading
from supero.config import Limits
from supero.errors import ResourceLimitError
from supero.forms import (
    clifford_module,
    form_quotient,
    induced_projective,
    kac_module,
)
from supero.homs import (
    end_ring,
    fitting_decompose,
    hom_dims,
    hom_space,
    is_isomorphic,
    is_module_map,
)
from supero.linalg import SparseMatrix
from supero.modules import (
    direct_sum,
    parity_flip,
    submodule_module,
    tau_dual,
    validate_module,
)
from supero.rational import ONE, QQ


def gl11():
    return install_grading(build_gl(1, 1), "compatible")


def gl21c():
    return install_grading(build_gl(2, 1), "compatible")


# -- hom spaces ------------------------------------------------------------


def test_end_of_kac_is_scalars():
    g = gl11()
    for lam in [(2, -1), (0, 0)]:
        K = kac_module(g, lam)
        assert hom_dims(K, K) == (1, 0)


def test_hom_bases_are_module_maps():
    g = gl21c()
    K = kac_module(g, (1, 0, 0))
    T = tau_dual(K)
    for s in (0, 1):
        for F in hom_space(K, T, parity=s):
            assert is_module_map(F, K, T, parity=s)


def test_hom_kac_to_dual_kac_is_delta():
    """dim Hom(K(lam), K(mu)^tau) = 1 if lam = mu else 0, including the
    degenerate weights."""
    g = gl11()
    weights = [(2, -1), (0, 0), (1, 0), (3, -3)]
    for lam in weights:
        K = kac_module(g, lam)
        for mu in weights:
            T = tau_dual(kac_module(g, mu))
            e, o = hom_dims(K, T)
            assert (e, o) == ((1, 0) if lam == mu else (0, 0))


def test_hom_between_parity_flips_is_odd():
    g = gl11()
    K = kac_module(g, (2, -1))
    e, o = hom_dims(K, parity_flip(kac_module(g, (2, -1))))
    assert (e, o) == (0, 1)


def test_hom_rejects_different_algebras():
    K1 = kac_module(gl11(), (2, -1))
    K2 = kac_module(gl21c(), (1, 0, 0))
    with pytest.raises(ValueError):
        hom_space(K1, K2)


# -- endomorphism rings ----------------------------------------------------


def test_end_ring_of_atypical_projective():
    """P(0) for gl(1|1): local ring of dimension 2 with 1-dim radical."""
    P = induced_projective(gl11(), (0, 0))
    ring = end_ring(P)
    assert len(ring["basis"]) == 2
    assert len(ring["radical"]) == 1
    assert ring["local"]


def test_end_ring_products_are_basis_coordinates():
    """The product table holds the coordinates of F_a F_b in the basis
    itself, even where the basis matrices share leading entries."""
    P = induced_projective(gl21c(), (1, 0, 0))
    ring = end_ring(P)
    basis = ring["basis"]
    for a, F in enumerate(basis):
        for b, G in enumerate(basis):
            acc = SparseMatrix(P.dim, P.dim)
            for k, c in ring["products"][a][b].items():
                acc = acc + basis[k].scale(c)
            assert acc == F @ G


def test_end_ring_dimension_guard():
    P = induced_projective(gl11(), (0, 0))
    with pytest.raises(ResourceLimitError):
        end_ring(P, limits=Limits(max_end_dim=1))


def test_hom_space_unknowns_guard():
    P = induced_projective(gl11(), (0, 0))
    unknowns = sum(
        P.weights[i] == P.weights[j] and P.parities[i] == P.parities[j]
        for i in range(P.dim)
        for j in range(P.dim)
    )
    assert hom_space(P, P, parity=0, limits=Limits(max_hom_vars=unknowns))
    with pytest.raises(ResourceLimitError) as err:
        hom_space(P, P, parity=0, limits=Limits(max_hom_vars=unknowns - 1))
    message = str(err.value)
    assert f"{unknowns} unknowns" in message and "equations" in message
    assert f"max_hom_vars is {unknowns - 1}" in message


# -- fitting decomposition -------------------------------------------------


def test_fitting_atypical_projective_indecomposable():
    P = induced_projective(gl11(), (0, 0))
    recs = fitting_decompose(P)
    assert len(recs) == 1
    assert recs[0]["local"]
    assert recs[0]["module"].dim == 4
    assert recs[0]["end_even_dim"] == 2
    assert recs[0]["end_radical_dim"] == 1


def test_fitting_typical_projective_splits_into_kacs():
    """U(g)-induction of V(2,-1) for gl(1|1) is K(3,-2) + K(2,-1)."""
    P = induced_projective(gl11(), (2, -1))
    recs = fitting_decompose(P)
    tops = [tuple(int(c) for c in max(r["module"].weights)) for r in recs]
    assert tops == [(3, -2), (2, -1)]
    assert all(r["local"] for r in recs)
    assert [r["module"].dim for r in recs] == [2, 2]
    g = gl11()
    assert is_isomorphic(recs[1]["module"], kac_module(g, (2, -1)))["isomorphic"]
    # the higher summand sits at odd parity inside the induced module
    r = is_isomorphic(recs[0]["module"], kac_module(g, (3, -2)),
                      allow_parity_flip=True)
    assert r["isomorphic"] and r["parity"] == 1


def test_fitting_isotypic_pair():
    """K + K has a 2x2 matrix endomorphism ring and still splits."""
    g = gl11()
    S = direct_sum(kac_module(g, (2, -1)), kac_module(g, (2, -1)))
    recs = fitting_decompose(S)
    assert [r["module"].dim for r in recs] == [2, 2]
    assert all(r["local"] for r in recs)


def test_fitting_partition_of_identity():
    g = gl11()
    S = direct_sum(kac_module(g, (2, -1)), kac_module(g, (0, 0)))
    recs = fitting_decompose(S)
    n = S.dim
    total = SparseMatrix(n, n)
    for r in recs:
        assert r["project"] @ r["include"] == SparseMatrix.identity(r["module"].dim)
        total = total + r["include"] @ r["project"]
        assert validate_module(r["module"])["passed"]
    assert total == SparseMatrix.identity(n)


def test_fitting_deterministic():
    P = induced_projective(gl21c(), (1, 0, 0))
    a = fitting_decompose(P)
    b = fitting_decompose(P)
    assert [r["module"].dim for r in a] == [r["module"].dim for r in b]
    assert [max(r["module"].weights) for r in a] == [max(r["module"].weights) for r in b]
    for ra, rb in zip(a, b):
        assert ra["include"] == rb["include"]
    n = P.dim
    total = SparseMatrix(n, n)
    for r in a:
        total = total + r["include"] @ r["project"]
    assert total == SparseMatrix.identity(n)


def test_fitting_split_budget_honesty():
    g = gl11()
    S = direct_sum(kac_module(g, (2, -1)), kac_module(g, (0, 0)))
    recs = fitting_decompose(S, limits=Limits(search_budget=2))
    assert len(recs) == 2  # basis elements already contain projections


# -- isomorphism -----------------------------------------------------------


def test_isomorphic_reflexive_and_witnessed():
    g = gl11()
    K = kac_module(g, (2, -1))
    r = is_isomorphic(K, kac_module(g, (2, -1)))
    assert r["isomorphic"] and r["certified"] and r["parity"] == 0
    W = r["witness"]
    assert W.rank() == K.dim


def test_isomorphic_up_to_parity_flip():
    g = gl11()
    K = kac_module(g, (2, -1))
    F = parity_flip(kac_module(g, (2, -1)))
    assert not is_isomorphic(K, F)["isomorphic"]
    r = is_isomorphic(K, F, allow_parity_flip=True)
    assert r["isomorphic"] and r["parity"] == 1


def test_non_isomorphic_by_character():
    g = gl11()
    r = is_isomorphic(kac_module(g, (2, -1)), kac_module(g, (3, -2)))
    assert not r["isomorphic"] and "character" in r["reason"]


def test_non_isomorphic_same_character():
    """K(0,0) and its semisimplification have equal supercharacters but
    are certified non-isomorphic."""
    g = gl11()
    K0 = kac_module(g, (0, 0))
    L, _ = form_quotient(K0)
    sub, _ = submodule_module(K0, [{1: ONE}])
    S = direct_sum(L, sub)
    assert K0.super_character() == S.super_character()
    r = is_isomorphic(K0, S)
    assert not r["isomorphic"]
    assert r["certified"]


def test_tau_selfdual_iff_nondegenerate():
    """K = K^tau exactly when the weight is typical, for gl(1|1)."""
    g = gl11()
    K = kac_module(g, (2, -1))
    assert is_isomorphic(K, tau_dual(kac_module(g, (2, -1))))["isomorphic"]
    K0 = kac_module(g, (0, 0))
    r = is_isomorphic(K0, tau_dual(kac_module(g, (0, 0))))
    assert not r["isomorphic"]


def test_budget_zero_raises():
    g = gl11()
    K = kac_module(g, (2, -1))
    with pytest.raises(ResourceLimitError):
        is_isomorphic(K, K, limits=Limits(search_budget=0))


def test_seeded_search_reproducible():
    g = gl21c()
    K = kac_module(g, (1, 0, 0))
    r1 = is_isomorphic(K, tau_dual(kac_module(g, (1, 0, 0))), seed=7)
    r2 = is_isomorphic(K, tau_dual(kac_module(g, (1, 0, 0))), seed=7)
    assert r1["isomorphic"] == r2["isomorphic"]
    if r1["witness"] is not None:
        assert r1["witness"] == r2["witness"]


# -- q-type endomorphisms --------------------------------------------------


def test_clifford_endomorphism_dimensions():
    """d_E is 1 for an even number of nonzero entries, 2 for odd."""
    q2 = build_q(2)
    hq = q2.subalgebra(q2.h_ids(), family_tag="q-cartan")
    for lam, expected in [((1, -1), 1), ((1, 0), 2), ((0, 0), 1), ((1, -4), 1)]:
        u = clifford_module(hq, lam)
        e, o = hom_dims(u, u)
        assert e + o == expected, (lam, e, o)


def test_clifford_q3_endomorphisms():
    q3 = build_q(3)
    hq = q3.subalgebra(q3.h_ids(), family_tag="q-cartan")
    u = clifford_module(hq, (1, -1, 2))  # three nonzero entries: type Q
    e, o = hom_dims(u, u)
    assert e + o == 2


# -- property checks -------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(a=st.integers(-3, 3), b=st.integers(-3, 3))
def test_hom_composition_closes(a, b):
    g = gl11()
    K = kac_module(g, (a, b))
    ring = end_ring(K)
    basis = ring["basis"]
    for F in basis:
        for G in basis:
            H = F @ G
            assert is_module_map(H, K, K, parity=0)


@settings(max_examples=15, deadline=None)
@given(lam=st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
def test_iso_symmetric(lam):
    g = gl11()
    K1 = kac_module(g, lam)
    K2 = tau_dual(kac_module(g, lam))
    r12 = is_isomorphic(K1, K2)
    r21 = is_isomorphic(K2, K1)
    assert r12["isomorphic"] == r21["isomorphic"]
