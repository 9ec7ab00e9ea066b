"""Tests for hom spaces, endomorphism rings, and Fitting decomposition."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supero import homs, structure
from supero.algebra import build_gl, build_q, install_grading
from supero.config import Limits
from supero.errors import ResourceLimitError
from supero.forms import (
    clifford_module,
    form_quotient,
    induced_projective,
    kac_module,
    simple_module,
)
from supero.homs import (
    end_ring,
    fitting_decompose,
    hom_dims,
    hom_space,
    is_isomorphic,
    summand_onto,
)
from supero.linalg import SparseMatrix
from supero.modules import (
    ExplicitModule,
    dual_module,
    parity_flip,
    restrict_module,
    submodule_module,
    summand_module,
    tau_dual,
    validate_module,
)
from supero.rational import ONE, QQ
from supero.structure import (
    delta_flag,
    projective_cover,
    projective_cover_h,
    tilting_module,
)
from supero.weights import dominant_weights_in_box

import full_basis
from helpers import assert_associative, direct_sum


def gl11():
    return install_grading(build_gl(1, 1), "compatible")


def is_module_map(F, src, dst, parity=0):
    g = src.g
    for x in range(g.dim):
        sign = QQ(-1) if parity and g.parity(x) else ONE
        if F @ src.action[x] != (dst.action[x] @ F).scale(sign):
            return False
    return True


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


def test_fitting_split_budget_honesty(monkeypatch):
    """A provably non-local ring that no candidate splits is a resource
    error, never a pass."""
    g = gl11()
    S = direct_sum(kac_module(g, (2, -1)), kac_module(g, (0, 0)))
    assert len(fitting_decompose(S)) == 2  # a basis element already splits
    monkeypatch.setattr(homs, "_rational_roots", lambda p: [])
    with pytest.raises(ResourceLimitError, match="not local"):
        fitting_decompose(S)
    with pytest.raises(ResourceLimitError, match="not local"):
        summand_onto(S, kac_module(g, (0, 0)))


def test_summand_onto_needs_exactly_one_summand():
    g = gl11()
    K = kac_module(g, (2, -1))
    S = direct_sum(kac_module(g, (2, -1)), kac_module(g, (2, -1)))
    with pytest.raises(AssertionError, match="found 2"):
        summand_onto(S, K)
    with pytest.raises(AssertionError, match="found 0"):
        summand_onto(S, kac_module(g, (3, -2)))
    rec, dims = summand_onto(direct_sum(K, kac_module(g, (0, 0))), K)
    assert dims == (1, 0) and rec["module"].dim == 2
    assert max(rec["module"].weights) == (2, -1)


# -- the ring-level Fitting route against the n x n route ------------------
#
# end_ring of an induced module extends Hom_s(F, Res M) along the PBW words
# and must reproduce the hom_space route bit for bit, dict order of the basis
# entries included.  Products are read off the basis's free entries, and the
# Fitting descent runs on that table: full_basis keeps the n x n route
# (products reduced against the basis, with the closure assertion; pieces
# split by Y = (z - r)^k and re-closed as submodules) as the oracle.


def plain(M):
    """M with the same matrices and no induction record (hom_space route)."""
    return ExplicitModule(
        M.g, M.weights, M.parities, M.action, labels=M.labels,
        highest_weight=M.highest_weight, meta=M.meta,
    )


def entries(basis):
    return [(F.nrows, F.ncols, list(F.data.items())) for F in basis]


def assert_same_ring(ring, oracle):
    """Same basis, products, radical and locality; the products associative."""
    assert_associative(ring["products"])
    assert entries(ring["basis"]) == entries(oracle["basis"])
    assert ring["products"] == oracle["products"]
    assert ring["radical"] == oracle["radical"]
    assert ring["local"] == oracle["local"]


def combine(coords, basis, n):
    acc = SparseMatrix(n, n)
    for k, c in coords.items():
        acc = acc + basis[k].scale(c)
    return acc


def assert_corners_are_summand_rings(M, ring, recs):
    """Each corner eps A eps, written as matrices, is closed under its own
    table and as large as End(S) by the n x n route; the idempotents are
    orthogonal and sum to the identity."""
    n = M.dim
    parts = homs._primitive_idempotents(ring, Limits())
    assert len(parts) == len(recs)
    total = SparseMatrix(n, n)
    idems = [combine(eps, ring["basis"], n) for eps, _ in parts]
    for a, (E, (eps, corner)) in enumerate(zip(idems, parts)):
        for b, E2 in enumerate(idems):
            assert E @ E2 == (E if a == b else SparseMatrix(n, n))
        total = total + E
        assert_associative(corner["products"])
        mats = [combine(x, ring["basis"], n) for x in corner["basis"]]
        for x, row in zip(mats, corner["products"]):
            for y, prod in zip(mats, row):
                assert x @ y == combine(prod, mats, n)
        sub, inc, prj = summand_module(M, E)
        oracle = full_basis.summand_ring(sub, inc, prj, ring)
        assert len(mats) == len(oracle["basis"])
        assert len(corner["radical"]) == len(oracle["radical"]) and corner["local"]
    assert total == SparseMatrix.identity(n)


def assert_records_match_matrix_route(M, recs, oracle):
    """Same summands, inclusions, projections and ring dimensions as the
    n x n route.  Labels and kind are one step down from M, where the
    n x n route prefixed them once per split above the summand."""
    assert len(recs) == len(oracle)
    for rec, orc in zip(recs, oracle):
        S, O = rec["module"], orc["module"]
        assert (S.weights, S.parities, S.truncated) == (O.weights, O.parities, O.truncated)
        assert S.action == O.action
        assert rec["include"] == orc["include"] and rec["project"] == orc["project"]
        for key in ("end_even_dim", "end_radical_dim", "local"):
            assert rec[key] == orc[key]
        if len(recs) == 1:
            assert S is M
            continue
        base = [M.labels[min(col)] for col in rec["include"].cols()]
        assert S.labels == tuple(f"s:{lab}" for lab in base)
        assert all(lab.endswith(f"s:{b}") for lab, b in zip(O.labels, base))
        assert S.meta["kind"] == f"sub({M.meta.get('kind', 'module')})"


def assert_fitting_routes_agree(M):
    """Products, radical and local of end_ring(M) against the n x n
    products; the corners and fitting_decompose against the n x n route."""
    ring = end_ring(M)
    assert_same_ring(ring, full_basis.ring_from_matrices(M, ring["basis"]))
    recs = fitting_decompose(M)
    assert_corners_are_summand_rings(M, ring, recs)
    assert_records_match_matrix_route(
        M, recs, full_basis.matrix_fitting_decompose(M)
    )


def assert_routes_agree(M):
    """end_ring of an induced M against the hom_space route, then the
    ring-level Fitting route against the n x n one."""
    assert M.induction is not None and plain(M).induction is None
    assert_same_ring(end_ring(M), end_ring(plain(M)))
    assert_fitting_routes_agree(M)


def test_adjunction_routes_gl11_induced_projectives():
    g = gl11()
    for a in range(-3, 4):
        for b in range(-2, 3):
            assert_routes_agree(induced_projective(g, (a, b)))


def test_adjunction_routes_gl21_box():
    g = gl21c()
    for lam in dominant_weights_in_box(2, 1, -1, 1):
        assert_routes_agree(induced_projective(g, lam))
        assert_routes_agree(kac_module(g, lam))


def test_fitting_routes_agree_on_direct_sums():
    g = gl11()
    K = lambda lam: kac_module(g, lam)
    for M in (
        direct_sum(K((2, -1)), K((2, -1))),
        direct_sum(K((2, -1)), K((0, 0))),
        direct_sum(parity_flip(K((1, -1))), K((0, 0))),
        direct_sum(parity_flip(K((1, -1))), tau_dual(K((0, 0)))),
    ):
        assert_fitting_routes_agree(M)


def test_fitting_routes_agree_on_gl22_kac_zero():
    g = install_grading(build_gl(2, 2), "compatible")
    assert_routes_agree(kac_module(g, (0, 0, 0, 0)))


@pytest.mark.parametrize("n, lam", [
    (2, (1, -1)), (2, (1, 0)), (2, (0, 0)),
    (3, (1, -1, 2)), (3, (1, 0, 0)), (3, (0, 0, 0)),
])
def test_adjunction_routes_q_cartan_projectives(monkeypatch, n, lam):
    q = build_q(n)
    h = q.subalgebra(q.h_ids(), family_tag="q-cartan")
    built = []

    def capture(module, limits=Limits()):
        built.append(module)
        return fitting_decompose(module, limits=limits)

    with monkeypatch.context() as mp:
        mp.setattr(structure, "fitting_decompose", capture)
        projective_cover_h(h, clifford_module(h, lam))
    (big,) = built
    assert big.meta["kind"] == "cartan_projective"
    assert_routes_agree(big)


def matrix_route_cover(g, lam):
    """P(lam) the n x n way: every Fitting summand of Ind_{g0} V(lam)
    built, the one with maps onto L(lam) kept; with those maps' (even,
    odd) dimensions."""
    L = simple_module(g, lam)
    (hit,) = [
        rec["module"]
        for rec in full_basis.matrix_fitting_decompose(induced_projective(g, lam))
        if sum(hom_dims(rec["module"], L))
    ]
    return hit, hom_dims(hit, L)


def assert_cover_matches_matrix_route(g, lams, monkeypatch):
    built = []
    build = homs.summand_module
    monkeypatch.setattr(
        homs, "summand_module", lambda M, E: built.append(M) or build(M, E)
    )
    for lam in lams:
        del built[:]
        P = projective_cover(g, lam)
        assert len(built) <= 1  # only the summand it returns
        old, cosocle = matrix_route_cover(g, lam)
        assert P.super_character() == old.super_character()
        assert P.meta["flag"] == delta_flag(old)
        assert P.meta["cosocle_hom"] == cosocle
        r = is_isomorphic(P, old)
        assert r["isomorphic"] and r["parity"] == 0
        assert r["witness"].rank() == P.dim
        assert is_module_map(r["witness"], P, old)


def test_projective_cover_matches_matrix_route_gl11(monkeypatch):
    g = gl11()
    lams = [(a, b) for a in range(-2, 3) for b in range(-2, 3)]
    assert_cover_matches_matrix_route(g, lams, monkeypatch)


def test_projective_cover_matches_matrix_route_gl21(monkeypatch):
    g = gl21c()
    lams = dominant_weights_in_box(2, 1, -1, 1)
    assert_cover_matches_matrix_route(g, lams, monkeypatch)


def test_projective_cover_matches_matrix_route_gl22_zero(monkeypatch):
    g = install_grading(build_gl(2, 2), "compatible")
    assert_cover_matches_matrix_route(g, [(0, 0, 0, 0)], monkeypatch)


def test_derived_modules_take_the_hom_space_route(monkeypatch):
    g = gl11()
    P = induced_projective(g, (0, 0))
    derived = [
        restrict_module(P, g.subalgebra(range(g.dim))),
        parity_flip(P),
        dual_module(P),
        tau_dual(P),
        plain(P),
        tilting_module(g, (2, -1)),  # K(2|-1) re-wrapped, no glue
    ]

    def refuse(module, limits):
        raise AssertionError("adjunction route taken")

    monkeypatch.setattr(homs, "_end_by_adjunction", refuse)
    with pytest.raises(AssertionError, match="adjunction route taken"):
        end_ring(P)
    with pytest.raises(AssertionError, match="adjunction route taken"):
        end_ring(kac_module(g, (2, -1)))
    for D in derived:
        assert D.induction is None
        assert end_ring(D)["basis"]


def test_adjunction_rejects_a_wrong_extension():
    """An induction record whose words do not match the basis extends
    fiber maps to non-module maps, and end_ring fails loudly."""
    P = induced_projective(gl21c(), (1, 0, 0))
    fiber, words = P.induction
    k = next(
        k for k, w in enumerate(words)
        if len(w) == 2 and not any(v[1:] == w for v in words)
    )
    words = words[:k] + (words[k][1:],) + words[k + 1:]  # drop one letter
    P.induction = (fiber, words)
    with pytest.raises(AssertionError, match="fails to commute"):
        end_ring(P)


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


def test_projective_cover_is_not_its_flag_sum():
    """P(0|0) is indecomposable, so the sum of its flag factors is a
    certified no in both orders, with or without a parity flip."""
    g = gl11()
    P = projective_cover(g, (0, 0))
    S = direct_sum(parity_flip(kac_module(g, (1, -1))), kac_module(g, (0, 0)))
    assert P.super_character() == S.super_character()
    for a, b in ((P, S), (S, P)):
        for flip in (False, True):
            r = is_isomorphic(a, b, allow_parity_flip=flip)
            assert r["certified"] and not r["isomorphic"]
            assert r["witness"] is None


def test_decomposable_same_character_not_isomorphic():
    """Neither side is local: the summands are matched, and K(0|0) has no
    partner in the second sum."""
    g = gl11()
    flipped = parity_flip(kac_module(g, (1, -1)))
    A = direct_sum(flipped, kac_module(g, (0, 0)))
    B = direct_sum(flipped, tau_dual(kac_module(g, (0, 0))))
    assert A.super_character() == B.super_character()
    for a, b in ((A, B), (B, A)):
        r = is_isomorphic(a, b, allow_parity_flip=True)
        assert r["certified"] and not r["isomorphic"]


def test_decomposable_isomorphic_witness():
    """Swapped sums are isomorphic; the witness is an invertible module map
    assembled from the summands, and the same on every call."""
    g = gl11()
    K0, K2 = kac_module(g, (0, 0)), kac_module(g, (2, -1))
    T0 = tau_dual(kac_module(g, (0, 0)))
    for A, B in ((direct_sum(K2, K0), direct_sum(K0, K2)),
                 (direct_sum(K0, T0), direct_sum(T0, K0))):
        r = is_isomorphic(A, B)
        assert r["isomorphic"] and r["certified"] and r["parity"] == 0
        W = r["witness"]
        assert W.rank() == A.dim
        assert is_module_map(W, A, B, parity=0)
        assert is_isomorphic(A, B)["witness"] == W


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
