"""Tests for extensions, flags, projective covers and tilting modules.

Extension dimensions are pinned by two fully independent routes: the
cochain complex of the odd raising part, and a direct linear solve for an
upper-triangular glueing block.  Everything else leans on those numbers.
"""

import pytest

from supero.algebra import build_gl, build_q, install_grading
from supero.errors import GradingError, ResourceLimitError
from supero.forms import clifford_module, kac_module, simple_module
from supero.homs import end_ring, hom_dims, is_isomorphic
from supero.modules import parity_flip, tau_dual, validate_module
from supero.rational import QQ
from supero.structure import (
    KacExtensions,
    delta_flag,
    ext1_kac,
    ext1_with_representative,
    flag_multiplicities,
    glue_extension,
    projective_cover,
    projective_cover_h,
    tilting_module,
    verify_kac_dual,
    verify_projective_dual,
)


def gl11():
    return install_grading(build_gl(1, 1), "compatible")


def gl21c():
    return install_grading(build_gl(2, 1), "compatible")


def q_cartan(n):
    q = build_q(n)
    return q.subalgebra(q.h_ids(), family_tag="q-cartan")


ALPHA = (QQ(1), QQ(-1))  # the odd raising weight of gl(1|1)


def wsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


# -- the cochain complex ----------------------------------------------------


def test_d_squared_zero_gl21():
    g = gl21c()
    K = kac_module(g, (1, 0, 0))
    # the constructor asserts d^2 = 0; also check the matrix product here
    ke = KacExtensions(K)
    assert (ke.d1 @ ke.d0).is_zero()


def test_cochain_unknowns_guard():
    """gl(2|1) has two odd raisings, so K(1,0|0) (dim 8) needs 16 C^1
    unknowns; one fewer allowed raises and names the knob."""
    from supero.config import Limits

    K = kac_module(gl21c(), (1, 0, 0))
    assert KacExtensions(K, limits=Limits(max_hom_vars=16)).d1.ncols == 16
    with pytest.raises(ResourceLimitError) as err:
        KacExtensions(K, limits=Limits(max_hom_vars=15))
    message = str(err.value)
    assert "16 C^1 unknowns" in message and "module dim 8" in message
    assert "max_hom_vars is 15" in message


def test_h1_vanishes_for_typical_coefficients():
    g = gl11()
    K = kac_module(g, (2, -1))
    assert KacExtensions(K).h1_dimension() == 0


def test_h1_of_atypical_kac_sits_at_two_weights():
    g = gl11()
    lam = (QQ(2), QQ(-2))
    ke = KacExtensions(kac_module(g, lam))
    assert ke.h1_dimension() == 2
    # one class one odd step below lam, one two steps below; the first is
    # a parity-1 class, the second parity 0
    assert ke.h1_dimension_at(wsub(lam, ALPHA), 1) == 1
    assert ke.h1_dimension_at(wsub(lam, ALPHA), 0) == 0
    two = wsub(lam, (QQ(2), QQ(-2)))
    assert ke.h1_dimension_at(two, 0) == 1
    assert ke.h1_dimension_at(two, 1) == 0


@pytest.mark.parametrize(
    "lam,mu,p,expected",
    [
        ((2, -2), (1, -1), 1, 1),
        ((2, -2), (1, -1), 0, 0),
        ((2, -2), (0, 0), 0, 1),
        ((2, -2), (0, 0), 1, 0),
        ((2, -2), (1, -2), 0, 0),
        ((2, -2), (1, -2), 1, 0),
        ((2, -1), (1, -1), 0, 0),  # typical coefficients: nothing extends
        ((2, -1), (1, 0), 1, 0),
    ],
)
def test_ext_dimensions_agree_between_routes(lam, mu, p, expected):
    g = gl11()
    K = kac_module(g, lam)
    assert ext1_kac(g, mu, K, parity=p) == expected
    top = kac_module(g, mu)
    if p:
        top = parity_flip(top)
    dim, block = ext1_with_representative(K, top)
    assert dim == expected
    assert (block is None) == (expected == 0)


def test_ext_routes_agree_on_gl21():
    g = gl21c()
    K = kac_module(g, (0, 0, 0))
    ke = KacExtensions(K)
    hits = {}
    for mu in [(1, 0, -1), (0, 0, 0), (0, -1, 1), (0, -2, 2), (-1, -1, 2)]:
        for p in (0, 1):
            d = ke.ext_dimension(mu, p)
            top = kac_module(g, mu)
            if p:
                top = parity_flip(top)
            d2, _ = ext1_with_representative(K, top)
            assert d == d2, (mu, p)
            if d:
                hits[(mu, p)] = d
    # only drops along the odd root (0,1|-1) extend here: one step down
    # with a parity flip, two steps down without, mirroring gl(1|1)
    assert hits == {((0, -1, 1), 1): 1, ((0, -2, 2), 0): 1}


def test_ext_into_twisted_dual_vanishes():
    # maps and extensions from an induced module into a transpose-dual
    # induced module all vanish; this is the semi-infinite homological
    # statement driving the reciprocity checks
    g = gl11()
    for lam in [(0, 0), (2, -2), (2, -1)]:
        D = tau_dual(kac_module(g, lam))
        for mu in [(0, 0), (1, -1), (2, -2), (2, -1), (-1, 1)]:
            assert ext1_kac(g, mu, D) == 0


def test_glued_extension_is_a_valid_indecomposable():
    g = gl11()
    K = kac_module(g, (2, -2))
    top = parity_flip(kac_module(g, (1, -1)))
    dim, block = ext1_with_representative(K, top)
    assert dim == 1
    E = glue_extension(K, top, block)
    assert E.dim == 4
    report = validate_module(E)
    assert report["passed"]
    assert end_ring(E)["local"]


# -- flags ------------------------------------------------------------------


def test_kac_module_flag_is_itself():
    g = gl11()
    K = kac_module(g, (3, -1))
    assert delta_flag(K) == [(QQ(3), QQ(-1))]


def test_simple_module_has_no_flag():
    g = gl11()
    L = simple_module(g, (0, 0))
    assert L.dim == 1
    with pytest.raises(ValueError, match="no induced filtration"):
        delta_flag(L)


def test_flag_multiplicities_of_projective():
    g = gl11()
    P = projective_cover(g, (0, 0))
    assert flag_multiplicities(P) == {
        (QQ(0), QQ(0)): 1,
        (QQ(1), QQ(-1)): 1,
    }


# -- projective covers ------------------------------------------------------


def test_projective_cover_atypical_gl11():
    g = gl11()
    P = projective_cover(g, (0, 0))
    assert P.dim == 4
    assert len(P.meta["flag"]) == 2
    assert P.meta["cosocle_hom"] == (1, 0)


def test_projective_cover_typical_is_kac():
    g = gl11()
    P = projective_cover(g, (2, -1))
    assert P.dim == 2
    r = is_isomorphic(P, kac_module(g, (2, -1)), allow_parity_flip=True)
    assert r["isomorphic"]


def test_projective_flag_lives_above_its_weight():
    g = gl11()
    for lam in [(1, -1), (-2, 2)]:
        P = projective_cover(g, lam)
        flag = P.meta["flag"]
        lam_q = tuple(QQ(c) for c in lam)
        assert flag.count(lam_q) == 1
        alpha_up = tuple(a + b for a, b in zip(lam_q, ALPHA))
        assert sorted(flag) == sorted([lam_q, alpha_up])


def test_builders_answer_over_the_algebra_they_are_given():
    g1, g2 = gl21c(), gl21c()
    for build in (kac_module, projective_cover):
        assert build(g1, (1, 0, 0)).g is g1
        assert build(g2, (1, 0, 0)).g is g2


def test_projective_cover_gl21_interior():
    g = gl21c()
    P = projective_cover(g, (0, 0, 0))
    mults = flag_multiplicities(P)
    assert mults[(QQ(0), QQ(0), QQ(0))] == 1
    assert sum(mults.values()) == len(P.meta["flag"])
    assert all(v > 0 for v in mults.values())


# -- tilting ----------------------------------------------------------------


def test_tilting_typical_is_kac():
    g = gl11()
    U = tilting_module(g, (2, -1), (-2, 2))
    assert U.dim == 2
    assert U.meta["flag_bottom_up"] == [((QQ(2), QQ(-1)), 0)]


def test_tilting_atypical_gl11():
    g = gl11()
    U = tilting_module(g, (0, 0), (-2, 2))
    assert U.dim == 4
    # K(0,0) at the bottom, the parity flip of K(-1,1) glued on top
    assert U.meta["flag_bottom_up"] == [
        ((QQ(0), QQ(0)), 0),
        ((QQ(-1), QQ(1)), 1),
    ]
    assert U.meta["end_even_dim"] - U.meta["end_radical_dim"] == 1


def test_tilting_needs_compatible_grading():
    g = install_grading(build_gl(1, 1), "principal")
    with pytest.raises(GradingError):
        tilting_module(g, (0, 0), (-1, 1))


def test_tilting_budget_exhaustion():
    from supero.config import Limits

    g = gl11()
    with pytest.raises(ResourceLimitError):
        tilting_module(g, (-2, 2), (-2, 2), limits=Limits(iteration_budget=1))


# -- dualities --------------------------------------------------------------


@pytest.mark.parametrize("lam", [(0, 0), (2, -1), (1, -1), (-1, 2)])
def test_kac_dual_identity_gl11(lam):
    g = gl11()
    r = verify_kac_dual(g, lam)
    assert r["characters_equal"]
    assert r["isomorphic"] and r["certified"]
    # one odd pair in gl(1|1), so the dual picks up exactly one flip
    assert r["parity"] == 1


def test_kac_dual_identity_gl21():
    g = gl21c()
    r = verify_kac_dual(g, (1, 0, 0))
    assert r["isomorphic"] and r["certified"]


def test_projective_dual_is_tilting_atypical():
    g = gl11()
    r = verify_projective_dual(g, (0, 0), (-2, 2))
    assert r["characters_equal"]
    assert r["isomorphic"] and r["certified"]
    assert r["parity"] == 1
    assert r["projective_weight"] == (QQ(1), QQ(-1))


def test_projective_dual_is_tilting_typical():
    g = gl11()
    r = verify_projective_dual(g, (2, -1), (-2, 2))
    assert r["isomorphic"] and r["certified"]


# -- q-type Cartan covers ---------------------------------------------------


def test_q1_cover_of_trivial_weight():
    h = q_cartan(1)
    u = clifford_module(h, (0,))
    P = projective_cover_h(h, u)
    assert P.dim == 2
    assert P.meta["summands"] == 1
    assert end_ring(P)["local"]
    assert hom_dims(P, u) == (1, 0)


def test_q1_cover_of_nonzero_weight_is_clifford():
    h = q_cartan(1)
    u = clifford_module(h, (1,))
    P = projective_cover_h(h, u)
    assert P.dim == 2
    r = is_isomorphic(P, u, allow_parity_flip=True)
    assert r["isomorphic"]


def test_q2_cover_dimensions():
    h = q_cartan(2)
    u = clifford_module(h, (1, -1))
    P = projective_cover_h(h, u)
    assert P.dim == 2
    assert P.meta["summands"] == 4
