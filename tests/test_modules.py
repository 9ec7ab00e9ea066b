"""Tests for the explicit module engine: induction, duals, sub/quotient."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supero.algebra import build_gl, install_grading
from supero.errors import ResourceLimitError, TruncationError
from supero.config import Limits
from supero.linalg import SparseMatrix
from supero.modules import (
    dual_module,
    induced_module,
    parity_flip,
    quotient_module,
    restrict_module,
    submodule_module,
    tau_dual,
    trivial_module,
    validate_module,
)
from supero.rational import ONE, QQ
from supero.weights import wdot, wneg, wsub, weights_between

from full_basis import act_word, apply
from helpers import direct_sum, module_json


def gl11():
    return install_grading(build_gl(1, 1), "compatible")


def gl21c():
    return install_grading(build_gl(2, 1), "compatible")


def borel_ids(g):
    return sorted(g.h_ids() + g.positive_ids())


def flat_kac(g, lam):
    """Induce the one-dimensional character lam along the Borel."""
    b = borel_ids(g)
    fib = trivial_module(g.subalgebra(b), lam)
    return induced_module(g, b, fib, highest_weight=lam, kind="kac")


# -- induction over gl(1|1) ------------------------------------------------


def test_gl11_kac_hand_matrices():
    """K(2,-1): the raising operator returns lambda_{-1} + lambda_1 = 1."""
    g = gl11()
    K = flat_kac(g, (2, -1))
    assert K.dim == 2
    assert K.weights == ((QQ(2), QQ(-1)), (QQ(1), QQ(0)))
    assert K.parities == (0, 1)
    e = g.id_of("e(-1,1)")
    f = g.id_of("e(1,-1)")
    assert dict(K.action[e].data) == {(0, 1): QQ(1)}
    assert dict(K.action[f].data) == {(1, 0): QQ(1)}
    rep = validate_module(K)
    assert rep["passed"], rep["failures"]


def test_gl11_kac_degenerate_weight():
    # lambda_{-1} + lambda_1 = 0 makes the lowered vector primitive
    g = gl11()
    K = flat_kac(g, (3, -3))
    e = g.id_of("e(-1,1)")
    assert K.action[e].is_zero()
    assert validate_module(K)["passed"]


@pytest.mark.parametrize("lam", [(0, 0), (2, -1), (-1, 5), (7, 7)])
def test_gl11_kac_character(lam):
    g = gl11()
    K = flat_kac(g, lam)
    ch = K.character()
    assert ch == {lam_t: 1 for lam_t in [tuple(map(QQ, lam)), (QQ(lam[0]) - 1, QQ(lam[1]) + 1)]}


def test_act_word_matches_iterated_act():
    g = gl11()
    K = flat_kac(g, (2, -1))
    v = {0: ONE}
    a = g.id_of("e(1,-1)")
    b = g.id_of("e(-1,1)")
    assert act_word(K, (b, a), v) == apply(K.action[b] @ K.action[a], v)
    assert act_word(K, (), v) == v


# -- induction over gl(2|1) ------------------------------------------------


def test_gl21_flat_kac_dimension_and_character():
    """A Borel character with equal entries on the first side induces to
    dimension 2^(m*n) = 4 with simple weights."""
    g = gl21c()
    K = flat_kac(g, (1, 1, 0))
    assert K.dim == 4
    rep = validate_module(K)
    assert rep["passed"], rep["failures"]
    ch = {tuple(int(c) for c in w): d for w, d in K.character().items()}
    assert ch == {
        (1, 1, 0): 1,
        (0, 1, 1): 1,
        (1, 0, 1): 1,
        (0, 0, 2): 1,
    }


def test_gl21_flat_kac_bad_character_detected():
    """A character that does not kill the Levi brackets is not a module,
    and the validator says so."""
    g = gl21c()
    K = flat_kac(g, (1, 0, 0))
    rep = validate_module(K)
    assert not rep["passed"]
    assert any("bracket relation" in f for f in rep["failures"])


def test_induced_dimension_limit():
    g = gl21c()
    b = borel_ids(g)
    fib = trivial_module(g.subalgebra(b), (1, 1, 0))
    with pytest.raises(ResourceLimitError):
        induced_module(g, b, fib, limits=Limits(max_module_dim=3))


# -- truncated slices ------------------------------------------------------


def test_principal_verma_slice_depth3():
    """Verma slice of gl(2|1), principal grading, words of degree >= -3.

    Generators: one even of degree -1, odd ones of degrees -1 and -2, so
    the slice has 10 monomials.
    """
    g = install_grading(build_gl(2, 1), "principal")
    b = borel_ids(g)
    fib = trivial_module(g.subalgebra(b), (3, 1, 5))
    M = induced_module(g, b, fib, min_degree=-3, highest_weight=(3, 1, 5),
                       kind="verma_slice")
    assert M.dim == 10
    assert M.truncated
    rep = validate_module(M)
    assert rep["passed"], rep["failures"]
    assert rep["pairs_checked"] > 0


def test_levi_verma_weight_window():
    """Weight-windowed Verma over the even part gl(2)+gl(1) of gl(2|1)."""
    g = gl21c()
    h_ids = g.h_ids()
    degs = [wdot(g.weight_of(i), (3, 2, 1)) for i in h_ids]
    levi = g.subalgebra(h_ids, degrees=degs, family_tag="levi")
    lam, low = (3, 1, 5), (1, 3, 5)
    steps = [levi.weight_of(i) for i in levi.ids_of_degree(1)]
    window = [wsub(mu, lam) for mu in weights_between(low, lam, steps)]
    hb = sorted(levi.h_ids() + levi.positive_ids())
    fib = trivial_module(levi.subalgebra(hb), lam)
    V = induced_module(levi, hb, fib, weight_window=window,
                       highest_weight=lam, kind="levi_verma")
    assert V.dim == 3
    got = sorted(tuple(int(c) for c in w) for w in V.weights)
    assert got == [(1, 3, 5), (2, 2, 5), (3, 1, 5)]
    rep = validate_module(V)
    assert rep["passed"], rep["failures"]


def test_weights_between_rejects_bad_steps():
    with pytest.raises(ValueError):
        weights_between((0, 0), (2, 0), [(-1, 1)])
    with pytest.raises(ValueError):
        weights_between((0, 0), (2, 0), [(0, 0)])


# -- duals -----------------------------------------------------------------


def test_dual_module_validates_and_negates_weights():
    g = gl21c()
    K = flat_kac(g, (1, 1, 0))
    D = dual_module(K)
    assert validate_module(D)["passed"]
    assert sorted(D.weights) == sorted(wneg(w) for w in K.weights)
    assert D.parities == K.parities


def test_double_dual_is_parity_sign_conjugate():
    """Applying the dual twice gives back the action conjugated by the
    parity sign matrix: B_x = S A_x S with S = diag((-1)^{p_i})."""
    g = gl11()
    K = flat_kac(g, (2, -1))
    DD = dual_module(dual_module(K))
    n = K.dim
    S = SparseMatrix(n, n)
    for i in range(n):
        S.data[(i, i)] = QQ(-1) if K.parities[i] else QQ(1)
    for x in range(g.dim):
        assert DD.action[x] == S @ K.action[x] @ S
    assert DD.weights == K.weights


def test_tau_dual_keeps_weights_and_involutes():
    g = gl21c()
    K = flat_kac(g, (1, 1, 0))
    T = tau_dual(K)
    assert validate_module(T)["passed"]
    assert sorted(T.weights) == sorted(K.weights)
    TT = tau_dual(T)
    for x in range(g.dim):
        assert TT.action[x] == K.action[x]


def test_dual_of_truncated_slice_refused():
    g = install_grading(build_gl(2, 1), "principal")
    b = borel_ids(g)
    fib = trivial_module(g.subalgebra(b), (0, 0, 0))
    M = induced_module(g, b, fib, min_degree=-2, kind="verma_slice")
    with pytest.raises(TruncationError):
        dual_module(M)
    with pytest.raises(TruncationError):
        tau_dual(M)


def test_parity_flip_and_direct_sum():
    g = gl11()
    K = flat_kac(g, (2, -1))
    P = parity_flip(K)
    assert P.parities == (1, 0)
    assert parity_flip(P).parities == K.parities
    assert P.meta["parity_flips"] == 1
    assert validate_module(P)["passed"]
    S = direct_sum(K, P)
    assert S.dim == 4
    assert validate_module(S)["passed"]


# -- sub and quotient ------------------------------------------------------


def test_submodule_and_quotient_of_reducible_kac():
    """In K(3,-3) the lowered vector generates a 1-dim submodule."""
    g = gl11()
    K = flat_kac(g, (3, -3))
    sub, incl = submodule_module(K, [{1: ONE}])
    assert sub.dim == 1
    assert sub.weights == ((QQ(2), QQ(-2)),)
    assert sub.parities == (1,)
    assert validate_module(sub)["passed"]
    quo, proj = quotient_module(K, [{1: ONE}])
    assert quo.dim == 1
    assert quo.weights == ((QQ(3), QQ(-3)),)
    assert validate_module(quo)["passed"]
    # intertwining: incl and proj commute with every action matrix
    for x in range(g.dim):
        assert K.action[x] @ incl == incl @ sub.action[x]
        assert proj @ K.action[x] == quo.action[x] @ proj


def test_submodule_closure_grows_to_whole_module():
    g = gl11()
    K = flat_kac(g, (2, -1))
    sub, incl = submodule_module(K, [{1: ONE}])
    assert sub.dim == 2  # raising recovers the top vector since 2 - 1 != 0
    assert incl == SparseMatrix.identity(2)


def test_submodule_rejects_mixed_seed():
    g = gl11()
    K = flat_kac(g, (2, -1))
    with pytest.raises(ValueError):
        submodule_module(K, [{0: ONE, 1: ONE}])


def test_quotient_by_nothing_is_identity():
    g = gl11()
    K = flat_kac(g, (2, -1))
    quo, proj = quotient_module(K, [])
    assert quo.dim == K.dim
    assert proj == SparseMatrix.identity(K.dim)


# -- restriction -----------------------------------------------------------


def test_restrict_to_even_part_validates():
    g = gl21c()
    K = flat_kac(g, (1, 1, 0))
    levi = g.subalgebra(g.h_ids(), family_tag="levi")
    R = restrict_module(K, levi)
    assert R.dim == K.dim
    assert validate_module(R)["passed"]


# -- serialization ---------------------------------------------------------


def test_json_dict_golden_inline():
    g = gl11()
    K = flat_kac(g, (2, -1))
    d = module_json(K)
    assert d["algebra"] == "gl(1,1)"
    assert d["grading"] == "compatible"
    assert d["weights"] == ["(2|-1)", "(1|0)"]
    assert d["action"]["e(-1,1)"] == [[0, 1, "1"]]
    assert d["action"]["e(-1,-1)"] == [[0, 0, "2"], [1, 1, "1"]]
    # byte stability under re-construction
    again = module_json(flat_kac(gl11(), (2, -1)))
    assert json.dumps(d, sort_keys=True) == json.dumps(again, sort_keys=True)


# -- property checks -------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    lam=st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    word=st.lists(st.integers(0, 3), max_size=4),
)
def test_action_respects_weights(lam, word):
    g = gl11()
    K = flat_kac(g, lam)
    out = act_word(K, tuple(word), {0: ONE})
    if out:
        shift = (QQ(0), QQ(0))
        for x in word:
            shift = (shift[0] + g.weight_of(x)[0], shift[1] + g.weight_of(x)[1])
        for i in out:
            assert K.weights[i] == (K.weights[0][0] + shift[0], K.weights[0][1] + shift[1])


@settings(max_examples=25, deadline=None)
@given(lam=st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)))
def test_gl21_balanced_characters_induce_modules(lam):
    lam = (lam[0], lam[0], lam[2])
    g = gl21c()
    K = flat_kac(g, lam)
    assert K.dim == 4
    assert validate_module(K)["passed"]
