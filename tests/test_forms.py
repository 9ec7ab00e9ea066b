"""Tests for contravariant forms and the highest-weight constructions.

The key independent oracle: the form value on two word-generated vectors
can be computed without the peeling recursion, as the top-coordinate of
transpose(word1) . word2 . (top vector).  The per-weight Gram blocks from
both routes must agree entrywise.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supero.algebra import build_gl, build_q, install_grading, principal_dvector, w0_action
from supero.characters import even_character
from supero.config import Limits
from supero.errors import (
    CliffordWeightError,
    DominanceError,
    GradingError,
    ResourceLimitError,
)
from supero.forms import (
    clifford_module,
    contravariant_form,
    even_levi,
    kac_module,
    kac_radical,
    maximal_submodule,
    simple_even_module,
    simple_module,
    verma_module_truncated,
)
from supero.modules import ExplicitModule, quotient_module, submodule_module, validate_module
from supero.rational import QQ
from supero.structure import _central_core
from supero.weights import dominant_weights_in_box, wdot, wsub

from full_basis import act_word, form_radical, induced_projective
from helpers import direct_sum


def is_nondegenerate(form):
    spaces, ranks = form.module.weight_spaces(), form.ranks()
    return all(ranks[w] == len(spaces[w]) for w in form.gram)


def gl11():
    return install_grading(build_gl(1, 1), "compatible")


def gl21c():
    return install_grading(build_gl(2, 1), "compatible")


# -- independent word-pairing oracle ---------------------------------------


def word_gram(module, words):
    """Gram matrix of {word.(top vector)} computed from the action alone.

    <W1.v, W2.v> = coefficient of v in transpose(W1).W2.v, where the
    transpose of a word reverses it and transposes each letter.
    """
    g = module.g
    top = module.weight_space(module.highest_weight)
    assert len(top) == 1
    t = top[0]
    out = {}
    for a, w1 in enumerate(words):
        tw1 = tuple(g.transpose[x] for x in reversed(w1))
        for b, w2 in enumerate(words):
            vec = act_word(module, w2, {t: 1})
            vec = act_word(module, tw1, vec)
            out[(a, b)] = vec.get(t, QQ(0))
    return out


def peel_gram_on_words(module, form, words):
    """The same pairings assembled from the peel-recursion Gram blocks."""
    top = module.weight_space(module.highest_weight)[0]
    spaces = module.weight_spaces()
    posmap = {w: {i: k for k, i in enumerate(ix)} for w, ix in spaces.items()}
    vecs = [act_word(module, w, {top: 1}) for w in words]
    wts = [module.weights[min(v)] if v else None for v in vecs]
    out = {}
    for a, va in enumerate(vecs):
        for b, vb in enumerate(vecs):
            if not va or not vb or wts[a] != wts[b]:
                out[(a, b)] = QQ(0)
                continue
            blk = form.gram[wts[a]]
            pos = posmap[wts[a]]
            val = QQ(0)
            for i, ci in va.items():
                for j, cj in vb.items():
                    val += ci * cj * blk.data.get((pos[i], pos[j]), QQ(0))
            out[(a, b)] = val
    return out


def lowering_words(g, max_len):
    lows = g.negative_ids()
    words = [()]
    for ln in range(1, max_len + 1):
        words.extend(itertools.product(lows, repeat=ln))
    return words


@pytest.mark.parametrize("lam", [(2, -1), (0, 0), (3, -3), (-1, 4)])
def test_form_matches_word_oracle_gl11(lam):
    g = gl11()
    K = kac_module(g, lam)
    form = contravariant_form(K)
    words = lowering_words(g, 2)
    assert word_gram(K, words) == peel_gram_on_words(K, form, words)


@pytest.mark.parametrize("lam", [(1, 0, 0), (2, 0, 1), (1, 1, -2)])
def test_form_matches_word_oracle_gl21(lam):
    g = gl21c()
    K = kac_module(g, lam)
    form = contravariant_form(K)
    words = lowering_words(g, 3)
    assert word_gram(K, words) == peel_gram_on_words(K, form, words)


def test_gl11_form_value_is_weight_sum():
    """<f.v, f.v> = lam_{-1} + lam_1, the basic rank-drop criterion."""
    g = gl11()
    for lam in [(2, -1), (0, 0), (3, -3), (5, 0)]:
        K = kac_module(g, lam)
        form = contravariant_form(K)
        low = (QQ(lam[0]) - 1, QQ(lam[1]) + 1)
        blk = form.gram[low]
        assert blk.data.get((0, 0), QQ(0)) == QQ(lam[0]) + QQ(lam[1])


# -- simple even modules ---------------------------------------------------


@pytest.mark.parametrize(
    "lam,dim",
    [((3, 1, 5), 3), ((1, 0, 0), 2), ((0, 0, 7), 1), ((4, 0, -2), 5)],
)
def test_simple_even_gl2_dimensions(lam, dim):
    # dim V(a,b) for gl(2) is a - b + 1
    g = gl21c()
    V = simple_even_module(g, lam)
    assert V.dim == dim
    assert validate_module(V)["passed"]
    assert not V.truncated


def test_simple_even_character_gl2():
    g = gl21c()
    V = simple_even_module(g, (3, 1, 5))
    ch = {tuple(int(c) for c in w): d for w, d in V.character().items()}
    assert ch == {(3, 1, 5): 1, (2, 2, 5): 1, (1, 3, 5): 1}


def test_simple_even_gl22_product_dimension():
    g = install_grading(build_gl(2, 2), "compatible")
    V = simple_even_module(g, (2, 0, 1, -1))
    assert V.dim == 3 * 3
    assert validate_module(V)["passed"]


@pytest.mark.parametrize(
    "m,n,lo,hi", [(2, 2, -2, 2), (3, 1, -1, 2), (1, 3, -1, 2), (3, 2, -1, 1)],
)
def test_simple_even_matches_gelfand_tsetlin_on_larger_levis(m, n, lo, hi):
    """Levis with two or more lowering roots, where the slice cut at the
    degree of w0.lam holds weights outside [w0.lam, lam]: the form
    quotient removes them, leaving the Gelfand-Tsetlin character."""
    g = install_grading(build_gl(m, n), "compatible")
    for lam in dominant_weights_in_box(m, n, lo, hi):
        V = simple_even_module(g, lam)
        assert V.character() == even_character(m, n, lam), lam
        assert validate_module(V)["passed"], lam


def test_simple_even_rejects_non_dominant():
    g = gl21c()
    with pytest.raises(DominanceError):
        simple_even_module(g, (0, 1, 0))


# -- induced families ------------------------------------------------------


@pytest.mark.parametrize("lam", [(2, -1), (0, 0), (3, -3)])
def test_kac_dimension_gl11(lam):
    K = kac_module(gl11(), lam)
    assert K.dim == 2
    assert validate_module(K)["passed"]


@pytest.mark.parametrize(
    "lam,dim",
    [((1, 0, 0), 8), ((0, 0, 0), 4), ((2, 0, 1), 12)],
)
def test_kac_dimension_gl21(lam, dim):
    K = kac_module(gl21c(), lam)
    assert K.dim == dim
    assert validate_module(K)["passed"]


def test_kac_needs_compatible_grading():
    g = install_grading(build_gl(1, 1), "principal")
    with pytest.raises(GradingError):
        kac_module(g, (0, 0))


def test_kac_rejects_non_dominant():
    with pytest.raises(DominanceError):
        kac_module(gl21c(), (0, 2, 0))


def test_induced_projective_dimensions():
    P = induced_projective(gl11(), (0, 0))
    assert P.dim == 4
    assert validate_module(P)["passed"]
    P2 = induced_projective(gl21c(), (1, 0, 0))
    assert P2.dim == 16 * 2
    assert validate_module(P2)["passed"]


def test_induced_projective_has_no_highest_weight():
    P = induced_projective(gl11(), (0, 0))
    assert P.highest_weight is None


# -- simple quotients ------------------------------------------------------


def test_atypical_kac_has_radical():
    """K(lam) for gl(1|1) is reducible exactly when lam_{-1}+lam_1 = 0."""
    g = gl11()
    K = kac_module(g, (3, -3))
    form = contravariant_form(K)
    assert not is_nondegenerate(form)
    L, _ = quotient_module(K, form_radical(K))
    assert L.dim == 1
    assert validate_module(L)["passed"]

    K2 = kac_module(g, (3, -2))
    assert is_nondegenerate(contravariant_form(K2))


def test_simple_quotient_character_gl21():
    """K(0,0|0) for gl(2|1): the trivial module is its top quotient."""
    g = gl21c()
    K = kac_module(g, (0, 0, 0))
    L, _ = quotient_module(K, form_radical(K))
    assert L.dim < K.dim
    assert L.weight_space((QQ(0), QQ(0), QQ(0)))
    assert validate_module(L)["passed"]


def test_simple_natural_gl31():
    """L(1,0,0|0) of gl(3|1) is the natural module C^{3|1}.

    Projecting onto the quotient by the radical meets vectors whose leading
    coordinate is off the pivots but which have entries on later pivot
    columns, so it needs the full normal form.
    """
    g = install_grading(build_gl(3, 1), "compatible")
    L = simple_module(g, (1, 0, 0, 0))
    assert L.dim == 4
    unit = [tuple(QQ(int(i == k)) for i in range(4)) for k in range(4)]
    assert L.character() == {w: 1 for w in unit}
    assert validate_module(L)["passed"]


# -- maximal submodules off the simple raisings ----------------------------


def orbit_representatives(m, n, lo, hi):
    """(g, weights): the dominant weights of the box with lam_m = 0, one
    per orbit under the characters c (1^m | -1^n) of g."""
    g = install_grading(build_gl(m, n), "compatible")
    return g, [lam for lam in dominant_weights_in_box(m, n, lo, hi) if lam[m - 1] == 0]


def levi_slice(g, lam):
    """The Levi Verma slice ``simple_even_module`` cuts L0(lam) from."""
    m, n = g.params
    depth = wdot(wsub(lam, w0_action(m, n, lam)), principal_dvector(m, n))
    return verma_module_truncated(even_levi(g)[0], lam, depth)


@pytest.mark.parametrize("m,n,lo,hi,count", [
    (1, 1, -3, 3, 7), (2, 1, -2, 2, 15), (1, 2, -2, 2, 15),
    (3, 1, -1, 1, 9), (2, 2, -1, 1, 12), (3, 2, 0, 1, 9),
])
def test_kac_radical_is_the_form_radical(m, n, lo, hi, count):
    """The maximal submodule read off the simple raisings is the radical
    of the contravariant form, vector for vector and in the same order,
    on K(lam) and on the Levi slice L0(lam) is cut from."""
    g, reps = orbit_representatives(m, n, lo, hi)
    assert len(reps) == count
    for lam in reps:
        K, rad = kac_radical(g, lam)
        assert repr(rad) == repr(form_radical(K))
        slice_ = levi_slice(g, lam)
        assert repr(maximal_submodule(slice_)) == repr(form_radical(slice_))


@pytest.mark.parametrize("a", [-2, 0, 1, 3])
def test_kac_radical_calibration_gl11(a):
    """gl(1|1): K(a|b) = span(v, y.v), alpha = (1|-1).  Atypical (a + b = 0):
    the radical is the line y.v at lam - alpha; typical: none."""
    g = gl11()
    K, rad = kac_radical(g, (a, -a))
    assert rad == ({1: 1},)
    assert K.weights[1] == (QQ(a - 1), QQ(1 - a))
    assert kac_radical(g, (a, 1 - a))[1] == ()


@pytest.mark.parametrize("m,n,lo,hi", [(2, 1, -2, 2), (2, 2, -1, 1)])
def test_kac_module_is_simple_iff_typical(m, n, lo, hi):
    """Kac's theorem: K(lam) is simple iff lam is typical, that is iff the
    central core of lam cancels no pair."""
    g, reps = orbit_representatives(m, n, lo, hi)
    for lam in reps:
        xs, ys = _central_core(m, n, lam)
        typical = len(xs) + len(ys) == m + n
        assert (kac_radical(g, lam)[1] == ()) == typical, lam


def test_maximal_submodule_needs_a_one_dimensional_top():
    """Two copies of K(0|0) of gl(1|1) under one recorded highest weight
    are refused: the simple raisings decide nothing there."""
    K = kac_module(gl11(), (0, 0))
    M = direct_sum(K, K)
    M = ExplicitModule(
        M.g, M.weights, M.parities, M.action, highest_weight=K.highest_weight,
    )
    with pytest.raises(ValueError, match=r"top weight space \(0\|0\) has dimension 2"):
        maximal_submodule(M)


# -- truncated slices ------------------------------------------------------


def test_verma_slice_form_typical_gl11():
    g = install_grading(build_gl(1, 1), "principal")
    M = verma_module_truncated(g, (2, -1), 3)
    form = contravariant_form(M)
    assert is_nondegenerate(form)
    assert form.gram[(QQ(2), QQ(-1))] == form.gram[(QQ(2), QQ(-1))].identity(1)


def test_verma_slice_form_gl21_runs_guarded():
    g = install_grading(build_gl(2, 1), "principal")
    M = verma_module_truncated(g, (3, 1, 5), 3)
    assert M.truncated
    form = contravariant_form(M)
    ranks = form.ranks()
    assert ranks[(QQ(3), QQ(1), QQ(5))] == 1
    assert all(r >= 0 for r in ranks.values())


# -- error paths -----------------------------------------------------------


def test_form_needs_highest_weight():
    P = induced_projective(gl11(), (0, 0))
    with pytest.raises(ValueError, match="highest weight"):
        contravariant_form(P)


def test_form_rejects_weights_above_top():
    P = induced_projective(gl11(), (0, 0))
    P = ExplicitModule(
        P.g, P.weights, P.parities, P.action, highest_weight=(QQ(0), QQ(0)),
    )
    with pytest.raises(ValueError, match="not below the top"):
        contravariant_form(P)


def test_form_detects_non_cyclic():
    g = gl11()
    K = kac_module(g, (0, 0))
    L, _ = quotient_module(K, form_radical(K))
    sub, _ = submodule_module(K, [{1: 1}])
    M = direct_sum(L, sub)
    M = ExplicitModule(
        M.g, M.weights, M.parities, M.action, highest_weight=(QQ(0), QQ(0)),
    )
    with pytest.raises(ValueError, match="not generated"):
        contravariant_form(M)


# -- clifford modules ------------------------------------------------------


def q_cartan(n):
    q = build_q(n)
    return q.subalgebra(q.h_ids(), family_tag="q-cartan")


@pytest.mark.parametrize(
    "lam,dim,odd_dim",
    [((1, -1), 2, 1), ((1, 0), 2, 1), ((0, 0), 1, 0), ((1, -4), 2, 1)],
)
def test_clifford_q2(lam, dim, odd_dim):
    h = q_cartan(2)
    u = clifford_module(h, lam)
    assert u.dim == dim
    assert sum(u.parities) == odd_dim
    assert validate_module(u)["passed"]
    assert all(w == tuple(QQ(c) for c in lam) for w in u.weights)


def test_clifford_q3_three_nonzero():
    h = q_cartan(3)
    u = clifford_module(h, (1, -1, 2))
    assert u.dim == 4  # one pair block plus one single block
    assert validate_module(u)["passed"]


def test_clifford_irrational_pair_refused():
    h = q_cartan(2)
    with pytest.raises(CliffordWeightError):
        clifford_module(h, (3, 3))
    with pytest.raises(CliffordWeightError):
        clifford_module(h, (1, 2))


def test_clifford_square_relation():
    """c_i^2 = lam_i as matrices, the defining relation."""
    h = q_cartan(2)
    u = clifford_module(h, (1, -4))
    for i in (1, 2):
        c = u.action[h.id_of(f"e'({i},{i})")]
        sq = c @ c
        lam_i = u.weights[0][i - 1]
        for k in range(u.dim):
            assert sq.data.get((k, k), QQ(0)) == lam_i


# -- property checks -------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(a=st.integers(-4, 4), b=st.integers(-4, 4))
def test_form_rank_drop_iff_degenerate_weight(a, b):
    g = gl11()
    K = kac_module(g, (a, b))
    form = contravariant_form(K)
    assert is_nondegenerate(form) == (a + b != 0)


@settings(max_examples=20, deadline=None)
@given(
    top=st.integers(0, 3),
    gap=st.integers(0, 2),
    c=st.integers(-3, 3),
)
def test_kac_mass_formula_gl21(top, gap, c):
    """dim K = 2^(m n) * dim V for every dominant weight tried."""
    lam = (top + gap, top, c)
    K = kac_module(gl21c(), lam)
    assert K.dim == 4 * (gap + 1)


# -- memoisation on the algebra ----------------------------------------------


def test_kac_memo_respects_a_smaller_module_budget():
    g = gl21c()
    assert kac_module(g, (1, 0, 0)).dim == 8
    with pytest.raises(ResourceLimitError):
        kac_module(g, (1, 0, 0), limits=Limits(max_module_dim=2))


def test_kac_memo_is_keyed_by_weight_and_limits():
    g = gl21c()
    K = kac_module(g, (1, 0, 0))
    assert kac_module(g, (QQ(1), QQ(0), QQ(0))) is K
    assert kac_module(g, (1, 0, 0), limits=Limits(iteration_budget=47)) is not K
