"""PBW straightening: hand normal forms plus associativity properties."""

import random

import pytest

from supero.algebra import build_gl, build_q, install_grading
from supero.errors import WindowError
from supero.linalg import vec_add_into
from supero import pbw as pbw_module
from supero.pbw import (
    PbwAlgebra,
    monomial_degree,
    monomial_parity,
    monomial_str,
    monomial_weight,
    monomials,
)
from supero.rational import QQ


def is_normal(pbw, word):
    """True when word is an ordered monomial: ranks ascend, odd letters
    appear at most once."""
    for a, b in zip(word, word[1:]):
        if pbw.rank[a] > pbw.rank[b]:
            return False
        if a == b and pbw.g.parity(a):
            return False
    return True


def monomial_exponents(pbw, word):
    """Exponent vector aligned with the engine's basis order."""
    out = [0] * len(pbw.order)
    for b in word:
        out[pbw.rank[b]] += 1
    return out


def multiply(pbw, a, b):
    """Product of two elements of U(g) given as dicts of normal monomials."""
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            vec_add_into(out, pbw.straighten_word(wa + wb), ca * cb)
    return out


def negative_basis(g, min_degree=None):
    """Monomial basis of U(n^-) over the negative-degree generators."""
    return monomials(PbwAlgebra(g), g.negative_ids(), min_degree=min_degree)


def _gl11():
    return install_grading(build_gl(1, 1), "compatible")


def test_empty_word_is_unit():
    pbw = PbwAlgebra(_gl11())
    assert pbw.straighten_word(()) == {(): QQ(1)}


def test_odd_square_vanishes():
    g = _gl11()
    pbw = PbwAlgebra(g)
    f = g.id_of("e(1,-1)")
    assert pbw.straighten_word((f, f)) == {}
    e = g.id_of("e(-1,1)")
    assert pbw.straighten_word((e, e)) == {}


def test_single_swap_hand_example():
    g = _gl11()
    pbw = PbwAlgebra(g)
    e, f = g.id_of("e(-1,1)"), g.id_of("e(1,-1)")
    h1, h2 = g.id_of("e(-1,-1)"), g.id_of("e(1,1)")
    # ef = -fe + (h1 + h2) for this odd pair
    got = pbw.straighten_word((e, f))
    assert got == {(f, e): QQ(-1), (h1,): QQ(1), (h2,): QQ(1)}
    assert is_normal(pbw, (f, e))
    assert not is_normal(pbw, (e, f))


def test_torus_commutation():
    g = install_grading(build_gl(2, 1), "principal")
    pbw = PbwAlgebra(g)
    t = g.id_of("e(1,1)")
    f = g.id_of("e(1,-2)")
    # t f = f t + [t,f] and [t,f] = wt(f)(t) f with wt(f)(e(1,1)) = 1
    assert pbw.straighten_word((t, f)) == {(f, t): QQ(1), (f,): QQ(1)}


def test_straighten_idempotent_and_graded():
    g = install_grading(build_gl(2, 1), "compatible")
    pbw = PbwAlgebra(g)
    rng = random.Random(7)
    for _ in range(60):
        word = tuple(rng.randrange(g.dim) for _ in range(rng.randrange(1, 5)))
        expansion = pbw.straighten_word(word)
        wt = monomial_weight(g, word)
        deg = monomial_degree(g, word)
        par = monomial_parity(g, word)
        for mono in expansion:
            assert is_normal(pbw, mono)
            assert monomial_weight(g, mono) == wt
            assert monomial_degree(g, mono) == deg
            assert monomial_parity(g, mono) == par
            assert pbw.straighten_word(mono) == {mono: QQ(1)}


@pytest.mark.parametrize(
    "make", [lambda: install_grading(build_gl(2, 1), "compatible"), lambda: build_q(2)]
)
def test_multiply_associative(make):
    g = make()
    pbw = PbwAlgebra(g)
    rng = random.Random(11)

    def random_element():
        out = {}
        for _ in range(rng.randrange(1, 3)):
            word = tuple(rng.randrange(g.dim) for _ in range(rng.randrange(0, 3)))
            vec_add_into(out, pbw.straighten_word(word), QQ(rng.randrange(-3, 4)))
        return out

    for _ in range(40):
        a, b, c = random_element(), random_element(), random_element()
        left = multiply(pbw, multiply(pbw, a, b), c)
        right = multiply(pbw, a, multiply(pbw, b, c))
        assert left == right


def test_multiply_unit_and_odd_square():
    g = _gl11()
    pbw = PbwAlgebra(g)
    f = g.id_of("e(1,-1)")
    a = pbw.straighten_word((f,))
    assert multiply(pbw, a, {(): QQ(1)}) == a
    assert multiply(pbw, a, a) == {}


def test_small_cache_still_correct(monkeypatch):
    g = _gl11()
    e, f = g.id_of("e(-1,1)"), g.id_of("e(1,-1)")
    words = [(e, f), (f, e), (e, f, e), (f, e, f, e)]
    roomy = PbwAlgebra(g)
    expected = [roomy.straighten_word(word) for word in words]
    monkeypatch.setattr(pbw_module, "STRAIGHTEN_CACHE", 2)
    tight = PbwAlgebra(g)
    assert [tight.straighten_word(word) for word in words] == expected


def test_negative_basis_compatible_counts():
    # exterior algebra on mn odd generators
    for m, n in [(1, 1), (2, 1), (2, 2)]:
        g = install_grading(build_gl(m, n), "compatible")
        basis = negative_basis(g)
        assert len(basis) == 2 ** (m * n)
        assert () in basis
        for word in basis:
            assert len(set(word)) == len(word)


def test_negative_basis_principal_needs_window():
    g = install_grading(build_gl(2, 1), "principal")
    with pytest.raises(WindowError, match="degree cutoff"):
        negative_basis(g)
    # gl(1|1) principal has a purely odd negative part, so no cutoff needed
    g11 = install_grading(build_gl(1, 1), "principal")
    assert len(negative_basis(g11)) == 2


def test_negative_basis_weight_window():
    g = install_grading(build_gl(1, 1), "principal")
    basis = negative_basis(g, min_degree=-2)
    assert basis == [(), (g.id_of("e(1,-1)"),)]


def test_monomials_degree_cutoff():
    g = install_grading(build_gl(2, 1), "principal")
    pbw = PbwAlgebra(g)
    f1 = g.id_of("e(-1,-2)")  # degree -1, even
    f2 = g.id_of("e(1,-1)")  # degree -1, odd
    f3 = g.id_of("e(1,-2)")  # degree -2, odd
    got = monomials(pbw, [f1, f2, f3], min_degree=-2)
    assert len(got) == 6
    assert (f1, f1) in got and (f1, f2) in got and (f3,) in got
    assert all(monomial_degree(g, w) >= QQ(-2) for w in got)
    with pytest.raises(ValueError):
        monomials(pbw, [g.h_ids()[0]], min_degree=-1)


def test_monomial_printing_and_exponents():
    g = install_grading(build_gl(2, 1), "principal")
    pbw = PbwAlgebra(g)
    f1 = g.id_of("e(-1,-2)")
    f3 = g.id_of("e(1,-2)")
    word = tuple(sorted((f1, f1, f3), key=lambda b: pbw.rank[b]))
    text = monomial_str(g, word)
    assert "e(-1,-2)^2" in text and "e(1,-2)^1" in text and " * " in text
    assert monomial_str(g, ()) == "1"
    exps = monomial_exponents(pbw, word)
    assert sum(exps) == 3
    assert exps[pbw.rank[f1]] == 2 and exps[pbw.rank[f3]] == 1


def test_custom_order_validation():
    g = _gl11()
    with pytest.raises(ValueError):
        PbwAlgebra(g, order=[0, 1])
    reordered = PbwAlgebra(g, order=[3, 2, 1, 0])
    word = (0, 1, 2, 3)
    # same element, different normal form; round-trip through multiplication agrees
    default = PbwAlgebra(g)
    lhs = default.straighten_word(word)
    rhs = reordered.straighten_word(word)
    # compare by re-straightening the reordered result in the default engine
    back = {}
    for mono, c in rhs.items():
        vec_add_into(back, default.straighten_word(mono), c)
    assert back == lhs


def test_q_negative_basis_window():
    g = build_q(2)
    basis = negative_basis(g, min_degree=-2)
    e21 = g.id_of("e(2,1)")
    ep21 = g.id_of("e'(2,1)")
    assert (e21,) in basis and (ep21,) in basis
    assert (e21, e21) in basis and (e21, ep21) in basis
    # odd generator cannot repeat
    assert (ep21, ep21) not in basis
