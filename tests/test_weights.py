"""Weight arithmetic, the root partial order, and dominance enumeration."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supero.rational import QQ
from supero.weights import (
    dominant_weights_in_box,
    format_weight,
    height,
    is_dominant_gl,
    parse_weight,
    root_leq,
    wadd,
    weight,
    wneg,
    weyl_shifts,
    wsub,
)


def test_format_and_parse():
    w = weight(1, QQ(-1, 2), 3)
    assert format_weight(w, bar_after=2) == "(1,-1/2|3)"
    assert format_weight(w) == "(1,-1/2,3)"
    assert parse_weight("(1,-1/2|3)") == w
    assert parse_weight("1,-1/2,3") == w
    assert parse_weight("()") == ()


def test_root_order_hand_examples():
    # (0,0) and (1,-1) differ by the simple root at position 1
    assert root_leq(weight(0, 0), weight(1, -1))
    assert not root_leq(weight(1, -1), weight(0, 0))
    # incomparable: difference (1,-2,1) has a negative prefix only if reordered
    assert root_leq(weight(0, 0, 0), weight(1, -2, 1)) is False
    assert root_leq(weight(0, 0, 0), weight(2, -1, -1))
    # non-integral or nonzero-sum differences never compare
    assert not root_leq(weight(0, 0), weight(QQ(1, 2), QQ(-1, 2)))
    assert not root_leq(weight(0, 0), weight(1, 0))


def test_height():
    assert height(weight(0, 0), weight(1, -1)) == 1
    assert height(weight(0, 0, 0), weight(2, -1, -1)) == 3
    assert height(weight(1, -1), weight(1, -1)) == 0
    with pytest.raises(ValueError):
        height(weight(1, -1), weight(0, 0))


def test_dominance():
    assert is_dominant_gl(weight(2, 1, 5), 2, 1)
    assert not is_dominant_gl(weight(1, 2, 0), 2, 1)
    assert not is_dominant_gl(weight(QQ(3, 2), 1, 0), 2, 1)
    with pytest.raises(ValueError):
        is_dominant_gl(weight(0, 0), 2, 1)


def test_dominant_box_enumeration():
    got = dominant_weights_in_box(1, 1, -1, 1)
    assert got == sorted(
        (weight(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)), reverse=True
    )
    got21 = dominant_weights_in_box(2, 1, 0, 1)
    expected = [
        weight(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1) if a >= b
    ]
    assert got21 == sorted(expected, reverse=True)
    for w in got21:
        assert is_dominant_gl(w, 2, 1)
    # brute force: every integer point of the box, filtered by dominance
    for m, n, lo, hi in ((1, 1, -1, 1), (2, 1, -2, 2), (2, 2, 0, 1)):
        box = (weight(c) for c in product(range(lo, hi + 1), repeat=m + n))
        brute = sorted((w for w in box if is_dominant_gl(w, m, n)), reverse=True)
        assert dominant_weights_in_box(m, n, lo, hi) == brute


coords = st.lists(st.integers(-3, 3), min_size=3, max_size=3).map(weight)


@settings(deadline=None)
@given(coords)
def test_root_order_reflexive(w):
    assert root_leq(w, w)


@settings(deadline=None)
@given(coords, coords)
def test_root_order_antisymmetric(a, b):
    if root_leq(a, b) and root_leq(b, a):
        assert a == b


@settings(deadline=None)
@given(coords, coords, coords)
def test_root_order_transitive(a, b, c):
    if root_leq(a, b) and root_leq(b, c):
        assert root_leq(a, c)


@settings(deadline=None)
@given(coords, coords)
def test_root_order_translation_invariant(a, b):
    shift = weight(5, -2, 1)
    assert root_leq(a, b) == root_leq(wadd(a, shift), wadd(b, shift))
    # and reversal under negation
    assert root_leq(a, b) == root_leq(wneg(b), wneg(a))


@settings(deadline=None)
@given(coords, coords)
def test_weight_arithmetic_roundtrip(a, b):
    assert wadd(wsub(a, b), b) == a
    assert parse_weight(format_weight(a, bar_after=2)) == a


@pytest.mark.parametrize("m,n,order", [(1, 1, 1), (2, 1, 2), (3, 1, 6), (2, 2, 4)])
def test_weyl_shifts_are_signed_rho_differences(m, n, order):
    shifts = weyl_shifts(m, n)
    assert len(shifts) == order and len(set(w for _, w in shifts)) == order
    assert sum(sign for sign, _ in shifts) == (1 if order == 1 else 0)
    for _, w in shifts:
        # rho - w rho is a sum of positive even roots: zero sum on each
        # side, nonnegative prefix sums
        assert root_leq(weight((0,) * (m + n)), w)
        assert sum(w[:m]) == 0


def test_weyl_shifts_of_gl21_are_zero_and_the_even_root():
    assert sorted(weyl_shifts(2, 1)) == [(-1, weight(1, -1, 0)), (1, weight(0, 0, 0))]
