"""Character tables: decomposition, Cartan, tilting multiplicities."""

import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from supero import (
    QQ,
    KacExtensions,
    Limits,
    ResourceLimitError,
    WindowError,
    beta_reflect,
    build_gl,
    cartan_matrix_direct,
    cartan_matrix_via_bgg,
    decomposition_matrix,
    dominant_weights_in_box,
    even_character,
    flag_matrix,
    install_grading,
    kac_character,
    kac_module,
    matrix_to_json_dict,
    matrix_to_tsv,
    simple_character,
    simple_module,
    tilting_table,
    verma_decomposition_truncated,
    weyl_character,
    window_from_box,
)
from supero import characters, forms, structure


def gl11():
    return install_grading(build_gl(1, 1), "compatible")


def gl11p():
    return install_grading(build_gl(1, 1), "principal")


def gl21c():
    return install_grading(build_gl(2, 1), "compatible")


def gl21p():
    return install_grading(build_gl(2, 1), "principal")


def qq(w):
    return tuple(QQ(c) for c in w)


# -- characters of the even part ------------------------------------------


def test_weyl_character_rank_two_vector():
    assert weyl_character((1, 0)) == {qq((1, 0)): 1, qq((0, 1)): 1}


def test_weyl_character_rank_one():
    assert weyl_character((5,)) == {qq((5,)): 1}


def test_weyl_character_rank_three_dimension():
    # (2,1,0) has dimension 8 by the classical dimension formula
    assert sum(weyl_character((2, 1, 0)).values()) == 8


def test_weyl_character_rejects_increasing():
    from supero import DominanceError

    with pytest.raises(DominanceError):
        weyl_character((0, 1))


@settings(max_examples=30, deadline=None)
@given(b=st.integers(-4, 4), gap=st.integers(0, 5))
def test_weyl_character_rank_two_dimension(b, gap):
    """mass of the gl(2) character is the classical a - b + 1."""
    ch = weyl_character((b + gap, b))
    assert sum(ch.values()) == gap + 1
    # weights live between the highest weight and its reversal
    assert max(ch) == qq((b + gap, b))
    assert min(ch) == qq((b, b + gap))


def test_even_character_splits_into_blocks():
    ch = even_character(2, 1, (1, 0, -2))
    assert sum(ch.values()) == 2
    assert ch[qq((1, 0, -2))] == 1
    assert ch[qq((0, 1, -2))] == 1


# -- induced characters: formula route vs module census -------------------


@pytest.mark.parametrize("lam", [(0, 0), (1, -1), (2, -1), (-1, 1), (3, 2)])
def test_kac_character_matches_census_gl11(lam):
    g = gl11()
    assert kac_character(g, qq(lam)) == dict(kac_module(g, lam).character())


@pytest.mark.parametrize("lam", [(0, 0, 0), (1, 0, -1), (2, 1, 0), (1, -1, 1)])
def test_kac_character_matches_census_gl21(lam):
    g = gl21c()
    assert kac_character(g, qq(lam)) == dict(kac_module(g, lam).character())


@settings(max_examples=25, deadline=None)
@given(a=st.integers(-3, 3), b=st.integers(-3, 3))
def test_kac_character_mass(a, b):
    """total mass is 2^(m n) times the even-part dimension."""
    g = gl11()
    ch = kac_character(g, qq((a, b)))
    assert sum(ch.values()) == 2
    assert max(ch) == qq((a, b))


def test_simple_character_dimensions_gl11():
    g = gl11()
    assert sum(simple_character(g, qq((0, 0))).values()) == 1
    assert sum(simple_character(g, qq((1, -1))).values()) == 1
    assert sum(simple_character(g, qq((2, -1))).values()) == 2


@pytest.mark.parametrize("character_first", [True, False])
@pytest.mark.parametrize("m,n,lo,hi", [(1, 1, -3, 3), (2, 1, -2, 2), (3, 1, 0, 1)])
def test_simple_character_is_the_census_of_the_simple_module(m, n, lo, hi, character_first):
    """ch L(lam) read off the maximal submodule equals the weight census of the
    quotient module, whichever of the two a fresh algebra builds first."""
    g = install_grading(build_gl(m, n), "compatible")
    weights = dominant_weights_in_box(m, n, lo, hi)
    by_character = lambda: [simple_character(g, lam) for lam in weights]
    by_module = lambda: [simple_module(g, lam).character() for lam in weights]
    if character_first:
        chars = by_character()
        census = by_module()
    else:
        census = by_module()
        chars = by_character()
    assert chars == census


@pytest.mark.parametrize("build", [simple_character, simple_module])
def test_a_radical_that_is_no_submodule_is_refused(build, monkeypatch):
    """Both routes to L(lam) run the certificate of ``maximal_submodule``:
    with the odd simple raising left out of its rows, vectors of K(lam)
    that it moves up out of the maximal submodule are taken into it."""
    real = forms._simple_raisings

    def even_only(g):
        return [x for x in real(g) if not g.parity(x)]

    monkeypatch.setattr(forms, "_simple_raisings", even_only)
    with pytest.raises(AssertionError, match="maximal submodule failed to be a submodule"):
        build(gl21c(), (1, 0, 0))


# -- windows ---------------------------------------------------------------


def test_dominant_box_gl11():
    W = dominant_weights_in_box(1, 1, -2, 2)
    assert len(W) == 25
    assert W == sorted(W, reverse=True)


def test_dominant_box_gl21_respects_dominance():
    W = dominant_weights_in_box(2, 1, -1, 1)
    assert len(W) == 18
    assert all(w[0] >= w[1] for w in W)


def test_window_support_closure_of_origin():
    g = gl11()
    assert window_from_box(g, 0, 0) == [qq((0, 0)), qq((-1, 1))]


def test_reflected_window_is_involutive():
    g = gl11()
    W = window_from_box(g, -1, 1, support_closure=False)
    assert [beta_reflect(1, 1, beta_reflect(1, 1, w)) for w in W] == W


# -- decomposition matrices ------------------------------------------------


def test_two_weight_window_matrix():
    g = gl11()
    D = decomposition_matrix(g, [(0, 0), (-1, 1)])
    assert D.weights == [qq((0, 0)), qq((-1, 1))]
    assert D.entries == [[1, 1], [0, 1]]


def test_decomposition_unitriangular_box():
    g = gl11()
    W = window_from_box(g, -2, 2, support_closure=False)
    D = decomposition_matrix(g, W)
    for i in range(len(W)):
        assert D.entries[i][i] == 1
        for j in range(len(W)):
            if D.entries[i][j] and i != j:
                # factors sit strictly below the inducing weight
                assert W[j] < W[i]


def test_decomposition_rows_account_for_full_dimension():
    g = gl11()
    W = window_from_box(g, -1, 1, support_closure=False)
    D = decomposition_matrix(g, W)
    for mu, factors in zip(W, D.full_rows):
        total = sum(
            mult * sum(simple_character(g, lam).values())
            for lam, mult in factors.items()
        )
        assert total == kac_module(g, mu).dim


def test_gappy_window_is_rejected():
    g = gl11()
    with pytest.raises(WindowError) as err:
        decomposition_matrix(g, [(0, 0), (-2, 2)])
    assert err.value.missing == [qq((-1, 1))]


def test_window_rejects_non_dominant():
    g = gl21c()
    with pytest.raises(WindowError):
        decomposition_matrix(g, [(0, 1, 0)])


def test_window_rejects_duplicates():
    g = gl11()
    with pytest.raises(WindowError):
        decomposition_matrix(g, [(0, 0), (0, 0)])


@pytest.mark.parametrize("window,named", [
    ([(0, 1, 0)], "window weight (0,1|0) is not dominant"),
    ([(1, 0, 0), (1, 0, 0)], "window repeats (1,0|0)"),
])
def test_tilting_table_validates_its_window_before_any_build(window, named, monkeypatch):
    """The refusal names the given weight, not its reflection beta - w0.lam."""
    built = []
    monkeypatch.setattr(characters, "tilting_module", lambda *a, **k: built.append(a))
    with pytest.raises(WindowError, match=re.escape(named)):
        tilting_table(gl21c(), window)
    assert built == []


def test_support_closed_window_still_validates():
    g = gl11()
    D = decomposition_matrix(g, window_from_box(g, -1, 1))
    assert all(D.entries[i][i] == 1 for i in range(len(D.weights)))


def test_gl21_decomposition_entries():
    g = gl21c()
    W = window_from_box(g, -1, 1, support_closure=False)
    D = decomposition_matrix(g, W)
    off = {
        (tuple(int(c) for c in W[i]), tuple(int(c) for c in W[j]))
        for i in range(len(W))
        for j in range(len(W))
        if i != j and D.entries[i][j]
    }
    assert off == {
        ((1, 1, -1), (1, 0, 0)),
        ((1, 0, 0), (1, -1, 1)),
        ((0, 0, 0), (0, -1, 1)),
        ((0, 0, -1), (-1, -1, 1)),
        ((0, -1, -1), (-1, -1, 0)),
    }


def atypicality(m, n, lam):
    """The number of atypical pairs that ``_central_core`` cancels."""
    xs, _ = structure._central_core(m, n, lam)
    return m - len(xs)


@pytest.mark.parametrize("m, n, lo, hi", [
    (1, 1, -3, 3), (2, 1, -2, 2), (1, 2, -2, 2), (2, 2, -1, 1),
])
def test_kac_factors_meet_the_calibration_invariants(m, n, lo, hi):
    """Every [K(lam) : L(mu)] is 0 or 1; a typical K(lam) is simple, an
    atypicality-1 K(lam) has two factors and, on gl(2|2), an
    atypicality-2 K(lam) three, four or five."""
    g = install_grading(build_gl(m, n), "compatible")
    counts = Counter()
    for lam in dominant_weights_in_box(m, n, lo, hi):
        factors = forms._peel_factors(g, lam, Limits())
        assert set(factors.values()) == {1}, lam
        counts[atypicality(m, n, lam), len(factors)] += 1
    allowed = {0: {1}, 1: {2}, 2: {3, 4, 5}}
    assert all(k in allowed[a] for a, k in counts), counts
    if (m, n) == (2, 2):
        assert counts == {(0, 1): 6, (1, 2): 24, (2, 3): 3, (2, 4): 1, (2, 5): 2}


# -- Cartan matrices: predicted against assembled --------------------------


def test_cartan_two_routes_agree_gl11():
    g = gl11()
    W = window_from_box(g, -2, 2, support_closure=False)
    D = decomposition_matrix(g, W)
    assert cartan_matrix_via_bgg(D) == cartan_matrix_direct(g, W)


def test_cartan_is_symmetric():
    g = gl11()
    W = window_from_box(g, -1, 1, support_closure=False)
    C = cartan_matrix_via_bgg(decomposition_matrix(g, W))
    assert C == [list(row) for row in zip(*C)]


def test_flag_matrix_transposes_decomposition():
    """(P(lam):K(mu)) equals [K(mu):L(lam)] entry by entry."""
    g = gl11()
    W = window_from_box(g, -2, 2, support_closure=False)
    D = decomposition_matrix(g, W)
    F = flag_matrix(g, W)
    k = len(W)
    assert F == [[D.entries[j][i] for j in range(k)] for i in range(k)]


def test_cartan_two_routes_agree_gl21():
    g = gl21c()
    W = window_from_box(g, -1, 1, support_closure=False)
    D = decomposition_matrix(g, W)
    assert cartan_matrix_via_bgg(D) == cartan_matrix_direct(g, W)


# -- tilting multiplicities against reflected composition numbers ----------


def test_tilting_table_gl11_box():
    g = gl11()
    W = window_from_box(g, -1, 1, support_closure=False)
    rep = tilting_table(g, W)
    assert rep["differences"] == []
    k = len(W)
    for i in range(k):
        assert rep["left"][i][i] == 1
    # the atypical diagonal carries exactly one extra flag factor
    idx = {w: i for i, w in enumerate(rep["weights"])}
    row = rep["left"][idx[qq((0, 0))]]
    assert sum(row) == 2 and row[idx[qq((-1, 1))]] == 1


def test_tilting_table_typical_rows_are_unit_rows():
    g = gl11()
    rep = tilting_table(g, [(2, -1)])
    assert rep["left"] == [[1]] and rep["right"] == [[1]]
    assert rep["differences"] == []


# -- truncated Verma data --------------------------------------------------


def test_verma_truncated_depth_zero():
    out = verma_decomposition_truncated(gl11p(), qq((2, -1)), 0)
    assert out == [(qq((2, -1)), 1)]


def test_verma_truncated_detects_second_factor():
    g = gl11p()
    out = verma_decomposition_truncated(g, qq((1, -1)), 1)
    assert out == [(qq((1, -1)), 1), (qq((0, 0)), 1)]


def test_verma_truncated_typical_stays_simple():
    g = gl11p()
    assert verma_decomposition_truncated(g, qq((2, -1)), 3) == [(qq((2, -1)), 1)]


def test_verma_truncated_budget_names_the_knob():
    # at depth 2 the weight (-1,0|1) of the gl(2|1) Verma is two-dimensional
    g = gl21p()
    lam = qq((0, 0, 0))
    with pytest.raises(ResourceLimitError) as err:
        verma_decomposition_truncated(g, lam, 2, limits=Limits(max_hom_vars=1))
    msg = str(err.value)
    assert "max_hom_vars is 1" in msg
    assert "2 unknowns" in msg and "equations" in msg
    assert verma_decomposition_truncated(
        g, lam, 2, limits=Limits(max_hom_vars=2)
    ) == verma_decomposition_truncated(g, lam, 2)


@settings(max_examples=15, deadline=None)
@given(a=st.integers(-2, 2), b=st.integers(-2, 2), d=st.integers(0, 2))
def test_verma_truncated_monotone_in_depth(a, b, d):
    g = gl11p()
    shallow = dict(verma_decomposition_truncated(g, qq((a, b)), d))
    deep = dict(verma_decomposition_truncated(g, qq((a, b)), d + 1))
    for w, k in shallow.items():
        assert deep[w] >= k


# -- linkage blocks --------------------------------------------------------


def blocks(g, window):
    """Partition of the window into linkage classes.

    Edges come from nonzero decomposition numbers; the tests below check
    that nonzero first extension groups give the same partition.
    Components are ordered by their largest weight, each listed
    descending.
    """
    window = [qq(w) for w in window]
    parent = list(range(len(window)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    D = decomposition_matrix(g, window)
    for i in range(len(window)):
        for j in range(len(window)):
            if D.entries[i][j]:
                union(i, j)
    comps = {}
    for i, w in enumerate(window):
        comps.setdefault(find(i), []).append(w)
    out = [sorted(ws, reverse=True) for ws in comps.values()]
    return sorted(out, key=lambda ws: ws[0], reverse=True)


def test_blocks_gl11_box():
    g = gl11()
    W = window_from_box(g, -2, 2, support_closure=False)
    B = blocks(g, W)
    assert len(B) == 21
    big = max(B, key=len)
    assert big == [qq((a, -a)) for a in range(2, -3, -1)]


def ext_blocks(g, window):
    """The window's classes under nonzero Ext^1 between induced modules,
    ordered as blocks() orders them."""
    window = [qq(w) for w in window]
    parent = list(range(len(window)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, mu in enumerate(window):
        ke = KacExtensions(kac_module(g, mu))
        for j, lam in enumerate(window):
            if i != j and ke.ext_dimension(lam):
                parent[find(i)] = find(j)
    comps = {}
    for i, w in enumerate(window):
        comps.setdefault(find(i), []).append(w)
    return sorted((sorted(ws, reverse=True) for ws in comps.values()),
                  key=lambda ws: ws[0], reverse=True)


def test_blocks_agree_with_extension_linkage():
    g = gl11()
    W = window_from_box(g, -1, 1, support_closure=False)
    assert blocks(g, W) == ext_blocks(g, W)


def test_blocks_refine_under_shrinking():
    g = gl11()
    big = blocks(g, window_from_box(g, -2, 2, support_closure=False))
    small = blocks(g, window_from_box(g, -1, 1, support_closure=False))
    for piece in small:
        assert any(set(piece) <= set(whole) for whole in big)


def test_blocks_gl21_chain():
    g = gl21c()
    W = window_from_box(g, -1, 1, support_closure=False)
    B = blocks(g, W)
    big = max(B, key=len)
    assert [tuple(int(c) for c in w) for w in big] == [
        (1, 1, -1),
        (1, 0, 0),
        (1, -1, 1),
    ]


# -- serialization ---------------------------------------------------------


def test_matrix_tsv_format():
    g = gl11()
    D = decomposition_matrix(g, [(0, 0), (-1, 1)])
    text = matrix_to_tsv(g, D.weights, D.weights, D.entries)
    assert text == "\t(0|0)\t(-1|1)\n(0|0)\t1\t1\n(-1|1)\t0\t1\n"


def test_matrix_json_dict():
    g = gl11()
    D = decomposition_matrix(g, [(0, 0), (-1, 1)])
    doc = matrix_to_json_dict(g, D.weights, D.weights, D.entries)
    assert doc == {
        "rows": ["(0|0)", "(-1|1)"],
        "cols": ["(0|0)", "(-1|1)"],
        "entries": [[1, 1], [0, 1]],
    }


def test_decomposition_matrix_gl31_is_unitriangular():
    g = install_grading(build_gl(3, 1), "compatible")
    W = window_from_box(g, 0, 1)
    D = decomposition_matrix(g, W)
    k = len(D.weights)
    assert k > 1
    for i in range(k):
        assert D.entries[i][i] == 1
        for j in range(i):
            assert D.entries[i][j] == 0
    # Kac multiplicities of gl(m|n) are 0 or 1, and this window has some
    # off the diagonal
    assert {e for row in D.entries for e in row} == {0, 1}
    assert sum(map(sum, D.entries)) > k
