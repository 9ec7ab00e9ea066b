"""Tests for extensions, flags, projective covers and tilting modules.

Extension dimensions are pinned by two fully independent routes: the
cochain complex of the odd raising part, which also hands the tilting sweep
its glueing blocks (from a g0-highest-weight cocycle), and a direct linear
solve for an upper-triangular glueing block (``full_basis``), itself
checked against ``oracle_ext1``.  Everything else leans on those numbers.
"""

import json
from collections import Counter
from pathlib import Path

import pytest

from supero import structure
from supero.algebra import build_gl, build_q, install_grading
from supero.characters import window_from_box
from supero.cli import main as cli_main
from supero.config import DEFAULT_LIMITS
from supero.errors import GradingError, ResourceLimitError
from supero.forms import _peel_factors, clifford_module, kac_module, simple_module
from supero.homs import end_ring, hom_dims, is_isomorphic
from supero.linalg import Echelon, SparseMatrix
from supero.modules import (
    ExplicitModule, assert_valid_module, copy_module, parity_flip, tau_dual, validate_module,
)
from supero.rational import QQ
from supero.structure import (
    KacExtensions,
    ext1_with_representative,
    glue_extension,
    projective_cover,
    projective_cover_h,
    tilting_module,
    verify_kac_dual,
    verify_projective_dual,
)
from supero.weights import dominant_weights_in_box, wscale

from full_basis import (
    block_vector,
    cartan_cover_by_splitting,
    cochain_matrices,
    delta_flag,
    ext1_by_direct_solve,
    ext_dimension_by_raisings,
    glue_cochains,
    induced_projective,
    projective_cover_by_splitting,
)
from helpers import module_json, without_orbit_twist


GOLDEN = Path(__file__).parent / "golden"


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


def wadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


# -- the cochain complex ----------------------------------------------------


def test_d_squared_zero_gl21():
    g = gl21c()
    K = kac_module(g, (1, 0, 0))
    # the constructor asserts d^2 = 0; also check the matrix product here
    d0, d1 = cochain_matrices(KacExtensions(K))
    assert not (d1 @ d0).data


def test_cochain_unknowns_guard():
    """gl(2|1) has two odd raisings, so K(1,0|0) (dim 8) has 16 C^1
    unknowns; the largest (weight, parity) block holds 3 of them, and
    allowing one fewer raises and names the block and the knob."""
    from supero.config import Limits

    K = kac_module(gl21c(), (1, 0, 0))
    ke = KacExtensions(K, limits=Limits(max_hom_vars=3))
    assert len(ke.c1_basis) == 16
    assert max(len(cols) for cols in ke.blocks.values()) == 3
    with pytest.raises(ResourceLimitError) as err:
        KacExtensions(K, limits=Limits(max_hom_vars=2))
    message = str(err.value)
    assert "3 C^1 unknowns at weight (-1,0|2) parity 0" in message
    assert "module dim 8" in message and "max_hom_vars is 2" in message


def test_glue_unknowns_guard():
    """The glueing map out of L0(1|-1) (dimension 1) has one unknown per
    C^1 column at (1|-1); none allowed raises."""
    from supero.config import Limits

    ke = KacExtensions(kac_module(gl11(), (2, -2)))
    assert ext1_with_representative(ke, (1, -1), 1, limits=Limits(max_hom_vars=1))[0] == 1
    with pytest.raises(ResourceLimitError, match="1 glueing cochain unknowns exceed limit 0"):
        ext1_with_representative(ke, (1, -1), 1, limits=Limits(max_hom_vars=0))


def h1_dimension_at(ke, w, p):
    """dim of the (weight w, cochain parity p) piece of H^1 of the
    cochain complex ``ke``: cocycles modulo coboundaries there."""
    return ke.h1_dimension(tuple(QQ(c) for c in w), p)


def h1_dimension(ke):
    return sum(h1_dimension_at(ke, w, p) for (w, p) in ke.blocks)


def test_h1_vanishes_for_typical_coefficients():
    g = gl11()
    K = kac_module(g, (2, -1))
    assert h1_dimension(KacExtensions(K)) == 0


def test_h1_of_atypical_kac_sits_at_two_weights():
    g = gl11()
    lam = (QQ(2), QQ(-2))
    ke = KacExtensions(kac_module(g, lam))
    assert h1_dimension(ke) == 2
    # one class one odd step below lam, one two steps below; the first is
    # a parity-1 class, the second parity 0
    assert h1_dimension_at(ke, wsub(lam, ALPHA), 1) == 1
    assert h1_dimension_at(ke, wsub(lam, ALPHA), 0) == 0
    two = wsub(lam, (QQ(2), QQ(-2)))
    assert h1_dimension_at(ke, two, 0) == 1
    assert h1_dimension_at(ke, two, 1) == 0


# -- Weyl's character formula against the highest-weight-vector system ------


def assert_ext_matches_raisings(module):
    """ext_dimension against the raising-system oracle at every C^1
    weight of the module's complex, dominant or not, in both parities."""
    ke = KacExtensions(module)
    for w in {w for w, _ in ke.blocks}:
        for p in (0, 1):
            assert ke.ext_dimension(w, p) == ext_dimension_by_raisings(
                ke, w, p
            ), (module.g.weight_str(w), p)


def kac_and_twisted_dual(g, lam):
    K = kac_module(g, lam)
    return [K, tau_dual(K)]


@pytest.mark.parametrize(
    "m,n,lo,hi", [(1, 1, -3, 3), (2, 1, -2, 2), (1, 2, -2, 2)]
)
def test_ext_dimension_matches_raisings_on_kac_boxes(m, n, lo, hi):
    g = install_grading(build_gl(m, n), "compatible")
    for lam in dominant_weights_in_box(m, n, lo, hi):
        for M in kac_and_twisted_dual(g, lam):
            assert_ext_matches_raisings(M)


def test_ext_dimension_matches_raisings_on_gl21_tilting_modules():
    g = gl21c()
    for lam in dominant_weights_in_box(2, 1, -1, 1):
        assert_ext_matches_raisings(tilting_module(g, lam))


@pytest.mark.parametrize(
    "m,n,lam",
    [
        # S_2 x S_2: a reflection on each side and their product
        (2, 2, (0, 0, 0, 0)),
        (2, 2, (1, 0, 0, -1)),
        (2, 2, (1, 1, -1, -1)),
        # S_3: six terms, two of them 3-cycles
        (3, 1, (0, 0, 0, 0)),
        (3, 1, (1, 0, 0, -1)),
        (3, 1, (1, 1, 0, -2)),
    ],
)
def test_ext_dimension_matches_raisings_on_larger_kac(m, n, lam):
    g = install_grading(build_gl(m, n), "compatible")
    for M in kac_and_twisted_dual(g, lam):
        assert_ext_matches_raisings(M)


def test_negative_alternating_sum_is_an_error():
    g = gl21c()
    lam = (QQ(0), QQ(0), QQ(0))
    ke = KacExtensions(kac_module(g, lam))
    # a weight space of H^1 smaller than the one above it along the even
    # simple root cannot come from a g0-module
    ke.h1_dimension = lambda w, p: 1 if w == lam else 2
    with pytest.raises(AssertionError, match="negative multiplicity"):
        ke.ext_dimension(lam, 0)


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
    assert KacExtensions(K).ext_dimension(mu, p) == expected
    top = kac_module(g, mu)
    if p:
        top = parity_flip(top)
    for dim, block in [
        ext1_by_direct_solve(K, top),
        ext1_with_representative(KacExtensions(K), mu, p),
    ]:
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
            d2, _ = ext1_by_direct_solve(K, top)
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
        ke = KacExtensions(tau_dual(kac_module(g, lam)))
        for mu in [(0, 0), (1, -1), (2, -2), (2, -1), (-1, 1)]:
            assert ke.ext_dimension(mu) == 0


def test_glued_extension_is_a_valid_indecomposable():
    g = gl11()
    K = kac_module(g, (2, -2))
    top = parity_flip(kac_module(g, (1, -1)))
    dim, block = ext1_with_representative(KacExtensions(K), (1, -1), 1)
    assert dim == 1
    E = glue_extension(K, top, block)
    assert E.dim == 4
    report = validate_module(E)
    assert report["passed"]
    assert end_ring(E)["local"]


# -- differential test of the glueing equations -----------------------------


def oracle_ext1(bottom, top):
    """Reference (dim, block) for full_basis.ext1_by_direct_solve.

    Assembles one equation per (a, b, i, j) over all basis pairs of
    bottom and top, with no weight bookkeeping: slow, but each row is
    read straight off the bracket identity.  The direct route visits only
    the (i, j) whose weights can carry a nonzero row, and must agree with
    this row for row.
    """
    g = bottom.g
    vars_ = [
        (x, i, j)
        for x in range(g.dim)
        if x not in g.t_coord
        for i in range(bottom.dim)
        for j in range(top.dim)
        if bottom.parities[i] == (top.parities[j] + g.parity(x)) % 2
        and bottom.weights[i] == wadd(top.weights[j], g.weight_of(x))
    ]
    vindex = {v: k for k, v in enumerate(vars_)}
    brow = [bottom.action[x].rows() for x in range(g.dim)]
    bcol = [bottom.action[x].cols() for x in range(g.dim)]
    tcol = [top.action[x].cols() for x in range(g.dim)]
    trow = [top.action[x].rows() for x in range(g.dim)]

    def add_block(eqs, key, coeff):
        if coeff != 0 and key in vindex:
            eqs[vindex[key]] = eqs.get(vindex[key], 0) + coeff

    rows = []
    for a in range(g.dim):
        pa = g.parity(a)
        for b in range(a, g.dim):
            pb = g.parity(b)
            if a == b and pa == 0:
                continue
            sign = -1 if (pa and pb) else 1
            half = a == b
            scale = QQ(1, 2) if half else 1
            for i in range(bottom.dim):
                for j in range(top.dim):
                    eqs = {}
                    for k, v in brow[a][i].items():
                        add_block(eqs, (b, k, j), v)
                    for k, v in tcol[b][j].items():
                        add_block(eqs, (a, i, k), v)
                    if not half:
                        for k, v in brow[b][i].items():
                            add_block(eqs, (a, k, j), -sign * v)
                        for k, v in tcol[a][j].items():
                            add_block(eqs, (b, i, k), -sign * v)
                    for x, coeff in g.bracket(a, b).items():
                        add_block(eqs, (x, i, j), -scale * coeff)
                    eqs = {k: v for k, v in eqs.items() if v != 0}
                    if eqs:
                        rows.append(eqs)
    ent = {(r, c): v for r, row in enumerate(rows) for c, v in row.items()}
    cocycles = SparseMatrix(len(rows), len(vars_), ent).kernel_basis()
    seen = Echelon()
    for i in range(bottom.dim):
        for j in range(top.dim):
            if bottom.parities[i] != top.parities[j]:
                continue
            if bottom.weights[i] != top.weights[j]:
                continue
            blk = {}
            for x in range(g.dim):
                for k, v in bcol[x][i].items():
                    add_block(blk, (x, k, j), v)
                for k, v in trow[x][j].items():
                    add_block(blk, (x, i, k), -v)
            blk = {k: v for k, v in blk.items() if v != 0}
            if blk:
                seen.add(blk)
    dim, witness = 0, None
    for z in cocycles:
        if seen.add(dict(z)) is not None:
            dim += 1
            if witness is None:
                witness = z
    if witness is None:
        return 0, None
    block = {}
    for k, v in witness.items():
        x, i, j = vars_[k]
        block.setdefault(x, {})[(i, j)] = v
    return dim, block


def kac_top(g, mu, p):
    top = kac_module(g, mu)
    return parity_flip(top) if p else top


def glue_pairs(monkeypatch, g, weights):
    """(bottom, top, d, block) for every glue tilting_module makes when
    each weight is swept itself, not twisted from its orbit
    representative: the cochain complex's coefficient module, the Kac
    module (or its parity flip) glued on top, and what the production
    route returned."""
    without_orbit_twist(monkeypatch)
    pairs = []
    real = structure.ext1_with_representative

    def recording(ke, mu, p, limits):
        d, block = real(ke, mu, p, limits=limits)
        if d:
            pairs.append((ke.M, kac_top(g, mu, p), d, block))
        return d, block

    monkeypatch.setattr(structure, "ext1_with_representative", recording)
    for lam in weights:
        tilting_module(g, lam)
    monkeypatch.undo()
    return pairs


def assert_cocycle_glue_matches_direct_route(bottom, top, d, block):
    """The direct route's dimension is the cochain dimension; the
    production block solves the direct system, its class is nonzero
    modulo the coboundaries and, for dimension 1, the block lies in
    span(direct witness) + coboundaries."""
    variables, cocycles, coboundaries = glue_cochains(bottom, top)
    dim, witness = ext1_by_direct_solve(bottom, top)
    assert dim == d
    vec = block_vector(variables, block)
    assert Echelon(cocycles).contains(vec)
    classes = Echelon(coboundaries)
    assert not classes.contains(vec)
    if d == 1:
        classes.add(block_vector(variables, witness))
        assert classes.contains(vec)


def box(m, n, lo, hi):
    return list(dominant_weights_in_box(m, n, lo, hi))


def test_glue_equations_match_oracle_on_gl11_tilting_sweep(monkeypatch):
    g = gl11()
    pairs = glue_pairs(monkeypatch, g, box(1, 1, -2, 2))
    assert len(pairs) == 5  # one glue at each atypical weight, a + b = 0
    for bottom, top, d, block in pairs:
        assert d == 1
        assert_cocycle_glue_matches_direct_route(bottom, top, d, block)
        assert ext1_by_direct_solve(bottom, top) == oracle_ext1(bottom, top)


def test_glue_equations_match_oracle_on_gl21_atypical(monkeypatch):
    g = gl21c()
    pairs = glue_pairs(monkeypatch, g, [(1, 0, 0), (0, 0, -1)])
    # one glue each: the parity flip of K(1,-1|1) on K(1,0|0), and
    # K(-1,-1|1) on K(0,0|-1)
    assert [(b.dim, t.dim, t.parities[0]) for b, t, _, _ in pairs] == [
        (8, 12, 1),
        (4, 4, 0),
    ]
    for bottom, top, d, block in pairs:
        assert_cocycle_glue_matches_direct_route(bottom, top, d, block)
        assert ext1_by_direct_solve(bottom, top) == oracle_ext1(bottom, top)


def test_cocycle_glues_match_direct_route_on_gl21_box(monkeypatch):
    pairs = glue_pairs(monkeypatch, gl21c(), box(2, 1, -2, 2))
    assert len(pairs) == 25
    for bottom, top, d, block in pairs:
        assert_cocycle_glue_matches_direct_route(bottom, top, d, block)


@pytest.mark.parametrize(
    "algebra,lam,mu,p",
    [
        (gl11, (2, -1), (1, -1), 0),  # typical bottom
        (gl11, (2, -2), (1, -1), 0),  # wrong parity on top
        (gl11, (0, 0), (1, -1), 1),  # top weight above the bottom
        (gl21c, (0, 0, 0), (1, 0, -1), 0),
        (gl21c, (0, 0, 0), (0, -1, 1), 0),
        (gl21c, (0, 0, 0), (-1, -1, 2), 1),
    ],
)
def test_glue_equations_match_oracle_without_extensions(algebra, lam, mu, p):
    g = algebra()
    bottom = kac_module(g, lam)
    top = kac_top(g, mu, p)
    assert ext1_by_direct_solve(bottom, top) == (0, None)
    assert oracle_ext1(bottom, top) == (0, None)
    assert ext1_with_representative(KacExtensions(bottom), mu, p) == (0, None)


# -- flags ------------------------------------------------------------------


def test_kac_module_flag_is_itself():
    g = gl11()
    K = kac_module(g, (3, -1))
    assert delta_flag(K) == ((QQ(3), QQ(-1)),)


def test_simple_module_has_no_flag():
    g = gl11()
    L = simple_module(g, (0, 0))
    assert L.dim == 1
    with pytest.raises(ValueError, match="no induced filtration"):
        delta_flag(L)


def test_flag_multiplicities_of_projective():
    g = gl11()
    P = projective_cover(g, (0, 0))
    assert Counter(delta_flag(P)) == {
        (QQ(0), QQ(0)): 1,
        (QQ(1), QQ(-1)): 1,
    }


# -- projective covers ------------------------------------------------------


def test_projective_cover_atypical_gl11():
    g = gl11()
    P = projective_cover(g, (0, 0))
    assert P.dim == 4
    assert len(P.meta["flag_bottom_up"]) == 2
    assert projective_cover_by_splitting(g, (0, 0)).meta["cosocle_hom"] == (1, 0)


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
        flag = [mu for mu, _ in P.meta["flag_bottom_up"]]
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
    mults = Counter(delta_flag(P))
    assert mults[(QQ(0), QQ(0), QQ(0))] == 1
    assert mults == Counter(mu for mu, _ in P.meta["flag_bottom_up"])
    assert all(v > 0 for v in mults.values())


# The splitting oracle's Fitting search raises ResourceLimitError on this
# typical weight after about a minute: a split M_2(Q) corner whose basis
# elements and pairwise sums all have irreducible minimal polynomials.
ORACLE_GIVES_NO_VERDICT = {(1, 0, 2, 0)}


@pytest.mark.parametrize("mn,lo,hi", [((1, 1), -3, 3), ((2, 1), -1, 1), ((3, 1), 0, 1), ((2, 2), 0, 1)])
def test_projective_cover_matches_the_splitting_oracle(mn, lo, hi):
    """P(lam) as Pi^p U(nu(lam)) against the Fitting summand of the
    induction from g0 that maps onto L(lam), at every orbit representative
    (lam_m = 0) of the support-closed window: an even isomorphism, and the
    recorded flag is the one a character peel finds, with K(lam) even."""
    m, n = mn
    g = install_grading(build_gl(m, n), "compatible")
    reps = [
        lam for lam in window_from_box(g, lo, hi)
        if lam[m - 1] == 0 and lam not in ORACLE_GIVES_NO_VERDICT
    ]
    assert reps
    for lam in reps:
        P = projective_cover(g, lam)
        Q = projective_cover_by_splitting(g, lam)
        r = is_isomorphic(P, Q)
        assert r["isomorphic"] and r["parity"] == 0
        flag = P.meta["flag_bottom_up"]
        assert sorted((mu for mu, _ in flag), reverse=True) == list(delta_flag(P))
        assert delta_flag(P) == Q.meta["peeled_flag"]
        assert (lam, 0) in flag


def test_projective_cover_typical_gl22_is_kac():
    """The oracle's wall: for typical lam, P(lam) = K(lam) (Kac, LNM 676)."""
    g = install_grading(build_gl(2, 2), "compatible")
    lam = (1, 0, 2, 0)
    P, K = projective_cover(g, lam), kac_module(g, lam)
    assert P.meta["flag_bottom_up"] == (((1, 0, 2, 0), 0),)
    assert P.dim == K.dim
    assert all(P.action[x] == K.action[x] for x in range(g.dim))


def test_projective_cover_gl22_atypical_wall():
    g = install_grading(build_gl(2, 2), "compatible")
    P = projective_cover(g, (1, 0, 2, -1))
    assert P.dim == 368
    assert [mu for mu, _ in P.meta["flag_bottom_up"]].count((1, 0, 2, -1)) == 1


def test_typical_projective_cover_glues_nothing(monkeypatch):
    g = gl21c()
    lam = (1, 0, -1)
    glued = []
    monkeypatch.setattr(structure, "glue_extension", lambda *a, **k: glued.append(a))
    P, K = projective_cover(g, lam), kac_module(g, lam)
    assert glued == [] and P.meta["flag_bottom_up"] == ((lam, 0),)
    assert P.weights == K.weights and P.parities == K.parities
    assert all(P.action[x] == K.action[x] for x in range(g.dim))


def test_projective_cover_refuses_a_kac_module_that_is_not_projective(monkeypatch):
    """Handed the atypical K(0|0) for U(nu), with a flag that passes (c),
    the projectivity certificate (b) finds Ext^1(K(0|0), K(1|-1)) != 0."""
    g = gl11()
    K = kac_module(g, (0, 0))
    fake = copy_module(K, meta={
        "flag_bottom_up": ((K.highest_weight, 0),), "end_even_dim": 1, "end_radical_dim": 0,
    })
    monkeypatch.setattr(structure, "tilting_module", lambda g, nu, limits: fake)
    with pytest.raises(AssertionError, match="is not projective"):
        projective_cover(g, (0, 0))


def test_projective_cover_refuses_a_tilting_module_above_its_weight(monkeypatch):
    """With nu forced to lam at an atypical lam, U(lam) has K(lam) on the
    bottom and lower factors above it, so (c) fails."""
    g = gl11()
    monkeypatch.setattr(structure, "_cover_top", lambda g, lam, limits: lam)
    with pytest.raises(AssertionError, match="unique minimal factor"):
        projective_cover(g, (0, 0))


# -- tilting ----------------------------------------------------------------


def test_tilting_typical_is_kac():
    g = gl11()
    U = tilting_module(g, (2, -1))
    assert U.dim == 2
    assert U.meta["flag_bottom_up"] == (((QQ(2), QQ(-1)), 0),)


def test_tilting_atypical_gl11():
    g = gl11()
    U = tilting_module(g, (0, 0))
    assert U.dim == 4
    # K(0,0) at the bottom, the parity flip of K(-1,1) glued on top
    assert U.meta["flag_bottom_up"] == (
        ((QQ(0), QQ(0)), 0),
        ((QQ(-1), QQ(1)), 1),
    )
    assert U.meta["end_even_dim"] - U.meta["end_radical_dim"] == 1


def count_complexes(monkeypatch):
    """The module dimension of every cochain complex the sweep makes, as
    ("build", dim) for a construction and ("glue", dim) for a glue that
    grows it to the glued module."""
    events = []
    real = structure.KacExtensions
    real_glue = real.glue

    def counting(module, limits):
        events.append(("build", module.dim))
        return real(module, limits=limits)

    def glueing(ke, top, block):
        E = real_glue(ke, top, block)
        events.append(("glue", E.dim))
        return E

    monkeypatch.setattr(structure, "KacExtensions", counting)
    monkeypatch.setattr(real, "glue", glueing)
    return events


@pytest.mark.parametrize(
    "algebra,lam",
    [(gl11, (0, 0)), (gl21c, (1, 0, 0))],
)
def test_tilting_builds_one_complex_per_glued_module(monkeypatch, algebra, lam):
    events = count_complexes(monkeypatch)
    U = tilting_module(algebra(), lam)
    flag = U.meta["flag_bottom_up"]
    assert len(flag) == 2
    # the complex of K(lam) is built once and grown by each glue; the
    # last one also answers the certification sweep
    assert [kind for kind, _ in events] == ["build"] + ["glue"] * (len(flag) - 1)
    assert events[-1][1] == U.dim


def cochains_by_key(ke):
    """The complex of ``ke`` with every column and row named by what it
    is: d0 per basis vector as {(x, j): entry}, d1 per cochain (x, i) as
    {((y, z), j): entry}, and each block as its list of (x, i)."""
    c1, npairs = ke.c1_basis, len(ke.pairs)
    d0 = [{c1[r]: v for r, v in col.items()} for col in ke.d0_cols]
    d1 = {
        c1[k]: {(ke.pairs[r % npairs], r // npairs): v for r, v in col.items()}
        for k, col in enumerate(ke.d1_cols)
    }
    blocks = {key: [c1[k] for k in cols] for key, cols in ke.blocks.items()}
    return d0, d1, blocks


# (algebra, box, sweep every weight instead of one per character orbit)
KDT_BOXES = [
    (algebra, box, every)
    for algebra, box in (("gl:1,1", "--box=-3..3"), ("gl:2,1", "--box=-2..2"))
    for every in (False, True)
]


def run_kdt(monkeypatch, tmp_path, algebra, box, every):
    if every:
        without_orbit_twist(monkeypatch)
    code = cli_main(["verify", "--algebra", algebra, box, "--which", "kdt",
                     "--out", str(tmp_path / "kdt.json")])
    assert code == 0


@pytest.mark.parametrize("algebra,box,every", KDT_BOXES)
def test_every_glue_of_the_kdt_sweeps_passes_full_validation(
    monkeypatch, tmp_path, algebra, box, every,
):
    """``glue_extension`` checks the glue block alone; every module it
    returns on these sweeps, and every Kac top glued on, passes the full
    bracket-relation check as well."""
    real = structure.glue_extension
    glued = []

    def validated(bottom, top, block):
        E = real(bottom, top, block)
        assert_valid_module(top)
        assert_valid_module(E)
        glued.append(E.dim)
        return E

    monkeypatch.setattr(structure, "glue_extension", validated)
    run_kdt(monkeypatch, tmp_path, algebra, box, every)
    assert glued


@pytest.mark.parametrize("algebra,box,every", KDT_BOXES)
def test_every_extended_complex_of_the_kdt_sweeps_equals_a_fresh_build(
    monkeypatch, tmp_path, algebra, box, every,
):
    """After each glue the grown complex has the columns, the block order
    and the H^1 dimensions of the complex built afresh from the glued
    module; a stale H^1 value would show here.  The fresh build checks
    d^2 = 0, which a glue does not, on every glued module of the sweeps."""
    real = structure.KacExtensions.glue
    glued = []

    def compared(ke, top, block):
        module = real(ke, top, block)
        fresh = structure.KacExtensions(module, limits=ke.limits)
        assert cochains_by_key(ke) == cochains_by_key(fresh)
        for w, p in fresh.blocks:
            assert ke.h1_dimension(w, p) == fresh.h1_dimension(w, p)
        glued.append(module.dim)
        return module

    monkeypatch.setattr(structure.KacExtensions, "glue", compared)
    run_kdt(monkeypatch, tmp_path, algebra, box, every)
    assert glued


def test_a_fresh_complex_checks_d_squared():
    """K(2,-2) of gl(1|1) plus a bogus three-dimensional summand on which
    the odd raising x squares to nonzero: d1 d0 = x.x fails on the
    summand's columns of the fresh build."""
    g = gl11()
    K = kac_module(g, (2, -2))
    x = g.id_of("e(-1,1)")
    top = [wadd((5, -5), wscale(g.weight_of(x), k)) for k in range(3)]
    weights, parities = list(K.weights) + top, list(K.parities) + [0, 1, 0]
    n, nb = len(weights), K.dim
    action = {}
    for y in range(g.dim):
        data = dict(K.action[y].data)
        if y in g.t_coord:
            data.update({(i, i): weights[i][g.t_coord[y]] for i in range(nb, n)})
        elif y == x:
            data.update({(nb + 1, nb): 1, (nb + 2, nb + 1): 1})
        action[y] = SparseMatrix(n, n, data)
    E = ExplicitModule(g, weights, parities, action)
    with pytest.raises(AssertionError, match="d\\^2 != 0"):
        KacExtensions(E)


def tilting_golden_json(g, weights):
    out = {}
    for lam in weights:
        U = tilting_module(g, lam)
        out[g.weight_str(U.meta["flag_bottom_up"][0][0])] = {
            "flag_bottom_up": [
                [g.weight_str(w), p] for w, p in U.meta["flag_bottom_up"]
            ],
            "module": module_json(U),
        }
    return json.dumps(out, sort_keys=True, indent=2) + "\n"


def glue_by_direct_solve(monkeypatch):
    """Make tilting_module glue the direct route's witness blocks."""

    def direct(ke, mu, p, limits):
        d, block = ext1_by_direct_solve(ke.M, kac_top(ke.g, mu, p), limits)
        assert d == ke.ext_dimension(mu, p)
        return d, block

    monkeypatch.setattr(structure, "ext1_with_representative", direct)


def test_glued_tilting_modules_match_golden(monkeypatch):
    # weights, parities, labels and every action entry, glue blocks
    # included, of two gl(2|1) tilting modules with one glue each, glued
    # along the direct route's witnesses
    glue_by_direct_solve(monkeypatch)
    text = tilting_golden_json(gl21c(), [(1, 0, 0), (0, 0, -1)])
    assert text == (GOLDEN / "gl21_tilting.json").read_text()


def test_cocycle_tilting_modules_match_golden():
    # the same two modules as built in production: the glue blocks come
    # from highest-weight cocycles and vanish off the odd raisings
    g = gl21c()
    text = tilting_golden_json(g, [(1, 0, 0), (0, 0, -1)])
    assert text == (GOLDEN / "gl21_tilting_cocycle.json").read_text()


@pytest.mark.parametrize(
    "algebra,weights",
    [(gl11, box(1, 1, -2, 2)), (gl21c, box(2, 1, -1, 1))],
)
def test_cocycle_and_direct_glues_give_isomorphic_tilting_modules(
    monkeypatch, algebra, weights
):
    g = algebra()
    produced = [tilting_module(g, lam) for lam in weights]
    glue_by_direct_solve(monkeypatch)
    for lam, U in zip(weights, produced):
        V = tilting_module(g, lam)
        assert V.meta["flag_bottom_up"] == U.meta["flag_bottom_up"]
        result = is_isomorphic(U, V)
        assert result["isomorphic"] and result["certified"], lam


def test_tilting_glue_must_drop_ext_by_one(monkeypatch):
    # a zero block glues the split extension T + K(mu), which leaves
    # Ext^1(K(mu), -) where it was
    real = structure.ext1_with_representative

    def split(ke, mu, p, limits):
        d, block = real(ke, mu, p, limits=limits)
        return d, ({} if d else None)

    monkeypatch.setattr(structure, "ext1_with_representative", split)
    with pytest.raises(AssertionError, match=r"\(-1\|1\) parity 1 went from 1 to 1"):
        tilting_module(gl11(), (0, 0))


def test_tilting_needs_compatible_grading():
    g = install_grading(build_gl(1, 1), "principal")
    with pytest.raises(GradingError):
        tilting_module(g, (0, 0))


def test_tilting_certificate_ignores_the_block_filter(monkeypatch):
    # link no weight to lam: the sweep glues nothing, and the certificate,
    # which checks every dominant weight, must catch the surviving Ext^1
    monkeypatch.setattr(structure, "_central_core", lambda m, n, w: tuple(w))
    with pytest.raises(AssertionError, match="extensions survive the sweep"):
        tilting_module(gl11(), (0, 0))


def test_tilting_budget_exhaustion():
    from supero.config import Limits

    g = gl11()
    with pytest.raises(ResourceLimitError, match=(
        r"tilting sweep of U\(0\|0\) exceeded its iteration budget at "
        r"K\(-1\|1\) parity 1; iteration_budget is 1$"
    )):
        tilting_module(g, (-2, 2), limits=Limits(iteration_budget=1))


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
    r = verify_projective_dual(g, (0, 0))
    assert r["characters_equal"]
    assert r["isomorphic"] and r["certified"]
    assert r["parity"] == 1
    assert r["projective_weight"] == (QQ(1), QQ(-1))


def test_projective_dual_is_tilting_typical():
    g = gl11()
    r = verify_projective_dual(g, (2, -1))
    assert r["isomorphic"] and r["certified"]


def test_gl22_projective_cover_of_zero_obeys_bgg_reciprocity():
    """P(0) of gl(2|2) (dim 160): its Kac flag is (P : K(mu)) = [K(mu) : L(0)].

    P(0) is a summand of Ind_{g0}^g V(0), so every mu in its flag is in
    the flag of the induced module; the prediction is read there."""
    g = install_grading(build_gl(2, 2), "compatible")
    zero = (QQ(0),) * 4
    P = projective_cover(g, zero)
    assert P.dim == 160
    predicted = {}
    for mu in set(delta_flag(induced_projective(g, zero))):
        mult = _peel_factors(g, mu, DEFAULT_LIMITS).get(zero, 0)
        if mult:
            predicted[mu] = mult
    assert Counter(delta_flag(P)) == predicted
    assert sorted(predicted) == [
        (0, 0, 0, 0), (1, 0, 0, -1), (2, 1, -1, -2), (2, 2, -2, -2),
    ]
    assert end_ring(P)["local"]


# -- q-type Cartan covers ---------------------------------------------------


def test_q1_cover_of_trivial_weight():
    h = q_cartan(1)
    u = clifford_module(h, (0,))
    P = projective_cover_h(h, u)
    assert P.dim == 2
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
    assert end_ring(P)["local"]
    assert hom_dims(P, u) == (1, 0)


@pytest.mark.parametrize("lam", [
    (0,), (1,),
    (1, -1), (1, 0), (0, 0), (1, -4),
    (1, -1, 2), (1, 0, 0), (0, 0, 0), (1, -1, 0),
    (1, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0), (1, -1, 2, -2), (1, -1, 2, 0),
])
def test_q_cover_matches_the_fitting_route(lam):
    """One induction against the Fitting summand of Ind_{h0} u(lam) that
    maps onto u(lam): isomorphic, with parity 0."""
    h = q_cartan(len(lam))
    u = clifford_module(h, lam)
    P = projective_cover_h(h, u)
    r = is_isomorphic(P, cartan_cover_by_splitting(h, u))
    assert r["isomorphic"] and r["parity"] == 0
