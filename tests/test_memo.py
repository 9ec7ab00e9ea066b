"""Memoised builders hand out immutable modules, and a result does not
depend on which builders ran before it in the same algebra."""

import copy

import pytest

from supero import forms, homs
from supero.algebra import build_gl, install_grading, principal_dvector, w0_action
from supero.characters import window_from_box
from supero.forms import (
    even_levi,
    kac_module,
    simple_even_module,
    simple_module,
    verma_module_truncated,
)
from supero.modules import (
    copy_module,
    induced_module,
    inflate_module,
    validate_module,
)
from supero.pbw import PbwAlgebra
from supero.rational import QQ
from supero.structure import projective_cover, tilting_module
from supero.weights import wdot, wsub

from full_basis import induced_projective


def gl21c():
    return install_grading(build_gl(2, 1), "compatible")


def qq(w):
    return tuple(QQ(c) for c in w)


GLUED = (1, 0, 0)  # U(1,0|0) has the parity flip of K(1,-1|1) glued on top
UNGLUED = (1, 0, -1)  # nothing glues: U(1,0|-1) = K(1,0|-1)

BUILDERS = {
    "simple_even_module": simple_even_module,
    "kac_module": kac_module,
    "simple_module": simple_module,
    "projective_cover": projective_cover,
    "tilting_module": tilting_module,
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_builders_return_modules_that_refuse_writes(name):
    M = BUILDERS[name](gl21c(), GLUED)
    for attr in ("g", "weights", "action", "labels", "highest_weight",
                 "truncated", "meta", "flag_record"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(M, attr, getattr(M, attr))
        with pytest.raises(AttributeError, match="immutable"):
            delattr(M, attr)
    with pytest.raises(TypeError):
        M.meta["kind"] = "changed"
    with pytest.raises(TypeError):
        M.action[0] = M.action[1]
    with pytest.raises(TypeError):
        del M.action[0]
    M.weight_spaces()  # the lazy cache may still be filled


def test_action_matrices_refuse_writes():
    g = gl21c()
    mat = next(m for m in kac_module(g, GLUED).action.values() if m.data)
    key = next(iter(mat.data))
    with pytest.raises(TypeError):
        mat.data[key] += 1
    with pytest.raises(TypeError):
        del mat.data[key]
    with pytest.raises(AttributeError, match="immutable"):
        mat.data = {}
    with pytest.raises(AttributeError, match="immutable"):
        mat.nrows = mat.nrows + 1
    with pytest.raises(AttributeError, match="immutable"):
        del mat.ncols
    assert validate_module(kac_module(g, GLUED))["passed"]


@pytest.mark.parametrize("name", ["projective_cover", "tilting_module"])
def test_flags_refuse_appends(name):
    M = BUILDERS[name](gl21c(), GLUED)
    flag = M.meta["flag_bottom_up"]
    with pytest.raises(AttributeError):
        flag.append(flag[0])
    assert BUILDERS[name](gl21c(), GLUED).meta["flag_bottom_up"] == flag


def test_memo_hands_out_one_module_per_key():
    g = gl21c()
    for build in BUILDERS.values():
        assert build(g, GLUED) is build(g, qq(GLUED))


def test_copy_module_shares_the_action_and_the_flag_record():
    K = kac_module(gl21c(), GLUED)
    assert K.flag_record is not None
    C = copy_module(K, highest_weight=None, meta={"kind": "copy"})
    assert C.flag_record is K.flag_record and C.highest_weight is None
    assert dict(C.meta) == {"kind": "copy"} and dict(K.meta)["kind"] == "kac"
    assert (C.weights, C.parities, C.labels, C.truncated) == (
        K.weights, K.parities, K.labels, K.truncated,
    )
    assert all(C.action[x] is K.action[x] for x in K.action)
    with pytest.raises(TypeError, match="flag_record"):
        copy_module(K, flag_record=K.flag_record)


def _fingerprint(M):
    return dict(M.meta), M.highest_weight, M.flag_record


@pytest.mark.parametrize("lam", [GLUED, UNGLUED])
def test_tilting_and_kac_do_not_depend_on_call_order(lam):
    def built(order):
        g = gl21c()
        return {name: _fingerprint(BUILDERS[name](g, lam)) for name in order}

    assert built(("tilting_module", "kac_module")) == built(
        ("kac_module", "tilting_module")
    )
    flags = built(("tilting_module",))["tilting_module"][0]["flag_bottom_up"]
    assert (len(flags) > 1) == (lam == GLUED)


def test_tilting_takes_the_adjunction_route_when_nothing_glues(monkeypatch):
    """Unglued, the ring is K(lam)'s by its one-block flag record."""
    real = homs._hom_by_record
    seen = []

    def spy(src, dst, s, record, limits):
        if record is src.flag_record:
            seen.append(src)
        return real(src, dst, s, record, limits)

    monkeypatch.setattr(homs, "_hom_by_record", spy)
    g = gl21c()
    U = tilting_module(g, UNGLUED)
    assert seen == [kac_module(g, UNGLUED)]
    assert U.flag_record is kac_module(g, UNGLUED).flag_record
    assert U.meta["flag_bottom_up"] == ((qq(UNGLUED), 0),)
    assert U.meta["end_even_dim"] - U.meta["end_radical_dim"] == 1


# ---------------------------------------------------------------------------
# the shared induction tables


def _levi_slice(g, lam):
    """The Levi Verma slice that ``simple_even_module`` cuts L0(lam) from
    (truncated at the degree of w0.lam)."""
    levi, _ = even_levi(g)
    depth = wdot(wsub(lam, w0_action(2, 1, lam)), principal_dvector(2, 1))
    return verma_module_truncated(levi, lam, depth)


def _kac_slice(g, lam):
    """K(lam) cut to the words of degree >= -1 (the empty word and the
    two odd lowerings): a truncated induction along the order and
    inducing ids of ``kac_module``."""
    b_ids = sorted(g.h_ids() + g.positive_ids())
    fiber = inflate_module(simple_even_module(g, lam), g.subalgebra(b_ids))
    return induced_module(
        g, b_ids, fiber, min_degree=-1, highest_weight=lam, kind="kac_slice",
    )


def _value(M):
    return (
        {x: dict(mat.data) for x, mat in M.action.items()},
        M.weights, M.parities, M.labels, M.highest_weight, M.truncated,
        dict(M.meta), M.flag_record,
    )


def _induced(g, lam):
    """K(lam), then a truncated slice along K's order, the Levi slice and
    Ind_{g0} V(lam)."""
    return {
        "kac_module": _value(kac_module(g, lam)),
        "kac_slice": _value(_kac_slice(g, lam)),
        "levi_slice": _value(_levi_slice(g, lam)),
        "induced_projective": _value(induced_projective(g, lam)),
    }


@pytest.mark.parametrize("lam", [GLUED, UNGLUED])
def test_induced_modules_do_not_depend_on_warm_tables(lam):
    """The same inductions on a fresh gl(2|1) and on one whose engines
    and split tables other weights of the box -1..1 have filled, a
    truncated slice first."""
    warm = gl21c()
    box = window_from_box(warm, -1, 1, support_closure=False)
    assert lam in box and len(box) > 2
    for mu in box:
        if mu != lam:
            _kac_slice(warm, mu)
            kac_module(warm, mu)
            induced_projective(warm, mu)
            _levi_slice(warm, mu)
    fresh = _induced(gl21c(), lam)
    assert fresh["kac_slice"][5] and not fresh["kac_module"][5]
    assert _induced(warm, lam) == fresh
    # the slice on engines no untruncated induction has touched
    assert _value(_kac_slice(gl21c(), lam)) == fresh["kac_slice"]


@pytest.mark.parametrize("name", [
    "simple_even_module", "kac_module", "kac_radical", "simple_module",
    "projective_cover", "tilting_module",
])
def test_a_twisted_weight_does_not_depend_on_its_representative_coming_first(name):
    """(2,1|0) is the twist of (1,0|0) by a character of the even part and
    of (1,0|1) by a character of g; on a fresh algebra, the twisted weight
    first and its representatives first give equal modules."""
    weights = [(2, 1, 0), (1, 0, 1), (1, 0, 0)]
    build = BUILDERS.get(name) or getattr(forms, name)

    def built(order):
        g = gl21c()
        out = {}
        for lam in order:
            value = build(g, lam)
            out[lam] = (
                (_value(value[0]), value[1]) if name == "kac_radical" else _value(value)
            )
        return out

    assert built(weights) == built(weights[::-1])


def _engines(g):
    """The PBW engines kept on g and on its Levi, each over its owner."""
    out = []
    for alg in (g, even_levi(g)[0]):
        engines = [v for k, v in alg.memo.items() if k[0] == "pbw"]
        assert engines and all(pbw.g is alg for pbw in engines)
        out += engines
    return out


def test_a_copy_with_its_own_table_never_reaches_the_original_tables():
    """A copy whose non-torus basis is rescaled, x -> (min(x, x^T) + 2)/3 x
    (the transpose map stays an antiautomorphism), with ``memo = {}``,
    builds its own Levi and engines and leaves the original's alone."""
    g = gl21c()
    K = kac_module(g, GLUED)
    before = dict(g.memo)
    tables = {id(e): dict(e._cache) for e in _engines(g)}
    r = [
        QQ(1) if x in g.t_coord else QQ(min(x, g.transpose[x]) + 2, 3)
        for x in range(g.dim)
    ]
    h = copy.copy(g)
    h.table = {
        (a, b): {k: r[a] * r[b] * c / r[k] for k, c in br.items()}
        for (a, b), br in g.table.items()
    }
    h.memo = {}
    Kh = kac_module(h, GLUED)
    assert validate_module(Kh)["passed"] and Kh.dim == K.dim
    assert any(Kh.action[x] != K.action[x] for x in range(g.dim))
    assert g.memo == before and kac_module(g, GLUED) is K
    assert {id(e): dict(e._cache) for e in _engines(g)} == tables
    assert not {id(e) for e in _engines(g)} & {id(e) for e in _engines(h)}
    assert not {id(v) for v in g.memo.values()} & {id(v) for v in h.memo.values()}
    assert even_levi(h)[0] is not even_levi(g)[0]


def test_one_engine_per_order_and_no_straightening_at_a_second_weight(monkeypatch):
    engines, words = [], []
    init, straighten = PbwAlgebra.__init__, PbwAlgebra.straighten_word

    def spy_init(self, g, order=None):
        init(self, g, order)
        engines.append((self.g, self.order))

    def spy_straighten(self, word):
        words.append(word)
        return straighten(self, word)

    monkeypatch.setattr(PbwAlgebra, "__init__", spy_init)
    monkeypatch.setattr(PbwAlgebra, "straighten_word", spy_straighten)
    g = gl21c()
    kac_module(g, GLUED)
    assert words and len(engines) == 2  # the Levi Verma order and Kac's
    words.clear()
    # UNGLUED has GLUED's Levi depth, so both inductions reuse every split
    kac_module(g, UNGLUED)
    assert words == []
    for lam in (GLUED, UNGLUED):
        projective_cover(g, lam)
        tilting_module(g, lam)
    # projective covers are tilting modules: no induction from g0 alone
    assert len(engines) == len(set(engines)) == 2
    assert {pbw.order for pbw in _engines(g)} == {order for _, order in engines}
