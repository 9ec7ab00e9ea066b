"""Memoised builders hand out immutable modules, and a result does not
depend on which builders ran before it in the same algebra."""

import pytest

from supero import homs
from supero.algebra import build_gl, install_grading
from supero.forms import kac_module, simple_even_module, simple_module
from supero.modules import copy_module, validate_module
from supero.rational import QQ
from supero.structure import projective_cover, tilting_module


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
    flag = M.meta["flag"]
    with pytest.raises(AttributeError):
        flag.append(flag[0])
    assert BUILDERS[name](gl21c(), GLUED).meta["flag"] == flag


def test_memo_hands_out_one_module_per_key():
    g = gl21c()
    for build in BUILDERS.values():
        if build is tilting_module:
            continue
        assert build(g, GLUED) is build(g, qq(GLUED))


def test_copy_module_shares_the_action_and_drops_the_induction_record():
    K = kac_module(gl21c(), GLUED)
    assert K.flag_record is not None
    C = copy_module(K, highest_weight=None, meta={"kind": "copy"})
    assert C.flag_record is None and C.highest_weight is None
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
    assert U.flag_record is None and U.meta["flag_bottom_up"] == ((qq(UNGLUED), 0),)
    assert U.meta["end_even_dim"] - U.meta["end_radical_dim"] == 1
