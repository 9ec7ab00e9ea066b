"""Twisting by a character: K(lam), its maximal submodule, L0(lam), L(lam),
the tilting module U(lam) and the projective cover P(lam) are built at
one weight per character orbit, and every other weight of the orbit is
that module twisted by the character, M (x) C_chi.

The twisted modules must equal a direct build, byte for byte: action
data in its insertion order, weights (with the types of their
coordinates), parities, labels, highest weight, meta and flag record.
The standard modules are assembled here from the public pieces; U(lam)
and P(lam) are swept at lam itself with the orbit twist switched off.
"""

import pytest

from full_basis import form_radical
from helpers import without_orbit_twist
from supero import forms, modules, structure
from supero.algebra import build_gl, install_grading, principal_dvector, w0_action
from supero.errors import DominanceError, GradingError
from supero.forms import (
    even_levi,
    kac_module,
    kac_radical,
    simple_even_module,
    simple_module,
    verma_module_truncated,
)
from supero.modules import copy_module, induced_module, inflate_module, quotient_module
from supero.weights import dominant_weights_in_box, wdot, weight, wsub

BOXES = [((1, 1), -3, 3), ((2, 1), -2, 2), ((3, 1), 0, 1), ((2, 2), -1, 1)]
SWEPT = [
    ("tilting_module", (1, 1), -3, 3),
    ("tilting_module", (2, 1), -2, 2),
    ("tilting_module", (2, 2), -1, 1),
    ("projective_cover", (1, 1), -3, 3),
    ("projective_cover", (2, 1), -1, 1),
    ("projective_cover", (3, 1), 0, 1),
]


def gl(m, n):
    return install_grading(build_gl(m, n), "compatible")


def module_bytes(M):
    return repr((
        M.g,
        [(x, M.action[x].nrows, list(M.action[x].data.items())) for x in M.action],
        M.weights,
        M.parities,
        M.labels,
        M.highest_weight,
        M.truncated,
        list(M.meta.items()),
        M.flag_record,
    ))


def direct_even(g, lam):
    m, n = g.params
    levi, _ = even_levi(g)
    depth = wdot(wsub(lam, w0_action(m, n, lam)), principal_dvector(m, n))
    slice_ = verma_module_truncated(levi, lam, depth)
    V, _ = quotient_module(slice_, form_radical(slice_), kind="simple_even")
    return copy_module(V, truncated=False)


def direct_kac(g, lam):
    V = direct_even(g, lam)
    b_ids = sorted(g.h_ids() + g.positive_ids())
    fiber = inflate_module(V, g.subalgebra(b_ids))
    return induced_module(
        g, b_ids, fiber, highest_weight=tuple(V.highest_weight), kind="kac",
    )


@pytest.mark.parametrize("params,lo,hi", BOXES, ids=lambda v: str(v))
def test_twisted_builders_equal_direct_builds(params, lo, hi):
    g = gl(*params)
    reps = 0
    for lam in dominant_weights_in_box(*params, lo, hi):
        lam = weight(lam)
        assert module_bytes(simple_even_module(g, lam)) == module_bytes(direct_even(g, lam))
        K = direct_kac(g, lam)
        rad = form_radical(K)
        got_K, got_rad = kac_radical(g, lam)
        assert got_K is kac_module(g, lam)
        assert module_bytes(got_K) == module_bytes(K)
        assert repr([list(v.items()) for v in got_rad]) == repr([list(v.items()) for v in rad])
        L = quotient_module(K, rad, kind="simple")[0]
        assert module_bytes(simple_module(g, lam)) == module_bytes(L)
        reps += lam[params[0] - 1] == 0
    assert 0 < reps < len(dominant_weights_in_box(*params, lo, hi))


def swept_directly(name, params, weights):
    """module_bytes of ``structure.<name>`` at each weight, each swept at
    the weight itself on a fresh algebra."""
    build = getattr(structure, name)
    with pytest.MonkeyPatch.context() as mp:
        without_orbit_twist(mp)
        h = gl(*params)
        return [module_bytes(build(h, lam)) for lam in weights]


@pytest.mark.parametrize("name,params,lo,hi", SWEPT, ids=lambda v: str(v))
def test_tilting_modules_and_projective_covers_equal_direct_sweeps(name, params, lo, hi):
    weights = [weight(lam) for lam in dominant_weights_in_box(*params, lo, hi)]
    reps = sum(lam[params[0] - 1] == 0 for lam in weights)
    assert 0 < reps < len(weights)
    g = gl(*params)
    got = [module_bytes(getattr(structure, name)(g, lam)) for lam in weights]
    assert got == swept_directly(name, params, weights)


def test_half_integral_orbit_is_twisted_exactly():
    """(1/2|-1/2) and (3/2|-3/2) are twists of weights with integral
    coordinates; U(1/2|-1/2) and P(1/2|-1/2) have atypical neighbours in
    their flags, whose shifted weights keep the QQ coordinates of a
    direct sweep."""
    g = gl(1, 1)
    lam = weight(("1/2", "-1/2"))
    assert module_bytes(kac_module(g, lam)) == module_bytes(direct_kac(g, lam))
    assert module_bytes(simple_even_module(g, lam)) == module_bytes(direct_even(g, lam))
    weights = [lam, weight(("3/2", "-3/2"))]
    for name in ("tilting_module", "projective_cover"):
        got = [module_bytes(getattr(structure, name)(g, mu)) for mu in weights]
        assert got == swept_directly(name, (1, 1), weights)
        assert len(getattr(structure, name)(g, lam).meta["flag_bottom_up"]) == 2


def test_a_character_that_does_not_vanish_on_brackets_is_refused(monkeypatch):
    """(1,0|0) is not a character of gl(2|1): [e(-2,-1), e(-1,-2)] has
    value 1 on it.  A split that hands it to the twist is refused by the
    twist's certificate, and nothing is stored under the weight."""
    g = gl(2, 1)
    real = kac_module.representative
    bad = weight((1, 0, 0))
    monkeypatch.setattr(
        kac_module, "representative",
        lambda g, lam: (0, 0, 0) if lam == bad else real(g, lam),
    )
    with pytest.raises(ValueError, match="module validation failed"):
        kac_module(g, bad)
    assert not [k for k in g.memo if k[0] == "kac_module" and k[1] == bad]
    assert ("character", bad) not in g.memo


def test_the_character_certificate_runs_once_per_character(monkeypatch):
    g = gl(2, 1)
    checked = []
    real = modules.assert_valid_module

    def spy(module):
        checked.append((module.g is g, module.weights[0]))
        return real(module)

    monkeypatch.setattr(modules, "assert_valid_module", spy)
    for lam in [(1, 1, -1), (2, 1, 0), (1, 1, 2), (2, 2, 0), (2, 1, 0)]:
        kac_module(g, lam)
    assert sorted(checked) == [
        (False, (0, 0, 1)), (False, (0, 0, 2)), (False, (0, 0, 3)),
        (True, (1, 1, -1)), (True, (2, 2, -2)),
    ]


@pytest.mark.parametrize("builder", [simple_even_module, kac_module, kac_radical, simple_module])
def test_a_non_dominant_request_is_refused_by_its_own_weight(builder, monkeypatch):
    g = gl(2, 1)
    built = []
    monkeypatch.setattr(forms, "induced_module", lambda *a, **k: built.append(a))
    with pytest.raises(DominanceError, match=r"\(1,3\|5\) is not dominant"):
        builder(g, (1, 3, 5))
    assert built == [] and not [k for k in g.memo if len(k) == 3]


@pytest.mark.parametrize("builder", [simple_even_module, kac_module, kac_radical, simple_module])
def test_a_wrongly_graded_request_is_refused_before_a_build(builder, monkeypatch):
    g = install_grading(build_gl(2, 1), "principal")
    built = []
    monkeypatch.setattr(forms, "induced_module", lambda *a, **k: built.append(a))
    with pytest.raises(GradingError):
        builder(g, (3, 3, 1))
    assert built == [] and not [k for k in g.memo if len(k) == 3]
