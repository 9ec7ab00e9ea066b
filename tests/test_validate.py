"""Differential tests of `validate_module` against the ordered-pair oracle.

`validate_module` checks each unordered pair of basis elements once, from
one row view per action matrix, and trusts the antisymmetry of the
bracket table only where the table has it.  `full_basis.ordered_pair_validation`
checks every ordered pair with matrix products.  Both must return the
same verdict on valid modules of every kind the library builds, and on
single-entry corruptions of each of them.
"""

import copy

import pytest

from full_basis import ordered_pair_validation
from supero import modules, structure
from supero.algebra import build_gl, build_q, install_grading
from supero.forms import (
    clifford_module,
    even_levi,
    kac_module,
    simple_module,
    verma_module_truncated,
)
from supero.linalg import SparseMatrix
from supero.modules import (
    ExplicitModule,
    induced_module,
    parity_flip,
    trivial_module,
    validate_module,
)
from supero.rational import QQ
from supero.structure import (
    KacExtensions,
    ext1_with_representative,
    glue_extension,
    projective_cover,
    tilting_module,
)
from supero.weights import wadd, wdot


def gl11():
    return install_grading(build_gl(1, 1), "compatible")


def gl21c():
    return install_grading(build_gl(2, 1), "compatible")


def q_cartan(n):
    q = build_q(n)
    return q.subalgebra(q.h_ids(), family_tag="q-cartan")


def levi_verma_slice():
    """Verma over the even part gl(2)+gl(1) of gl(2|1), cut at the degree
    of w0.lam."""
    g = gl21c()
    h_ids = g.h_ids()
    degs = [wdot(g.weight_of(i), (3, 2, 1)) for i in h_ids]
    levi = g.subalgebra(h_ids, degrees=degs, family_tag="levi")
    lam = (3, 1, 5)
    hb = sorted(levi.h_ids() + levi.positive_ids())
    fib = trivial_module(levi.subalgebra(hb), lam)
    return induced_module(levi, hb, fib, min_degree=-2,
                          highest_weight=lam, kind="levi_verma")


def levi_verma_slice_gl22():
    """The slice ``simple_even_module`` cuts L0(2,0|1,0) from: Verma over
    gl(2)+gl(2), two lowering roots, words down to the degree of w0.lam."""
    levi, _ = even_levi(install_grading(build_gl(2, 2), "compatible"))
    return verma_module_truncated(levi, (2, 0, 1, 0), 3)


def principal_verma_slice():
    """Verma slice of gl(2|1), principal grading, words of degree >= -3."""
    g = install_grading(build_gl(2, 1), "principal")
    b = sorted(g.h_ids() + g.positive_ids())
    fib = trivial_module(g.subalgebra(b), (3, 1, 5))
    return induced_module(g, b, fib, min_degree=-3, highest_weight=(3, 1, 5),
                          kind="verma_slice")


def rescaled_basis(module):
    """The same module over a copy of its algebra whose non-torus basis
    elements are rescaled, x -> (x + 2)/3 x: the action matrices and the
    structure constants of the copy have non-integral entries."""
    g = module.g
    r = [QQ(1) if x in g.t_coord else QQ(x + 2, 3) for x in range(g.dim)]
    h = copy.copy(g)
    h.table = {
        (a, b): {k: r[a] * r[b] * c / r[k] for k, c in br.items()}
        for (a, b), br in g.table.items()
    }
    h.memo = {}
    action = {x: mat.scale(r[x]) for x, mat in module.action.items()}
    return ExplicitModule(h, module.weights, module.parities, action)


CASES = {
    "kac-gl11-typical": lambda: kac_module(gl11(), (2, -1)),
    "kac-gl11-atypical": lambda: kac_module(gl11(), (2, -2)),
    "simple-gl11": lambda: simple_module(gl11(), (2, -2)),
    "projective-gl11": lambda: projective_cover(gl11(), (0, 0)),
    "tilting-gl11": lambda: tilting_module(gl11(), (0, 0)),
    "kac-gl21": lambda: kac_module(gl21c(), (1, 0, 0)),
    "kac-gl21-rational": lambda: rescaled_basis(kac_module(gl21c(), (1, 0, 0))),
    "simple-gl21": lambda: simple_module(gl21c(), (1, 0, 0)),
    "projective-gl21": lambda: projective_cover(gl21c(), (1, 0, 0)),
    "tilting-gl21": lambda: tilting_module(gl21c(), (1, 0, 0)),
    "tilting-gl21-origin": lambda: tilting_module(gl21c(), (0, 0, 0)),
    "clifford-q2-pair": lambda: clifford_module(q_cartan(2), (1, -1)),
    "clifford-q2-single": lambda: clifford_module(q_cartan(2), (1, 0)),
    "levi-verma-window": levi_verma_slice,
    "levi-verma-gl22": levi_verma_slice_gl22,
    "verma-degree-slice": principal_verma_slice,
}


def with_action(module, x, mat):
    """A copy of module whose action of x is mat; nothing is shared
    mutably with the (possibly memoised) original."""
    action = dict(module.action)
    action[x] = mat
    return ExplicitModule(
        module.g, module.weights, module.parities, action,
        labels=module.labels, highest_weight=module.highest_weight,
        truncated=module.truncated, meta=module.meta,
    )


def corruptions(module):
    """One copy per nonzero action matrix with its first entry shifted
    by one (by two where one would cancel it), and one with the first
    nonzero diagonal entry of a torus element dropped."""
    g = module.g
    out = []
    for t in g.t_ids:
        mat = module.action[t]
        nonzero = sorted(key for key in mat.data if key[0] == key[1])
        if nonzero:
            data = {key: v for key, v in mat.data.items() if key != nonzero[0]}
            out.append(with_action(module, t, SparseMatrix(mat.nrows, mat.ncols, data)))
            break
    for x in sorted(module.action):
        mat = module.action[x]
        if not mat.data:
            continue
        key = min(mat.data)
        data = dict(mat.data)
        data[key] = data[key] + (1 if data[key] + 1 else 2)
        out.append(with_action(module, x, SparseMatrix(mat.nrows, mat.ncols, data)))
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_validator_agrees_with_ordered_pair_oracle(name):
    module = CASES[name]()
    report = validate_module(module)
    assert report["passed"], report["failures"][:3]
    assert ordered_pair_validation(module)
    bad = corruptions(module)
    assert bad
    verdicts = [validate_module(m)["passed"] for m in bad]
    assert verdicts == [ordered_pair_validation(m) for m in bad]
    # a torus entry off its weight is always caught; other corruptions
    # may be a change of basis (K(2,-2) of gl(1|1) with e(1,-1) doubled)
    assert False in verdicts


def test_zero_torus_on_a_vector_of_nonzero_weight_is_rejected():
    """A one-dimensional gl(1|1) module of weight (1|0) on which every
    basis element acts by 0: the torus element e(-1,-1) must act by 1, and
    its (0, 0) entry is missing, not wrong."""
    g = gl11()
    M = ExplicitModule(g, [(1, 0)], [0], {x: SparseMatrix(1, 1) for x in range(g.dim)})
    report = validate_module(M)
    assert not report["passed"]
    assert report["failures"] == [
        "torus eigenvalue of e(-1,-1) on vector 0 is 0, weight says 1"
    ]
    assert not ordered_pair_validation(M)


def test_pairs_checked_counts_unordered_pairs():
    g = gl21c()
    report = validate_module(kac_module(g, (1, 0, 0)))
    assert report["pairs_checked"] == g.dim * (g.dim + 1) // 2


@pytest.mark.parametrize(
    "first,second", [("e(-2,-1)", "e(-1,-2)"), ("e(-2,1)", "e(1,-2)")]
)
def test_table_broken_only_at_reversed_pair_is_rejected(first, second):
    """A table with [b, a] != -(-1)^{|a||b|} [a, b] at one pair a < b
    (even and odd): every relation at (a, b) holds, so only the check at
    (b, a) can reject the module."""
    g = gl21c()
    K = kac_module(g, (1, 0, 0))
    a, b = g.id_of(first), g.id_of(second)
    assert a < b and g.bracket(b, a)
    broken = copy.copy(g)
    broken.table = dict(g.table)
    broken.table[(b, a)] = {}
    broken.memo = {}
    M = ExplicitModule(broken, K.weights, K.parities, K.action)
    report = validate_module(M)
    assert report["failures"] == [
        f"bracket relation fails for ({g.label(b)},{g.label(a)})"
    ]
    assert not ordered_pair_validation(M)


def test_glue_extension_rejects_a_changed_glue_entry():
    g = gl11()
    bottom = kac_module(g, (2, -2))
    top = parity_flip(kac_module(g, (1, -1)))
    dim, block = ext1_with_representative(KacExtensions(bottom), (1, -1), 1)
    assert dim == 1
    glue_extension(bottom, top, block)
    entries = [(x, key) for x in sorted(block) for key in sorted(block[x])]
    assert len(entries) > 1
    for x, key in entries:
        changed = {y: dict(blk) for y, blk in block.items()}
        changed[x][key] = changed[x][key] + 1
        with pytest.raises(ValueError, match="bracket relation"):
            glue_extension(bottom, top, changed)


@pytest.mark.parametrize("algebra,lam,mu,every_position", [
    (gl11, (2, -2), (1, -1), True),
    (gl21c, (1, 0, 0), (1, -1, 1), False),
])
def test_glue_check_agrees_with_full_validation(monkeypatch, algebra, lam, mu, every_position):
    """``glue_extension`` checks the glue block alone.  Add one to a
    single entry of a valid glue block, at every position (gl(1|1), torus
    and off-weight positions included) or at every weight-additive one
    (gl(2|1)): it rejects exactly the blocks whose assembled module fails
    the full ``validate_module``."""
    g = algebra()
    bottom = kac_module(g, lam)
    top = parity_flip(kac_module(g, mu))
    dim, block = ext1_with_representative(KacExtensions(bottom), mu, 1)
    assert dim == 1
    positions = [
        (x, (i, j)) for x in range(g.dim)
        for i in range(bottom.dim) for j in range(top.dim)
        if every_position or bottom.weights[i] == wadd(top.weights[j], g.weight_of(x))
    ]
    verdicts = []
    for x, key in [(None, None)] + positions:
        changed = {y: dict(blk) for y, blk in block.items()}
        if x is not None:
            entries = changed.setdefault(x, {})
            entries[key] = entries.get(key, 0) + 1
        try:
            glue_extension(bottom, top, changed)
            accepted = True
        except ValueError:
            accepted = False
        with monkeypatch.context() as unchecked:
            unchecked.setattr(structure, "_assert_valid_glue", lambda *args: None)
            E = glue_extension(bottom, top, changed)
        verdicts.append((accepted, validate_module(E)["passed"]))
    assert all(accepted == valid for accepted, valid in verdicts)
    assert verdicts[0] == (True, True) and (False, False) in verdicts


def test_glue_extension_rejects_a_glue_on_the_torus(monkeypatch):
    """Two copies of the one-dimensional gl(1|1)-module of weight (1|-1),
    glued along e(-1,-1) - e(1,1): every bracket relation of the result
    holds (the glue vanishes on [x, y] = e(-1,-1) + e(1,1)), but the torus
    does not act diagonally, so it is no weight module."""
    g = gl11()
    C = trivial_module(g, (1, -1))
    assert validate_module(C)["passed"]
    block = {g.id_of("e(-1,-1)"): {(0, 0): 1}, g.id_of("e(1,1)"): {(0, 0): -1}}
    with monkeypatch.context() as unchecked:
        unchecked.setattr(structure, "_assert_valid_glue", lambda *args: None)
        failures = validate_module(glue_extension(C, C, block))["failures"]
    assert failures and all("torus" in f for f in failures)
    with pytest.raises(ValueError, match="torus entry off the diagonal"):
        glue_extension(C, C, block)


def test_a_wrong_torus_entry_is_reported_as_by_evaluating_every_pair():
    """e(-1,-1) off its weight on one vector of K(1,0|0): the torus pairs
    with e(-1,-1) are evaluated, and the report is the one every pair's
    evaluation gives."""
    g = gl21c()
    K = kac_module(g, (1, 0, 0))
    t = g.id_of("e(-1,-1)")
    data = dict(K.action[t].data)
    data[(3, 3)] += 1
    report = validate_module(with_action(K, t, SparseMatrix(K.dim, K.dim, data)))
    assert report["pairs_checked"] == 45
    assert report["failures"] == [
        "torus eigenvalue of e(-1,-1) on vector 3 is 2, weight says 1",
        "bracket relation fails for (e(-2,-1),e(-1,-2))",
        "bracket relation fails for (e(-2,-1),e(-1,-1))",
        "bracket relation fails for (e(-1,-2),e(-1,-1))",
        "bracket relation fails for (e(-1,-1),e(-1,1))",
        "bracket relation fails for (e(-1,-1),e(1,-2))",
        "bracket relation fails for (e(-1,-1),e(1,-1))",
        "bracket relation fails for (e(-1,1),e(1,-1))",
    ]


@pytest.mark.parametrize("first,second", [
    ("e(-1,-1)", "e(-2,-1)"), ("e(-2,-1)", "e(-1,-1)"),
])
def test_a_wrong_torus_bracket_in_the_table_is_caught(first, second):
    """[e(-1,-1), e(-2,-1)] = -e(-2,-1) doubled in one order of a copy of
    the table: the module's matrices no longer satisfy that relation."""
    g = gl21c()
    K = kac_module(g, (1, 0, 0))
    a, b = g.id_of(first), g.id_of(second)
    broken = copy.copy(g)
    broken.table = dict(g.table)
    broken.table[(a, b)] = {k: 2 * c for k, c in g.bracket(a, b).items()}
    broken.memo = {}
    report = validate_module(ExplicitModule(broken, K.weights, K.parities, K.action))
    assert report["failures"] == [f"bracket relation fails for ({first},{second})"]
    assert report["pairs_checked"] == 46


def test_torus_pairs_of_a_valid_module_are_not_evaluated(monkeypatch):
    """On K(1,0|0) of gl(2|1), 24 of the 45 pairs hold a torus element;
    only the other 21 are evaluated, and all 45 are counted."""
    calls = []
    real = modules._bracket_defect

    def spy(rows, a, b, sign, terms):
        calls.append((a, b))
        return real(rows, a, b, sign, terms)

    monkeypatch.setattr(modules, "_bracket_defect", spy)
    g = gl21c()
    report = validate_module(kac_module(g, (1, 0, 0)))
    assert report["passed"] and report["pairs_checked"] == 45
    assert len(calls) == 21 and not any(a in g.t_coord or b in g.t_coord for a, b in calls)
