"""Acceptance gate: one test per top-level criterion, one line of output each.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
Every criterion is exercised end to end with its stated time budget.
"""

import json
import time
from pathlib import Path

from supero import (
    KacExtensions,
    QQ,
    build_gl,
    build_q,
    cartan_matrix_direct,
    cartan_matrix_via_bgg,
    contravariant_form,
    decomposition_matrix,
    dual_module,
    hom_dims,
    install_grading,
    is_isomorphic,
    kac_module,
    projective_cover,
    tau_dual,
    tilting_table,
    validate_algebra,
    validate_module,
    verify_kac_dual,
    verify_projective_dual,
    verify_semiinfinite,
    window_from_box,
)
from supero.cli import main as cli_main

from full_basis import cochain_matrices, delta_flag, kac_character

GOLDEN = Path(__file__).parent / "golden"


def _stamp(number, name, started, budget):
    elapsed = time.time() - started
    print(f"[PASS] criterion {number}: {name} ({elapsed:.1f}s)")
    assert elapsed < budget, f"criterion {number} blew its {budget}s budget"


def _gl_algebras():
    for m in range(1, 4):
        for n in range(1, 4):
            for kind in ("principal", "compatible"):
                yield install_grading(build_gl(m, n), kind)


def test_criterion_1_semiinfinite_characters():
    started = time.time()
    for g in _gl_algebras():
        report = verify_semiinfinite(g)
        assert report["passed"], (g.family, g.params, g.grading_kind, report)
    for n in range(1, 4):
        report = verify_semiinfinite(build_q(n))
        assert report["passed"], ("q", n, report)
    _stamp(1, "distinguished characters satisfy the trace identity", started, 5)


def test_criterion_2_algebra_validation():
    started = time.time()
    for g in _gl_algebras():
        report = validate_algebra(g)
        assert report["passed"], report["failures"][:3]
    for n in range(1, 4):
        report = validate_algebra(build_q(n))
        assert report["passed"], report["failures"][:3]
    _stamp(2, "bracket axioms and grading checks", started, 5)


def test_criterion_3_orthogonality_suite():
    started = time.time()
    for g in (
        install_grading(build_gl(1, 1), "compatible"),
        install_grading(build_gl(2, 1), "compatible"),
    ):
        window = window_from_box(g, -2, 2, support_closure=False)
        for mu in window:
            dual = tau_dual(kac_module(g, mu))
            exts = KacExtensions(dual)
            for lam in window:
                expected = 1 if lam == mu else 0
                assert sum(hom_dims(kac_module(g, lam), dual)) == expected, (
                    lam, mu,
                )
                assert exts.ext_dimension(lam) == 0, (lam, mu)
    _stamp(3, "Hom/Ext orthogonality of induced against twisted duals", started, 120)


def test_criterion_4_reciprocity():
    started = time.time()
    for g, lo, hi in (
        (install_grading(build_gl(1, 1), "compatible"), -3, 3),
        (install_grading(build_gl(2, 1), "compatible"), -1, 1),
        (install_grading(build_gl(2, 2), "compatible"), 0, 1),
    ):
        window = window_from_box(g, lo, hi, support_closure=False)
        D = decomposition_matrix(g, window)
        assert cartan_matrix_via_bgg(D) == cartan_matrix_direct(g, window)
    _stamp(4, "Cartan matrix agrees between flag route and square route", started, 600)


def test_criterion_5_duality_suite():
    started = time.time()
    g = install_grading(build_gl(1, 1), "compatible")
    window = window_from_box(g, -2, 2, support_closure=False)
    for lam in window:
        kd = verify_kac_dual(g, lam)
        assert kd["characters_equal"] and kd["isomorphic"] and kd["certified"], kd
        pd = verify_projective_dual(g, lam)
        assert pd["characters_equal"] and pd["isomorphic"] and pd["certified"], pd
    _stamp(5, "duals of induced and projective modules land as predicted", started, 600)


def test_criterion_6_tilting_multiplicities():
    started = time.time()
    g = install_grading(build_gl(1, 1), "compatible")
    rep = tilting_table(g, window_from_box(g, -2, 2, support_closure=False))
    assert rep["differences"] == []
    g21 = install_grading(build_gl(2, 1), "compatible")
    block = [(1, 1, -1), (1, 0, 0), (1, -1, 1)]  # one linked chain
    rep21 = tilting_table(g21, block)
    assert rep21["differences"] == []
    assert rep21["left"] != [[1, 0, 0], [0, 1, 0], [0, 0, 1]]  # genuinely linked
    # U(1,0|0,-1): four Kac factors glued in three steps, dimension 288
    g22 = install_grading(build_gl(2, 2), "compatible")
    rep22 = tilting_table(g22, [(1, 0, 0, -1)])
    assert rep22["differences"] == []
    # the whole gl(2|2) box -1..1: 36 tilting modules, 30 of them glued
    box22 = window_from_box(g22, -1, 1, support_closure=False)
    assert len(box22) == 36
    assert tilting_table(g22, box22)["differences"] == []
    _stamp(6, "tilting flag numbers equal reflected composition numbers", started, 60)


def test_criterion_7_small_rank_regression():
    started = time.time()
    g = install_grading(build_gl(1, 1), "compatible")
    golden = json.loads((GOLDEN / "gl11_structure.json").read_text())
    for a in range(-2, 3):
        for b in range(-2, 3):
            K = kac_module(g, (a, b))
            form = contravariant_form(K)
            rank = sum(form.ranks().values())
            expect = golden["kac"][g.weight_str((QQ(a), QQ(b)))]
            assert K.dim == expect["dim"]
            assert rank == expect["form_rank"]
            assert (rank == K.dim) == expect["irreducible"]
            assert expect["irreducible"] == (a + b != 0)
    D = decomposition_matrix(g, window_from_box(g, 0, 0))
    assert D.entries == golden["decomposition_at_origin"]["entries"] == [[1, 1], [0, 1]]
    P = projective_cover(g, (0, 0))
    assert P.dim == golden["projective_at_origin"]["dim"] == 4
    flag = [g.weight_str(w) for w in delta_flag(P)]
    assert flag == golden["projective_at_origin"]["flag"]
    assert len(flag) == 2

    g21 = install_grading(build_gl(2, 1), "compatible")
    gold21 = json.loads((GOLDEN / "gl21_decomposition.json").read_text())
    W = window_from_box(g21, -1, 1, support_closure=False)
    D21 = decomposition_matrix(g21, W)
    assert [g21.weight_str(w) for w in D21.weights] == gold21["window"]
    assert D21.entries == gold21["entries"]

    from supero import clifford_module

    goldq = json.loads((GOLDEN / "q_clifford.json").read_text())
    for case in goldq["cases"]:
        q = build_q(case["n"])
        h = q.subalgebra(q.h_ids(), family_tag="q-cartan")
        u = clifford_module(h, tuple(case["weight"]))
        assert u.dim == case["dim"]
        assert sum(u.parities) == case["odd_dim"]
        assert sum(hom_dims(u, u)) == case["d_E"]
    _stamp(7, "small-rank structure matches the committed golden files", started, 120)


def test_criterion_8_property_suite(tmp_path):
    started = time.time()
    g = install_grading(build_gl(1, 1), "compatible")
    g21 = install_grading(build_gl(2, 1), "compatible")

    # module axioms hold on every kind of module the workbench constructs
    samples = [
        kac_module(g, (1, -1)),
        tau_dual(kac_module(g21, (1, 0, 0))),
        dual_module(kac_module(g, (0, 0))),
        projective_cover(g, (0, 0)),
    ]
    for M in samples:
        assert validate_module(M)["passed"]

    # the extension complex really is a complex
    for M in (kac_module(g21, (0, 0, 0)), tau_dual(kac_module(g, (2, -2)))):
        d0, d1 = cochain_matrices(KacExtensions(M))
        assert not (d1 @ d0).data

    # double dual is the identity up to isomorphism
    K = kac_module(g, (2, -1))
    again = dual_module(dual_module(K))
    assert is_isomorphic(K, again)["isomorphic"]

    # character mass conservation: 2^(mn) times the even-part dimension
    for galg, lam, even_dim in [
        (g, (3, -2), 1),
        (g21, (1, 0, -1), 2),
        (g21, (2, 0, 0), 3),
    ]:
        assert sum(kac_character(galg, tuple(QQ(c) for c in lam)).values()) == (
            2 ** (galg.params[0] * galg.params[1]) * even_dim
        )

    # unitriangularity of every decomposition matrix over a box
    W = window_from_box(g, -2, 2, support_closure=False)
    D = decomposition_matrix(g, W)
    for i in range(len(W)):
        assert D.entries[i][i] == 1
        assert all(D.entries[i][j] == 0 for j in range(len(W)) if W[j] > W[i])

    # extension dimensions vanish against twisted duals (spot check)
    assert KacExtensions(tau_dual(kac_module(g, (0, 0)))).ext_dimension((1, -1)) == 0

    # fixed seed, fixed bytes
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code = cli_main(
            ["verify", "--algebra", "gl:1,1", "--box=-1..1", "--which", "all",
             "--out", str(path)]
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    _stamp(8, "axioms, complexes, masses and reproducibility", started, 300)
