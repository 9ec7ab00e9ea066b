"""Hom spaces between explicit modules, the isomorphism certificate and
Fitting decomposition.

A parity-p morphism F: M -> N preserves weights, shifts parities by p,
and intertwines the action of every x up to the sign (-1)^{p |x|}.  One
system builder finds all of them (``hom_space``), on the flag record of
the source (``ExplicitModule.flag_record``): M is spanned by words w
applied to its fiber vectors v, so F is fixed by psi(v) = F(v),
F(w . v) = (-1)^{p |w|} w . psi(v), and the unknowns are the entries of
psi(v) at the vectors of N of v's weight and of v's parity shifted by p.
The equations are F(x . v) = (-1)^{p |x|} x . psi(v) for the non-torus x
of the record's subalgebra s (the torus holds on weight-matched
unknowns):

* one block, M = Ind_s F: x . v stays in the fiber, so the system is
  Hom_s(F, Res_s N) and each solution extends to a g-map (Frobenius
  reciprocity);
* Kac modules K(mu) = Lambda(g_{-1}) (x) L0(mu) glued over
  s = g0 + g1, g_{-1} odd and abelian in the compatible grading: a Kac
  flag makes M free over U(g_{-1}) = Lambda(g_{-1}), as a Verma flag
  makes a module free over U(n-) (Soergel, "Character formulas for
  tilting modules over Kac-Moody algebras", Represent. Theory 2 (1998)),
  and psi need only commute with s on the fiber (proof at
  ``_hom_by_record``);
* a source without a record takes the trivial one: every basis vector a
  fiber vector, the empty word only, and s the Lie generators of
  ``algebra.lie_generators``.  The inputs pass ``validate_module``, so a
  map that super-commutes with x and y super-commutes with [x, y] by the
  bracket relation, and the system is the intertwining system over every
  weight-matched entry.  (A truncated slice satisfies the bracket
  relation only where its guard says, so a truncated target takes the
  trivial record with every basis element imposed; see
  ``intertwining_ids``.)

Each solution is extended along the words, checked against the Lie
generators and the span reduced to one canonical basis
(``_canonical_basis``), so bases, splittings and reports do not depend
on the record.  Each basis map is one at its own free entry and zero at
the others, so the structure constants of A = End(M)_0 are entries of
products of basis maps.

Isomorphism is decided, not searched for, by one rule: when one side has
a local even endomorphism ring, an isomorphism exists iff some element of
the canonical hom basis is invertible (proof at ``is_isomorphic``).  Every
module the pipelines compare has such a side: K(mu) has a simple top, and
a tilting module or projective cover is certified local when built.

``fitting_decompose`` is a library tool that no pipeline calls.  It
works inside A, on its structure constants (the idempotent view of
Lux-Szoke, Experiment. Math. 16 (2007), and Holt-Eick-O'Brien, Handbook
of Computational Group Theory (2005), 7.5).  The summand im E of an
idempotent E of A has the corner E A E as its even endomorphism ring and
is certified indecomposable when that ring is local (its dimension minus
its radical dimension is 1).  A non-local corner is split by Fitting's
lemma: if the minimal polynomial of z has a rational root r of
multiplicity k and another factor, Y = (z - r)^k splits im E into
im Y + ker Y, and the projection onto im Y is a polynomial in z.  The
search for z is deterministic (the corner's basis, then sums of two
basis elements); a provably non-local corner it cannot split is a
resource error, never a pass.  Matrices are formed only for the summands
``fitting_decompose`` returns.
"""

from itertools import chain
from math import isqrt, lcm

from .algebra import same_algebra
from .config import DEFAULT_LIMITS
from .errors import ResourceLimitError
from .linalg import (
    Echelon, SparseMatrix, _integral, algebra_radical, apply_cols, vec_add_into,
)
from .modules import intertwining_ids, summand_module, word_action
from .rational import QQ


# ---------------------------------------------------------------------------
# hom spaces


def hom_space(src, dst, parity=None, limits=DEFAULT_LIMITS):
    """Basis of the g-morphisms src -> dst as matrices (dst.dim x src.dim).

    With parity=None returns (even_basis, odd_basis); with parity 0 or 1
    returns the single list.  The basis is canonical: the reduced kernel
    of the intertwining system over the weight-matched entries (i, j), in
    that order.  It is solved on src's flag record, or on the trivial
    record when src has none or dst is truncated (module docstring), and
    does not depend on which.  src and dst must pass ``validate_module``.
    """
    if parity is None:
        return (
            hom_space(src, dst, parity=0, limits=limits),
            hom_space(src, dst, parity=1, limits=limits),
        )
    if not same_algebra(src.g, dst.g):
        raise ValueError("hom_space needs modules over the same algebra")
    record = src.flag_record
    if record is None or dst.truncated:
        record = (intertwining_ids(src, dst), ((0, src.dim, ((),)),))
    return _hom_by_record(src, dst, parity % 2, record, limits)


def _hom_by_record(src, dst, p, record, limits):
    """Canonical basis of Hom_g(src, dst)_p from a flag record of src.

    The unknowns are the entries of psi(v), for v a fiber vector, at the
    vectors of dst of v's weight and parity shifted by p, ordered as
    ``hom_space``'s entries (i, v); the equations, one per (x, i, v), are
    F(x . v) = (-1)^{p |x|} x . psi(v) for the non-torus x in the
    record's s, F(x . v) read off the coordinates of x . v along the
    record with F(w . u) = (-1)^{p |w|} w . psi(u).  Every solution
    extends to a g-map of parity p:

    * one block, src = Ind_s F: x . v stays in V, so the system is
      Hom_s(F, Res_s dst)_p, for any s, p and target (Frobenius
      reciprocity; the sign moves the parity-p map past the letters of w);
    * blocks glued over s = g0 + g1, words y_I in the odd abelian g_{-1}:
      src is free over Lambda(g_{-1}) on the fiber vectors, and the
      extension F satisfies F(y . m) = (-1)^p y . F(m) for y in g_{-1} by
      construction.  F(x . y_I v) = (-1)^{p |x|} x . F(y_I v) for x in s
      follows by induction on |I| from
      x y_1 y_I' v = [x, y_1] y_I' v + (-1)^{|x|} y_1 x y_I' v, with
      [x, y_1] in g0 (induction) for x in g1 and in g_{-1} (freeness)
      for x in g0; |I| = 0 is the system;
    * the trivial record: the system is the intertwining system itself.

    Each solution is scaled to a primitive integer vector, extended along
    the words and checked against the Lie generators column by column.
    """
    g = src.g
    n = src.dim
    sub, blocks = record
    home = [None] * n  # basis vector -> (its word, its fiber vector)
    for offset, fdim, words in blocks:
        for k, w in enumerate(words):
            for j in range(fdim):
                home[offset + k * fdim + j] = (w, offset + j)
    size = sum(fdim * len(words) for _, fdim, words in blocks)
    if None in home or size != n or any(words[0] for _, _, words in blocks):
        raise AssertionError("flag record does not tile the basis")
    fibers = [v for offset, fdim, _ in blocks for v in range(offset, offset + fdim)]
    variables = sorted(
        (i, v) for v in fibers for i in dst.weight_space(src.weights[v])
        if dst.parities[i] == (src.parities[v] + p) % 2
    )
    if not variables:
        return []
    unknowns = {v: [] for v in fibers}  # fiber vector v -> [(i, var)], psi(v)
    for var, (i, v) in enumerate(variables):
        unknowns[v].append((i, var))
    src_cols = {x: mat.cols() for x, mat in src.action.items()}
    dst_cols = src_cols if dst is src else {x: mat.cols() for x, mat in dst.action.items()}
    act = {i: word_action(dst_cols, {i: 1}) for i in {i for i, _ in variables}}
    wsign = {w: -1 if p and sum(map(g.parity, w)) % 2 else 1 for *_, words in blocks for w in words}
    xsign = [-1 if p and g.parity(x) else 1 for x in range(g.dim)]

    equations = {}
    torus = set(g.t_ids)
    for x, v in ((x, v) for x in sub if x not in torus for v in fibers):
        terms = [(-xsign[x], var, dst_cols[x][i]) for i, var in unknowns[v]]
        for b, c in src_cols[x][v].items():  # + F(x . v)
            w, u = home[b]
            terms += [(c * wsign[w], var, act[i](w)) for i, var in unknowns[u]]
        for c, var, img in terms:
            for r, a in img.items():
                row = equations.setdefault((x, r, v), {})
                row[var] = row.get(var, 0) + c * a
    if len(variables) > limits.max_hom_vars:
        raise ResourceLimitError(
            f"hom_space system has {len(variables)} unknowns and "
            f"{len(equations)} equations; max_hom_vars is {limits.max_hom_vars}"
        )

    mat = SparseMatrix(len(equations), len(variables), {
        (r, var): c for r, row in enumerate(equations.values())
        for var, c in row.items()
    })
    maps = []
    for kvec in mat.kernel_basis():
        psi = {}
        for var, c in _integral(kvec)[0].items():
            i, v = variables[var]
            psi.setdefault(v, {})[i] = c
        F_cols = []  # F(w . u) = (-1)^{p |w|} w . psi(u)
        for w, u in home:
            F_cols.append(col := {})
            for i, c in psi.get(u, {}).items():
                vec_add_into(col, act[i](w), c * wsign[w])
        # X F = (-1)^{p |x|} F X column by column, for the generators X
        for x in intertwining_ids(src, dst):
            for j in range(n):
                FX = apply_cols(F_cols, src_cols[x][j])
                if xsign[x] < 0:
                    FX = {i: -c for i, c in FX.items()}
                if apply_cols(dst_cols[x], F_cols[j]) != FX:
                    raise AssertionError(f"extended map fails to commute with {g.label(x)}")
        maps.append(SparseMatrix(dst.dim, n, {
            (i, j): c for j, col in enumerate(F_cols) for i, c in col.items()
        }))
    basis = _canonical_basis(maps, dst.dim, n)
    if len(basis) != len(maps):
        raise AssertionError("extended maps are dependent")
    return basis


def hom_dims(src, dst, limits=DEFAULT_LIMITS):
    """(even, odd) dimensions of the morphism space."""
    even, odd = hom_space(src, dst, limits=limits)
    return len(even), len(odd)


# ---------------------------------------------------------------------------
# small exact polynomial helpers (coefficient lists, low degree first)


def _divide_linear(p, r):
    """Synthetic division of p by t - r: (quotient, remainder p(r))."""
    acc = 0
    out = []
    for c in reversed(p):
        acc = acc * r + c
        out.append(acc)
    rem = out.pop()
    return out[::-1], rem


def _min_poly(one, times_z, bound):
    """Monic minimal polynomial of z from the dict-vectors z^0 = one, z^1,
    ... (``times_z`` multiplies by z), at most ``bound`` powers past one."""
    powers = [one]
    for _ in range(bound):
        cur = times_z(powers[-1])
        pos = {k: i for i, k in enumerate(sorted(set(cur).union(*powers)))}
        sol = SparseMatrix(len(pos), len(powers), {
            (pos[k], c): v for c, m in enumerate(powers) for k, v in m.items()
        }).solve({pos[k]: v for k, v in cur.items()})
        if sol is not None:  # the first dependent power
            return [-sol.get(k, 0) for k in range(len(powers))] + [1]
        powers.append(cur)
    raise AssertionError("minimal polynomial computation ran away")


def _rational_roots(p):
    """All rational roots of a polynomial over QQ with p[-1] != 0, sorted."""
    roots = [] if p[0] else [0]
    while not p[0]:
        p = p[1:]
    den = lcm(*(int(QQ(c).denominator) for c in p))
    ip = [int(QQ(c) * den) for c in p]
    cands = {
        QQ(sign * num, d)
        for num in _divisors(ip[0]) for d in _divisors(ip[-1]) for sign in (1, -1)
    }
    return sorted(roots + [c for c in cands if not _divide_linear(p, c)[1]])


def _divisors(n):
    n = abs(n) or 1
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


# ---------------------------------------------------------------------------
# endomorphism rings


def end_ring(module, limits=DEFAULT_LIMITS):
    """Even endomorphism basis plus its multiplication table and radical.

    Returns a dict with keys basis (matrices), products (coordinate
    table), radical (list of coordinate dicts), local (bool).  The basis
    is ``hom_space(module, module, 0)``, solved on the module's flag
    record when it carries one; products are read off the free entries
    (``_ring_from_basis``).
    """
    return _ring_from_basis(hom_space(module, module, parity=0, limits=limits), limits)


def _canonical_basis(maps, nrows, ncols):
    """The basis ``hom_space`` returns for the span of some nrows x ncols
    maps.

    That basis is the reduced kernel of the intertwining system in the
    variable order (i, j): the map for free entry f has a one at f, zeros
    at the other free entries and no entry after f.  So it is the reduced
    echelon form of the span with the order reversed (key (-i, -j)), which
    is unique; maps are listed by free entry ascending, entries in that
    order (the free one first, then ascending).
    """
    ech = Echelon()
    for F in maps:
        ech.add({(-i, -j): c for (i, j), c in F.data.items()})
    ech.full_reduce()
    basis = []
    for lead in reversed(ech.pivot_cols()):
        row = ech.pivot_row(lead)
        order = [lead] + sorted(row.keys() - {lead}, reverse=True)
        basis.append(SparseMatrix(nrows, ncols, {(-i, -j): row[i, j] for i, j in order}))
    return basis


def _ring_from_basis(basis, limits):
    """The ``end_ring`` record of a canonical even basis F_1..F_e: F_k is
    one at its free entry (i_k, j_k), its last entry, and zero at the
    other free entries, so c_ab^k = (row i_k of F_a) . (column j_k of F_b).
    """
    e = len(basis)
    if e > limits.max_end_dim:
        raise ResourceLimitError(
            f"endomorphism ring dimension {e} exceeds bound {limits.max_end_dim}"
        )
    free = [max(F.data) for F in basis]
    cols = [F.cols() for F in basis]
    products = []
    for F in basis:
        rows = F.rows()
        products.append([
            {k: c for k, (i, j) in enumerate(free) if (c := _dot(rows[i], G[j]))}
            for G in cols
        ])
    return _ring(basis, products, limits)


def _dot(u, v):
    return sum(c * v[k] for k, c in u.items() if k in v)


def _ring(basis, products, limits):
    rad = algebra_radical(products, len(basis), limits=limits)
    local = len(basis) - len(rad) == 1
    return {"basis": basis, "products": products, "radical": rad, "local": local}


# ---------------------------------------------------------------------------
# Fitting decomposition inside A = End(M)_0, on coordinate dicts in its basis


def _mul(table, x, y):
    out = {}
    for a, xa in x.items():
        row = table[a]
        for b, yb in y.items():
            vec_add_into(out, row[b], xa * yb)
    return out


def _combine(coords, vectors):
    """sum_k coords[k] vectors[k] for dict-vectors."""
    out = {}
    for k, c in coords.items():
        vec_add_into(out, vectors[k], c)
    return out


def _corner(table, eps, limits):
    """The ring eps A eps = End(im eps): its reduced echelon basis in
    A-coordinates, coordinates in it being the entries at its pivots."""
    ech = Echelon(
        _mul(table, _mul(table, eps, {a: 1}), eps) for a in range(len(table))
    )
    ech.full_reduce()
    basis = ech.basis()
    pos = {p: k for k, p in enumerate(ech.pivot_cols())}
    products = [
        [{pos[i]: c for i, c in _mul(table, x, y).items() if i in pos} for y in basis]
        for x in basis
    ]
    return _ring(basis, products, limits)


def _splitting_idempotent(table, eps, basis):
    """An idempotent of the non-local corner eps A eps other than 0, eps.

    Candidates z are the corner's basis, then its pairwise sums.  If the
    minimal polynomial of z (from its powers in A, z^0 = eps) is
    (t - r)^k q with q(r) != 0 and deg q > 0, then f = eps - q(z)/q(r) is
    nilpotent on ker Y and eps on im Y, Y = (z - r)^k (Chinese remainder
    theorem), so f^k is the projection onto im Y along ker Y: Fitting's
    two nonzero pieces.
    """
    d = len(basis)
    sums = (
        vec_add_into(dict(basis[a]), basis[b])
        for a in range(d) for b in range(a + 1, d)
    )
    for z in chain(basis, sums):
        p = _min_poly(eps, lambda v: _mul(table, v, z), d)
        if len(p) < 3:  # degree < 2: scalar, no split
            continue
        for r in _rational_roots(p):
            k, rest = 0, p
            while True:
                q, rem = _divide_linear(rest, r)
                if rem:
                    break
                k, rest = k + 1, q
            if len(rest) == 1:  # p = (t-r)^k: a single primary component
                continue
            q_z = {}
            for c in reversed(rest):
                q_z = vec_add_into(_mul(table, q_z, z), eps, c)
            f = vec_add_into(dict(eps), q_z, QQ(-1) / rem)
            proj = eps
            for _ in range(k):
                proj = _mul(table, proj, f)
            return proj
    raise ResourceLimitError(
        f"endomorphism ring of dim {d} is not local but no element of its "
        f"basis or sum of two basis elements splits it"
    )


def _primitive_idempotents(ring, limits):
    """[(eps, corner)]: primitive idempotents of A summing to 1, each with
    its local corner ring, depth first with the im Y piece first."""
    table = ring["products"]
    out = []

    def descend(eps, corner):
        if corner["local"]:
            out.append((eps, corner))
            return
        im = _splitting_idempotent(table, eps, corner["basis"])
        for part in (im, vec_add_into(dict(eps), im, -1)):
            descend(part, _corner(table, part, limits))

    free = (max(F.data) for F in ring["basis"])
    unit = {k: 1 for k, (i, j) in enumerate(free) if i == j}  # the identity
    descend(unit, {**ring, "basis": [{k: 1} for k in range(len(table))]})
    return out


def _summand(module, ring, eps, corner, whole):
    """The ``fitting_decompose`` record of im E, E = sum_k eps_k F_k."""
    n = module.dim
    if whole:
        parts = module, SparseMatrix.identity(n), SparseMatrix.identity(n)
    else:
        E = _combine(eps, [F.data for F in ring["basis"]])
        parts = summand_module(module, SparseMatrix(n, n, E))
    return {
        **dict(zip(("module", "include", "project"), parts)),
        "end_even_dim": len(corner["basis"]),
        "end_radical_dim": len(corner["radical"]),
        "local": True,
    }


def fitting_decompose(module, limits=DEFAULT_LIMITS):
    """Split a module into indecomposable summands, with certification.

    Returns a list of records {module, include, project, end_even_dim,
    end_radical_dim, local}; ``local`` is the indecomposability
    certificate (the even endomorphism ring is a local ring).  The
    descent runs in A = End(M)_0 on its structure constants: a non-local
    corner eps A eps is split by a Fitting idempotent, and every piece's
    ring is its corner, so only the summands are built as matrices.
    Summands are ordered by their lexicographically largest weight,
    descending, then by dimension.  Raises ResourceLimitError when a
    provably decomposable piece resists the deterministic splitting search.
    """
    ring = end_ring(module, limits=limits)
    parts = _primitive_idempotents(ring, limits)
    records = [
        _summand(module, ring, eps, corner, len(parts) == 1) for eps, corner in parts
    ]
    records.sort(key=lambda rec: (
        tuple(-c for c in max(rec["module"].weights)), rec["module"].dim,
    ))
    return records


# ---------------------------------------------------------------------------
# isomorphism testing


def is_isomorphic(src, dst, allow_parity_flip=False, limits=DEFAULT_LIMITS):
    """Decide src = dst (or src = Pi dst when allowed) by a certificate.

    Returns {"isomorphic": bool, "certified": True, "witness": matrix or
    None, "parity": 0/1/None, "reason": str}.  Both answers are exact: a
    yes carries an invertible morphism of the returned parity, a no rests
    on a dimension or character mismatch or on the rule below.

    The rule: if src or dst has a local even endomorphism ring, a
    parity-s isomorphism exists iff some element of the canonical basis
    F_1..F_e of Hom_s(src, dst) has full rank.  Proof: if phi = sum a_i
    F_i is an isomorphism, then id = sum a_i phi^-1 F_i; the non-units of
    a local ring form its radical, so some phi^-1 F_i is a unit and F_i
    has full rank (argue with F_i phi^-1 when dst is the local side).  An
    empty basis, or a single singular element, answers no without a ring;
    otherwise a local side is certified by ``end_ring``, src first, and
    ValueError is raised when neither side is local.  The rule is
    symmetric, so both argument orders give the same answer and parity;
    the Hom is solved on src's flag record, so callers put the recorded
    side first.
    """
    if not same_algebra(src.g, dst.g):
        raise ValueError("modules live over different algebras")
    if src.dim != dst.dim:
        return _verdict("dimension mismatch")
    sc_src = src.super_character()
    sc_dst = dst.super_character()
    parities = []
    if sc_src == sc_dst:
        parities.append(0)
    if allow_parity_flip and {w: (d1, d0) for w, (d0, d1) in sc_src.items()} == sc_dst:
        parities.append(1)
    if not parities:
        return _verdict("character mismatch")

    local = False  # a local side, once certified
    for s in parities:
        basis = hom_space(src, dst, parity=s, limits=limits)
        F = next((F for F in basis if F.rank() == src.dim), None)
        if F is not None:
            return _verdict("invertible morphism in the hom basis", F, s)
        if len(basis) > 1 and not local:
            local = any(end_ring(M, limits=limits)["local"] for M in (src, dst))
            if not local:
                raise ValueError(
                    "is_isomorphic needs a side with a local even endomorphism "
                    "ring; neither side is local"
                )
    return _verdict("no invertible morphism exists")


def _verdict(reason, witness=None, parity=None):
    return {
        "isomorphic": witness is not None,
        "certified": True,
        "witness": witness,
        "parity": parity,
        "reason": reason,
    }
