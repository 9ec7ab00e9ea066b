"""Hom spaces between explicit modules, Fitting decomposition and the
isomorphism certificate.

Hom computation is a weight-blocked linear solve: a parity-s morphism
preserves weights, shifts parities by s, and intertwines the action of
every x up to the sign (-1)^{s |x|}.  The inputs are modules that pass
``validate_module``, so it is enough to impose this for the Lie
generators of ``algebra.lie_generators``: a map that super-commutes with
x and y super-commutes with [x, y] by the bracket relation, and the
torus needs no equation because the unknowns are already weight-matched
and the torus acts diagonally by the recorded weights.  (A truncated
slice satisfies the bracket relation only where its guard says, so
there every basis element is imposed; see ``intertwining_ids``.)

Endomorphism rings avoid the global solve where the structure allows.
For M = Ind_s^g F as ``induced_module`` returned it (untruncated, so
``M.induction`` is set; nothing derived from M carries the record),
Frobenius reciprocity Hom_g(Ind_s F, M) = Hom_s(F, Res_s M) turns the
Sum_w d_w(M)^2 unknowns into Sum_w d_w(F) d_w(M): each even s-map phi
extends to w (x) v -> w . phi(v) along the recorded PBW words, and each
extension is checked against the Lie generators.  The span is reduced to
the basis ``hom_space`` would return (``_canonical_basis``), so bases,
splittings and reports do not depend on the route.  Each basis map is
one at its own free entry and zero at the others, so the structure
constants of A = End(M)_0 are entries of products of basis maps.

Decomposition works inside A, on those constants (the idempotent view of
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
a caller builds: all of them in ``fitting_decompose``, one in
``summand_onto``.

Isomorphism is decided, not searched for: when one side has a local even
endomorphism ring, an isomorphism exists iff some element of the
canonical hom basis is invertible (proof at ``is_isomorphic``); otherwise
both sides are decomposed and their summands matched (Krull-Schmidt).
"""

from itertools import chain
from math import isqrt, lcm

from .algebra import same_algebra
from .config import DEFAULT_LIMITS
from .errors import ResourceLimitError
from .linalg import Echelon, SparseMatrix, algebra_radical, apply_cols, vec_add_into
from .modules import intertwining_ids, restrict_module, summand_module
from .rational import ONE, QQ, ZERO


# ---------------------------------------------------------------------------
# hom spaces


def hom_space(src, dst, parity=None, limits=DEFAULT_LIMITS):
    """Basis of the g-morphisms src -> dst as matrices (dst.dim x src.dim).

    With parity=None returns (even_basis, odd_basis); with parity 0 or 1
    returns the single list.  The basis is canonical: reduced kernel of
    the intertwining system over the weight-matched entries.  src and dst
    must pass ``validate_module``: the system imposes intertwining only
    for the Lie generators of g (module docstring), which has the same
    kernel as imposing it for every basis element.
    """
    if parity is None:
        return (
            hom_space(src, dst, parity=0, limits=limits),
            hom_space(src, dst, parity=1, limits=limits),
        )
    g = src.g
    if not same_algebra(g, dst.g):
        raise ValueError("hom_space needs modules over the same algebra")

    s = parity % 2
    variables = []
    for i in range(dst.dim):
        wi, pi = dst.weights[i], dst.parities[i]
        for j in range(src.dim):
            if src.weights[j] == wi and (src.parities[j] + s) % 2 == pi:
                variables.append((i, j))
    if not variables:
        return []
    var_idx = {v: k for k, v in enumerate(variables)}
    by_col = {}  # k -> [(i, var)] for variables (i, k)
    by_row = {}  # k -> [(j, var)] for variables (k, j)
    for (i, j), k in var_idx.items():
        by_col.setdefault(j, []).append((i, k))
        by_row.setdefault(i, []).append((j, k))

    equations = {}
    for x in intertwining_ids(src, dst):
        sign = QQ(-1) if s and g.parity(x) else ONE
        for (k, j), v in src.action[x].data.items():
            for i, var in by_col.get(k, ()):
                row = equations.setdefault((x, i, j), {})
                row[var] = row.get(var, ZERO) + v
        for (i, k), v in dst.action[x].data.items():
            for j, var in by_row.get(k, ()):
                row = equations.setdefault((x, i, j), {})
                row[var] = row.get(var, ZERO) - sign * v
    if len(variables) > limits.max_hom_vars:
        raise ResourceLimitError(
            f"hom_space system has {len(variables)} unknowns and "
            f"{len(equations)} equations; max_hom_vars is {limits.max_hom_vars}"
        )

    mat = SparseMatrix(len(equations), len(variables))
    for r, key in enumerate(sorted(equations)):
        for var, c in equations[key].items():
            if c:
                mat.data[(r, var)] = c
    basis = []
    for kvec in mat.kernel_basis():
        F = SparseMatrix(dst.dim, src.dim)
        for var, c in kvec.items():
            F.data[variables[var]] = c
        basis.append(F)
    return basis


def hom_dims(src, dst, limits=DEFAULT_LIMITS):
    """(even, odd) dimensions of the morphism space."""
    even, odd = hom_space(src, dst, limits=limits)
    return len(even), len(odd)


# ---------------------------------------------------------------------------
# small exact polynomial helpers (coefficient lists, low degree first)


def _divide_linear(p, r):
    """Synthetic division of p by t - r: (quotient, remainder p(r))."""
    acc = ZERO
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
            return [-sol.get(k, ZERO) for k in range(len(powers))] + [ONE]
        powers.append(cur)
    raise AssertionError("minimal polynomial computation ran away")


def _rational_roots(p):
    """All rational roots of a polynomial over QQ with p[-1] != 0, sorted."""
    roots = [] if p[0] else [QQ(0)]
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
    is the canonical one of ``hom_space(module, module, 0)``, whichever
    route finds it.  A module that ``induced_module`` returned untruncated
    (``module.induction`` is set) takes the adjunction route:
    End_g(Ind_s F)_0 = Hom_s(F, Res_s M)_0, one ``hom_space`` over s whose
    unknowns ``max_hom_vars`` bounds, extended along the PBW words (module
    docstring).  Every other module takes the ``hom_space`` solve.
    Products are read off the free entries (``_ring_from_basis``).
    """
    if module.induction is not None:
        basis = _end_by_adjunction(module, limits)
    else:
        basis = hom_space(module, module, parity=0, limits=limits)
    return _ring_from_basis(basis, limits)


def _end_by_adjunction(module, limits):
    """Canonical basis of End_g(M)_0 for M = Ind_s F, from Hom_s(F, Res M).

    Each even s-map phi: F -> Res M extends to the g-map
    w (x) v_j -> w . phi(v_j), and every even g-map out of M arises from
    exactly one phi (Frobenius reciprocity), so the extensions are a
    basis.  Each one is checked against the Lie generators' actions
    before it is used.
    """
    fiber, words = module.induction
    res = restrict_module(module, fiber.g)
    cols = {x: mat.cols() for x, mat in module.action.items()}
    n, fdim = module.dim, fiber.dim
    by_length = sorted(words, key=len)  # every suffix of a word is a word
    maps = []
    for phi in hom_space(fiber, res, parity=0, limits=limits):
        F_cols = [None] * n
        for j, vec in enumerate(phi.cols()):
            images = {(): vec}
            for w in by_length[1:]:
                images[w] = apply_cols(cols[w[0]], images[w[1:]])
            for k, w in enumerate(words):
                F_cols[k * fdim + j] = images[w]
        # X F = F X column by column, for the generators X
        for x in intertwining_ids(module):
            X_cols = cols[x]
            for j in range(n):
                if apply_cols(X_cols, F_cols[j]) != apply_cols(F_cols, X_cols[j]):
                    raise AssertionError(
                        f"adjoint map fails to commute with {module.g.label(x)}"
                    )
        F = SparseMatrix(n, n)
        for j, col in enumerate(F_cols):
            for i, c in col.items():
                F.data[(i, j)] = c
        maps.append(F)
    basis = _canonical_basis(maps, module.dim)
    if len(basis) != len(maps):
        raise AssertionError("adjoint maps are dependent")
    return basis


def _canonical_basis(maps, n):
    """The basis ``hom_space`` returns for the span of some n x n maps.

    That basis is the reduced kernel of its system in the variable order
    (i, j): the map for free entry f has a one at f, zeros at the other
    free entries and no entry after f.  So it is the reduced echelon form
    of the span with the order reversed (key (-i, -j)), which is unique;
    maps are listed by free entry ascending, entries in ``hom_space``'s
    order (the free one first, then ascending).
    """
    ech = Echelon()
    for F in maps:
        ech.add({(-i, -j): c for (i, j), c in F.data.items()})
    ech.full_reduce()
    basis = []
    for lead in reversed(ech.pivot_cols()):
        row = ech.pivot_row(lead)
        F = SparseMatrix(n, n)
        F.data[(-lead[0], -lead[1])] = row.pop(lead)
        for key in sorted(row, reverse=True):
            F.data[(-key[0], -key[1])] = row[key]
        basis.append(F)
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
    return sum((c * v[k] for k, c in u.items() if k in v), ZERO)


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
        _mul(table, _mul(table, eps, {a: ONE}), eps) for a in range(len(table))
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
            f = vec_add_into(dict(eps), q_z, -1 / rem)
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
    unit = {k: ONE for k, (i, j) in enumerate(free) if i == j}  # the identity
    descend(unit, {**ring, "basis": [{k: ONE} for k in range(len(table))]})
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


def summand_onto(module, target, limits=DEFAULT_LIMITS):
    """The one Fitting summand of module with a nonzero map to target.

    Solves Hom(module, target) once.  As the primitive idempotents sum to
    1, Hom(S_eps, target)_s is {phi E_eps : phi in Hom_s(module, target)},
    so a summand maps to target iff some phi E_eps is nonzero.  Returns
    (record as in ``fitting_decompose``, (even, odd) dimensions of
    Hom(S, target)); an AssertionError unless exactly one summand maps.
    """
    ring = end_ring(module, limits=limits)
    parts = _primitive_idempotents(ring, limits)
    through = [
        [[(phi @ F).data for F in ring["basis"]] for phi in maps]
        for maps in hom_space(module, target, limits=limits)
    ]
    hits = []
    for eps, corner in parts:
        # dim Hom(S, target)_s = rank of {phi E_eps : phi in Hom_s}
        dims = tuple(len(Echelon(_combine(eps, fs) for fs in by_phi)) for by_phi in through)
        if any(dims):
            hits.append((eps, corner, dims))
    if len(hits) != 1:
        raise AssertionError(
            f"expected one summand with maps onto the target, found {len(hits)}"
        )
    eps, corner, dims = hits[0]
    return _summand(module, ring, eps, corner, len(parts) == 1), dims


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
    empty basis, or a single singular element, answers no without a ring.
    When neither side is local both are split by ``fitting_decompose``
    and the summands matched greedily by the same rule (Krull-Schmidt);
    the witness is the sum of include_b F project_a over matched pairs.
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

    summands = None
    for s in parities:
        basis = hom_space(src, dst, parity=s, limits=limits)
        F = _invertible_element(basis, src.dim)
        if F is not None:
            return _verdict("invertible morphism in the hom basis", F, s)
        if len(basis) < 2:  # Hom_s is zero or spanned by a singular map
            continue
        if summands is None:
            summands = _summands_unless_local(src, dst, limits)
        if summands:
            W = _match_summands(*summands, src.dim, s, limits)
            if W is not None:
                return _verdict("summands matched by invertible morphisms", W, s)
    return _verdict("no invertible morphism exists")


def _invertible_element(basis, n):
    return next((F for F in basis if F.rank() == n), None)


def _summands_unless_local(src, dst, limits):
    """Fitting summands of both sides, or () when either side is local."""
    a = fitting_decompose(src, limits=limits)
    if len(a) == 1:
        return ()
    b = fitting_decompose(dst, limits=limits)
    if len(b) == 1:
        return ()
    return a, b


def _match_summands(src_recs, dst_recs, n, s, limits):
    """A parity-s isomorphism assembled from summand isomorphisms, or None
    when some summand of the source has no partner."""
    W = SparseMatrix(n, n)
    free = list(dst_recs)
    for ra in src_recs:
        A = ra["module"]
        for rb in free:
            if rb["module"].dim != A.dim:
                continue
            F = _invertible_element(
                hom_space(A, rb["module"], parity=s, limits=limits), A.dim
            )
            if F is not None:
                W = W + rb["include"] @ F @ ra["project"]
                free.remove(rb)
                break
        else:
            return None
    return W


def _verdict(reason, witness=None, parity=None):
    return {
        "isomorphic": witness is not None,
        "certified": True,
        "witness": witness,
        "parity": parity,
        "reason": reason,
    }
