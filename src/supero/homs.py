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
extension is checked against the Lie generators.  For a summand S of M
with module maps I: S -> M and P: M -> S, P I = id, End(S) = P End(M) I,
so a Fitting summand's ring needs no solve at all.  Both spans are
reduced to the basis ``hom_space`` would return (``_canonical_basis``),
so bases, splittings and reports do not depend on the route.

Decomposition into indecomposable summands goes through the even
endomorphism ring: a summand is certified indecomposable when that ring
is local (its dimension minus its radical dimension is 1).  A non-local
ring is split by Fitting's lemma: for an endomorphism z whose minimal
polynomial p has a rational root r of multiplicity k with (t - r)^k != p,
Y = (z - r)^k gives M = im Y + ker Y, two nonzero submodules.  If the
ring is provably non-local but no such z is found within the configured
budget, the failure is reported as a resource error and never silently
converted into a pass.

Isomorphism is decided, not searched for: when one side has a local even
endomorphism ring, an isomorphism exists iff some element of the
canonical hom basis is invertible (proof at ``is_isomorphic``); otherwise
both sides are decomposed and their summands matched (Krull-Schmidt).
"""

import random
from math import isqrt, lcm

from .algebra import same_algebra
from .config import DEFAULT_LIMITS
from .errors import ResourceLimitError
from .linalg import Echelon, SparseMatrix, algebra_radical, apply_cols
from .modules import intertwining_ids, restrict_module, submodule_module
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


def _poly_trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def _divide_linear(p, r):
    """Synthetic division of p by t - r: (quotient, remainder p(r))."""
    acc = ZERO
    out = []
    for c in reversed(p):
        acc = acc * r + c
        out.append(acc)
    rem = out.pop()
    return out[::-1], rem


def _min_poly_by_solve(powers, target):
    """Coefficients c with target = sum c_k powers[k], as a monic poly."""
    keys = sorted({k for m in powers for k in m.data} | set(target.data))
    pos = {k: i for i, k in enumerate(keys)}
    mat = SparseMatrix(len(keys), len(powers))
    for c, m in enumerate(powers):
        for k, v in m.data.items():
            mat.data[(pos[k], c)] = v
    rhs = {pos[k]: v for k, v in target.data.items()}
    sol = mat.solve(rhs)
    if sol is None:
        raise AssertionError("dependent power failed to solve")
    p = [-sol.get(k, ZERO) for k in range(len(powers))]
    p.append(ONE)
    return _poly_trim(p)


def _rational_roots(p):
    """All rational roots of a nonzero polynomial over QQ, sorted."""
    p = _poly_trim(list(p))
    roots = []
    if not p:
        return roots
    shift = 0
    while not p[0]:
        p = p[1:]
        shift += 1
    if shift:
        roots.append(QQ(0))
    den = lcm(*(int(QQ(c).denominator) for c in p))
    ip = [int(QQ(c) * den) for c in p]
    a0, ak = abs(ip[0]), abs(ip[-1])
    for num in _divisors(a0):
        for d in _divisors(ak):
            for cand in (QQ(num, d), QQ(-num, d)):
                if cand in roots:
                    continue
                if not _divide_linear(p, cand)[1]:
                    roots.append(cand)
    return sorted(roots)


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
    ``fitting_decompose`` finds its summands' rings as P End(M) I instead.
    """
    if module.induction is not None:
        basis = _end_by_adjunction(module, limits)
    else:
        basis = hom_space(module, module, parity=0, limits=limits)
    return _ring_from_basis(module, basis, limits)


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


def _ring_from_basis(module, basis, limits):
    """The ``end_ring`` record of module from its canonical even basis."""
    e = len(basis)
    if e > limits.max_end_dim:
        raise ResourceLimitError(
            f"endomorphism ring dimension {e} exceeds bound {limits.max_end_dim}"
        )
    # Each basis matrix carries a tag entry (n, k) after its (i, j) entries.
    # The echelon rows mix basis matrices, so a product is expressed in the
    # basis through its normal form: that is zero on the matrix entries and
    # minus the product's basis coordinates on the tags.
    ech = Echelon()
    tag = module.dim
    for k, F in enumerate(basis):
        vec = dict(F.data)
        vec[(tag, k)] = ONE
        lead = ech.add(vec)
        if lead is None or lead[0] == tag:
            raise AssertionError("hom basis is dependent")
    products = []
    for a in range(e):
        row = []
        for b in range(e):
            rest = ech.reduce(dict((basis[a] @ basis[b]).data))
            if any(i != tag for i, _ in rest):
                raise AssertionError("endomorphism ring not closed")
            row.append({k: -c for (_, k), c in rest.items()})
        products.append(row)
    radical = algebra_radical(products, e, limits=limits, check_associative=False)
    return {
        "basis": basis,
        "products": products,
        "radical": radical,
        "local": e - len(radical) == 1,
    }


def _find_fitting_element(module, ring, limits):
    """An even endomorphism Y with im Y and ker Y both nonzero, or None
    within budget.

    Candidates z are the basis, pairwise sums of basis elements, then
    seeded random combinations.  For a rational root r of the minimal
    polynomial p of z, of multiplicity k, with (t - r)^k != p, Fitting's
    lemma gives M = im Y + ker Y for Y = (z - r)^k, and neither piece is
    zero.
    """
    basis = ring["basis"]
    e = len(basis)
    n = module.dim
    rng = random.Random(limits.seed)

    def candidates():
        for F in basis:
            yield F
        for a in range(e):
            for b in range(a + 1, e):
                yield basis[a] + basis[b]
        for _ in range(limits.search_budget):
            coeffs = [QQ(rng.randint(-3, 3)) for _ in range(e)]
            acc = SparseMatrix(n, n)
            for c, F in zip(coeffs, basis):
                if c:
                    acc = acc + F.scale(c)
            yield acc

    tried = 0
    for z in candidates():
        tried += 1
        if tried > 2 * limits.search_budget + e * e + e:
            break
        p = _min_poly_by_powers(z, n)
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
            shifted = z - SparseMatrix.identity(n).scale(r)
            Y = shifted
            for _ in range(k - 1):
                Y = Y @ shifted
            return Y
    return None


def _min_poly_by_powers(z, n):
    powers = [SparseMatrix.identity(n)]
    flat_ech = Echelon([dict(powers[0].data)])
    cur = powers[0]
    for _ in range(n + 1):
        cur = cur @ z
        if flat_ech.add(dict(cur.data)) is None:
            return _min_poly_by_solve(powers, cur)
        powers.append(cur)
    raise AssertionError("minimal polynomial computation ran away")


def _fitting_split(module, Y):
    """Split M = im Y + ker Y: ((sub_im, S1, P1), (sub_ker, S2, P2)).

    Both projections come from one solve against [S1 | S2]."""
    n = module.dim
    pieces = [
        submodule_module(module, [c for c in Y.cols() if c]),
        submodule_module(module, Y.kernel_basis()),
    ]
    d = pieces[0][0].dim
    if d + pieces[1][0].dim != n:
        raise AssertionError("Fitting pieces do not add up to the module")
    both = SparseMatrix(n, n, pieces[0][1].data)
    for (i, j), c in pieces[1][1].data.items():
        both.data[(i, d + j)] = c
    projects = [SparseMatrix(d, n), SparseMatrix(n - d, n)]
    for j, sol in enumerate(both.solve_multi([{j: ONE} for j in range(n)])):
        if sol is None:
            raise AssertionError("Fitting pieces do not span the module")
        for i, c in sol.items():
            if i < d:
                projects[0].data[(i, j)] = c
            else:
                projects[1].data[(i - d, j)] = c
    return [(sub, inc, prj) for (sub, inc), prj in zip(pieces, projects)]


def _summand_ring(sub, inc, prj, ring, limits):
    """The ``end_ring`` record of a summand from the ring of the module.

    inc: sub -> M and prj: M -> sub are module maps with prj inc = id, so
    every f in End(sub) is prj (inc f prj) inc: End(sub) = prj End(M) inc.
    """
    maps = [prj @ F @ inc for F in ring["basis"]]
    return _ring_from_basis(sub, _canonical_basis(maps, sub.dim), limits)


def fitting_decompose(module, limits=DEFAULT_LIMITS):
    """Split a module into indecomposable summands, with certification.

    Returns a list of records {module, include, project, end_even_dim,
    end_radical_dim, local}; ``local`` is the indecomposability
    certificate (the even endomorphism ring is a local ring).  Summands
    are ordered by their lexicographically largest weight, descending,
    then by dimension.  Raises ResourceLimitError when a provably
    decomposable summand resists splitting within the budget.
    """
    records = []

    def descend(mod, ring, include, project):
        e = len(ring["basis"])
        if ring["local"]:
            records.append({
                "module": mod,
                "include": include,
                "project": project,
                "end_even_dim": e,
                "end_radical_dim": len(ring["radical"]),
                "local": True,
            })
            return
        Y = _find_fitting_element(mod, ring, limits)
        if Y is None:
            raise ResourceLimitError(
                f"endomorphism ring of dim {e} is not local but no splitting "
                f"element was found within the search budget"
            )
        for sub, inc, prj in _fitting_split(mod, Y):
            sub_ring = _summand_ring(sub, inc, prj, ring, limits)
            descend(sub, sub_ring, include @ inc, prj @ project)

    n = module.dim
    descend(
        module, end_ring(module, limits=limits),
        SparseMatrix.identity(n), SparseMatrix.identity(n),
    )

    def sort_key(rec):
        top = max(rec["module"].weights)
        return (tuple(-c for c in top), rec["module"].dim)

    records.sort(key=sort_key)
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
