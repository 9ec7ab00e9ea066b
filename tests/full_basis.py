"""Full-basis oracles for the reduced checks and solves in `homs`,
`modules` and `structure`.

`hom_space` imposes intertwining and `submodule_module` closes under the
Lie generators of g only (`algebra.lie_generators`), and `validate_module`
checks each unordered pair of basis elements once.  The helpers here act
with every basis element of g, and check every ordered pair, as the
definitions say; they share no code with those routes beyond the echelon
engine, the sparse matrix product, the bracket table and the truncation
guard.  Tests compare the two.

`apply` and `act_word` are the plain matrix-vector products the tests act
with; `src/` reads column views taken once instead.

`ext_dimension_by_raisings` counts Ext^1 multiplicities as highest-weight
vectors of H^1, solving for the classes the simple even raisings kill;
`KacExtensions.ext_dimension` reads them off H^1's weight dimensions by
Weyl's character formula instead.
"""

from itertools import chain

from supero.config import DEFAULT_LIMITS
from supero.errors import ResourceLimitError
from supero.forms import even_levi
from supero.homs import _canonical_basis, _divide_linear, _rational_roots, end_ring
from supero.linalg import Echelon, SparseMatrix, algebra_radical, vec_add_into
from supero.modules import _truncation_guard, submodule_module
from supero.rational import ONE, QQ, ZERO
from supero.weights import wadd


def apply(mat, vec):
    """mat . vec for a dict-vector, summed entry by entry over mat.data."""
    out = {}
    for (i, j), a in mat.data.items():
        c = vec.get(j)
        if c:
            t = out.get(i, ZERO) + a * c
            if t:
                out[i] = t
            else:
                del out[i]
    return out


def act_word(module, word, vec):
    """Apply a product of basis elements to vec, rightmost factor first."""
    for x in reversed(word):
        vec = apply(module.action[x], vec)
    return vec


def full_basis_hom_system(src, dst, parity):
    """(matrix, variables): the parity-s intertwining system over every
    basis element of g; its kernel is Hom_s(src, dst) in the variables.

    Unknowns are the weight-matched entries (i, j) of dst.dim x src.dim
    maps shifting parity by s; rows are the (x, i, j) entries of
    F X_src - (-1)^{s |x|} X_dst F, in sorted order, empty rows kept.
    """
    g = src.g
    s = parity % 2
    variables = [
        (i, j)
        for i in range(dst.dim)
        for j in range(src.dim)
        if src.weights[j] == dst.weights[i]
        and (src.parities[j] + s) % 2 == dst.parities[i]
    ]
    var_idx = {v: k for k, v in enumerate(variables)}
    equations = {}
    for x in range(g.dim):
        sign = QQ(-1) if s and g.parity(x) else ONE
        for (k, j), v in src.action[x].data.items():
            for i in range(dst.dim):
                var = var_idx.get((i, k))
                if var is not None:
                    row = equations.setdefault((x, i, j), {})
                    row[var] = row.get(var, ZERO) + v
        for (i, k), v in dst.action[x].data.items():
            for j in range(src.dim):
                var = var_idx.get((k, j))
                if var is not None:
                    row = equations.setdefault((x, i, j), {})
                    row[var] = row.get(var, ZERO) - sign * v
    mat = SparseMatrix(len(equations), len(variables))
    for r, key in enumerate(sorted(equations)):
        for var, c in equations[key].items():
            if c:
                mat.data[(r, var)] = c
    return mat, variables


def full_basis_hom_space(src, dst, parity):
    """Canonical basis of Hom_s(src, dst) from the full-basis system."""
    mat, variables = full_basis_hom_system(src, dst, parity)
    if not variables:
        return []
    basis = []
    for kvec in mat.kernel_basis():
        F = SparseMatrix(dst.dim, src.dim)
        for var, c in kvec.items():
            F.data[variables[var]] = c
        basis.append(F)
    return basis


def full_basis_closure(module, vectors):
    """Reduced echelon basis of the span of the vectors closed under the
    action of every basis element of g."""
    ech = Echelon()
    todo = [dict(v) for v in vectors]
    while todo:
        v = todo.pop()
        if ech.add(v) is None:
            continue
        for x in range(module.g.dim):
            img = apply(module.action[x], v)
            if img:
                todo.append(img)
    ech.full_reduce()
    return ech.basis()


def ordered_pair_validation(module):
    """True when the matrices define a weight supermodule, checked the
    long way: torus diagonality, weight and parity additivity, and

        X_a X_b - (-1)^{|a||b|} X_b X_a = X_{[a,b]}

    on every ordered pair (a, b), by matrix products (or vector by vector
    on the exact instances of a truncated module)."""
    g = module.g
    n = module.dim
    if any(x not in module.action for x in range(g.dim)):
        return False
    for t in g.t_ids:
        coord = g.t_coord[t]
        for (r, c), v in module.action[t].data.items():
            if r != c or v != QQ(module.weights[r][coord]):
                return False
    for x, mat in module.action.items():
        for r, c in mat.data:
            if module.weights[r] != wadd(module.weights[c], g.weight_of(x)):
                return False
            if module.parities[r] != (module.parities[c] + g.parity(x)) % 2:
                return False
    guard = _truncation_guard(module) if module.truncated else None
    for a in range(g.dim):
        mat_a = module.action[a]
        for b in range(g.dim):
            mat_b = module.action[b]
            sign = -1 if g.parity(a) and g.parity(b) else 1
            terms = g.bracket(a, b)
            if guard is None:
                lhs = mat_a @ mat_b - (mat_b @ mat_a).scale(sign)
                rhs = SparseMatrix(n, n)
                for k, coeff in terms.items():
                    rhs = rhs + module.action[k].scale(coeff)
                if lhs != rhs:
                    return False
                continue
            for i in range(n):
                if not guard(i, a, b):
                    continue
                v = {i: ONE}
                lhs = apply(mat_a, apply(mat_b, v))
                vec_add_into(lhs, apply(mat_b, apply(mat_a, v)), QQ(-sign))
                rhs = {}
                for k, coeff in terms.items():
                    vec_add_into(rhs, apply(module.action[k], v), coeff)
                if lhs != rhs:
                    return False
    return True


def _cocycle_data(ke, cols_of, w, p):
    """(C^1 columns at (w, p), cocycle basis, coboundary basis) of the
    cochain complex ``ke``, coboundaries in block-local coordinates."""
    cols = ke._weight_blocks().get((w, p), [])
    if not cols:
        return [], [], []
    local = {c: k for k, c in enumerate(cols)}
    d1_cols = ke.d1.cols()
    block = [d1_cols[c] for c in cols]
    remap = {r: k for k, r in enumerate(sorted(set().union(*block)))}
    ent = {
        (remap[r], k): v for k, col in enumerate(block) for r, v in col.items()
    }
    zs = SparseMatrix(len(remap), len(cols), ent).kernel_basis()
    bs = []
    for i in ke.M.weight_space(w):
        if ke.M.parities[i] != p:
            continue
        img = {}
        for x in ke.pos:
            for j, c in cols_of[x][i].items():
                col = ke.c1_index[(x, j)]
                if col in local:
                    img[local[col]] = c
                elif c != ZERO:
                    raise AssertionError("coboundary left its block")
        if img:
            bs.append(img)
    return cols, zs, bs


def _raising_action(ke, cols_of, e, vec_cols, vec):
    """Apply the even raising e to a C^1 cochain given on vec_cols:
    (e.f)(y) = e.f(y) - f([e, y])."""
    out = {}
    g = ke.g
    for k, c in vec.items():
        x, i = ke.c1_basis[vec_cols[k]]
        for j, cc in cols_of[e][i].items():
            col = ke.c1_index[(x, j)]
            out[col] = out.get(col, ZERO) + c * cc
        for y in ke.pos:
            coeff = g.bracket(e, y).get(x, ZERO)
            if coeff != ZERO:
                col = ke.c1_index[(y, i)]
                out[col] = out.get(col, ZERO) - coeff * c
    return {k: v for k, v in out.items() if v != ZERO}


def ext_dimension_by_raisings(ke, lam, parity):
    """dim Hom_{g0}(L0(lam), H^1) of the cochain complex ``ke`` at one
    cochain parity, as the number of independent classes of weight lam
    that every simple even raising sends to a coboundary."""
    g, M = ke.g, ke.M
    lam = tuple(QQ(c) for c in lam)
    levi, _ = even_levi(g)
    raisings = sorted(g.by_label[levi.label(i)] for i in levi.ids_of_degree(1))
    cols_of = {x: M.action[x].cols() for x in ke.pos + raisings}
    cols, zs, bs = _cocycle_data(ke, cols_of, lam, parity)
    if not zs:
        return 0
    rank_b = len(Echelon(bs))
    if not raisings:
        return len(zs) - rank_b
    # variables: coefficients t_k on the cocycle basis, then one copy of
    # the matching piece of M at lam + wt(e) per simple raising e
    nz = len(zs)
    var_m = []
    offset = nz
    for e in raisings:
        mu = wadd(lam, g.weight_of(e))
        idxs = [i for i in M.weight_space(mu) if M.parities[i] == parity]
        var_m.append((e, mu, idxs, offset))
        offset += len(idxs)
    rows = []
    for e, mu, idxs, off in var_m:
        block = ke._weight_blocks().get((mu, parity), [])
        target = {c: k for k, c in enumerate(block)}
        eq = {r: {} for r in range(len(target))}
        for k in range(nz):
            for col, v in _raising_action(ke, cols_of, e, cols, zs[k]).items():
                eq[target[col]][k] = eq[target[col]].get(k, ZERO) + v
        for t, i in enumerate(idxs):
            for x in ke.pos:
                for j, c in cols_of[x][i].items():
                    col = ke.c1_index[(x, j)]
                    if col in target:
                        r = target[col]
                        eq[r][off + t] = eq[r].get(off + t, ZERO) - c
        rows.extend(v for v in eq.values() if v)
    ent = {(r, c): v for r, row in enumerate(rows) for c, v in row.items()}
    sols = SparseMatrix(len(rows), offset, ent).kernel_basis()
    # dimension of the cocycle projection of the solution space
    proj = Echelon({k: v for k, v in s.items() if k < nz} for s in sols)
    dim = len(proj) - rank_b
    if dim < 0:
        raise AssertionError("coboundaries escaped the solution space")
    return dim


# ---------------------------------------------------------------------------
# the n x n Fitting route: products as matrices, splitting by Y = (z - r)^k


def ring_from_matrices(module, basis, limits=DEFAULT_LIMITS):
    """The ``end_ring`` record of module from its canonical even basis,
    every product F_a F_b taken as an n x n matrix and reduced against
    the basis; a product outside the span is an AssertionError."""
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


def _min_poly_by_powers(z, n):
    """Monic minimal polynomial of the n x n matrix z, from its powers."""
    powers = [SparseMatrix.identity(n)]
    ech = Echelon([dict(powers[0].data)])
    cur = powers[0]
    for _ in range(n + 1):
        cur = cur @ z
        if ech.add(dict(cur.data)) is None:
            keys = sorted({k for m in powers for k in m.data} | set(cur.data))
            pos = {k: i for i, k in enumerate(keys)}
            mat = SparseMatrix(len(keys), len(powers))
            for c, m in enumerate(powers):
                for k, v in m.data.items():
                    mat.data[(pos[k], c)] = v
            sol = mat.solve({pos[k]: v for k, v in cur.data.items()})
            return [-sol.get(k, ZERO) for k in range(len(powers))] + [ONE]
        powers.append(cur)
    raise AssertionError("minimal polynomial computation ran away")


def fitting_element(module, ring):
    """Y = (z - r)^k with im Y and ker Y both nonzero, for the first z among
    the basis and then the pairwise sums of basis elements whose minimal
    polynomial p has a rational root r of multiplicity k with
    (t - r)^k != p; None when there is none."""
    basis = ring["basis"]
    e = len(basis)
    n = module.dim
    sums = (basis[a] + basis[b] for a in range(e) for b in range(a + 1, e))
    for z in chain(basis, sums):
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


def fitting_split(module, Y):
    """Split M = im Y + ker Y: [(sub_im, I1, P1), (sub_ker, I2, P2)], the
    pieces closed by ``submodule_module`` and both projections solved
    against [I1 | I2]."""
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


def summand_ring(sub, inc, prj, ring, limits=DEFAULT_LIMITS):
    """End(sub) = prj End(M) inc, reduced to the canonical basis."""
    maps = [prj @ F @ inc for F in ring["basis"]]
    return ring_from_matrices(sub, _canonical_basis(maps, sub.dim), limits)


def matrix_fitting_decompose(module, limits=DEFAULT_LIMITS):
    """``fitting_decompose`` the n x n way: every ring from matrix
    products, each piece split by a Fitting element Y and re-closed as a
    submodule, each piece's ring read as prj End(M) inc."""
    records = []

    def descend(mod, ring, include, project):
        if ring["local"]:
            records.append({
                "module": mod,
                "include": include,
                "project": project,
                "end_even_dim": len(ring["basis"]),
                "end_radical_dim": len(ring["radical"]),
                "local": True,
            })
            return
        Y = fitting_element(mod, ring)
        if Y is None:
            raise ResourceLimitError("no splitting element among the candidates")
        for sub, inc, prj in fitting_split(mod, Y):
            sub_ring = summand_ring(sub, inc, prj, ring, limits)
            descend(sub, sub_ring, include @ inc, prj @ project)

    n = module.dim
    basis = end_ring(module, limits=limits)["basis"]
    descend(
        module, ring_from_matrices(module, basis, limits),
        SparseMatrix.identity(n), SparseMatrix.identity(n),
    )
    records.sort(key=lambda rec: (
        tuple(-c for c in max(rec["module"].weights)), rec["module"].dim,
    ))
    return records
