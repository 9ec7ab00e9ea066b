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

`jacobi_by_triples` is the triple loop `validate_algebra` ran before it
checked the Jacobi identity as the bracket relation of the adjoint module
through `validate_module`: the super Jacobi identity on every ordered
triple of basis elements, and the torus acting by the recorded weights.

`cochain_matrices` assembles the differentials of a `KacExtensions`
complex, which `src/` keeps as column views only, so that tests can
check d1 d0 = 0 with the sparse matrix product.

`form_radical` is the radical of the contravariant form, a canonical
basis read off its Gram blocks; `forms.maximal_submodule` reads the same
vectors off the simple raisings instead.

`ext_dimension_by_raisings` counts Ext^1 multiplicities as highest-weight
vectors of H^1, solving for the classes the simple even raisings kill;
`KacExtensions.ext_dimension` reads them off H^1's weight dimensions by
Weyl's character formula instead.

`ext1_by_direct_solve` finds Ext^1(top, bottom) and a glueing block by
solving the bracket identity for an upper-triangular off-diagonal block
over every pair of basis elements of g; `structure.ext1_with_representative`
builds its block from a g0-highest-weight cocycle of the cochain complex
instead.

`projective_cover_by_splitting` is the route `structure.projective_cover`
took before it built P(lam) as a tilting module: induce V(lam) from the
even part alone (`induced_projective`, dimension 4^(m n) dim V(lam)),
keep the one Fitting summand with a map onto L(lam) (`summand_onto`) and
peel its Kac flag off its character (`delta_flag`).

`cartan_cover_by_splitting` is the route `structure.projective_cover_h`
took before it induced u(lam) from h0 plus the odd Cartan elements with
a nonzero square: induce from h0 alone (`cartan_induced`) and keep the
first Fitting summand with a map onto u(lam).
"""

from itertools import chain, product

from supero.config import DEFAULT_LIMITS
from supero.algebra import same_algebra
from supero.errors import DominanceError, GradingError, ResourceLimitError
from supero.forms import (
    contravariant_form, even_levi, kac_module, simple_even_module, simple_module,
)
from supero.homs import (
    _canonical_basis, _combine, _divide_linear, _primitive_idempotents,
    _rational_roots, _summand, end_ring, fitting_decompose, hom_dims, hom_space,
)
from supero.linalg import Echelon, SparseMatrix, algebra_radical, vec_add_into
from supero.modules import (
    _truncation_guard, copy_module, induced_module, restrict_module, submodule_module,
)
from supero.rational import QQ
from supero.weights import root_leq, wadd, weight, wsub


def apply(mat, vec):
    """mat . vec for a dict-vector, summed entry by entry over mat.data."""
    out = {}
    for (i, j), a in mat.data.items():
        c = vec.get(j)
        if c:
            t = out.get(i, 0) + a * c
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
        sign = QQ(-1) if s and g.parity(x) else 1
        for (k, j), v in src.action[x].data.items():
            for i in range(dst.dim):
                var = var_idx.get((i, k))
                if var is not None:
                    row = equations.setdefault((x, i, j), {})
                    row[var] = row.get(var, 0) + v
        for (i, k), v in dst.action[x].data.items():
            for j in range(src.dim):
                var = var_idx.get((k, j))
                if var is not None:
                    row = equations.setdefault((x, i, j), {})
                    row[var] = row.get(var, 0) - sign * v
    mat = SparseMatrix(len(equations), len(variables), {
        (r, var): c for r, key in enumerate(sorted(equations))
        for var, c in equations[key].items()
    })
    return mat, variables


def full_basis_hom_space(src, dst, parity):
    """Canonical basis of Hom_s(src, dst) from the full-basis system."""
    mat, variables = full_basis_hom_system(src, dst, parity)
    if not variables:
        return []
    return [
        SparseMatrix(dst.dim, src.dim, {variables[var]: c for var, c in kvec.items()})
        for kvec in mat.kernel_basis()
    ]


def form_radical(module):
    """Canonical basis of the radical of the contravariant form, in
    module coordinates: the kernel basis of each Gram block, weights
    descending."""
    form = contravariant_form(module)
    spaces = module.weight_spaces()
    return tuple(
        {spaces[w][k]: c for k, c in kvec.items()}
        for w in sorted(form.gram, reverse=True)
        for kvec in form.gram[w].kernel_basis()
    )


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
        data = module.action[t].data
        if any(r != c for r, c in data):
            return False
        if any(data.get((r, r), 0) != QQ(module.weights[r][coord]) for r in range(n)):
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
                v = {i: 1}
                lhs = apply(mat_a, apply(mat_b, v))
                vec_add_into(lhs, apply(mat_b, apply(mat_a, v)), QQ(-sign))
                rhs = {}
                for k, coeff in terms.items():
                    vec_add_into(rhs, apply(module.action[k], v), coeff)
                if lhs != rhs:
                    return False
    return True


def jacobi_by_triples(g):
    """True when every torus element t acts on g by ad diagonally with
    the recorded weights, [t, b] = wt(b)_t b, and the super Jacobi identity

        [a, [b, c]] - [[a, b], c] - (-1)^{|a||b|} [b, [a, c]] = 0

    holds on every ordered triple (a, b, c) of basis elements."""
    for t in g.t_ids:
        coord = g.t_coord[t]
        for b in range(g.dim):
            br = g.bracket(t, b)
            if br.get(b, 0) != g.weight_of(b)[coord] or any(k != b for k in br):
                return False
    for a, b, c in product(range(g.dim), repeat=3):
        lhs = {}
        for k, v in g.bracket(b, c).items():
            vec_add_into(lhs, g.bracket(a, k), v)
        for k, v in g.bracket(a, b).items():
            vec_add_into(lhs, g.bracket(k, c), -v)
        s = -1 if g.parity(a) and g.parity(b) else 1
        for k, v in g.bracket(a, c).items():
            vec_add_into(lhs, g.bracket(b, k), -s * v)
        if lhs:
            return False
    return True


def cochain_matrices(ke):
    """(d0, d1) of the cochain complex ``ke`` as sparse matrices, read off
    its column views, so a test can multiply them."""
    n1 = len(ke.c1_basis)
    d0 = SparseMatrix(n1, ke.M.dim, {
        (r, i): v for i, col in enumerate(ke.d0_cols) for r, v in col.items()
    })
    d1 = SparseMatrix(len(ke.pairs) * ke.M.dim, n1, {
        (r, k): v for k, col in enumerate(ke.d1_cols) for r, v in col.items()
    })
    return d0, d1


def _cocycle_data(ke, cols_of, w, p):
    """(C^1 columns at (w, p), cocycle basis, coboundary basis) of the
    cochain complex ``ke``, coboundaries in block-local coordinates."""
    cols = ke.blocks.get((w, p), [])
    if not cols:
        return [], [], []
    local = {c: k for k, c in enumerate(cols)}
    block = [ke.d1_cols[c] for c in cols]
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
                elif c != 0:
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
            out[col] = out.get(col, 0) + c * cc
        for y in ke.pos:
            coeff = g.bracket(e, y).get(x, 0)
            if coeff != 0:
                col = ke.c1_index[(y, i)]
                out[col] = out.get(col, 0) - coeff * c
    return {k: v for k, v in out.items() if v != 0}


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
        block = ke.blocks.get((mu, parity), [])
        target = {c: k for k, c in enumerate(block)}
        eq = {r: {} for r in range(len(target))}
        for k in range(nz):
            for col, v in _raising_action(ke, cols_of, e, cols, zs[k]).items():
                eq[target[col]][k] = eq[target[col]].get(k, 0) + v
        for t, i in enumerate(idxs):
            for x in ke.pos:
                for j, c in cols_of[x][i].items():
                    col = ke.c1_index[(x, j)]
                    if col in target:
                        r = target[col]
                        eq[r][off + t] = eq[r].get(off + t, 0) - c
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
# the direct route to Ext^1: solving for an upper-triangular glueing block


def _cochain_variables(bottom, top_at):
    """Variables (x, i, j) for a glueing block Phi(x): top -> bottom.

    top_at maps (weight, parity) to the ascending basis indices of top
    there.  Torus generators get no glueing entries: a nonzero block there
    would put a Jordan block into the torus action, which leaves the
    category of weight modules.
    """
    g = bottom.g
    vars_ = []
    for x in range(g.dim):
        if x in g.t_coord:
            continue
        wx = g.weight_of(x)
        px = g.parity(x)
        for i in range(bottom.dim):
            key = (wsub(bottom.weights[i], wx), (bottom.parities[i] - px) % 2)
            for j in top_at.get(key, ()):
                vars_.append((x, i, j))
    return vars_


def glue_cochains(bottom, top, limits=DEFAULT_LIMITS):
    """(variables, cocycle basis, coboundaries) of the glueing system.

    A short exact sequence bottom -> E -> top amounts to an action in
    block upper-triangular form; the off-diagonal block Phi must satisfy
    the bracket identity (the cocycles, a kernel basis over the variables
    (x, i, j)) and is trivial exactly when it has the form
    A_bottom(x) psi - psi A_top(x) (the coboundaries, one per
    weight-matched entry of an even psi).
    """
    g = bottom.g
    if not same_algebra(g, top.g):
        raise ValueError("modules live over different algebras")
    top_at = {}
    for j, key in enumerate(zip(top.weights, top.parities)):
        top_at.setdefault(key, []).append(j)
    vars_ = _cochain_variables(bottom, top_at)
    vindex = {v: k for k, v in enumerate(vars_)}
    if len(vars_) > limits.max_hom_vars:
        raise ResourceLimitError(
            f"{len(vars_)} glueing variables exceed limit {limits.max_hom_vars}"
        )
    brow = [bottom.action[x].rows() for x in range(g.dim)]
    bcol = [bottom.action[x].cols() for x in range(g.dim)]
    tcol = [top.action[x].cols() for x in range(g.dim)]
    trow = [top.action[x].rows() for x in range(g.dim)]
    rows = []

    def add_block(eqs, key, coeff):
        if coeff != 0 and key in vindex:
            col = vindex[key]
            eqs[col] = eqs.get(col, 0) + coeff

    for a in range(g.dim):
        pa = g.parity(a)
        for b in range(a, g.dim):
            pb = g.parity(b)
            if a == b and pa == 0:
                continue
            sign = -1 if (pa and pb) else 1
            br = g.bracket(a, b)
            half = a == b
            scale = QQ(1, 2) if half else 1
            wab = wadd(g.weight_of(a), g.weight_of(b))
            for i in range(bottom.dim):
                # every term of equation (a, b, i, j) is a variable at
                # weight wt_i - wt_a - wt_b and parity |i| + |a| + |b| of
                # j (actions and the bracket are homogeneous); any other
                # j gives an empty row
                key = (
                    wsub(bottom.weights[i], wab),
                    (bottom.parities[i] + pa + pb) % 2,
                )
                for j in top_at.get(key, ()):
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
                    for x, coeff in br.items():
                        add_block(eqs, (x, i, j), -scale * coeff)
                    eqs = {k: v for k, v in eqs.items() if v != 0}
                    if eqs:
                        rows.append(eqs)
    ent = {}
    for r, row in enumerate(rows):
        for c, v in row.items():
            ent[(r, c)] = v
    cocycles = SparseMatrix(len(rows), len(vars_), ent).kernel_basis()
    # trivial blocks: psi runs over even weight-preserving linear maps
    coboundaries = []
    for i in range(bottom.dim):
        for j in top_at.get((bottom.weights[i], bottom.parities[i]), ()):
            blk = {}
            for x in range(g.dim):
                for k, v in bcol[x][i].items():
                    key = (x, k, j)
                    if key in vindex:
                        blk[vindex[key]] = blk.get(vindex[key], 0) + v
                for k, v in trow[x][j].items():
                    key = (x, i, k)
                    if key in vindex:
                        blk[vindex[key]] = blk.get(vindex[key], 0) - v
            blk = {k: v for k, v in blk.items() if v != 0}
            if blk:
                coboundaries.append(blk)
    return vars_, cocycles, coboundaries


def ext1_by_direct_solve(bottom, top, limits=DEFAULT_LIMITS):
    """(dim Ext^1(top, bottom), glueing block or None): the dimension of
    the cocycles modulo the coboundaries and, when positive, the first
    cocycle outside them in a deterministic echelon order, as a block
    {x: {(i, j): entry}}."""
    vars_, cocycles, coboundaries = glue_cochains(bottom, top, limits)
    seen = Echelon(coboundaries)
    dim = 0
    witness = None
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


def block_vector(variables, block):
    """A glueing block {x: {(i, j): entry}} as a vector over the direct
    route's variables; an entry with no variable is an AssertionError."""
    vindex = {v: k for k, v in enumerate(variables)}
    vec = {}
    for x, entries in block.items():
        for (i, j), v in entries.items():
            if (x, i, j) not in vindex:
                raise AssertionError(f"block entry {(x, i, j)} has no variable")
            if v:
                vec[vindex[(x, i, j)]] = v
    return vec


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
        vec[(tag, k)] = 1
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
    radical = algebra_radical(products, e, limits=limits)
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
            mat = SparseMatrix(len(keys), len(powers), {
                (pos[k], c): v for c, m in enumerate(powers) for k, v in m.data.items()
            })
            sol = mat.solve({pos[k]: v for k, v in cur.data.items()})
            return [-sol.get(k, 0) for k in range(len(powers))] + [1]
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
    both = dict(pieces[0][1].data)
    for (i, j), c in pieces[1][1].data.items():
        both[(i, d + j)] = c
    projects = [{}, {}]
    solutions = SparseMatrix(n, n, both).solve_multi([{j: 1} for j in range(n)])
    for j, sol in enumerate(solutions):
        if sol is None:
            raise AssertionError("Fitting pieces do not span the module")
        for i, c in sol.items():
            if i < d:
                projects[0][(i, j)] = c
            else:
                projects[1][(i - d, j)] = c
    projects = [SparseMatrix(d, n, projects[0]), SparseMatrix(n - d, n, projects[1])]
    return [(sub, inc, prj) for (sub, inc), prj in zip(pieces, projects)]


def summand_ring(sub, inc, prj, ring, limits=DEFAULT_LIMITS):
    """End(sub) = prj End(M) inc, reduced to the canonical basis."""
    maps = [prj @ F @ inc for F in ring["basis"]]
    return ring_from_matrices(sub, _canonical_basis(maps, sub.dim, sub.dim), limits)


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


# ---------------------------------------------------------------------------
# projective covers by splitting the induction from the even part


def induced_projective(g, lam, limits=DEFAULT_LIMITS):
    """Induce V(lam) from the even part alone: a projective module of
    dimension 4^(m n) * dim V(lam) whose summands are the projective
    covers in the block."""
    if g.family != "gl" or g.grading_kind != "compatible":
        raise GradingError("this induction needs gl with the compatible grading")
    m, n = g.params
    V = simple_even_module(g, lam, limits=limits)
    levi, h_ids = even_levi(g)
    key = lambda i: (g.degree_of(i), i)
    order = (
        sorted(g.negative_ids(), key=key)
        + sorted(g.positive_ids(), key=key)
        + sorted(h_ids, key=key)
    )
    P = induced_module(
        g, h_ids, V, order=order, kind="induced_projective", limits=limits,
    )
    expected = (1 << (2 * m * n)) * V.dim
    if P.dim != expected:
        raise AssertionError(f"induced dimension {P.dim}, expected {expected}")
    return P


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


def delta_flag(module, limits=DEFAULT_LIMITS):
    """Multiplicities of induced modules K(mu) in a filtration of module.

    Greedy peel on characters: repeatedly take the lexicographically
    largest remaining weight, require it to be dominant, and subtract the
    character of K at that weight.  Returns the multiset of factor
    weights, a tuple in peel order (repetitions for multiplicity);
    characters do not see the order of the filtration itself.  Raises
    ValueError with a witness when no such filtration can exist.
    """
    g = module.g
    remaining = dict(module.character())
    flag = []
    guard = 0
    while any(v for v in remaining.values()):
        guard += 1
        if guard > limits.iteration_budget:
            raise ResourceLimitError("flag peeling exceeded iteration budget")
        top = max(w for w, v in remaining.items() if v)
        if remaining[top] < 0:
            raise ValueError(
                f"no induced filtration: negative multiplicity at "
                f"{g.weight_str(top)}"
            )
        try:
            kch = kac_module(g, top, limits=limits).character()
        except DominanceError:
            raise ValueError(
                f"no induced filtration: maximal weight {g.weight_str(top)} "
                f"is not dominant"
            )
        for w, v in kch.items():
            left = remaining.get(w, 0) - v
            if left < 0:
                raise ValueError(
                    f"no induced filtration: character goes negative at "
                    f"{g.weight_str(w)} while peeling {g.weight_str(top)}"
                )
            remaining[w] = left
        flag.append(top)
    return tuple(flag)


def projective_cover_by_splitting(g, lam, limits=DEFAULT_LIMITS):
    """P(lam) as the one Fitting summand of Ind_{g0} V(lam) with a map
    onto L(lam), built at lam itself; its meta carries the peeled flag
    (``peeled_flag``, weights lexicographically descending) and
    the (even, odd) dimensions of Hom(P, L(lam)) as ``cosocle_hom``."""
    lam = weight(lam)
    big = induced_projective(g, lam, limits=limits)
    rec, cosocle = summand_onto(big, simple_module(g, lam, limits=limits), limits=limits)
    P = rec["module"]
    flag = delta_flag(P, limits=limits)
    # lam is the cosocle, so it sits once at the bottom of the root order
    if flag.count(lam) != 1 or not all(root_leq(lam, mu) for mu in flag):
        raise AssertionError(
            f"summand flag {[g.weight_str(w) for w in flag]} does not have "
            f"{g.weight_str(lam)} as its unique minimal factor"
        )
    return copy_module(P, meta=dict(P.meta, peeled_flag=flag, cosocle_hom=cosocle))


def cartan_induced(halg, fiber, limits=DEFAULT_LIMITS):
    """Ind_{h0}^h of a module over the q-family Cartan h, odd letters
    first."""
    t_ids = sorted(halg.t_coord)
    odd = [x for x in range(halg.dim) if x not in halg.t_coord]
    return induced_module(
        halg, t_ids, restrict_module(fiber, halg.subalgebra(t_ids)),
        order=odd + t_ids, kind="cartan_projective", limits=limits,
    )


def cartan_cover_by_splitting(halg, fiber, limits=DEFAULT_LIMITS):
    """The first Fitting summand of ``cartan_induced`` with a nonzero map
    onto fiber."""
    recs = fitting_decompose(cartan_induced(halg, fiber, limits=limits), limits=limits)
    return next(
        rec["module"] for rec in recs
        if sum(hom_dims(rec["module"], fiber, limits=limits))
    )
