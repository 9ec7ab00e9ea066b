"""Full-basis oracles for the reduced checks and solves in `homs` and `modules`.

`hom_space` imposes intertwining and `submodule_module` closes under the
Lie generators of g only (`algebra.lie_generators`), and `validate_module`
checks each unordered pair of basis elements once.  The helpers here act
with every basis element of g, and check every ordered pair, as the
definitions say; they share no code with those routes beyond the echelon
engine, the sparse matrix product, the bracket table and the truncation
guard.  Tests compare the two.
"""

from supero.linalg import Echelon, SparseMatrix, vec_add_into
from supero.modules import _truncation_guard
from supero.rational import ONE, QQ, ZERO
from supero.weights import wadd


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
            img = module.action[x].apply(v)
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
                lhs = mat_a.apply(mat_b.apply(v))
                vec_add_into(lhs, mat_b.apply(mat_a.apply(v)), QQ(-sign))
                rhs = {}
                for k, coeff in terms.items():
                    vec_add_into(rhs, module.action[k].apply(v), coeff)
                if lhs != rhs:
                    return False
    return True
