"""Full-basis oracles for the generator-based solves in `homs` and `modules`.

`hom_space` imposes intertwining and `submodule_module` closes under the
Lie generators of g only (`algebra.lie_generators`).  The helpers here act
with every basis element of g instead, as the definitions say, and share
no code with those routes beyond the echelon engine and the bracket
table.  Tests compare the two.
"""

from supero.linalg import Echelon, SparseMatrix
from supero.rational import ONE, QQ, ZERO


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
