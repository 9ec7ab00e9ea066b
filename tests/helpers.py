"""Helpers several test files share and no library path needs.

``ad_matrix`` is the adjoint action of one basis element; ``module_json``
is the exact, sorted description of a module the golden writers compare.
"""

from supero.linalg import SparseMatrix
from supero.rational import rat_str


def ad_matrix(g, x_id, domain_ids=None):
    """Matrix of ad(basis_x) on the span of domain_ids (default: all).

    Raises if the image leaves the span.
    """
    if domain_ids is None:
        domain_ids = list(range(g.dim))
    index = {b: k for k, b in enumerate(domain_ids)}
    mat = SparseMatrix(len(domain_ids), len(domain_ids))
    for col, b in enumerate(domain_ids):
        img = g.bracket(x_id, b)
        for target, coeff in img.items():
            if target not in index:
                raise ValueError(
                    f"ad({g.label(x_id)}) leaves the span: hits {g.label(target)}"
                )
            mat.data[(index[target], col)] = coeff
    return mat


def module_json(module):
    """A stable, exact description suitable for golden-file comparison."""
    g = module.g
    acts = {}
    for x in sorted(module.action):
        mat = module.action[x]
        triples = [
            [r, c, rat_str(v)] for (r, c), v in sorted(mat.data.items())
        ]
        acts[g.label(x)] = triples
    params = ",".join(str(p) for p in g.params)
    return {
        "algebra": f"{g.family}({params})",
        "grading": g.grading_kind,
        "kind": module.meta.get("kind", "module"),
        "dim": module.dim,
        "highest_weight": (
            g.weight_str(module.highest_weight)
            if module.highest_weight is not None
            else None
        ),
        "truncated": module.truncated,
        "weights": [g.weight_str(w) for w in module.weights],
        "parities": list(module.parities),
        "labels": list(module.labels),
        "action": acts,
    }
