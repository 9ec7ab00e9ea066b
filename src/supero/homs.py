"""Hom spaces between explicit modules and Fitting decomposition.

Hom computation is a weight-blocked linear solve: a parity-s morphism
preserves weights, shifts parities by s, and intertwines every action
matrix up to the sign (-1)^{s |x|}.

Decomposition into indecomposable summands goes through the even
endomorphism ring: a summand is certified indecomposable when that ring
is local (its dimension minus its radical dimension is 1).  Splitting
idempotents are found from rational eigenvalues of endomorphisms; if the
ring is provably non-local but no splitting idempotent is found within
the configured budget, the failure is reported as a resource error and
never silently converted into a pass.
"""

import random

from .algebra import same_algebra
from .config import DEFAULT_LIMITS
from .errors import ResourceLimitError
from .linalg import Echelon, SparseMatrix, algebra_radical
from .modules import submodule_module
from .rational import ONE, QQ, ZERO


# ---------------------------------------------------------------------------
# hom spaces


def hom_space(src, dst, parity=None, limits=DEFAULT_LIMITS):
    """Basis of the g-morphisms src -> dst as matrices (dst.dim x src.dim).

    With parity=None returns (even_basis, odd_basis); with parity 0 or 1
    returns the single list.  The basis is canonical: reduced kernel of
    the intertwining system over the weight-matched entries.
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
    for x in range(g.dim):
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


def is_module_map(F, src, dst, parity=0):
    g = src.g
    for x in range(g.dim):
        sign = QQ(-1) if parity and g.parity(x) else ONE
        if F @ src.action[x] != (dst.action[x] @ F).scale(sign):
            return False
    return True


# ---------------------------------------------------------------------------
# small exact polynomial helpers (coefficient lists, low degree first)


def _poly_trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def _poly_mul(a, b):
    out = [ZERO] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] += x * y
    return _poly_trim(out)


def _poly_divmod(a, b):
    a = list(a)
    if not b:
        raise ZeroDivisionError
    q = [ZERO] * max(0, len(a) - len(b) + 1)
    inv = 1 / b[-1]
    while len(a) >= len(b) and _poly_trim(a):
        if len(a) < len(b):
            break
        c = a[-1] * inv
        d = len(a) - len(b)
        q[d] = c
        for i, y in enumerate(b):
            a[d + i] -= c * y
        _poly_trim(a)
    return _poly_trim(q), _poly_trim(a)


def _poly_ext_gcd(a, b):
    """(g, u, v) with u a + v b = g, g monic."""
    r0, r1 = list(a), list(b)
    s0, s1 = [ONE], []
    t0, t1 = [], [ONE]
    while _poly_trim(list(r1)):
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_trim([x - y for x, y in _zip_pad(s0, _poly_mul(q, s1))])
        t0, t1 = t1, _poly_trim([x - y for x, y in _zip_pad(t0, _poly_mul(q, t1))])
    if r0:
        inv = 1 / r0[-1]
        r0 = [c * inv for c in r0]
        s0 = [c * inv for c in s0]
        t0 = [c * inv for c in t0]
    return r0, s0, t0


def _zip_pad(a, b):
    n = max(len(a), len(b))
    return [
        (a[i] if i < len(a) else ZERO, b[i] if i < len(b) else ZERO)
        for i in range(n)
    ]


def _poly_eval_matrix(p, z, n):
    out = SparseMatrix(n, n)
    for c in reversed(p):
        out = out @ z
        if c:
            for i in range(n):
                out.data[(i, i)] = out.data.get((i, i), ZERO) + c
    for key in [k for k, v in out.data.items() if not v]:
        del out.data[key]
    return out


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
    den = 1
    for c in p:
        den = den * int(QQ(c).denominator) // _gcd(den, int(QQ(c).denominator))
    ip = [int(QQ(c) * den) for c in p]
    a0, ak = abs(ip[0]), abs(ip[-1])
    for num in _divisors(a0):
        for d in _divisors(ak):
            for cand in (QQ(num, d), QQ(-num, d)):
                if cand in roots:
                    continue
                if not _poly_eval(p, cand):
                    roots.append(cand)
    return sorted(roots)


def _poly_eval(p, x):
    out = ZERO
    for c in reversed(p):
        out = out * x + c
    return out


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def _divisors(n):
    n = abs(n)
    if n == 0:
        return [1]
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


# ---------------------------------------------------------------------------
# endomorphism rings


def end_ring(module, limits=DEFAULT_LIMITS):
    """Even endomorphism basis plus its multiplication table and radical.

    Returns a dict with keys basis (matrices), products (coordinate
    table), radical (list of coordinate dicts), local (bool).
    """
    basis = hom_space(module, module, parity=0, limits=limits)
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


def _find_split_idempotent(module, ring, limits):
    """A nontrivial even idempotent endomorphism, or None within budget.

    Candidates are endomorphisms with a rational eigenvalue whose minimal
    polynomial properly factors; the idempotent is the polynomial
    projection onto one primary component.
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
        p = _min_poly_by_powers(z, n, e)
        if len(p) < 3:  # degree < 2: scalar, no split
            continue
        for r in _rational_roots(p):
            lin = [-r, ONE]
            f = [ONE]
            rem = list(p)
            while True:
                q, rr = _poly_divmod(rem, lin)
                if _poly_trim(list(rr)):
                    break
                f = _poly_mul(f, lin)
                rem = q
            if len(f) - 1 == 0 or len(rem) - 1 + (len(f) - 1) != len(p) - 1:
                continue
            if len(rem) == 1:  # (t-r)^deg: single primary component
                continue
            gpoly, u, _v = _poly_ext_gcd(f, rem)
            if len(gpoly) != 1:
                continue
            proj = _poly_eval_matrix(_poly_mul(u, f), z, n)
            if proj.is_zero() or proj == SparseMatrix.identity(n):
                continue
            if proj @ proj != proj:
                raise AssertionError("primary projection failed to be idempotent")
            return proj
    return None


def _min_poly_by_powers(z, n, bound):
    powers = [SparseMatrix.identity(n)]
    flat_ech = Echelon([dict(powers[0].data)])
    cur = powers[0]
    for _ in range(n + 1):
        cur = cur @ z
        if flat_ech.add(dict(cur.data)) is None:
            return _min_poly_by_solve(powers, cur)
        powers.append(cur)
    raise AssertionError("minimal polynomial computation ran away")


def _image_split(module, proj):
    """Split M along an idempotent: ((sub1, S1, P1), (sub2, S2, P2))."""
    n = module.dim
    comp = SparseMatrix.identity(n) - proj
    out = []
    for p in (proj, comp):
        cols = p.cols()
        sub, include = submodule_module(module, [c for c in cols if c])
        sols = include.solve_multi(cols)
        project = SparseMatrix(sub.dim, n)
        for j, sol in enumerate(sols):
            if sol is None:
                raise AssertionError("idempotent image escaped its span")
            for i, c in sol.items():
                project.data[(i, j)] = c
        out.append((sub, include, project))
    return out


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

    def descend(mod, include, project):
        ring = end_ring(mod, limits=limits)
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
        proj = _find_split_idempotent(mod, ring, limits)
        if proj is None:
            raise ResourceLimitError(
                f"endomorphism ring of dim {e} is not local but no splitting "
                f"idempotent was found within the search budget"
            )
        for sub, inc, prj in _image_split(mod, proj):
            descend(sub, include @ inc, prj @ project)

    n = module.dim
    descend(module, SparseMatrix.identity(n), SparseMatrix.identity(n))

    def sort_key(rec):
        top = max(rec["module"].weights)
        return (tuple(-c for c in top), rec["module"].dim)

    records.sort(key=sort_key)
    return records


# ---------------------------------------------------------------------------
# isomorphism testing


def is_isomorphic(src, dst, allow_parity_flip=False, limits=DEFAULT_LIMITS,
                  seed=None):
    """Decide src = dst, never guessing.

    Returns {"isomorphic": bool, "certified": True, "witness": matrix or
    None, "parity": 0/1/None, "reason": str}.  A negative answer is only
    returned with a certificate (dimension or character mismatch, empty
    or provably singular hom space).  If the question cannot be settled
    within the search budget a ResourceLimitError is raised instead of
    guessing.
    """
    if not same_algebra(src.g, dst.g):
        raise ValueError("modules live over different algebras")
    if limits.search_budget <= 0:
        raise ResourceLimitError(
            "isomorphism search budget is 0; cannot certify either way"
        )
    if src.dim != dst.dim:
        return _no("dimension mismatch")
    sc_src = src.super_character()
    sc_dst = dst.super_character()
    parities = []
    if sc_src == sc_dst:
        parities.append(0)
    if allow_parity_flip and {w: (d1, d0) for w, (d0, d1) in sc_src.items()} == sc_dst:
        parities.append(1)
    if not parities:
        return _no("character mismatch")

    rng = random.Random(seed if seed is not None else limits.seed)
    budget = limits.search_budget
    undecided = False
    for s in parities:
        basis = hom_space(src, dst, parity=s, limits=limits)
        if not basis:
            continue
        n = src.dim
        tried = 0

        def attempts():
            for F in basis:
                yield F
            for a in range(len(basis)):
                for b in range(a + 1, len(basis)):
                    yield basis[a] + basis[b]
            while True:
                acc = SparseMatrix(dst.dim, src.dim)
                for F in basis:
                    c = QQ(rng.randint(-4, 4))
                    if c:
                        acc = acc + F.scale(c)
                yield acc

        for F in attempts():
            if tried >= budget:
                break
            tried += 1
            if F.rank() == n:
                return {
                    "isomorphic": True,
                    "certified": True,
                    "witness": F,
                    "parity": s,
                    "reason": "invertible morphism found",
                }
        if len(basis) == 1:
            # the whole hom space is singular: certified negative for s
            continue
        undecided = True

    if undecided:
        raise ResourceLimitError(
            "isomorphism undecided within search budget: hom space has "
            "dimension > 1 but no invertible combination was found"
        )
    return _no("no invertible morphism exists")


def _no(reason):
    return {
        "isomorphic": False,
        "certified": True,
        "witness": None,
        "parity": None,
        "reason": reason,
    }
