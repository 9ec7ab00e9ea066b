"""Explicit weight supermodules with exact rational action matrices.

A module is stored concretely: every basis vector carries a weight and a
parity, and every algebra basis element acts through one sparse matrix.
Everything downstream (forms, hom spaces, filtrations) works through this
single representation, so :func:`validate_module` is the final word on
whether a constructed action really is a representation.

Induction from a subalgebra is done once, generically: pick a PBW order
that ranks the free directions before the inducing subalgebra, enumerate
normal monomials in the free directions, and read the action straight off
the straightening algorithm.  Truncated variants (finite slices of
infinite-dimensional induced modules) drop monomials outside a degree or
weight cutoff; the validator knows which axiom instances are exact on the
retained vectors and keeps only those.
"""

from types import MappingProxyType

from .algebra import lie_generators
from .config import DEFAULT_LIMITS
from .errors import ResourceLimitError, TruncationError
from .linalg import Echelon, SparseMatrix, apply_cols, vec_add_into
from .pbw import (
    PbwAlgebra,
    monomial_degree,
    monomial_parity,
    monomial_str,
    monomial_weight,
    monomials,
)
from .weights import wadd, wneg


class ExplicitModule:
    """A finite-dimensional weight supermodule given by explicit matrices.

    A module is an immutable value: setting or deleting an attribute after
    ``__init__`` raises, and ``action`` and ``meta`` are read-only
    mappings, so the memoised builders hand one module to every caller
    and a derived module is built anew (see ``copy_module``).  Only the
    lazy weight-space table is filled in later.  The action matrices are
    immutable ``SparseMatrix`` values, shared between modules.

    ``flag_record`` is ``(s, blocks)``, ``s`` the sorted ids of the
    inducing subalgebra and ``blocks`` tiling the basis: in a block
    ``(offset, fdim, words)``, vector ``offset + k * fdim + j`` is
    ``words[k] . v_j`` for the fiber vector ``v_j = offset + j``
    (``words[0] = ()``).  :func:`induced_module` writes one block,
    ``structure.glue_extension`` concatenates two records and
    :func:`parity_flip` keeps one; it is None on every other module.
    """

    __slots__ = (
        "g",
        "weights",
        "parities",
        "action",
        "labels",
        "highest_weight",
        "truncated",
        "meta",
        "flag_record",
        "_wspaces",
    )

    def __init__(self, g, weights, parities, action, labels=None,
                 highest_weight=None, truncated=False, meta=None,
                 flag_record=None):
        self.g = g
        self.weights = tuple(tuple(w) for w in weights)
        self.parities = tuple(int(p) % 2 for p in parities)
        if len(self.weights) != len(self.parities):
            raise ValueError("weights and parities disagree in length")
        self.action = MappingProxyType(dict(action))
        n = len(self.weights)
        for x, mat in self.action.items():
            if mat.nrows != n or mat.ncols != n:
                raise ValueError(
                    f"action of {g.label(x)} is {mat.nrows}x{mat.ncols}, expected {n}x{n}"
                )
        if labels is None:
            labels = tuple(f"v{i}" for i in range(n))
        self.labels = tuple(labels)
        self.highest_weight = tuple(highest_weight) if highest_weight is not None else None
        self.truncated = bool(truncated)
        self.meta = MappingProxyType(dict(meta) if meta else {})
        self.flag_record = flag_record
        self._wspaces = None

    def __setattr__(self, name, value):
        # each slot is set once, in __init__; the weight-space cache later
        if name != "_wspaces" and hasattr(self, name):
            raise AttributeError(f"ExplicitModule is immutable: cannot set {name}")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        raise AttributeError(f"ExplicitModule is immutable: cannot delete {name}")

    # -- trivia ------------------------------------------------------------

    @property
    def dim(self):
        return len(self.weights)

    def __repr__(self):
        kind = self.meta.get("kind", "module")
        flag = ", truncated" if self.truncated else ""
        return f"ExplicitModule({kind}, dim={self.dim}{flag})"

    # -- weight bookkeeping ------------------------------------------------

    def weight_spaces(self):
        """Dict weight -> tuple of basis indices, indices ascending."""
        if self._wspaces is None:
            spaces = {}
            for i, w in enumerate(self.weights):
                spaces.setdefault(w, []).append(i)
            self._wspaces = {w: tuple(ix) for w, ix in spaces.items()}
        return self._wspaces

    def weight_space(self, w):
        return self.weight_spaces().get(tuple(w), ())

    def character(self):
        """Dict weight -> total dimension of the weight space."""
        return {w: len(ix) for w, ix in self.weight_spaces().items()}

    def super_character(self):
        """Dict weight -> (even dimension, odd dimension)."""
        out = {}
        for w, ix in self.weight_spaces().items():
            d1 = sum(self.parities[i] for i in ix)
            out[w] = (len(ix) - d1, d1)
        return out


# ---------------------------------------------------------------------------
# validation


def _truncation_guard(module):
    """Return a predicate telling which axiom instances are exact.

    guard(i, x, y) is True when the bracket relation for the pair (x, y)
    applied to basis vector i is fully computed on the retained vectors.
    For degree-truncated modules everything at word degree >= the cutoff
    is retained; for weight-window truncations the retained word weights
    are exactly the window.
    """
    meta = module.meta
    g = module.g
    min_deg = meta.get("min_degree")
    window = meta.get("window")
    word_deg = meta.get("depth_degrees")
    word_wt = meta.get("word_weight")
    if min_deg is None and window is None:
        raise TruncationError(
            "truncated module without truncation metadata; cannot validate"
        )

    def guard(i, x, y):
        if min_deg is not None:
            d = word_deg[i]
            dx = g.degree_of(x)
            dy = g.degree_of(y)
            if d + dx < min_deg or d + dy < min_deg or d + dx + dy < min_deg:
                return False
        if window is not None:
            w = word_wt[i]
            wx = g.weight_of(x)
            wy = g.weight_of(y)
            for target in (wadd(w, wx), wadd(w, wy), wadd(wadd(w, wx), wy)):
                if target not in window:
                    return False
        return True

    return guard


def _bracket_defect(rows, a, b, sign, terms):
    """The columns j at which X_a X_b - sign X_b X_a - sum_k c_k X_k,
    {k: c_k} = terms, is nonzero, read off the row views ``rows`` into
    one {(i, j): value} dict; column j is the relation applied to basis
    vector j."""
    acc = {}
    get = acc.get
    rows_a, rows_b = rows[a], rows[b]
    for i, row in enumerate(rows_a):
        for k, u in row.items():
            for j, v in rows_b[k].items():
                key = (i, j)
                acc[key] = get(key, 0) + u * v
    for i, row in enumerate(rows_b):
        for k, u in row.items():
            u = -sign * u
            for j, v in rows_a[k].items():
                key = (i, j)
                acc[key] = get(key, 0) + u * v
    for k, c in terms.items():
        for i, row in enumerate(rows[k]):
            for j, v in row.items():
                key = (i, j)
                acc[key] = get(key, 0) - c * v
    return {j for (_, j), v in acc.items() if v}


def validate_module(module):
    """Check that the stored matrices really define a weight supermodule.

    Verifies that every torus element acts diagonally by the recorded
    weights (each diagonal entry, zero ones included), weight and parity
    additivity of every action matrix, and the bracket relation

        R(a, b) = X_a X_b - s X_b X_a - X_{[a,b]} = 0,   s = (-1)^{|a||b|},

    on all pairs of algebra basis elements, in one pass over the row
    views (:func:`_bracket_defect`).  Each unordered pair a <= b is
    checked once: R(b, a) = -s R(a, b) whenever the table has
    [b, a] = -s [a, b], so the relation at (b, a) adds nothing; where the
    table breaks that antisymmetry (b, a) is checked as well, so the
    verdict does not depend on the table being a valid one.  On a
    truncated slice the pass is the same and the guard keeps only the
    defect columns (basis vectors) on which the relation is exact on the
    retained vectors (the guard is symmetric in a and b, so the same
    reduction holds there).  ``pairs_checked`` counts the ordered pairs
    checked (one per unordered pair on a valid table), or for truncated
    modules the (pair, exact basis vector) instances.  Returns a report
    dict; see :func:`assert_valid_module`.
    """
    g = module.g
    failures = []
    n = module.dim

    missing = [x for x in range(g.dim) if x not in module.action]
    if missing:
        failures.append(f"no action matrix for {[g.label(x) for x in missing]}")

    for t in g.t_ids:
        coord = g.t_coord[t]
        mat = module.action.get(t)
        if mat is None:
            continue
        for r, c in mat.data:
            if r != c:
                failures.append(f"torus element {g.label(t)} not diagonal at ({r},{c})")
                break
        for r in range(n):
            v = mat.data.get((r, r), 0)
            if v != module.weights[r][coord]:
                failures.append(
                    f"torus eigenvalue of {g.label(t)} on vector {r} is {v}, "
                    f"weight says {module.weights[r][coord]}"
                )
                break

    for x, mat in module.action.items():
        wx = g.weight_of(x)
        px = g.parity(x)
        for (r, c), v in mat.data.items():
            if module.weights[r] != wadd(module.weights[c], wx):
                failures.append(
                    f"{g.label(x)} breaks weight additivity at ({r},{c})"
                )
                break
            if module.parities[r] != (module.parities[c] + px) % 2:
                failures.append(
                    f"{g.label(x)} breaks parity additivity at ({r},{c})"
                )
                break

    ids = [x for x in range(g.dim) if x in module.action]
    guard = _truncation_guard(module) if module.truncated else None
    rows = {x: module.action[x].rows() for x in ids}
    pairs_checked = 0
    for pos, a in enumerate(ids):
        for b in ids[pos:]:
            sign = -1 if g.parity(a) and g.parity(b) else 1
            ordered = [(a, b)]
            if b != a:
                br = g.bracket(a, b)
                if g.bracket(b, a) != {k: -sign * c for k, c in br.items()}:
                    ordered.append((b, a))
            for x, y in ordered:
                bad = _bracket_defect(rows, x, y, sign, g.bracket(x, y))
                where = ""
                if guard is None:
                    pairs_checked += 1
                else:
                    exact = [i for i in range(n) if guard(i, x, y)]
                    pairs_checked += len(exact)
                    bad = [i for i in exact if i in bad]
                    if bad:
                        where = f" on vector {bad[0]}"
                if bad:
                    failures.append(
                        f"bracket relation fails for ({g.label(x)},{g.label(y)}){where}"
                    )

    return {
        "module": repr(module),
        "dim": n,
        "truncated": module.truncated,
        "pairs_checked": pairs_checked,
        "failures": failures,
        "passed": not failures,
    }


def assert_valid_module(module):
    report = validate_module(module)
    if not report["passed"]:
        raise ValueError(
            f"module validation failed: {report['failures'][:4]}"
        )
    return report


# ---------------------------------------------------------------------------
# elementary constructions


def trivial_module(k, lam):
    """The one-dimensional module where the torus acts by lam.

    Non-torus basis elements act by zero; the caller is responsible for
    only using this over subalgebras where that is consistent (e.g. a
    Borel, with lam vanishing on the derived part of the torus span).
    """
    lam = tuple(lam)
    action = {
        x: SparseMatrix(1, 1, {(0, 0): lam[k.t_coord[x]]} if x in k.t_coord else None)
        for x in range(k.dim)
    }
    return ExplicitModule(
        k, [lam], [0], action, labels=("v",),
        highest_weight=lam, meta={"kind": "trivial"},
    )


def restrict_module(module, sub):
    """View a module over a subalgebra of its algebra (matched by label)."""
    parent = module.g
    action = {}
    for r in range(sub.dim):
        action[r] = module.action[parent.id_of(sub.label(r))]
    return ExplicitModule(
        sub, module.weights, module.parities, action, labels=module.labels,
        highest_weight=module.highest_weight, truncated=module.truncated,
        meta=dict(module.meta, kind=f"restrict({module.meta.get('kind', 'module')})"),
    )


def copy_module(module, **changes):
    """The same module with some of ``highest_weight``, ``truncated`` and
    ``meta`` replaced.

    The copy shares the algebra, the basis and the action matrices; it
    never carries the flag record.
    """
    fields = dict(
        highest_weight=module.highest_weight, truncated=module.truncated,
        meta=module.meta,
    )
    if not changes.keys() <= fields.keys():
        raise TypeError(f"copy_module cannot change {sorted(changes.keys() - fields.keys())}")
    fields.update(changes)
    return ExplicitModule(
        module.g, module.weights, module.parities, module.action,
        labels=module.labels, **fields,
    )


def inflate_module(module, big):
    """Extend a module over a subalgebra to a larger one, unmatched
    basis elements acting by zero (matched by label)."""
    small = module.g
    n = module.dim
    action = {}
    for r in range(big.dim):
        lbl = big.label(r)
        if lbl in small.by_label:
            action[r] = module.action[small.id_of(lbl)]
        else:
            action[r] = SparseMatrix(n, n)
    return ExplicitModule(
        big, module.weights, module.parities, action, labels=module.labels,
        highest_weight=module.highest_weight, truncated=module.truncated,
        meta=module.meta,
    )


# ---------------------------------------------------------------------------
# induction


def induced_module(g, sub_ids, fiber, order=None, min_degree=None,
                   weight_window=None, highest_weight=None,
                   kind="induced", limits=DEFAULT_LIMITS):
    """Induce a module from a subalgebra along a PBW basis.

    ``fiber`` must be a module over ``g.subalgebra(sub_ids)`` (matched by
    label and position).  The basis of the result consists of pairs
    (normal monomial in the complementary directions, fiber vector); the
    action is read off the straightening rule, with the trailing
    subalgebra part of each normal word acting on the fiber.

    A ``min_degree`` or ``weight_window`` cutoff yields a
    truncated module: free monomials outside the cutoff are dropped, and
    the result is tagged so the validator knows which axiom instances are
    exact.  An untruncated result carries the one-block flag record
    ``(sorted(sub_ids), ((0, fiber.dim, words),))`` (see ``ExplicitModule``).
    """
    sub_ids = list(sub_ids)
    sub_set = set(sub_ids)
    if len(sub_set) != len(sub_ids):
        raise ValueError("duplicate ids in sub_ids")
    free_ids = [i for i in range(g.dim) if i not in sub_set]
    if fiber.g.dim != len(sub_ids):
        raise ValueError(
            f"fiber algebra has dim {fiber.g.dim}, expected {len(sub_ids)}"
        )
    for r, sid in enumerate(sub_ids):
        if fiber.g.label(r) != g.label(sid):
            raise ValueError(
                f"fiber basis {r} is {fiber.g.label(r)}, expected {g.label(sid)}"
            )

    if order is None:
        key = (lambda i: (g.degree_of(i), i)) if g.degrees is not None else (lambda i: i)
        order = sorted(free_ids, key=key) + sorted(sub_ids, key=key)
    pbw = PbwAlgebra(g, order=order)
    min_sub_rank = min(pbw.rank[s] for s in sub_ids)
    if any(pbw.rank[f] >= min_sub_rank for f in free_ids):
        raise ValueError("PBW order must rank all free ids before sub ids")

    words = tuple(monomials(
        pbw, free_ids, weight_window=weight_window, min_degree=min_degree,
    ))
    fdim = fiber.dim
    total = len(words) * fdim
    if total > limits.max_module_dim:
        raise ResourceLimitError(
            f"induced module dimension {total} exceeds limit {limits.max_module_dim}"
        )
    word_index = {w: k for k, w in enumerate(words)}
    truncated = (
        min_degree is not None or weight_window is not None
        or fiber.truncated
    )

    weights = []
    parities = []
    labels = []
    word_wt = []
    word_deg = []
    graded = g.degrees is not None
    for w in words:
        mw = monomial_weight(g, w)
        mp = monomial_parity(g, w)
        md = monomial_degree(g, w) if graded else None
        ms = monomial_str(g, w)
        for j in range(fdim):
            weights.append(wadd(mw, fiber.weights[j]))
            parities.append((mp + fiber.parities[j]) % 2)
            labels.append(f"{ms}.{fiber.labels[j]}")
            word_wt.append(mw)
            word_deg.append(md)

    sub_local = {sid: r for r, sid in enumerate(sub_ids)}
    fiber_cols = {s: mat.cols() for s, mat in fiber.action.items()}
    action = {}
    for x in range(g.dim):
        mat = {}
        for k, w in enumerate(words):
            expansion = pbw.straighten_word((x,) + w)
            images = {}
            for nword, c in expansion.items():
                cut = len(nword)
                for pos, lid in enumerate(nword):
                    if pbw.rank[lid] >= min_sub_rank:
                        cut = pos
                        break
                prefix = nword[:cut]
                row_word = word_index.get(prefix)
                if row_word is None:
                    if truncated:
                        continue
                    raise AssertionError(
                        f"free monomial {prefix} missing from untruncated basis"
                    )
                suffix = tuple(sub_local[s] for s in nword[cut:])
                images.setdefault(row_word, []).append((suffix, c))
            for j in range(fdim):
                col = k * fdim + j
                for row_word, emits in images.items():
                    acc = {}
                    for suffix, c in emits:
                        vec = {j: 1}
                        for s in reversed(suffix):
                            if not vec:
                                break
                            vec = apply_cols(fiber_cols[s], vec)
                        vec_add_into(acc, vec, c)
                    base = row_word * fdim
                    for jj, cv in acc.items():
                        mat[(base + jj, col)] = mat.get((base + jj, col), 0) + cv
        action[x] = SparseMatrix(total, total, mat)

    meta = {
        "kind": kind,
        "min_degree": min_degree,
        "depth_degrees": tuple(word_deg) if graded else None,
        "window": frozenset(tuple(w) for w in weight_window) if weight_window else None,
        "word_weight": tuple(word_wt),
    }
    return ExplicitModule(
        g, weights, parities, action, labels=labels,
        highest_weight=highest_weight, truncated=truncated, meta=meta,
        flag_record=None if truncated else (tuple(sorted(sub_ids)), ((0, fdim, words),)),
    )


def word_action(cols, vec):
    """The function w -> w . vec on the PBW words of a flag record, a
    word acting letter by letter from the right through the column views
    ``cols``.  Images are memoised, so a suffix shared by several words
    is applied once; they are shared, and callers must not mutate them."""
    images = {(): vec}

    def image(w):
        if w not in images:
            images[w] = apply_cols(cols[w[0]], image(w[1:]))
        return images[w]

    return image


# ---------------------------------------------------------------------------
# duals and parity


def dual_module(module):
    """The dual space with the standard sign rule, weights negated.

    (x.f)(v) = -(-1)^{|x||f|} f(x.v).  Truncated modules have no honest
    dual (the missing vectors pair nontrivially), so this raises.
    """
    if module.truncated:
        raise TruncationError("cannot dualize a truncated module slice")
    g = module.g
    n = module.dim
    action = {}
    for x in range(g.dim):
        px = g.parity(x)
        action[x] = SparseMatrix(n, n, {
            (c, r): v if px and module.parities[c] else -v
            for (r, c), v in module.action[x].data.items()
        })
    return ExplicitModule(
        g,
        [wneg(w) for w in module.weights],
        module.parities,
        action,
        labels=tuple(f"{lbl}*" for lbl in module.labels),
        meta={"kind": f"dual({module.meta.get('kind', 'module')})"},
    )


def tau_dual(module):
    """The contravariant dual: weights preserved, action twisted by the
    transpose antiautomorphism e(i,j) -> e(j,i)."""
    if module.truncated:
        raise TruncationError("cannot dualize a truncated module slice")
    g = module.g
    if g.transpose is None:
        raise ValueError(f"{g.family}{g.params} has no transpose map installed")
    action = {}
    for x in range(g.dim):
        action[x] = module.action[g.transpose[x]].transpose()
    return ExplicitModule(
        g,
        module.weights,
        module.parities,
        action,
        labels=tuple(f"{lbl}^" for lbl in module.labels),
        highest_weight=None,
        meta={"kind": f"tau_dual({module.meta.get('kind', 'module')})"},
    )


def parity_flip(module):
    """Same action matrices and flag record, all parities reversed."""
    flips = module.meta.get("parity_flips", 0) + 1
    return ExplicitModule(
        module.g,
        module.weights,
        [1 - p for p in module.parities],
        module.action,
        labels=module.labels,
        highest_weight=module.highest_weight,
        truncated=module.truncated,
        meta=dict(module.meta, parity_flips=flips),
        flag_record=module.flag_record,
    )


# ---------------------------------------------------------------------------
# sub and quotient


def intertwining_ids(*modules):
    """Basis ids whose actions decide intertwining and submodule closure.

    ``lie_generators`` for modules that pass ``validate_module``; every
    basis id when one of them is a truncated slice, whose bracket relation
    holds only on the instances its guard marks exact.
    """
    g = modules[0].g
    if any(M.truncated for M in modules):
        return range(g.dim)
    return lie_generators(g)


def _closure_echelon(module, vectors, cols):
    """Row echelon basis of the submodule generated by the given vectors.

    Seed vectors must be weight- and parity-homogeneous; echelon reduction
    then keeps every row homogeneous automatically (two vectors sharing a
    leading coordinate share that coordinate's weight and parity).
    ``cols`` maps each basis id to the column view of its action.
    """
    for v in vectors:
        coords = [i for i in v if v[i]]
        if not coords:
            continue
        w0 = module.weights[coords[0]]
        p0 = module.parities[coords[0]]
        for i in coords[1:]:
            if module.weights[i] != w0 or module.parities[i] != p0:
                raise ValueError(
                    "submodule seed vectors must be weight/parity homogeneous"
                )

    ech = Echelon()
    frontier = []
    for v in vectors:
        lead = ech.add(v)
        if lead is not None:
            frontier.append(ech.pivot_row(lead))
    # homogeneous rows: closing under the generators closes under g
    gens = intertwining_ids(module)
    while frontier:
        next_frontier = []
        for v in frontier:
            for x in gens:
                img = apply_cols(cols[x], v)
                lead = ech.add(img)
                if lead is not None:
                    next_frontier.append(ech.pivot_row(lead))
        frontier = next_frontier
    ech.full_reduce()
    return ech


def submodule_module(module, vectors):
    """The submodule generated by the given homogeneous vectors.

    Returns (sub, inclusion) where inclusion is a dim(module) x dim(sub)
    matrix whose columns are the canonical (reduced echelon) basis of the
    submodule.
    """
    cols = {x: mat.cols() for x, mat in module.action.items()}
    ech = _closure_echelon(module, vectors, cols)

    def coords(vec):
        out = ech.express(vec)
        if out is None:
            raise AssertionError("closure failed to be a submodule")
        return out

    return _span_module(module, ech.basis(), cols, coords)


def summand_module(module, E):
    """The direct summand im E for an idempotent module endomorphism E.

    Returns (sub, inclusion, projection), the basis being the reduced
    echelon basis of im E as ``submodule_module`` would return it.  With
    r its pivot rows, a vector of im E has its coordinates at r: the
    projection is E's rows r, and P X I is X I read at r.
    """
    ech = Echelon(col for col in E.cols() if col)
    ech.full_reduce()
    lead = {r: k for k, r in enumerate(ech.pivot_cols())}
    sub, inclusion = _span_module(
        module, ech.basis(), {x: mat.cols() for x, mat in module.action.items()},
        lambda vec: {i: c for i, c in vec.items() if i in lead},
    )
    projection = SparseMatrix(sub.dim, module.dim, {
        (lead[i], j): c for (i, j), c in E.data.items() if i in lead
    })
    return sub, inclusion, projection


def _span_module(module, rows, cols, coords):
    """(sub, inclusion) on the reduced echelon rows of a submodule;
    coords(v) is {pivot: coefficient} of a vector v of the span."""
    nd = len(rows)
    lead = {min(row): k for k, row in enumerate(rows)}
    inclusion = SparseMatrix(module.dim, nd, {
        (i, k): v for k, row in enumerate(rows) for i, v in row.items()
    })
    action = {
        x: SparseMatrix(nd, nd, {
            (lead[piv], k): c for k, row in enumerate(rows)
            for piv, c in coords(apply_cols(cols[x], row)).items()
        })
        for x in range(module.g.dim)
    }
    sub = ExplicitModule(
        module.g,
        [module.weights[piv] for piv in lead],
        [module.parities[piv] for piv in lead],
        action,
        labels=[f"s:{module.labels[piv]}" for piv in lead],
        truncated=module.truncated,
        meta={"kind": f"sub({module.meta.get('kind', 'module')})"},
    )
    return sub, inclusion


def quotient_module(module, vectors, kind=None):
    """The quotient by the submodule generated by the given vectors.

    Returns (quotient, projection) with projection a dim(q) x dim(module)
    matrix.  The quotient basis is the set of coordinates away from the
    echelon pivots of the submodule.
    """
    cols = {x: mat.cols() for x, mat in module.action.items()}
    ech = _closure_echelon(module, vectors, cols)
    pivots = set(ech.pivot_cols())
    keep = [i for i in range(module.dim) if i not in pivots]
    pos = {i: k for k, i in enumerate(keep)}
    nq = len(keep)

    def project(vec):
        red = ech.reduce(dict(vec))
        out = {}
        for i, v in red.items():
            out[pos[i]] = v
        return out

    projection = SparseMatrix(nq, module.dim, {
        (k, i): v for i in range(module.dim) for k, v in project({i: 1}).items()
    })
    action = {
        x: SparseMatrix(nq, nq, {
            (r, k): v for k, i in enumerate(keep)
            for r, v in project(cols[x][i]).items()
        })
        for x in range(module.g.dim)
    }
    hw = module.highest_weight
    if hw is not None and not any(module.weights[i] == hw for i in keep):
        hw = None
    quot = ExplicitModule(
        module.g,
        [module.weights[i] for i in keep],
        [module.parities[i] for i in keep],
        action,
        labels=[f"q:{module.labels[i]}" for i in keep],
        highest_weight=hw,
        truncated=module.truncated,
        meta={"kind": kind or f"quotient({module.meta.get('kind', 'module')})"},
    )
    return quot, projection
