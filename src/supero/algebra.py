"""The matrix Lie superalgebras gl(m|n) and q(n).

gl(m|n) is built on the index set (-m, ..., -1, 1, ..., n); the index parity
is odd for negative indices, and the matrix unit e(i,j) has parity
parity(i)+parity(j) and t-weight delta_i - delta_j.  The bracket of units is

    [e(i,j), e(k,l)] = delta_jk e(i,l) - (-1)^{p(ij) p(kl)} delta_il e(k,j).

q(n) sits inside gl(n|n) as the matrices commuting with the odd involution:
spanned by even units e(i,j) and odd units e'(i,j) for 1 <= i, j <= n, with
brackets computed here literally through that embedding.

A grading is a diagonal matrix D in t acting by ad; it is stored as the
vector of its diagonal entries, and deg x = <wt x, D>.
"""

from functools import wraps

from .config import DEFAULT_LIMITS
from .errors import GradingError, InvalidAlgebraError
from .linalg import Echelon, SparseMatrix, vec_add_into
from .rational import QQ, exact, rat_str
from .weights import wdot, weight, wsub, wzero


class BasisElement:
    __slots__ = ("index", "label", "parity", "weight")

    def __init__(self, index, label, parity, wt):
        self.index = index
        self.label = label
        self.parity = parity
        self.weight = wt

    def __repr__(self):
        return f"<{self.label} p={self.parity}>"


class LieSuperAlgebra:
    """A finite-dimensional Lie superalgebra with a distinguished torus.

    The object is treated as immutable once built; install_grading returns a
    new instance.  Its one mutable attribute is ``memo``, a dict of values
    that are pure functions of the algebra, each kept under a tuple key
    whose first element names it (see :func:`memo_entry`): the results of
    the module builders decorated with ``memoised`` (``kac_radical``) or
    ``modules.on_orbits`` (a representative's module and each twist of
    it), ``lie_generators``, the even Levi and the Borel-type subalgebra
    (``forms``), one PBW straightening engine per basis order with its
    split tables (``modules.induced_module``), and the certificate of each
    character a module was twisted by (``modules.twist``).  So each lives
    exactly as long as the algebra, and a copy with a changed table needs
    a fresh ``memo``.
    """

    def __init__(
        self,
        family,
        params,
        basis,
        table,
        t_ids,
        t_coord,
        weight_len,
        transpose,
        grading_kind=None,
        degrees=None,
        bar_after=None,
    ):
        self.family = family
        self.params = params
        self.basis = basis
        self.table = table
        self.t_ids = tuple(t_ids)
        self.t_coord = dict(t_coord)  # t basis id -> weight coordinate position
        self.weight_len = weight_len
        self.transpose = tuple(transpose) if transpose is not None else None
        self.grading_kind = grading_kind
        self.degrees = degrees
        self.bar_after = bar_after
        self.by_label = {b.label: b.index for b in basis}
        self.memo = {}

    # -- trivia ------------------------------------------------------------

    @property
    def dim(self):
        return len(self.basis)

    def parity(self, i):
        return self.basis[i].parity

    def weight_of(self, i):
        return self.basis[i].weight

    def label(self, i):
        return self.basis[i].label

    def id_of(self, label):
        return self.by_label[label]

    def degree_of(self, i):
        if self.degrees is None:
            raise GradingError(f"{self.family}{self.params} has no grading installed")
        return self.degrees[i]

    def __repr__(self):
        kind = self.grading_kind or "ungraded"
        return f"LieSuperAlgebra({self.family}{self.params}, dim={self.dim}, {kind})"

    # -- bracket -----------------------------------------------------------

    def bracket(self, i, j):
        """Structure constants of [basis_i, basis_j] as a dict id -> scalar."""
        return self.table.get((i, j), _EMPTY)

    def bracket_vectors(self, va, vb):
        out = {}
        for i, a in va.items():
            for j, b in vb.items():
                c = a * b
                if c:
                    vec_add_into(out, self.bracket(i, j), c)
        return out

    # -- graded slices -----------------------------------------------------

    def ids_of_degree(self, d):
        if self.degrees is None:
            raise GradingError("no grading installed")
        d = exact(d)
        return [i for i in range(self.dim) if self.degrees[i] == d]

    def h_ids(self):
        return self.ids_of_degree(0)

    def positive_ids(self):
        return [i for i in range(self.dim) if self.degree_of(i) > 0]

    def negative_ids(self):
        return [i for i in range(self.dim) if self.degree_of(i) < 0]

    def pbw_order(self):
        """Basis ids sorted by ascending degree, then id."""
        return tuple(sorted(range(self.dim), key=lambda i: (self.degree_of(i), i)))

    def weight_str(self, w):
        from .weights import format_weight

        return format_weight(w, self.bar_after)

    # -- derived objects ---------------------------------------------------

    def subalgebra(self, ids, degrees=None, family_tag=None):
        """Restriction to a bracket-closed span of basis elements.

        Weights keep the parent coordinate length so fibers of parent modules
        can be compared directly.  Optional degrees install a grading on the
        result (e.g. a triangular order on an even Levi factor).
        """
        ids = list(ids)
        back = {old: new for new, old in enumerate(ids)}
        basis = []
        for new, old in enumerate(ids):
            b = self.basis[old]
            basis.append(BasisElement(new, b.label, b.parity, b.weight))
        table = {}
        for a_new, a_old in enumerate(ids):
            for b_new, b_old in enumerate(ids):
                br = self.bracket(a_old, b_old)
                if not br:
                    continue
                out = {}
                for target, coeff in br.items():
                    if target not in back:
                        raise InvalidAlgebraError(
                            f"span not closed: [{self.label(a_old)},{self.label(b_old)}] "
                            f"hits {self.label(target)}",
                            witness=(a_old, b_old, target),
                        )
                    out[back[target]] = coeff
                if out:
                    table[(a_new, b_new)] = out
        t_ids = [back[t] for t in self.t_ids if t in back]
        t_coord = {back[t]: self.t_coord[t] for t in self.t_ids if t in back}
        # transposes survive only when the span is closed under them (it is
        # for Levi-type spans; Borel-type spans get transpose=None)
        transpose = []
        for old in ids:
            tr = self.transpose[old] if self.transpose else None
            transpose.append(back.get(tr))
        if any(t is None for t in transpose):
            transpose = None
        if degrees is not None:
            degrees = tuple(exact(d) for d in degrees)
        return LieSuperAlgebra(
            family_tag or f"sub:{self.family}",
            self.params,
            basis,
            table,
            t_ids,
            t_coord,
            self.weight_len,
            transpose,
            grading_kind="inherited" if degrees is not None else None,
            degrees=degrees,
            bar_after=self.bar_after,
        )


_EMPTY = {}


def memo_entry(g, key, build):
    """``g.memo[key]``, computed by ``build()`` the first time it is asked
    for; ``key`` is a tuple whose first element names the value."""
    if key not in g.memo:
        g.memo[key] = build()
    return g.memo[key]


def memoised(builder):
    """Keep ``builder(g, lam, limits)`` in ``g.memo``.

    lam is normalised by ``weights.weight`` (ints where integral) and the
    result stored under (builder name, lam, limits); ``Limits`` is a
    frozen dataclass, so it hashes by value.  Modules are immutable, so
    one stored result can be handed to every caller.
    """
    @wraps(builder)
    def build(g, lam, limits=DEFAULT_LIMITS):
        key = (builder.__name__, weight(lam), limits)
        return memo_entry(g, key, lambda: builder(g, key[1], limits))

    return build


def same_algebra(a, b):
    """Structural identity: builders are deterministic, so family, params
    and grading pin the whole table."""
    return a is b or (
        a.family == b.family
        and tuple(a.params) == tuple(b.params)
        and a.grading_kind == b.grading_kind
        and a.dim == b.dim
        and (a.degrees == b.degrees)
    )


def bracket_closure(g, ids):
    """Echelon spanning the subalgebra generated by the given basis ids."""
    ech = Echelon()
    frontier = [{i: 1} for i in ids if ech.add({i: 1}) is not None]
    span = list(frontier)
    while frontier:
        new_frontier = []
        for va in list(span):
            for vb in frontier:
                img = g.bracket_vectors(va, vb)
                if img and ech.add(img) is not None:
                    new_frontier.append(img)
                    span.append(img)
        frontier = new_frontier
    return ech


def lie_generators(g):
    """Non-torus basis ids that generate g together with the torus t_ids.

    Chosen greedily in basis order: an element joins when it is not in
    the bracket closure of the torus and the elements chosen before it.
    A weight-preserving map that super-commutes with x and y also
    super-commutes with [x, y], and a span of weight vectors stable under
    x and y is stable under [x, y]; the torus acts diagonally by the
    recorded weights.  So on modules whose actions satisfy the bracket
    relation, these ids decide intertwining and submodule closure.
    Memoised on the algebra.
    """
    return memo_entry(g, ("lie_generators",), lambda: _greedy_generators(g))


def _greedy_generators(g):
    torus = set(g.t_ids)
    gens = []
    span = bracket_closure(g, g.t_ids)
    for x in range(g.dim):
        if x not in torus and not span.contains({x: 1}):
            gens.append(x)
            span = bracket_closure(g, list(g.t_ids) + gens)
    if len(span) != g.dim:
        raise AssertionError("the chosen generators do not generate the algebra")
    return tuple(gens)


# ---------------------------------------------------------------------------
# builders


def build_gl(m, n):
    """gl(m|n) on the index set (-m..-1, 1..n), ungraded."""
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    idx = list(range(-m, 0)) + list(range(1, n + 1))
    pos = {i: p for p, i in enumerate(idx)}
    wlen = m + n

    def index_parity(i):
        return 1 if i < 0 else 0

    basis = []
    id_of = {}
    for i in idx:
        for j in idx:
            wt = list(wzero(wlen))
            wt[pos[i]] += 1
            wt[pos[j]] -= 1
            k = len(basis)
            id_of[(i, j)] = k
            basis.append(
                BasisElement(
                    k,
                    f"e({i},{j})",
                    (index_parity(i) + index_parity(j)) % 2,
                    tuple(wt),
                )
            )

    table = {}
    for (i, j), a in id_of.items():
        pa = basis[a].parity
        for (k, l), b in id_of.items():
            acc = {}
            if j == k:
                vec_add_into(acc, {id_of[(i, l)]: 1}, 1)
            if i == l:
                sign = -1 if (pa * basis[b].parity) % 2 else 1
                vec_add_into(acc, {id_of[(k, j)]: -sign}, 1)
            if acc:
                table[(a, b)] = acc

    t_ids = [id_of[(i, i)] for i in idx]
    t_coord = {id_of[(i, i)]: pos[i] for i in idx}
    transpose = [id_of[(j, i)] for (i, j) in sorted(id_of, key=id_of.get)]
    return LieSuperAlgebra(
        "gl",
        (m, n),
        basis,
        table,
        t_ids,
        t_coord,
        wlen,
        transpose,
        bar_after=m,
    )


def principal_dvector(m, n):
    """The diagonal (m+n, ..., 2, 1) of the principal grading's D."""
    return tuple(range(m + n, 0, -1))


def install_grading(g, kind):
    """Return a copy of gl(m|n) carrying the named grading.

    principal: D = diag(m+n, ..., 2, 1), so h is the torus and every matrix
    position gets its own degree.
    compatible: D = diag(1/2, ..., 1/2, -1/2, ..., -1/2), so h is the full
    even part gl(m) + gl(n) and the odd part splits into degrees -1 and 1.
    """
    if g.family != "gl":
        raise GradingError(f"gradings are installed on gl only, not {g.family}")
    m, n = g.params
    if kind == "principal":
        dvec = principal_dvector(m, n)
    elif kind == "compatible":
        dvec = tuple(QQ(1, 2) for _ in range(m)) + tuple(QQ(-1, 2) for _ in range(n))
    else:
        raise GradingError(f"unknown grading kind {kind!r}")
    degrees = tuple(wdot(b.weight, dvec) for b in g.basis)
    return LieSuperAlgebra(
        g.family,
        g.params,
        g.basis,
        g.table,
        g.t_ids,
        g.t_coord,
        g.weight_len,
        g.transpose,
        grading_kind=kind,
        degrees=degrees,
        bar_after=g.bar_after,
    )


def build_q(n):
    """q(n) inside gl(n|n), with its standard grading deg e(i,j) = j - i."""
    if n < 1:
        raise ValueError("need n >= 1")

    # gl(n|n) matrix positions of the index set (-n..-1, 1..n)
    pos = {i: p for p, i in enumerate(list(range(-n, 0)) + list(range(1, n + 1)))}

    def embed(a, b, c, d):
        return SparseMatrix(2 * n, 2 * n, {(pos[a], pos[b]): 1, (pos[c], pos[d]): 1})

    basis = []
    id_of = {}
    embeddings = []
    for odd in (0, 1):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                k = len(basis)
                label = f"e'({i},{j})" if odd else f"e({i},{j})"
                wt = list(wzero(n))
                wt[i - 1] += 1
                wt[j - 1] -= 1
                id_of[(odd, i, j)] = k
                basis.append(BasisElement(k, label, odd, tuple(wt)))
                embeddings.append(embed(-i, j, i, -j) if odd else embed(-i, -j, i, j))

    table = {}
    for a, A in enumerate(embeddings):
        for b, B in enumerate(embeddings):
            sign = -1 if basis[a].parity * basis[b].parity else 1
            mat = A @ B - (B @ A).scale(sign)
            coords = {}
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    ce = mat.data.get((pos[i], pos[j]))
                    if ce:
                        coords[id_of[(0, i, j)]] = ce
                    co = mat.data.get((pos[i], pos[-j]))
                    if co:
                        coords[id_of[(1, i, j)]] = co
            # closure sanity: the coordinates must rebuild the matrix exactly
            rebuilt = SparseMatrix(2 * n, 2 * n)
            for k, c in coords.items():
                rebuilt = rebuilt + embeddings[k].scale(c)
            if rebuilt != mat:
                raise InvalidAlgebraError(
                    f"bracket left q({n}): [{basis[a].label},{basis[b].label}]",
                    witness=(a, b),
                )
            if coords:
                table[(a, b)] = coords

    t_ids = [id_of[(0, i, i)] for i in range(1, n + 1)]
    t_coord = {id_of[(0, i, i)]: i - 1 for i in range(1, n + 1)}
    transpose = []
    for k, b in enumerate(basis):
        odd = b.parity
        i, j = _q_indices(b.label)
        transpose.append(id_of[(odd, j, i)])
    dvec = tuple(range(-1, -n - 1, -1))
    degrees = tuple(wdot(b.weight, dvec) for b in basis)
    return LieSuperAlgebra(
        "q",
        (n,),
        basis,
        table,
        t_ids,
        t_coord,
        n,
        transpose,
        grading_kind="q",
        degrees=degrees,
        bar_after=None,
    )


def _q_indices(label):
    inner = label[label.index("(") + 1 : -1]
    i, j = inner.split(",")
    return int(i), int(j)


# ---------------------------------------------------------------------------
# validation


def validate_algebra(g):
    """Check the superalgebra axioms and (if graded) the grading axioms.

    Super-antisymmetry is read off the table pair by pair.  The super
    Jacobi identity says exactly that ad is a representation, so it is
    checked as the bracket relation on the adjoint module (weights and
    parities those of the basis, ad_x with entry (k, b) = [x, b]_k) by
    :func:`modules.validate_module`, which also checks that the torus
    acts on it diagonally by the recorded weights, and the weight and
    parity additivity of every ad_x entry, which is that of the bracket:
    a wrong-weight target k of [a, b] reads "a breaks weight additivity
    at (k,b)".  Its failures carry the prefix ``jacobi:``.  Nothing in
    that pass depends on the table being valid.  ``checks`` counts the
    ordered pairs read (``pairs``) and the pairs on which the adjoint
    bracket relation was checked (``adjoint_pairs``).

    Returns a report dict with a `passed` flag and a list of failure
    witnesses; it does not raise.
    """
    from .modules import ExplicitModule, validate_module

    failures = []
    dim = g.dim
    checks = {"pairs": 0}

    # super-antisymmetry
    for a in range(dim):
        for b in range(dim):
            checks["pairs"] += 1
            br = g.bracket(a, b)
            rev = g.bracket(b, a)
            acc = dict(br)
            vec_add_into(acc, rev, -1 if g.parity(a) and g.parity(b) else 1)
            if acc:
                failures.append(
                    f"antisymmetry: [{g.label(a)},{g.label(b)}]"
                    f" + sign*[{g.label(b)},{g.label(a)}] != 0"
                )

    # Jacobi, the torus and additivity: ad is a representation
    adjoint = ExplicitModule(
        g,
        [g.weight_of(b) for b in range(dim)],
        [g.parity(b) for b in range(dim)],
        {
            x: SparseMatrix(dim, dim, {
                (k, b): c for b in range(dim) for k, c in g.bracket(x, b).items()
            })
            for x in range(dim)
        },
    )
    report = validate_module(adjoint)
    failures += [f"jacobi: {f}" for f in report["failures"]]
    checks["adjoint_pairs"] = report["pairs_checked"]

    if g.degrees is not None:
        for a in range(dim):
            for b in range(dim):
                d = g.degree_of(a) + g.degree_of(b)
                for target in g.bracket(a, b):
                    if g.degree_of(target) != d:
                        failures.append(
                            f"grading: [{g.label(a)},{g.label(b)}] not degree-additive"
                        )
        # local part generates (build the subalgebra generated by degrees -1..1)
        local = [i for i in range(dim) if g.degree_of(i) in (-1, 0, 1)]
        ech = bracket_closure(g, local)
        if len(ech) != dim:
            failures.append(
                f"generation: degrees -1,0,1 generate a subalgebra of dim {len(ech)} < {dim}"
            )

    return {
        "algebra": f"{g.family}{g.params}",
        "grading": g.grading_kind,
        "dim": dim,
        "passed": not failures,
        "failures": failures,
        "checks": checks,
    }


# ---------------------------------------------------------------------------
# supertrace and semi-infinite characters


def supertrace(matrix, parities):
    """trace on the even part minus trace on the odd part.

    Only the parity-preserving component of the map contributes; diagonal
    entries are automatically parity-preserving, so this is the signed sum of
    the diagonal.
    """
    total = 0
    for (i, j), v in matrix.data.items():
        if i == j:
            total += -v if parities[i] % 2 else v
    return total


def rho_weight(m, n):
    """(m, m-1, ..., 1 | -1, -2, ..., -n)."""
    return weight(tuple(range(m, 0, -1)) + tuple(range(-1, -n - 1, -1)))


def beta_weight(m, n):
    """(n, ..., n | -m, ..., -m): the sum of the odd positive roots."""
    return weight((n,) * m + (-m,) * n)


def w0_action(m, n, w):
    """Longest even Weyl element: reverse each side's coordinates."""
    if len(w) != m + n:
        raise ValueError(f"expected {m + n} coordinates")
    return tuple(reversed(w[:m])) + tuple(reversed(w[m:]))


def beta_reflect(m, n, w):
    """beta - w0.w: the weight that Kac, projective and tilting duality
    pair with w."""
    return wsub(beta_weight(m, n), w0_action(m, n, w))


def standard_semiinfinite_character(g):
    """The published admissible character for each (algebra, grading) pair."""
    if g.family == "gl":
        m, n = g.params
        if g.grading_kind == "principal":
            from .weights import wscale

            return wscale(rho_weight(m, n), 2)
        if g.grading_kind == "compatible":
            from .weights import wneg

            return wneg(beta_weight(m, n))
        raise GradingError("install a grading before asking for the character")
    if g.family == "q":
        return wzero(g.weight_len)
    raise GradingError(f"no published character for family {g.family}")


def character_value(g, gamma, vec):
    """Value of the character gamma (a t-functional) on a coordinate vector.

    gamma kills every non-torus basis element; on the torus it reads off the
    weight coordinate.
    """
    total = 0
    for k, c in vec.items():
        coord = g.t_coord.get(k)
        if coord is not None:
            total += c * gamma[coord]
    return total


def verify_semiinfinite(g, gamma=None):
    """Check the defining identity of a semi-infinite character.

    For every X of degree 1 and Y of degree -1 the value gamma([X,Y]) must
    equal the supertrace of ad X o ad Y restricted to h; gamma must also be a
    superalgebra homomorphism h -> C (it kills [h,h] and the odd part of h).
    Returns a report dict; an empty defect list means the identity holds.
    """
    if gamma is None:
        gamma = standard_semiinfinite_character(g)
    gamma = weight(gamma)
    if len(gamma) != g.weight_len:
        raise ValueError(f"character needs {g.weight_len} coordinates")
    h = g.h_ids()
    h_index = {b: k for k, b in enumerate(h)}
    h_parities = [g.parity(b) for b in h]
    hom_defects = []
    for a in h:
        if g.parity(a) and character_value(g, gamma, {a: 1}):
            hom_defects.append(f"gamma({g.label(a)}) != 0 on odd h")
        for b in h:
            v = character_value(g, gamma, g.bracket(a, b))
            if v:
                hom_defects.append(
                    f"gamma([{g.label(a)},{g.label(b)}]) = {rat_str(v)} != 0"
                )
    defects = []
    ups = g.ids_of_degree(1)
    downs = g.ids_of_degree(-1)
    pairs = 0
    for x in ups:
        for y in downs:
            pairs += 1
            lhs = character_value(g, gamma, g.bracket(x, y))
            mat = {}
            for col, hb in enumerate(h):
                inner = g.bracket(y, hb)
                outer = {}
                for k, c in inner.items():
                    vec_add_into(outer, g.bracket(x, k), c)
                for target, coeff in outer.items():
                    if target not in h_index:
                        raise InvalidAlgebraError(
                            f"ad {g.label(x)} ad {g.label(y)} leaves h at {g.label(target)}"
                        )
                    mat[(h_index[target], col)] = coeff
            rhs = supertrace(SparseMatrix(len(h), len(h), mat), h_parities)
            if lhs != rhs:
                defects.append((g.label(x), g.label(y), rat_str(lhs), rat_str(rhs)))
    return {
        "algebra": f"{g.family}{g.params}",
        "grading": g.grading_kind,
        "gamma": [rat_str(c) for c in gamma],
        "pairs_checked": pairs,
        "defects": defects,
        "hom_defects": hom_defects,
        "passed": not defects and not hom_defects,
    }
