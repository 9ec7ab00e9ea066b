"""Extensions, filtrations, projective covers and tilting modules.

Two independent routes to first extension groups are kept side by side:

* ``KacExtensions`` computes Ext^1 out of an induced module K(mu) into a
  fixed coefficient module M through the cochain complex of the abelian
  odd raising part (restricted-dual coefficients are handled by the
  caller).  This is fast: the complex is built once per M and every mu
  is answered from its weight blocks.
* ``ext1_with_representative`` solves directly for a compatible
  off-diagonal block in an upper-triangular action, which also hands
  back an explicit extension module.

The two must agree in dimension; tests pin that down.
"""

from .rational import QQ, ZERO, ONE
from .linalg import SparseMatrix, Echelon
from .weights import wadd, wsub, root_leq
from .algebra import same_algebra, w0_action, beta_weight
from .config import DEFAULT_LIMITS
from .errors import DominanceError, GradingError, ResourceLimitError
from .modules import (
    ExplicitModule, assert_valid_module, restrict_module, induced_module,
    dual_module, parity_flip,
)
from .forms import even_levi, kac_module, simple_module, induced_projective
from .homs import hom_dims, end_ring, fitting_decompose, is_isomorphic


# ---------------------------------------------------------------------------
# Ext^1(K(mu), M) through the odd-raising cochain complex


class KacExtensions:
    """First extensions of induced modules K(mu) by a fixed module M.

    The odd raising part n+ of gl(m|n) in the compatible grading is an
    abelian odd subalgebra, so its cochain complex with coefficients in M
    has C^0 = M, C^1 = Hom(n+, M) and C^2 = Hom(S^2 n+, M); the square of
    the differential is asserted to vanish on construction.  The answer
    for a dominant mu is the number of independent highest-weight vectors
    of weight mu in H^1 for the even part, which equals
    dim Hom_{g0}(V(mu), H^1).

    Everything is tracked per parity: cochains of parity 0 classify
    extensions with K(mu) on top, cochains of parity 1 classify the ones
    with the parity flip of K(mu) on top.
    """

    def __init__(self, module, limits=DEFAULT_LIMITS):
        g = module.g
        if g.family != "gl" or g.grading_kind != "compatible":
            raise GradingError(
                "extension cochains need gl with the compatible grading"
            )
        self.g = g
        self.M = module
        self.limits = limits
        self.pos = sorted(g.positive_ids())
        npos = len(self.pos)
        # C^1 basis: (x, i) for x an odd raising and i a basis vector of M.
        self.c1_basis = [(x, i) for x in self.pos for i in range(module.dim)]
        self.c1_index = {key: k for k, key in enumerate(self.c1_basis)}
        # C^2 basis: unordered pairs x <= y (squares allowed: n+ is odd).
        self.pairs = [
            (self.pos[a], self.pos[b])
            for a in range(npos)
            for b in range(a, npos)
        ]
        self.pair_index = {p: k for k, p in enumerate(self.pairs)}
        self._build_differentials()
        self._check_d_squared()
        self._blocks = None
        self._hw_cache = {}

    def _c1_weight(self, key):
        x, i = key
        return wsub(self.M.weights[i], self.g.weight_of(x))

    def _c1_parity(self, key):
        x, i = key
        # every x in n+ is odd, so the cochain parity is |m| + 1
        return (self.M.parities[i] + 1) % 2

    def _build_differentials(self):
        M, g = self.M, self.g
        d0 = {}
        for i in range(M.dim):
            for x in self.pos:
                img = M.act(x, {i: ONE})
                for j, c in img.items():
                    d0[(self.c1_index[(x, j)], i)] = c
        self.d0 = SparseMatrix(len(self.c1_basis), M.dim, d0)
        # (d f)(a, b) = a.f(b) + b.f(a); both signs positive because n+ is
        # odd abelian, which is exactly what makes d^2 = 0 below.
        d1 = {}
        for col, (x, i) in enumerate(self.c1_basis):
            for a in self.pos:
                img = M.act(a, {i: ONE})
                p = (a, x) if a <= x else (x, a)
                row0 = self.pair_index[p]
                for j, c in img.items():
                    key = (row0 * M.dim + j, col)
                    d1[key] = d1.get(key, ZERO) + c
        d1 = {k: v for k, v in d1.items() if v != ZERO}
        self.d1 = SparseMatrix(len(self.pairs) * M.dim, len(self.c1_basis), d1)

    def _check_d_squared(self):
        comp = self.d1 @ self.d0
        if not comp.is_zero():
            raise AssertionError("d^2 != 0 on the extension cochain complex")

    def _weight_blocks(self):
        """C^1 columns grouped by (weight, cochain parity)."""
        if self._blocks is not None:
            return self._blocks
        blocks = {}
        for k, key in enumerate(self.c1_basis):
            blocks.setdefault(
                (self._c1_weight(key), self._c1_parity(key)), []
            ).append(k)
        self._blocks = blocks
        return blocks

    def _cocycle_data(self, w, p):
        """(C^1 columns at (w, p), cocycle basis, coboundary basis)."""
        cols = self._weight_blocks().get((w, p), [])
        if not cols:
            return [], [], []
        local = {c: k for k, c in enumerate(cols)}
        rows = {}
        for (r, c), v in self.d1.data.items():
            if c in local:
                rows.setdefault(r, {})[local[c]] = v
        remap = {r: k for k, r in enumerate(sorted(rows))}
        ent = {}
        for r, row in rows.items():
            for c, v in row.items():
                ent[(remap[r], c)] = v
        zs = SparseMatrix(len(remap), len(cols), ent).kernel_basis()
        bs = []
        for i in self.M.weight_space(w):
            if self.M.parities[i] != p:
                continue
            img = {}
            for x in self.pos:
                out = self.M.act(x, {i: ONE})
                for j, c in out.items():
                    col = self.c1_index[(x, j)]
                    if col in local:
                        img[local[col]] = c
                    elif c != ZERO:
                        raise AssertionError("coboundary left its block")
            if img:
                bs.append(img)
        return cols, zs, bs

    def h1_dimension_at(self, w, p=None):
        """dim of the (weight w, parity p) piece of H^1; both parities
        summed when p is None."""
        if p is None:
            return self.h1_dimension_at(w, 0) + self.h1_dimension_at(w, 1)
        cols, zs, bs = self._cocycle_data(tuple(QQ(c) for c in w), p)
        if not cols:
            return 0
        return len(zs) - len(Echelon(bs))

    def h1_dimension(self):
        return sum(
            self.h1_dimension_at(w, p) for (w, p) in self._weight_blocks()
        )

    def _raising_action(self, e, vec_cols, vec):
        """Apply the even raising e to a C^1 cochain given on vec_cols."""
        out = {}
        g, M = self.g, self.M
        for k, c in vec.items():
            x, i = self.c1_basis[vec_cols[k]]
            img = M.act(e, {i: ONE})
            for j, cc in img.items():
                col = self.c1_index[(x, j)]
                out[col] = out.get(col, ZERO) + c * cc
            # minus f([e, y]) contributes at every odd raising y with
            # a bracket component along x
            for y in self.pos:
                br = g.bracket(e, y)
                coeff = br.get(x, ZERO)
                if coeff != ZERO:
                    col = self.c1_index[(y, i)]
                    out[col] = out.get(col, ZERO) - coeff * c
        return {k: v for k, v in out.items() if v != ZERO}

    def _simple_raisings(self):
        levi, _ = even_levi(self.g)
        out = []
        for i in levi.ids_of_degree(1):
            out.append(self.g.by_label[levi.label(i)])
        return sorted(out)

    def ext_dimension(self, lam, parity=None):
        """dim Ext^1 from K(lam) (parity 0), its parity flip (parity 1),
        or both summed (parity None), into the coefficient module."""
        if parity is None:
            return self.ext_dimension(lam, 0) + self.ext_dimension(lam, 1)
        lam = tuple(QQ(c) for c in lam)
        key = (lam, parity)
        if key in self._hw_cache:
            return self._hw_cache[key]
        cols, zs, bs = self._cocycle_data(lam, parity)
        if not zs:
            self._hw_cache[key] = 0
            return 0
        rank_b = len(Echelon(bs))
        raisings = self._simple_raisings()
        if not raisings:
            dim = len(zs) - rank_b
            self._hw_cache[key] = dim
            return dim
        # variables: coefficients t_k on the cocycle basis, then one copy
        # of the matching piece of M at lam + wt(e) per simple raising e
        nz = len(zs)
        var_m = []
        offset = nz
        for e in raisings:
            mu = wadd(lam, self.g.weight_of(e))
            idxs = [
                i for i in self.M.weight_space(mu)
                if self.M.parities[i] == parity
            ]
            var_m.append((e, mu, idxs, offset))
            offset += len(idxs)
        nvars = offset
        rows = []
        for e, mu, idxs, off in var_m:
            block = self._weight_blocks().get((mu, parity), [])
            target = {c: k for k, c in enumerate(block)}
            eq = {r: {} for r in range(len(target))}
            for k in range(nz):
                acted = self._raising_action(e, cols, zs[k])
                for col, v in acted.items():
                    eq[target[col]][k] = eq[target[col]].get(k, ZERO) + v
            for t, i in enumerate(idxs):
                for x in self.pos:
                    img = self.M.act(x, {i: ONE})
                    for j, c in img.items():
                        col = self.c1_index[(x, j)]
                        if col in target:
                            r = target[col]
                            eq[r][off + t] = eq[r].get(off + t, ZERO) - c
            rows.extend(v for v in eq.values() if v)
        ent = {}
        for r, row in enumerate(rows):
            for c, v in row.items():
                ent[(r, c)] = v
        sols = SparseMatrix(len(rows), nvars, ent).kernel_basis()
        # dimension of the z-projection of the solution space
        proj = Echelon({k: v for k, v in s.items() if k < nz} for s in sols)
        dim = len(proj) - rank_b
        if dim < 0:
            raise AssertionError("coboundaries escaped the solution space")
        self._hw_cache[key] = dim
        return dim


def ext1_kac(g, lam, module, parity=None, limits=DEFAULT_LIMITS):
    """dim Ext^1(K(lam), module) computed through the cochain complex."""
    return KacExtensions(module, limits=limits).ext_dimension(lam, parity)


# ---------------------------------------------------------------------------
# direct route: solving for an upper-triangular glueing block


def _cochain_variables(bottom, top):
    """Variables (x, i, j) for a glueing block Phi(x): top -> bottom.

    Torus generators get no glueing entries: a nonzero block there would
    put a Jordan block into the torus action, which leaves the category
    of weight modules.
    """
    g = bottom.g
    vars_ = []
    for x in range(g.dim):
        if x in g.t_coord:
            continue
        wx = g.weight_of(x)
        px = g.parity(x)
        for i in range(bottom.dim):
            for j in range(top.dim):
                if bottom.parities[i] != (top.parities[j] + px) % 2:
                    continue
                if tuple(bottom.weights[i]) != tuple(wadd(top.weights[j], wx)):
                    continue
                vars_.append((x, i, j))
    return vars_


def _group_rows(mat):
    out = {}
    for (i, j), v in mat.data.items():
        out.setdefault(i, {})[j] = v
    return out


def _group_cols(mat):
    out = {}
    for (i, j), v in mat.data.items():
        out.setdefault(j, {})[i] = v
    return out


def ext1_with_representative(bottom, top, limits=DEFAULT_LIMITS):
    """(dim Ext^1(top, bottom), glueing block or None).

    A short exact sequence bottom -> E -> top amounts to an action in
    block upper-triangular form; the off-diagonal block Phi must satisfy
    the bracket identity and is trivial exactly when it has the form
    A_bottom(x) psi - psi A_top(x).  Returns the dimension of solutions
    modulo trivial ones and, when positive, the first nontrivial block in
    a deterministic echelon order.
    """
    g = bottom.g
    if not same_algebra(g, top.g):
        raise ValueError("modules live over different algebras")
    vars_ = _cochain_variables(bottom, top)
    vindex = {v: k for k, v in enumerate(vars_)}
    if len(vars_) > limits.max_hom_vars:
        raise ResourceLimitError(
            f"{len(vars_)} glueing variables exceed limit {limits.max_hom_vars}"
        )
    brow = [_group_rows(bottom.action[x]) for x in range(g.dim)]
    bcol = [_group_cols(bottom.action[x]) for x in range(g.dim)]
    tcol = [_group_cols(top.action[x]) for x in range(g.dim)]
    trow = [_group_rows(top.action[x]) for x in range(g.dim)]
    rows = []

    def add_block(eqs, key, coeff):
        if coeff != ZERO and key in vindex:
            col = vindex[key]
            eqs[col] = eqs.get(col, ZERO) + coeff

    for a in range(g.dim):
        pa = g.parity(a)
        for b in range(a, g.dim):
            pb = g.parity(b)
            if a == b and pa == 0:
                continue
            sign = -ONE if (pa and pb) else ONE
            br = g.bracket(a, b)
            half = a == b
            scale = QQ(1, 2) if half else ONE
            for i in range(bottom.dim):
                for j in range(top.dim):
                    eqs = {}
                    for k, v in brow[a].get(i, {}).items():
                        add_block(eqs, (b, k, j), v)
                    for k, v in tcol[b].get(j, {}).items():
                        add_block(eqs, (a, i, k), v)
                    if not half:
                        for k, v in brow[b].get(i, {}).items():
                            add_block(eqs, (a, k, j), -sign * v)
                        for k, v in tcol[a].get(j, {}).items():
                            add_block(eqs, (b, i, k), -sign * v)
                    for x, coeff in br.items():
                        add_block(eqs, (x, i, j), -scale * coeff)
                    eqs = {k: v for k, v in eqs.items() if v != ZERO}
                    if eqs:
                        rows.append(eqs)
    ent = {}
    for r, row in enumerate(rows):
        for c, v in row.items():
            ent[(r, c)] = v
    cocycles = SparseMatrix(len(rows), len(vars_), ent).kernel_basis()
    # trivial blocks: psi runs over even weight-preserving linear maps
    seen = Echelon()
    for i in range(bottom.dim):
        for j in range(top.dim):
            if bottom.parities[i] != top.parities[j]:
                continue
            if tuple(bottom.weights[i]) != tuple(top.weights[j]):
                continue
            blk = {}
            for x in range(g.dim):
                for k, v in bcol[x].get(i, {}).items():
                    key = (x, k, j)
                    if key in vindex:
                        blk[vindex[key]] = blk.get(vindex[key], ZERO) + v
                for k, v in trow[x].get(j, {}).items():
                    key = (x, i, k)
                    if key in vindex:
                        blk[vindex[key]] = blk.get(vindex[key], ZERO) - v
            blk = {k: v for k, v in blk.items() if v != ZERO}
            if blk:
                seen.add(blk)
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


def glue_extension(bottom, top, block, kind="extension", limits=DEFAULT_LIMITS):
    """Assemble the module bottom -> E -> top from a glueing block."""
    g = bottom.g
    nb, nt = bottom.dim, top.dim
    action = {}
    for x in range(g.dim):
        ent = dict(bottom.action[x].data)
        for (r, c), v in top.action[x].data.items():
            ent[(nb + r, nb + c)] = v
        for (i, j), v in block.get(x, {}).items():
            ent[(i, nb + j)] = v
        action[x] = SparseMatrix(nb + nt, nb + nt, ent)
    E = ExplicitModule(
        g,
        list(bottom.weights) + list(top.weights),
        list(bottom.parities) + list(top.parities),
        action,
        labels=[f"b.{l}" for l in bottom.labels]
        + [f"t.{l}" for l in top.labels],
        truncated=bottom.truncated or top.truncated,
        meta={"kind": kind},
    )
    assert_valid_module(E, limits=limits)
    return E


# ---------------------------------------------------------------------------
# flags of induced modules


def _kac_char_census(g, lam, limits=DEFAULT_LIMITS):
    """ch K(lam) read off the explicit module (the census route)."""
    return dict(kac_module(g, lam, limits=limits).character())


def delta_flag(module, limits=DEFAULT_LIMITS):
    """Multiplicities of induced modules K(mu) in a filtration of module.

    Greedy peel on characters: repeatedly take the lexicographically
    largest remaining weight, require it to be dominant, and subtract the
    character of K at that weight.  Returns the multiset of factor
    weights in peel order (repetitions for multiplicity); characters do
    not see the order of the filtration itself.  Raises ValueError with a
    witness when no such filtration can exist.
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
            kch = _kac_char_census(g, top, limits=limits)
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
    return flag


def flag_multiplicities(module, limits=DEFAULT_LIMITS):
    counts = {}
    for w in delta_flag(module, limits=limits):
        counts[w] = counts.get(w, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# projective covers


_PROJ_CACHE = {}


def projective_cover(g, lam, limits=DEFAULT_LIMITS):
    """The indecomposable projective P(lam), cut out of the induction of
    V(lam) from the even part by a Fitting decomposition."""
    lam = tuple(QQ(c) for c in lam)
    key = (g.family, tuple(g.params), g.grading_kind, lam)
    if key in _PROJ_CACHE:
        return _PROJ_CACHE[key]
    big = induced_projective(g, lam, limits=limits)
    recs = fitting_decompose(big, limits=limits)
    L = simple_module(g, lam, limits=limits)
    hits = []
    for rec in recs:
        ev, od = hom_dims(rec["module"], L, limits=limits)
        if ev + od > 0:
            hits.append((rec, ev, od))
    if len(hits) != 1:
        raise AssertionError(
            f"expected one summand with maps onto L{g.weight_str(lam)}, "
            f"found {len(hits)}"
        )
    rec = hits[0][0]
    P = rec["module"]
    flag = delta_flag(P, limits=limits)
    # lam is the cosocle, so it sits once at the bottom of the root order
    if flag.count(lam) != 1 or not all(root_leq(lam, mu) for mu in flag):
        raise AssertionError(
            f"summand flag {[g.weight_str(w) for w in flag]} does not have "
            f"{g.weight_str(lam)} as its unique minimal factor"
        )
    P.meta["flag"] = flag
    P.meta["cosocle_hom"] = (hits[0][1], hits[0][2])
    _PROJ_CACHE[key] = P
    return P


def projective_cover_h(halg, fiber, limits=DEFAULT_LIMITS):
    """Projective cover of a Cartan-type module for the q-family Cartan.

    Induces the fiber from the even torus part through the full Cartan
    (odd letters first), then selects the Fitting summand that still maps
    onto the fiber.
    """
    t_ids = sorted(halg.t_coord)
    sub = halg.subalgebra(t_ids)
    fib = restrict_module(fiber, sub)
    odd = [i for i in range(halg.dim) if i not in set(t_ids)]
    keyf = lambda i: (halg.degree_of(i) if halg.degrees else 0, i)
    order = sorted(odd, key=keyf) + sorted(t_ids, key=keyf)
    big = induced_module(
        halg, t_ids, fib, order=order, kind="cartan_projective", limits=limits,
    )
    recs = fitting_decompose(big, limits=limits)
    hits = []
    for rec in recs:
        ev, od = hom_dims(rec["module"], fiber, limits=limits)
        if ev + od > 0:
            hits.append(rec)
    if not hits:
        raise AssertionError("no summand maps onto the fiber")
    P = hits[0]["module"]
    P.meta["summands"] = len(recs)
    return P


# ---------------------------------------------------------------------------
# tilting modules


def _dominant_box(m, n, lo, hi):
    """All dominant weights with every coordinate in [lo, hi]."""
    span = [QQ(c) for c in range(lo, hi + 1)]

    def parts(k, strict_side):
        if k == 0:
            return [()]
        out = []
        for head in span:
            for rest in parts(k - 1, strict_side):
                if rest and head < rest[0]:
                    continue
                out.append((head,) + rest)
        return out

    weights = []
    for left in parts(m, True):
        for right in parts(n, True):
            weights.append(left + right)
    return sorted(set(weights), reverse=True)


def tilting_module(g, lam, box, limits=DEFAULT_LIMITS):
    """The indecomposable tilting module U(lam) by successive extension.

    Starting from K(lam), scan dominant mu from the top of a
    margin-extended box downward; at each mu glue nontrivial extensions
    with K(mu) (or its parity flip) on top until the corresponding first
    extension group dies.  Scanning downward is what makes one sweep
    enough: extensions of an induced module by an induced module only
    exist when the top weight is strictly smaller, so weights already
    processed stay clean.  The construction is certified afterwards:
    every extension group across the original box must vanish and the
    endomorphism ring must be local.
    """
    if g.family != "gl" or g.grading_kind != "compatible":
        raise GradingError("tilting construction needs gl compatible grading")
    m, n = g.params
    lam = tuple(QQ(c) for c in lam)
    lo, hi = box
    margin = limits.tilting_margin
    candidates = [
        mu for mu in _dominant_box(m, n, lo - margin, hi + margin)
        if root_leq(mu, lam)
    ]
    base = kac_module(g, lam, limits=limits)
    # a fresh wrapper: the construction below annotates and may rebuild T,
    # and the cached induced module must stay untouched
    T = ExplicitModule(
        g, base.weights, base.parities, base.action, labels=base.labels,
        highest_weight=base.highest_weight, meta=base.meta,
    )
    flag = [(lam, 0)]
    steps = 0
    for mu in candidates:
        for p in (0, 1):
            prev = None
            while True:
                steps += 1
                if steps > limits.iteration_budget:
                    raise ResourceLimitError(
                        "tilting construction exceeded iteration budget"
                    )
                ke = KacExtensions(T, limits=limits)
                d = ke.ext_dimension(mu, p)
                if prev is not None and d >= prev:
                    raise ResourceLimitError(
                        f"extension count at {g.weight_str(mu)} failed to "
                        f"drop ({prev} -> {d})"
                    )
                if d == 0:
                    break
                prev = d
                K = kac_module(g, mu, limits=limits)
                top = parity_flip(K) if p else K
                dim_direct, block = ext1_with_representative(
                    T, top, limits=limits
                )
                if dim_direct != d:
                    raise AssertionError(
                        f"extension dimension mismatch at {g.weight_str(mu)}"
                        f" parity {p}: cochain route {d}, direct route "
                        f"{dim_direct}"
                    )
                T = glue_extension(
                    T, top, block, kind="tilting_step", limits=limits
                )
                flag.append((mu, p))
    # certification: nothing extends the result anywhere in the box
    ke = KacExtensions(T, limits=limits)
    window = _dominant_box(m, n, lo, hi)
    leftovers = {}
    for mu in window:
        d = ke.ext_dimension(mu)
        if d:
            leftovers[mu] = d
    if leftovers:
        raise AssertionError(f"extensions survive the sweep: {leftovers}")
    ring = end_ring(T, limits=limits)
    if not ring["local"]:
        raise AssertionError(
            "tilting candidate is decomposable; extension choices went wrong"
        )
    T.meta["kind"] = "tilting"
    T.meta["flag_bottom_up"] = flag
    T.meta["flag"] = list(reversed(flag))
    T.meta["ext_vanishing_checked"] = [tuple(mu) for mu in window]
    T.meta["end_even_dim"] = len(ring["basis"])
    T.meta["end_radical_dim"] = len(ring["radical"])
    T.highest_weight = None  # the top of the flag need not be a highest weight
    return T


# ---------------------------------------------------------------------------
# the two duality statements


def verify_kac_dual(g, lam, limits=DEFAULT_LIMITS):
    """Check K(lam)^* against K(beta - w0.lam); returns a report dict."""
    m, n = g.params
    lam = tuple(QQ(c) for c in lam)
    K = kac_module(g, lam, limits=limits)
    D = dual_module(K)
    beta = beta_weight(*g.params)
    target_wt = wsub(beta, w0_action(m, n, lam))
    target = kac_module(g, target_wt, limits=limits)
    chars_equal = D.character() == target.character()
    result = is_isomorphic(D, target, allow_parity_flip=True, limits=limits)
    return {
        "weight": lam,
        "partner": tuple(target_wt),
        "characters_equal": chars_equal,
        "isomorphic": result["isomorphic"],
        "certified": result["certified"],
        "parity": result["parity"],
    }


def verify_projective_dual(g, lam, box, limits=DEFAULT_LIMITS):
    """Check P(beta - w0.lam)^* against the tilting module U(lam)."""
    m, n = g.params
    lam = tuple(QQ(c) for c in lam)
    beta = beta_weight(*g.params)
    plam = wsub(beta, w0_action(m, n, lam))
    P = projective_cover(g, plam, limits=limits)
    D = dual_module(P)
    U = tilting_module(g, lam, box, limits=limits)
    chars_equal = D.character() == U.character()
    result = is_isomorphic(D, U, allow_parity_flip=True, limits=limits)
    return {
        "weight": lam,
        "projective_weight": tuple(plam),
        "characters_equal": chars_equal,
        "isomorphic": result["isomorphic"],
        "certified": result["certified"],
        "parity": result["parity"],
        "flag": U.meta["flag"],
    }
