"""Extensions, filtrations, projective covers and tilting modules.

First extensions out of an induced module K(mu) into a fixed coefficient
module M come from the cochain complex of the abelian odd raising part g1
(``KacExtensions``; restricted-dual coefficients are handled by the
caller).  By Eckmann-Shapiro, Ext^1(K(mu), M) = Hom_{g0}(L0(mu), H^1):

* ``KacExtensions.ext_dimension`` reads its dimension off the dimensions
  of H^1's weight spaces by Weyl's character formula.  The complex is
  built once per M, and each weight space of H^1 costs two rank counts.
* ``ext1_with_representative`` builds a glueing block for a nonzero
  class from a g0-highest-weight cocycle outside the coboundaries,
  extended to a g0-map out of L0(mu) and along the PBW words of K(mu);
  the number of such classes must match the dimension.

The direct solve for an upper-triangular glueing block over every pair of
basis elements of g is the tests' oracle for both (``tests/full_basis.py``).
"""

from collections import Counter

from .linalg import SparseMatrix, Echelon
from .weights import wadd, weight, wsub, root_leq, is_dominant_gl, weyl_shifts
from .algebra import memoised, w0_action, beta_weight, rho_weight
from .config import DEFAULT_LIMITS
from .errors import DominanceError, GradingError, ResourceLimitError
from .modules import (
    ExplicitModule, assert_valid_module, copy_module, restrict_module,
    induced_module, dual_module, parity_flip, word_action,
)
from .forms import (
    even_levi, kac_module, simple_even_module, simple_module, induced_projective,
)
from .homs import end_ring, fitting_decompose, hom_dims, is_isomorphic, summand_onto


# ---------------------------------------------------------------------------
# Ext^1(K(mu), M) through the odd-raising cochain complex


class KacExtensions:
    """First extensions of induced modules K(mu) by a fixed module M.

    The odd raising part n+ of gl(m|n) in the compatible grading is an
    abelian odd subalgebra, so its cochain complex with coefficients in M
    has C^0 = M, C^1 = Hom(n+, M) and C^2 = Hom(S^2 n+, M); the square of
    the differential is asserted to vanish on construction.  The answer
    is dim Hom_{g0}(L0(mu), H^1).  H^1 is a finite-dimensional module over
    g0 = gl(m) + gl(n), semisimple over sl(m) + sl(n) by Weyl's theorem,
    and the centre of g0 lies in the torus, which acts diagonally on
    cochains; so H^1 is a direct sum of simples L0(nu), and Weyl's
    character formula gives their multiplicities from its weight
    dimensions: for dominant mu,

        [H^1 : L0(mu)] = sum over w in S_m x S_n of
                         sign(w) dim H^1_{mu + rho - w rho}.

    A simple finite-dimensional g0-module has a dominant highest weight,
    so a non-dominant mu answers 0.

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
        self.pos = sorted(g.positive_ids())
        npos = len(self.pos)
        if npos * module.dim > limits.max_hom_vars:
            raise ResourceLimitError(
                f"extension cochains have {npos * module.dim} C^1 unknowns "
                f"({npos} odd raisings x module dim {module.dim}); "
                f"max_hom_vars is {limits.max_hom_vars}"
            )
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
        # column views {x: [{row: entry} per column]} of the odd
        # raisings, taken once and dropped with this object
        self._cols = {x: module.action[x].cols() for x in self.pos}
        self._build_differentials()
        if not (self.d1 @ self.d0).is_zero():
            raise AssertionError("d^2 != 0 on the extension cochain complex")
        self.d0_cols, self.d1_cols = self.d0.cols(), self.d1.cols()
        # C^1 columns grouped by (weight, cochain parity); the cochain
        # x -> v_i has weight wt(v_i) - wt(x) and, x being odd, parity |v_i| + 1
        self.blocks = {}
        for k, (x, i) in enumerate(self.c1_basis):
            key = (wsub(module.weights[i], g.weight_of(x)),
                   (module.parities[i] + 1) % 2)
            self.blocks.setdefault(key, []).append(k)
        self._h1 = {}

    def _build_differentials(self):
        M, cols = self.M, self._cols
        d0 = {}
        for i in range(M.dim):
            for x in self.pos:
                for j, c in cols[x][i].items():
                    d0[(self.c1_index[(x, j)], i)] = c
        self.d0 = SparseMatrix(len(self.c1_basis), M.dim, d0)
        # (d f)(a, b) = a.f(b) + b.f(a); both signs positive because n+ is
        # odd abelian, which is exactly what makes d^2 = 0.
        d1 = {}
        for col, (x, i) in enumerate(self.c1_basis):
            for a in self.pos:
                img = cols[a][i]
                p = (a, x) if a <= x else (x, a)
                row0 = self.pair_index[p]
                for j, c in img.items():
                    key = (row0 * M.dim + j, col)
                    d1[key] = d1.get(key, 0) + c
        self.d1 = SparseMatrix(len(self.pairs) * M.dim, len(self.c1_basis), d1)

    def h1_dimension(self, w, p):
        """dim H^1 at (weight w, cochain parity p): the block's columns,
        less the rank of d1 on them (the cocycles), less the rank of the
        coboundaries d0 M_w of parity p."""
        key = (w, p)
        if key in self._h1:
            return self._h1[key]
        cols = self.blocks.get(key, [])
        dim = 0
        if cols:
            bs = [self.d0_cols[i] for i in self.M.weight_space(w)
                  if self.M.parities[i] == p]
            local = set(cols)
            if any(not local.issuperset(b) for b in bs):
                raise AssertionError("coboundary left its block")
            dim = (len(cols) - len(Echelon(self.d1_cols[c] for c in cols))
                   - len(Echelon(bs)))
        self._h1[key] = dim
        return dim

    def ext_dimension(self, lam, parity=None):
        """dim Ext^1 from K(lam) (parity 0), its parity flip (parity 1),
        or both summed (parity None), into the coefficient module."""
        if parity is None:
            return self.ext_dimension(lam, 0) + self.ext_dimension(lam, 1)
        lam = weight(lam)
        m, n = self.g.params
        if not is_dominant_gl(lam, m, n) or not self.h1_dimension(lam, parity):
            return 0
        dim = sum(
            sign * self.h1_dimension(wadd(lam, shift), parity)
            for sign, shift in weyl_shifts(m, n)
        )
        if dim < 0:
            raise AssertionError(
                f"negative multiplicity {dim} of {self.g.weight_str(lam)} "
                f"in H^1 (parity {parity})"
            )
        return dim


# ---------------------------------------------------------------------------
# glueing blocks from a g0-highest-weight cocycle


def _glue_cocycle(ke, mu, p, fiber, d, limits):
    """A g0-map c: L0(mu) -> Z^1 whose value at v_mu is not a coboundary,
    as one {C^1 column: coefficient} per fiber vector.

    The maps solve d1 c(v) = 0 and c(e.v) = e.c(v) for the simple even
    root vectors e, where (e.f)(y) = e.f(y) - f([e, y]).  Z^1 is a
    semisimple g0-module, so their values at v_mu span the highest-weight
    space of H^1 at mu modulo coboundaries; d of them must be independent.
    """
    g, M = ke.g, ke.M
    levi, h_ids = even_levi(g)
    unknowns = [
        (j, c)
        for j in range(fiber.dim)
        for c in ke.blocks.get((fiber.weights[j], p), ())
    ]
    if len(unknowns) > limits.max_hom_vars:
        raise ResourceLimitError(
            f"{len(unknowns)} glueing cochain unknowns exceed limit "
            f"{limits.max_hom_vars}"
        )
    rows = {}

    def put(key, u, v):
        row = rows.setdefault(key, {})
        row[u] = row.get(u, 0) + v

    for u, (k, c) in enumerate(unknowns):
        for r, v in ke.d1_cols[c].items():
            put(("d1", k, r), u, v)
    for e in (h_ids[r] for r in levi.ids_of_degree(1) + levi.ids_of_degree(-1)):
        cols = M.action[e].cols()
        fiber_rows = fiber.action[fiber.g.id_of(g.label(e))].rows()
        for u, (k, c) in enumerate(unknowns):
            # c(v_k) enters c(e.v_j) through the entry e_{kj}
            for j, v in fiber_rows[k].items():
                put((e, j, c), u, v)
            x, i = ke.c1_basis[c]
            for j, v in cols[i].items():
                put((e, k, ke.c1_index[(x, j)]), u, -v)
            for y in ke.pos:
                coeff = g.bracket(e, y).get(x)
                if coeff:
                    put((e, k, ke.c1_index[(y, i)]), u, coeff)
    maps = SparseMatrix(len(rows), len(unknowns), {
        (r, u): v for r, row in enumerate(rows.values())
        for u, v in row.items() if v
    }).kernel_basis()
    top = fiber.weights.index(mu)
    classes = Echelon(
        ke.d0_cols[i] for i in M.weight_space(mu) if M.parities[i] == p
    )
    found = [
        sol for sol in maps
        if classes.add({unknowns[u][1]: v for u, v in sol.items()
                        if unknowns[u][0] == top}) is not None
    ]
    if len(found) != d:
        raise AssertionError(
            f"{len(found)} highest-weight classes at {g.weight_str(mu)} "
            f"parity {p}, but dim Ext^1 is {d}"
        )
    c_of = [{} for _ in range(fiber.dim)]
    for u, v in found[0].items():
        j, c = unknowns[u]
        c_of[j][c] = v
    return c_of


def ext1_with_representative(ke, mu, p, limits=DEFAULT_LIMITS):
    """(dim Ext^1(top, M), glueing block or None) for the coefficient
    module M of the cochain complex ``ke`` and top = K(mu), or its parity
    flip when p = 1.

    By Eckmann-Shapiro, Ext^1(K(mu), M) = Hom_{g0}(L0(mu), H^1(g1, M)):
    the dimension is ``ke.ext_dimension(mu, p)``, and a nonzero class is a
    g0-map c: L0(mu) -> Z^1 with c(v_mu) outside the coboundaries.  The
    section y_I (x) v -> y_I.s(v) of K(mu), along the PBW words of its
    flag record, makes the block zero on g_{-1} + g0; on x in g1 it
    is Phi(x)(y_I (x) v) = (-1)^{|I|} y_I.c(v)(x), the sign from moving
    the odd x past the |I| odd letters of y_I.
    """
    d = ke.ext_dimension(mu, p)
    if not d:
        return 0, None
    M = ke.M
    ((_, _, words),) = kac_module(ke.g, mu, limits=limits).flag_record[1]
    fiber = simple_even_module(ke.g, mu, limits=limits)
    lower = {y: M.action[y].cols() for y in ke.g.negative_ids()}
    block = {}
    for j, cochain in enumerate(_glue_cocycle(ke, mu, p, fiber, d, limits)):
        by_x = {}
        for col, v in cochain.items():
            x, i = ke.c1_basis[col]
            by_x.setdefault(x, {})[i] = v
        for x, image in by_x.items():
            out = block.setdefault(x, {})
            act = word_action(lower, image)
            for k, w in enumerate(words):
                for i, v in act(w).items():
                    out[(i, k * fiber.dim + j)] = -v if len(w) % 2 else v
    return d, block


def glue_extension(bottom, top, block, kind="extension"):
    """Assemble the module bottom -> E -> top from a glueing block.

    E carries bottom's flag record followed by top's, shifted past bottom,
    when both are over s = g0 + g1 of the compatible grading and the block
    is zero outside g1, as ``ext1_with_representative`` builds it: then
    g_{-1} acts on top's part of E as on top, so top's words still hold."""
    g = bottom.g
    nb, nt = bottom.dim, top.dim
    record = None
    if bottom.flag_record and top.flag_record and g.grading_kind == "compatible" and (
        bottom.flag_record[0] == top.flag_record[0]
        == tuple(x for x in range(g.dim) if g.degree_of(x) >= 0)
    ) and all(g.degree_of(x) == 1 for x, ent in block.items() if ent):
        shifted = tuple((nb + off, fdim, words) for off, fdim, words in top.flag_record[1])
        record = (top.flag_record[0], bottom.flag_record[1] + shifted)
    action = {}
    for x in range(g.dim):
        ent = bottom.action[x].data.copy()
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
        flag_record=record,
    )
    assert_valid_module(E)
    return E


# ---------------------------------------------------------------------------
# flags of induced modules


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


# ---------------------------------------------------------------------------
# projective covers


@memoised
def projective_cover(g, lam, limits=DEFAULT_LIMITS):
    """The indecomposable projective P(lam): the one Fitting summand of
    the induction of V(lam) from the even part with a map onto L(lam),
    found and built by ``summand_onto``."""
    big = induced_projective(g, lam, limits=limits)
    L = simple_module(g, lam, limits=limits)
    rec, cosocle = summand_onto(big, L, limits=limits)
    P = rec["module"]
    flag = delta_flag(P, limits=limits)
    # lam is the cosocle, so it sits once at the bottom of the root order
    if flag.count(lam) != 1 or not all(root_leq(lam, mu) for mu in flag):
        raise AssertionError(
            f"summand flag {[g.weight_str(w) for w in flag]} does not have "
            f"{g.weight_str(lam)} as its unique minimal factor"
        )
    return copy_module(P, meta=dict(P.meta, flag=flag, cosocle_hom=cosocle))


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
    return copy_module(P, meta=dict(P.meta, summands=len(recs)))


# ---------------------------------------------------------------------------
# tilting modules


def _central_core(m, n, w):
    """Central character of w: the rho-shifted coordinates as the signed
    multiset {x_i} - {-y_j}, atypical pairs (x_i + y_j = 0) cancelling."""
    shifted = wadd(w, rho_weight(m, n))
    xs, ys = Counter(shifted[:m]), Counter(-y for y in shifted[m:])
    return sorted((xs - ys).elements()), sorted((ys - xs).elements())


def tilting_module(g, lam, limits=DEFAULT_LIMITS):
    """The indecomposable tilting module U(lam) by successive extension.

    Starting from K(lam), sweep dominant mu downward in lexicographic
    order; at each mu glue nontrivial extensions with K(mu) (or its
    parity flip) on top until the corresponding first extension group
    dies.  One sweep is enough: extensions of an induced module by an
    induced module only exist when the top weight is strictly smaller,
    so a glue at mu adds cochains only below mu.

    The candidates are the C^1 keys (weight, parity) of the current
    cochain complex (``KacExtensions``) whose weight has lam's central
    character: without a cochain there is no extension, and every Kac
    factor of the module lies in lam's block.  Each glueing block comes
    from a highest-weight cocycle of that complex
    (``ext1_with_representative``).  The complex is rebuilt, and the
    candidates re-read, only after a glue.  The certificate: every glued
    module passes ``assert_valid_module``; each glue lowers dim Ext^1 at
    its (mu, parity) by exactly one; Ext^1 vanishes at every dominant C^1
    weight of the final complex, block filter or not; and the
    endomorphism ring is local.  The sweep starts from the memoised K(lam)
    itself, and each glue concatenates the flag records, so ``end_ring``
    solves that ring on the Kac flag's record, never on the trivial one;
    the result is a copy annotated with the flag (without the record).
    """
    if g.family != "gl" or g.grading_kind != "compatible":
        raise GradingError("tilting construction needs gl compatible grading")
    m, n = g.params
    lam = weight(lam)
    core = _central_core(m, n, lam)
    T = kac_module(g, lam, limits=limits)
    flag = [(lam, 0)]
    ke = KacExtensions(T, limits=limits)
    steps = 0
    # sweep keys (mu, -p): mu descending, parity 0 before parity 1
    bound = (lam, 1)
    while True:
        below = [
            (mu, -p) for mu, p in ke.blocks
            if (mu, -p) < bound and is_dominant_gl(mu, m, n)
            and _central_core(m, n, mu) == core
        ]
        if not below:
            break
        bound = max(below)
        mu, p = bound[0], -bound[1]
        prev = None
        while True:
            steps += 1
            if steps > limits.iteration_budget:
                raise ResourceLimitError(
                    "tilting construction exceeded iteration budget"
                )
            d, block = ext1_with_representative(ke, mu, p, limits=limits)
            # Hom(K, K) is spanned by the identity, Ext^1(K, K) = 0, and
            # the connecting map sends the identity to the glued class
            if prev is not None and d != prev - 1:
                raise AssertionError(
                    f"Ext^1 at {g.weight_str(mu)} parity {p} went from "
                    f"{prev} to {d} across one glue instead of dropping by 1"
                )
            if d == 0:
                break
            prev = d
            K = kac_module(g, mu, limits=limits)
            top = parity_flip(K) if p else K
            T = glue_extension(T, top, block, kind="tilting_step")
            ke = KacExtensions(T, limits=limits)
            flag.append((mu, p))
    # certification, without the block filter: nothing extends the result
    leftovers = {
        (mu, p): d for mu, p in ke.blocks
        if is_dominant_gl(mu, m, n) and (d := ke.ext_dimension(mu, p))
    }
    if leftovers:
        raise AssertionError(f"extensions survive the sweep: {leftovers}")
    ring = end_ring(T, limits=limits)
    if not ring["local"]:
        raise AssertionError(
            "tilting candidate is decomposable; extension choices went wrong"
        )
    # the top of the flag need not be a highest weight
    return copy_module(T, highest_weight=None, meta=dict(
        T.meta, kind="tilting", flag_bottom_up=tuple(flag), flag=tuple(reversed(flag)),
        end_even_dim=len(ring["basis"]), end_radical_dim=len(ring["radical"]),
    ))


# ---------------------------------------------------------------------------
# the two duality statements


def _duality_report(lam, dualised, target, limits, **partner):
    """The report of both duality checks: dualised^* against target,
    ``partner`` naming the weight beta - w0.lam on the other side."""
    D = dual_module(dualised)
    result = is_isomorphic(D, target, allow_parity_flip=True, limits=limits)
    return {
        "weight": lam,
        **partner,
        "characters_equal": D.character() == target.character(),
        "isomorphic": result["isomorphic"],
        "certified": result["certified"],
        "parity": result["parity"],
    }


def verify_kac_dual(g, lam, limits=DEFAULT_LIMITS):
    """Check K(lam)^* against K(beta - w0.lam); returns a report dict."""
    lam = weight(lam)
    mu = wsub(beta_weight(*g.params), w0_action(*g.params, lam))
    K = kac_module(g, lam, limits=limits)
    return _duality_report(lam, K, kac_module(g, mu, limits=limits), limits, partner=mu)


def verify_projective_dual(g, lam, limits=DEFAULT_LIMITS):
    """Check P(beta - w0.lam)^* against the tilting module U(lam)."""
    lam = weight(lam)
    mu = wsub(beta_weight(*g.params), w0_action(*g.params, lam))
    P = projective_cover(g, mu, limits=limits)
    U = tilting_module(g, lam, limits=limits)
    report = _duality_report(lam, P, U, limits, projective_weight=mu)
    report["flag"] = U.meta["flag"]
    return report
