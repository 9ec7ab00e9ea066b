"""Extensions, tilting modules and projective covers.

First extensions out of an induced module K(mu) into a fixed coefficient
module M come from the cochain complex of the abelian odd raising part g1
(``KacExtensions``; restricted-dual coefficients are handled by the
caller).  By Eckmann-Shapiro, Ext^1(K(mu), M) = Hom_{g0}(L0(mu), H^1):

* ``KacExtensions.ext_dimension`` reads its dimension off the dimensions
  of H^1's weight spaces by Weyl's character formula.  The complex is
  built once per M, and each weight space of H^1 costs two rank counts;
  ``KacExtensions.glue`` glues K(mu) onto M and grows the complex to the
  glued module E, not rebuilt.
* ``ext1_with_representative`` builds a glueing block for a nonzero
  class from a g0-highest-weight cocycle outside the coboundaries,
  extended to a g0-map out of L0(mu) and along the PBW words of K(mu);
  the number of such classes must match the dimension.

The direct solve for an upper-triangular glueing block over every pair of
basis elements of g is the tests' oracle for both (``tests/full_basis.py``).

``glue_extension`` certifies a glued module on its glue block alone, on
the premise that its bottom and top are modules: along a tilting sweep
each K(mu) is one by PBW induction, as everywhere else in the library,
and each bottom passed the previous glue's check.
"""

from collections import Counter
from functools import reduce
from itertools import combinations

from .linalg import SparseMatrix, Echelon, _integral
from .weights import wadd, weight, wsub, root_leq, is_dominant_gl, weyl_shifts
from .algebra import beta_reflect, rho_weight
from .config import DEFAULT_LIMITS
from .errors import GradingError, ResourceLimitError
from .modules import (
    ExplicitModule, _torus_pair_holds, copy_module, restrict_module, induced_module,
    dual_module, on_orbits, parity_flip, relation_pairs, word_action,
)
from .forms import _berezinian, _peel_factors, even_levi, kac_module, simple_even_module
from .homs import end_ring, hom_dims, is_isomorphic


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

    The complex is kept as column views, C^1 column k being the cochain
    ``c1_basis[k] = (x, i)`` (x -> v_i) and C^2 row j * len(pairs) + q the
    value at (pairs[q], v_j).  Both orders only grow with M, so
    :meth:`glue` moves the complex of M to that of the glued module E,
    which holds M as the submodule on its first dim M basis vectors, by
    appending what E's new basis vectors add; a fresh build is that growth
    from the zero module, and only a fresh build checks d^2 = 0.
    """

    def __init__(self, module, limits=DEFAULT_LIMITS):
        g = module.g
        if g.family != "gl" or g.grading_kind != "compatible":
            raise GradingError(
                "extension cochains need gl with the compatible grading"
            )
        self.g = g
        self.limits = limits
        self.pos = sorted(g.positive_ids())
        npos = len(self.pos)
        # C^2 basis: unordered pairs x <= y (squares allowed: n+ is odd).
        self.pairs = [
            (self.pos[a], self.pos[b])
            for a in range(npos)
            for b in range(a, npos)
        ]
        self.pair_index = {p: k for k, p in enumerate(self.pairs)}
        self.c1_basis, self.c1_index = [], {}
        # d0 per basis vector of M, d1 per C^1 column: {row: entry}
        self.d0_cols, self.d1_cols = [], []
        # C^1 columns grouped by (weight, cochain parity), in c1 key order
        self.blocks = {}
        self._h1 = {}
        self._grow(module, 0)
        # (d1 d0 m)(a, b) = (X_a X_b + X_b X_a) m
        for col in self.d0_cols:
            acc = {}
            for r, c in col.items():
                for s, v in self.d1_cols[r].items():
                    acc[s] = acc.get(s, 0) + c * v
            if any(acc.values()):
                raise AssertionError("d^2 != 0 on the extension cochain complex")

    def glue(self, top, block):
        """Glue ``top`` onto M along ``block`` (``glue_extension``), grow
        the complex in place from M to the glued module E and return E.
        M is E's submodule on its first dim M basis vectors, so d0, d1 are
        block upper triangular: only the columns of E's new basis vectors
        and of the cochains into them are appended, and H^1 is recomputed
        only at the keys that grew.  On those columns d1 d0 is
        X_a X_b + X_b X_a, the top's relation on the diagonal block and
        the glue's on the other, so d^2 = 0 is not checked again."""
        module = glue_extension(self.M, top, block)
        self._grow(module, self.M.dim)
        return module

    def _grow(self, module, start):
        """Append the columns of basis vectors start.. of ``module`` and of
        the cochains into them; the C^1 unknowns are guarded per block
        (every rank is taken per block) before any differential is built."""
        g, pos, npairs = self.g, self.pos, len(self.pairs)
        new = [(x, i) for x in pos for i in range(start, module.dim)]
        # the cochain x -> v_i has weight wt(v_i) - wt(x) and, x being
        # odd, parity |v_i| + 1
        keys = [
            (wsub(module.weights[i], g.weight_of(x)), (module.parities[i] + 1) % 2)
            for x, i in new
        ]
        grown = Counter(keys)
        for key, count in grown.items():
            size = count + len(self.blocks.get(key, ()))
            if size > self.limits.max_hom_vars:
                raise ResourceLimitError(
                    f"extension cochains have {size} C^1 unknowns at weight "
                    f"{g.weight_str(key[0])} parity {key[1]} (module dim "
                    f"{module.dim}); max_hom_vars is {self.limits.max_hom_vars}"
                )
        first = len(self.c1_basis)
        for k, (key, c1) in enumerate(zip(keys, new), first):
            self.c1_index[c1] = k
            self.c1_basis.append(c1)
            self.blocks.setdefault(key, []).append(k)
        if start:
            for key in grown:
                self.blocks[key].sort(key=self.c1_basis.__getitem__)
        index, pair_index = self.c1_index, self.pair_index
        cols = {x: module.action[x].cols() for x in pos}
        # (d m)(x) = x.m
        self.d0_cols.extend(
            {index[(x, j)]: c for x in pos for j, c in cols[x][i].items()}
            for i in range(start, module.dim)
        )
        # (d f)(a, b) = a.f(b) + b.f(a); both signs positive because n+ is
        # odd abelian, which is exactly what makes d^2 = 0.
        self.d1_cols.extend(
            {
                j * npairs + pair_index[(a, x) if a <= x else (x, a)]: c
                for a in pos for j, c in cols[a][i].items()
            }
            for x, i in new
        )
        for key in grown.keys() | set(zip(module.weights[start:], module.parities[start:])):
            self._h1.pop(key, None)
        self.M = module

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
            f"{limits.max_hom_vars} (max_hom_vars)"
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


def _assert_valid_glue(bottom, top, block):
    """Raise ValueError unless E = [[B, G], [0, T]] is a module, given that
    the bottom B and the top T are (valid, untruncated) modules and G is
    ``block``, {x: {(i, j): entry}} with i in B and j in T.

    The diagonal blocks of each relation R(a, b) = X_a X_b - s X_b X_a -
    X_[a,b] of E are B's and T's, so E is a module exactly when G moves
    weight and parity as X_x does, is zero on the torus (which acts
    diagonally), and the off-diagonal block of every R(a, b),

        B_a G_b + G_a T_b - s (B_b G_a + G_b T_a) - sum_k c_k G_k,

    vanishes.  It is zero unless G_a, G_b or some G_k with k in [a, b] is
    nonzero, so only those pairs of ``relation_pairs`` are evaluated, and
    a torus pair among them holds by additivity (``_torus_pair_holds``).
    The block is linear in G, so it is evaluated on the primitive integer
    multiple of G, in ints wherever B and T are integral."""
    g, nb = bottom.g, bottom.dim
    flat = {(x, i, j): v for x, ent in block.items() for (i, j), v in ent.items() if v}
    G = {}
    for (x, i, j), v in _integral(flat)[0].items():
        if x in g.t_coord:
            fault = "is a torus entry off the diagonal"
        elif bottom.weights[i] != wadd(top.weights[j], g.weight_of(x)):
            fault = "breaks weight additivity"
        elif bottom.parities[i] != (top.parities[j] + g.parity(x)) % 2:
            fault = "breaks parity additivity"
        else:
            G.setdefault(x, {}).setdefault(i, {})[j] = v
            continue
        raise ValueError(f"{g.label(x)} at ({i},{nb + j}) of the glue block {fault}")
    b_cols = [bottom.action[x].cols() for x in range(g.dim)]
    t_rows = [top.action[x].rows() for x in range(g.dim)]
    for a, b, sign in relation_pairs(g, range(g.dim)):
        terms = g.bracket(a, b)
        if (a not in G and b not in G and not any(k in G for k in terms)
                or _torus_pair_holds(g, a, b, ())):
            continue
        acc = {}
        for x, y, c in ((a, b, 1), (b, a, -sign)):
            for k, row in G.get(y, {}).items():  # c B_x G_y
                for i, u in b_cols[x][k].items():
                    u *= c
                    for j, v in row.items():
                        acc[(i, j)] = acc.get((i, j), 0) + u * v
            for i, row in G.get(x, {}).items():  # c G_x T_y
                for k, u in row.items():
                    u *= c
                    for j, v in t_rows[y][k].items():
                        acc[(i, j)] = acc.get((i, j), 0) + u * v
        for k, c in terms.items():
            for i, row in G.get(k, {}).items():
                for j, v in row.items():
                    acc[(i, j)] = acc.get((i, j), 0) - c * v
        if any(acc.values()):
            raise ValueError(
                f"bracket relation fails for ({g.label(a)},{g.label(b)}) "
                f"on the glue block"
            )


def glue_extension(bottom, top, block):
    """Assemble the module bottom -> E -> top from a glueing block; E's
    meta kind is "extension".

    E carries bottom's flag record followed by top's, shifted past bottom,
    when both are over s = g0 + g1 of the compatible grading and the block
    is zero outside g1, as ``ext1_with_representative`` builds it: then
    g_{-1} acts on top's part of E as on top, so top's words still hold.

    The certificate is :func:`_assert_valid_glue`, on the glue block
    alone: its premise is that bottom and top are modules.  A Kac module
    K(mu) (or its parity flip) is one by PBW induction, as everywhere else
    in the library, and a bottom glued before passed this check itself,
    so every module of a tilting sweep is certified, one glue at a time.
    """
    g = bottom.g
    nb, nt = bottom.dim, top.dim
    _assert_valid_glue(bottom, top, block)
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
    return ExplicitModule(
        g,
        list(bottom.weights) + list(top.weights),
        list(bottom.parities) + list(top.parities),
        action,
        labels=[f"b.{l}" for l in bottom.labels]
        + [f"t.{l}" for l in top.labels],
        truncated=bottom.truncated or top.truncated,
        meta={"kind": "extension"},
        flag_record=record,
    )


# ---------------------------------------------------------------------------
# projective covers


def _cover_top(g, lam, limits):
    """nu(lam), the top of P(lam)'s Kac flag: the lexicographically
    largest mu = lam + (a sum of distinct odd positive roots), dominant
    and in lam's block, with [K(mu) : L(lam)] != 0."""
    m, n = g.params
    core = _central_core(m, n, lam)
    roots = [g.weight_of(x) for x in g.positive_ids()]
    tops = {
        reduce(wadd, subset, lam)
        for k in range(len(roots) + 1) for subset in combinations(roots, k)
    }
    return next(
        mu for mu in sorted(tops, reverse=True)
        if is_dominant_gl(mu, m, n) and _central_core(m, n, mu) == core
        and _peel_factors(g, mu, limits).get(lam)
    )


@on_orbits(_berezinian)
def projective_cover(g, lam, limits=DEFAULT_LIMITS):
    """The indecomposable projective P(lam), built as the tilting module
    Pi^p U(nu(lam)).

    In F, the finite-dimensional integral gl(m|n)-modules, projectives are
    injective (induction from g0 agrees with coinduction up to a
    one-dimensional twist), so P(lam) has a Kac flag and a dual Kac flag:
    it is an indecomposable tilting module (Brundan, J. AMS 16 (2003)).
    By BGG reciprocity its Kac factors are the K(mu) with
    [K(mu) : L(lam)] != 0, each mu a g0-highest weight of
    Lambda(g1) (x) L0(lam).  So nu(lam), the top of the flag, comes from
    the certified Kac radicals (:func:`_cover_top`), and U(nu) from the
    memoised sweep of :func:`tilting_module`; typical lam gives nu = lam
    and U(lam) = K(lam).  The certificate, which a wrong nu fails:

    (a) End(U)_0 is local (the sweep certifies it);
    (b) U is projective: with a Kac flag, iff Ext^1(U, K(mu)) = 0 for
        every mu (Ringel, Math. Z. 208 (1991)); that is
        Ext^1(K(mu)^*, U^*), and K(mu)^* is again a Kac module up to
        parity, so the cochain complex of U^* carries no extension;
    (c) lam sits in U's flag exactly once, below every flag weight in the
        root order.

    An indecomposable projective has its cosocle weight as the unique
    minimal weight of its Kac flag, so (a)-(c) make U = P(lam) up to the
    parity p of K(lam) in U's flag, which the flip moves to 0.  The meta
    records U's flag ``flag_bottom_up`` with each parity flipped by p, and
    U's endomorphism dimensions.
    """
    nu = _cover_top(g, lam, limits)
    U = tilting_module(g, nu, limits=limits)
    flag = U.meta["flag_bottom_up"]
    at_lam = [p for mu, p in flag if mu == lam]
    if len(at_lam) != 1 or not all(root_leq(lam, mu) for mu, _ in flag):
        raise AssertionError(
            f"flag {[g.weight_str(mu) for mu, _ in flag]} of "
            f"U({g.weight_str(nu)}) does not have {g.weight_str(lam)} as its "
            f"unique minimal factor"
        )
    _assert_nothing_extends(
        KacExtensions(dual_module(U), limits=limits),
        f"U({g.weight_str(nu)}) is not projective; Ext^1 out of it survives",
    )
    flip = at_lam[0]
    return copy_module(parity_flip(U) if flip else U, meta={
        "kind": "projective_cover",
        "flag_bottom_up": tuple((mu, (p + flip) % 2) for mu, p in flag),
        "end_even_dim": U.meta["end_even_dim"],
        "end_radical_dim": U.meta["end_radical_dim"],
    })


def projective_cover_h(halg, fiber, limits=DEFAULT_LIMITS):
    """Projective cover of the simple module u(lam) of the q-family Cartan
    h = h0 + h1 (``forms.clifford_module``), by one induction.

    On u(lam) the odd c of h1 anticommute and c^2 = [c, c]/2 acts by a
    scalar, lam_i for c_i.  The c with a nonzero square generate a
    semisimple Clifford algebra C and the others an exterior algebra, so u
    is projective over s = h0 + C and P = Ind_s^h u is projective (odd
    letters first).  The certificate: End(P)_0 is local, so P is
    indecomposable, and Hom(P, u) != 0, so P covers u.
    """
    lam = fiber.weights[0]
    t_ids = sorted(halg.t_coord)
    odd = [x for x in range(halg.dim) if x not in halg.t_coord]
    clifford = [
        x for x in odd
        if sum(c * lam[halg.t_coord[t]] for t, c in halg.bracket(x, x).items())
    ]
    free = [x for x in odd if x not in clifford]
    sub_ids = t_ids + clifford
    P = induced_module(
        halg, sub_ids, restrict_module(fiber, halg.subalgebra(sub_ids)),
        order=free + clifford + t_ids, kind="cartan_projective", limits=limits,
    )
    local = end_ring(P, limits=limits)["local"]
    if not local or not sum(hom_dims(P, fiber, limits=limits)):
        raise AssertionError(
            f"Ind of u({halg.weight_str(lam)}) is not a local module mapping onto it"
        )
    return P


# ---------------------------------------------------------------------------
# tilting modules


def _central_core(m, n, w):
    """Central character of w: the rho-shifted coordinates as the signed
    multiset {x_i} - {-y_j}, atypical pairs (x_i + y_j = 0) cancelling."""
    shifted = wadd(w, rho_weight(m, n))
    xs, ys = Counter(shifted[:m]), Counter(-y for y in shifted[m:])
    return sorted((xs - ys).elements()), sorted((ys - xs).elements())


def _assert_nothing_extends(ke, what):
    """Raise unless Ext^1(K(mu), M) vanishes at every C^1 key (mu, p) of
    the cochain complex ``ke`` of M, the only weights with a cochain;
    ``ext_dimension`` answers 0 at a non-dominant mu."""
    left = {key: d for key in ke.blocks if (d := ke.ext_dimension(*key))}
    if left:
        raise AssertionError(f"{what}: {left}")


@on_orbits(_berezinian)
def tilting_module(g, lam, limits=DEFAULT_LIMITS):
    """The indecomposable tilting module U(lam) by successive extension.

    Starting from K(lam), sweep dominant mu downward in lexicographic
    order; at each mu glue nontrivial extensions with K(mu) (or its
    parity flip) on top until the corresponding first extension group
    dies.  One sweep is enough: extensions of an induced module by an
    induced module only exist when the top weight is strictly smaller,
    so a glue at mu adds cochains only below mu.

    The candidates are the C^1 keys (weight, parity) of the current
    cochain complex (``KacExtensions``) whose weight is dominant and has
    lam's central character (each weight is tested once per sweep):
    without a cochain there is no extension, and every Kac factor of the
    module lies in lam's block.  Each glueing block comes from a
    highest-weight cocycle of that complex (``ext1_with_representative``),
    and ``KacExtensions.glue`` glues K(mu) on and grows the complex to the
    glued module, which is the sweep's only module (``ke.M``); only then
    are the candidates re-read.  The certificate: every glued module
    passes the glue-block check of ``glue_extension``, whose
    premise is that its bottom and top are modules (K(mu) by PBW
    induction, the bottom by the previous glue's check); each glue lowers
    dim Ext^1 at its (mu, parity) by exactly one; Ext^1 vanishes at every
    dominant C^1 weight of the final complex, block filter or not; and the
    endomorphism ring is local.  The sweep starts from the memoised K(lam)
    itself, and each glue concatenates the flag records, so ``end_ring``
    solves that ring on the Kac flag's record, never on the trivial one;
    the result is a copy, record kept, annotated with the flag
    ``flag_bottom_up``, the (mu, parity) of each glued Kac module in order.
    """
    m, n = g.params
    core = _central_core(m, n, lam)
    candidates = {}  # mu -> dominant, with lam's central character

    def candidate(mu):
        if mu not in candidates:
            candidates[mu] = is_dominant_gl(mu, m, n) and _central_core(m, n, mu) == core
        return candidates[mu]

    flag = [(lam, 0)]
    ke = KacExtensions(kac_module(g, lam, limits=limits), limits=limits)
    steps = 0
    # sweep keys (mu, -p): mu descending, parity 0 before parity 1
    bound = (lam, 1)
    while True:
        below = [
            (mu, -p) for mu, p in ke.blocks
            if (mu, -p) < bound and candidate(mu)
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
                    f"tilting sweep of U{g.weight_str(lam)} exceeded its "
                    f"iteration budget at K{g.weight_str(mu)} parity {p}; "
                    f"iteration_budget is {limits.iteration_budget}"
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
            ke.glue(top, block)
            flag.append((mu, p))
    # certification, without the block filter: nothing extends the result
    _assert_nothing_extends(ke, "extensions survive the sweep")
    T = ke.M
    ring = end_ring(T, limits=limits)
    if not ring["local"]:
        raise AssertionError(
            "tilting candidate is decomposable; extension choices went wrong"
        )
    # the top of the flag need not be a highest weight
    return copy_module(T, highest_weight=None, meta=dict(
        T.meta, kind="tilting", flag_bottom_up=tuple(flag),
        end_even_dim=len(ring["basis"]), end_radical_dim=len(ring["radical"]),
    ))


# ---------------------------------------------------------------------------
# the two duality statements


def _duality_report(lam, dualised, target, limits, **partner):
    """The report of both duality checks: dualised^* against target,
    ``partner`` naming the weight beta - w0.lam on the other side.  The
    Hom is solved out of target, K(mu) or U(lam), on its Kac-flag record;
    a dual carries none, and the isomorphism rule is symmetric."""
    D = dual_module(dualised)
    result = is_isomorphic(target, D, allow_parity_flip=True, limits=limits)
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
    mu = beta_reflect(*g.params, lam)
    K = kac_module(g, lam, limits=limits)
    return _duality_report(lam, K, kac_module(g, mu, limits=limits), limits, partner=mu)


def verify_projective_dual(g, lam, limits=DEFAULT_LIMITS):
    """Check P(beta - w0.lam)^* against the tilting module U(lam)."""
    lam = weight(lam)
    mu = beta_reflect(*g.params, lam)
    P = projective_cover(g, mu, limits=limits)
    U = tilting_module(g, lam, limits=limits)
    report = _duality_report(lam, P, U, limits, projective_weight=mu)
    report["flag"] = tuple(reversed(U.meta["flag_bottom_up"]))
    return report
