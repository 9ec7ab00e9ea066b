"""Contravariant forms and the standard highest-weight constructions.

The contravariant form on a cyclic highest-weight module is computed by
peeling: every weight space below the top is spanned by images of higher
weight spaces under lowering operators, and

    <x.u, v> = <u, transpose(x).v>

pushes each pairing up to an already-known block.  The form starts from
the identity pairing on the top weight space; ranks of the per-weight
Gram blocks are independent of that normalization.

On top of the form sit the standard constructions: truncated Verma
slices (words cut at one degree), simple modules of the even part (the
Levi Verma slice cut at the degree of w0.lam, followed by the form
quotient), the finite induced modules built from them, and the exact
Clifford modules for the q-type Cartan.

The maximal submodule of a Kac module K(lam) = Lambda(g_-1) (x) L0(lam)
is read off the odd raisings, without the form (Kac, Adv. Math. 26,
1977).  Take v of Kac degree -k.  By PBW, U(g) = U(g_-1) U(g_0) U(g_1),
and K has no positive degree, so the degree-0 part of U(g).v is
U(g_0).Lambda^k(g_1).v.  The top layer 1 (x) L0(lam) is a simple
g_0-module that generates K(lam), so U(g).v is proper iff
Lambda^k(g_1).v = 0 (:func:`_odd_raising_kernel`).  The maximal
submodule is the radical of the contravariant form; ``kac_radical``
certifies it, and simple characters and L(lam) are read off it.

The standard modules are built once per character orbit by
``modules.on_orbits``: tensoring with a one-dimensional module C_chi is
an exact autoequivalence, and a character vanishes on every bracket, so
M (x) C_chi keeps M's coordinates and non-torus matrices
(``modules.twist``).  L0(lam) is built only at lam_m = lam_{m+n} = 0,
for the characters (a^m | b^n) of gl(m)+gl(n) (:func:`_levi_character`);
K(lam), L(lam), and P(lam) and U(lam) in ``structure``, only at
lam_m = 0, for the characters c (1^m | -1^n) of g (:func:`_berezinian`;
Kac, Adv. Math. 26, 1977).  ``kac_radical`` reads the representative's
radical, which has the same coordinates in K(lam).
"""

from itertools import combinations

from .algebra import memo_entry, memoised, principal_dvector, w0_action
from .config import DEFAULT_LIMITS
from .errors import CliffordWeightError, DominanceError, GradingError
from .linalg import SparseMatrix, apply_cols
from .modules import (
    ExplicitModule,
    _closure_echelon,
    copy_module,
    induced_module,
    inflate_module,
    intertwining_ids,
    on_orbits,
    quotient_module,
    trivial_module,
    word_action,
)
from .rational import QQ, rational_sqrt
from .weights import height, is_dominant_gl, root_leq, wdot, weight, wsub


class ContravariantForm:
    """Per-weight Gram blocks of the contravariant form on a module."""

    __slots__ = ("module", "gram", "_ranks")

    def __init__(self, module, gram):
        self.module = module
        self.gram = gram
        self._ranks = None

    def ranks(self):
        if self._ranks is None:
            self._ranks = {w: mat.rank() for w, mat in self.gram.items()}
        return self._ranks

    def radical_vectors(self):
        """Canonical homogeneous basis of the radical, in module coordinates."""
        out = []
        spaces = self.module.weight_spaces()
        for w in sorted(self.gram, reverse=True):
            idx = spaces[w]
            for kvec in self.gram[w].kernel_basis():
                out.append({idx[k]: c for k, c in kvec.items()})
        return out


def contravariant_form(module):
    """Compute the contravariant form of a cyclic highest-weight module.

    Requires a recorded highest weight whose space generates the module;
    raises ValueError otherwise.  Works on truncated slices too: raising
    operators stay exact on the retained vectors, which is all the
    recursion uses.
    """
    g = module.g
    if g.transpose is None:
        raise ValueError(f"{g.family}{g.params} has no transpose map")
    lam = module.highest_weight
    if lam is None:
        raise ValueError("module has no recorded highest weight")
    spaces = module.weight_spaces()
    if lam not in spaces:
        raise ValueError(f"highest weight {g.weight_str(lam)} has no vectors")
    for w in spaces:
        if not root_leq(w, lam):
            raise ValueError(
                f"weight {g.weight_str(w)} is not below the top {g.weight_str(lam)}"
            )

    order = sorted(spaces, key=lambda w: height(w, lam))
    views = {x: mat.cols() for x, mat in module.action.items()}
    gram = {lam: SparseMatrix.identity(len(spaces[lam]))}
    for mu in order:
        if mu == lam:
            continue
        idx = spaces[mu]
        pos = {i: k for k, i in enumerate(idx)}
        n_mu = len(idx)

        # one column per (x, source vector u): x, the row of the Gram
        # block at u keyed by module index, and the image x.u
        cols = []
        for x in range(g.dim):
            nu = wsub(mu, g.weight_of(x))
            if nu == mu or nu not in gram:
                continue
            src = spaces[nu]
            for u, grow in enumerate(gram[nu].rows()):
                grow = {src[k]: v for k, v in grow.items()}
                cols.append((x, grow, views[x][src[u]]))

        s = len(cols)
        S = SparseMatrix(n_mu, s, {
            (pos[i], j): c for j, (_, _, img) in enumerate(cols)
            for i, c in img.items()
        })

        pairings = {}
        for j2, (_, _, img2) in enumerate(cols):
            if not img2:
                continue
            lifts = {}  # x1 -> transpose(x1) applied to img2
            for j1, (x1, grow, _) in enumerate(cols):
                lifted = lifts.get(x1)
                if lifted is None:
                    lifted = lifts[x1] = apply_cols(views[g.transpose[x1]], img2)
                val = sum(c * grow[i] for i, c in lifted.items() if i in grow)
                if val:
                    pairings[(j1, j2)] = val
        gspan = SparseMatrix(s, s, pairings)

        units = [{k: 1} for k in range(n_mu)]
        solved = S.solve_multi(units)
        if any(sol is None for sol in solved):
            raise ValueError(
                f"module is not generated by its highest weight space: "
                f"weight {g.weight_str(mu)} not covered by lowerings"
            )
        gspan_cols = gspan.cols()
        for kvec in S.kernel_basis():
            if apply_cols(gspan_cols, kvec):
                raise ValueError(
                    f"no contravariant form exists: inconsistent pairings at "
                    f"{g.weight_str(mu)}"
                )
        C = SparseMatrix(s, n_mu, {
            (j, k): c for k, sol in enumerate(solved) for j, c in sol.items()
        })
        blk = C.transpose() @ gspan @ C
        if blk != blk.transpose():
            raise ValueError(
                f"contravariant form is not symmetric at {g.weight_str(mu)}"
            )
        gram[mu] = blk

    return ContravariantForm(module, gram)


def form_quotient(module, kind=None):
    """Quotient by the radical of the contravariant form.

    For an untruncated highest-weight module this is the simple quotient.
    Returns (quotient, projection).
    """
    rad = contravariant_form(module).radical_vectors()
    quot, proj = quotient_module(module, rad, kind=kind)
    if quot.dim != module.dim - len(rad):
        raise AssertionError("form radical failed to be a submodule")
    return quot, proj


# ---------------------------------------------------------------------------
# even-part simples


def even_levi(g):
    """(levi, h_ids): the degree-0 part of a compatibly graded gl(m|n),
    with the principal triangular structure installed on it, and the
    tuple of its ids in g.  Built once per algebra, so every L0(lam) is a
    module over the same Levi."""
    if g.family != "gl" or g.grading_kind != "compatible":
        raise GradingError("even Levi extraction needs a compatible grading")
    return memo_entry(g, ("even_levi",), lambda: _levi(g))


def _levi(g):
    h_ids = tuple(g.h_ids())
    prin = principal_dvector(*g.params)
    degs = [wdot(g.weight_of(i), prin) for i in h_ids]
    return g.subalgebra(h_ids, degrees=degs, family_tag="levi"), h_ids


def _check_weight(g, lam):
    """GradingError unless g is gl with the compatible grading,
    DominanceError unless lam is dominant for the even part: the weights
    the standard modules are built at."""
    if g.family != "gl" or g.grading_kind != "compatible":
        raise GradingError("this construction needs gl with the compatible grading")
    m, n = g.params
    if not is_dominant_gl(lam, m, n):
        raise DominanceError(
            f"{g.weight_str(lam)} is not dominant for gl({m})+gl({n})"
        )


def _levi_character(g, lam):
    """(a^m | b^n), a = lam_m and b = lam_{m+n}: the character of
    gl(m)+gl(n) that carries the orbit representative lam - chi, whose
    last coordinate on each side is zero, to lam.  Checks lam first
    (:func:`_check_weight`)."""
    _check_weight(g, lam)
    m, n = g.params
    return weight((lam[m - 1],) * m + (lam[-1],) * n)


@on_orbits(_levi_character)
def simple_even_module(g, lam, limits=DEFAULT_LIMITS):
    """The simple module of the even part gl(m) + gl(n) at a dominant
    weight, a module over the Levi subalgebra: the Levi Verma slice cut
    at the degree of w0.lam (:func:`verma_module_truncated`), modulo the
    radical of the contravariant form.  Every positive Levi root has
    positive degree, so the slice holds every word of every weight in
    [w0.lam, lam], which contains the support of the simple quotient; a
    Gram block only reads higher weights, and at a weight outside the
    support the whole weight space is radical.
    """
    levi, _ = even_levi(g)
    m, n = g.params
    depth = wdot(wsub(lam, w0_action(m, n, lam)), principal_dvector(m, n))
    slice_ = verma_module_truncated(levi, lam, depth, limits=limits)
    V, _ = form_quotient(slice_, kind="simple_even")
    # the support of the simple lies inside the slice
    return copy_module(V, truncated=False)


# ---------------------------------------------------------------------------
# the induced families


def _borel(g):
    """(ids, subalgebra) of the nonnegative degrees: the parabolic
    g0 + g1 of a compatible grading, the Borel of a principal one.  The
    subalgebra is built once per algebra."""
    ids = sorted(g.h_ids() + g.positive_ids())
    return ids, memo_entry(g, ("borel",), lambda: g.subalgebra(ids))


def _berezinian(g, lam):
    """c (1^m | -1^n), c = lam_m: c times the supertrace (the weight of
    the Berezinian), the character of g that carries the orbit
    representative lam - chi, whose coordinate m is zero, to lam.  Checks
    lam first (:func:`_check_weight`)."""
    _check_weight(g, lam)
    m, n = g.params
    c = lam[m - 1]
    return weight((c,) * m + (-c,) * n)


@on_orbits(_berezinian)
def kac_module(g, lam, limits=DEFAULT_LIMITS):
    """Induce the even-part simple V(lam) through the parabolic with the
    odd raisings acting by zero.  Dimension 2^(m n) * dim V(lam)."""
    m, n = g.params
    V = simple_even_module(g, lam, limits=limits)
    b_ids, parabolic = _borel(g)
    fiber = inflate_module(V, parabolic)
    K = induced_module(
        g, b_ids, fiber, highest_weight=tuple(V.highest_weight),
        kind="kac", limits=limits,
    )
    expected = (1 << (m * n)) * V.dim
    if K.dim != expected:
        raise AssertionError(f"induced dimension {K.dim}, expected {expected}")
    return K


def _odd_raising_kernel(K):
    """Canonical basis of the maximal submodule of a Kac module K, in
    module coordinates, weights descending: the vectors and the order of
    ``contravariant_form(K).radical_vectors()``.

    A vector v at weight mu and Kac degree -k, k the length of its word
    in K's one-block flag record, lies in it iff x_J.v = 0 for every
    k-subset J of the odd raisings (proof in the module docstring).  Each
    x_J.v lies in the top layer, basis indices 0..fdim-1, so the weight
    space's part is the kernel of one matrix with rows (J, top index);
    ``kernel_basis`` reads it off the reduced echelon form with a unit at
    each free column, so any matrix with this kernel gives these vectors.

    Raises ValueError unless K carries the one-block flag record of a
    module induced from g_0 + g_1, and AssertionError if some x_J.v
    leaves the top layer.
    """
    g = K.g
    record = K.flag_record
    if (record is None or len(record[1]) != 1 or g.grading_kind != "compatible"
            or tuple(record[0]) != tuple(_borel(g)[0])):
        raise ValueError(
            "the odd raisings decide the maximal submodule only on a Kac "
            "module with its one-block flag record"
        )
    _, ((_, fdim, words),) = record
    raisings = g.positive_ids()
    cols = {x: K.action[x].cols() for x in raisings}
    out = []
    for mu, idx in sorted(K.weight_spaces().items(), reverse=True):
        subsets = list(combinations(raisings, len(words[idx[0] // fdim])))
        rows, data = {}, {}  # only the rows (J, t) some x_J.v reaches
        for c, i in enumerate(idx):
            image = word_action(cols, {i: 1})
            for J in subsets:
                for t, v in image(J).items():
                    if t >= fdim:
                        raise AssertionError(
                            f"odd raising {J} of vector {i} at "
                            f"{g.weight_str(mu)} leaves the top layer"
                        )
                    data[(rows.setdefault((J, t), len(rows)), c)] = v
        for kvec in SparseMatrix(len(rows), len(idx), data).kernel_basis():
            out.append({idx[c]: v for c, v in kvec.items()})
    return out


@memoised
def kac_radical(g, lam, limits=DEFAULT_LIMITS):
    """(K, rad): the Kac module K(lam) and the canonical basis of its
    maximal submodule (a tuple), the vectors of Kac degree -k that
    Lambda^k(g_1) kills (:func:`_odd_raising_kernel`), which span the
    radical of the contravariant form.  So L(lam) = K/rad, and ch L(lam)
    is ch K less the weights of rad.

    Certified here: closing rad under the Lie generators must add no
    vector.  Off the orbit representative of ``kac_module``, rad is the
    representative's, in the same coordinates.
    """
    K = kac_module(g, lam, limits=limits)
    rep = kac_module.representative(g, lam)
    if rep != lam:
        return K, kac_radical(g, rep, limits=limits)[1]
    rad = tuple(_odd_raising_kernel(K))
    cols = {x: K.action[x].cols() for x in intertwining_ids(K)}
    if len(_closure_echelon(K, rad, cols)) != len(rad):
        raise AssertionError("Kac radical failed to be a submodule")
    return K, rad


@on_orbits(_berezinian)
def simple_module(g, lam, limits=DEFAULT_LIMITS):
    """The simple highest-weight module L(lam): the quotient of the Kac
    module K(lam) by its certified maximal submodule (``kac_radical``)."""
    K, rad = kac_radical(g, lam, limits=limits)
    return quotient_module(K, rad, kind="simple")[0]


def simple_character(g, lam, limits=DEFAULT_LIMITS):
    """ch L(lam): ch K(lam) less one e^wt(v) for each vector v of the
    certified maximal submodule of K(lam) (:func:`kac_radical`), the
    vectors of Kac degree -k that Lambda^k(g_1) kills; no quotient
    module is built."""
    K, rad = kac_radical(g, lam, limits=limits)
    ch = K.character()
    for v in rad:
        ch[K.weights[next(iter(v))]] -= 1
    return {w: c for w, c in ch.items() if c}


def _peel_factors(g, mu, limits):
    """Full factor multiset of ch K(mu) as a dict weight -> multiplicity."""
    remaining = dict(kac_module(g, mu, limits=limits).character())
    factors = {}
    while any(remaining.values()):
        top = max(w for w, v in remaining.items() if v)
        mult = remaining[top]
        if mult < 0:
            raise AssertionError(
                f"negative multiplicity at {g.weight_str(top)} while "
                f"peeling K({g.weight_str(mu)})"
            )
        lch = simple_character(g, top, limits=limits)
        for w, v in lch.items():
            left = remaining.get(w, 0) - mult * v
            if left < 0:
                raise AssertionError(
                    f"simple character overshoots at {g.weight_str(w)}"
                )
            remaining[w] = left
        factors[top] = factors.get(top, 0) + mult
    return factors


def verma_module_truncated(g, lam, depth, limits=DEFAULT_LIMITS):
    """The Verma module of a principally graded algebra, cut at word
    degree -depth: gl(m|n) under the principal grading, or the Levi of
    ``even_levi``, whose slice ``simple_even_module`` cuts L0(lam) from.
    Raising operators are exact on the slice; lowerings are exact above
    the floor."""
    if g.degrees is None:
        raise GradingError("verma slice needs a graded algebra")
    if g.family == "gl" and g.grading_kind != "principal":
        raise GradingError("use the principal grading for verma slices")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    b_ids, borel = _borel(g)
    fib = trivial_module(borel, lam)
    return induced_module(
        g, b_ids, fib, min_degree=-depth, highest_weight=tuple(fib.weights[0]),
        kind="verma_slice", limits=limits,
    )


# ---------------------------------------------------------------------------
# q-type Cartan modules


def clifford_module(halg, lam):
    """The simple module u(lam) of the q-type Cartan subalgebra.

    The odd diagonal generators satisfy c_i^2 = lam_i and anticommute,
    so the module is a product of 2-dimensional blocks: nonzero entries
    are paired greedily (i, j), and the pair block needs a rational
    square root of -lam_j / lam_i to act exactly over the rationals;
    otherwise CliffordWeightError is raised.  Entries equal to zero act
    by zero.
    """
    lam = weight(lam)
    t_ids = sorted(halg.t_coord)
    if len(lam) != len(t_ids):
        raise ValueError(f"expected {len(t_ids)} coordinates, got {len(lam)}")
    nonzero = [k for k, c in enumerate(lam) if c]
    pairs = [(nonzero[r], nonzero[r + 1]) for r in range(0, len(nonzero) - 1, 2)]
    single = nonzero[-1] if len(nonzero) % 2 else None

    blocks = {}  # coordinate -> (block index, role)
    rho = {}
    for bidx, (i, j) in enumerate(pairs):
        ratio = QQ(-lam[j]) / lam[i]
        r = rational_sqrt(ratio)
        if r is None:
            raise CliffordWeightError(
                f"-lam_{j + 1}/lam_{i + 1} = {ratio} is not a rational "
                f"square; u({halg.weight_str(lam)}) is not realizable over Q"
            )
        blocks[i] = (bidx, "first")
        blocks[j] = (bidx, "second")
        rho[bidx] = r
    if single is not None:
        blocks[single] = (len(pairs), "first")
    nblocks = len(pairs) + (1 if single is not None else 0)

    dim = 1 << nblocks
    weights = [lam] * dim
    parities = [bin(b).count("1") % 2 for b in range(dim)]
    labels = [f"u{b:0{nblocks}b}" if nblocks else "u" for b in range(dim)]

    action = {}
    for x in range(halg.dim):
        mat = {}
        if x in halg.t_coord:
            mat = {(b, b): lam[halg.t_coord[x]] for b in range(dim)}
        elif halg.parity(x):
            # match e'(i,i) to its even partner e(i,i) to find the coordinate
            partner = halg.by_label.get(halg.label(x).replace("e'", "e", 1))
            coord = halg.t_coord.get(partner, None)
            if coord is not None and coord in blocks:
                bidx, role = blocks[coord]
                i = pairs[bidx][0] if bidx < len(pairs) else single
                for b in range(dim):
                    crossing = bin(b >> (bidx + 1)).count("1")
                    sign = -1 if crossing % 2 else 1
                    bit = (b >> bidx) & 1
                    target = b ^ (1 << bidx)
                    if role == "first":
                        coeff = 1 if bit == 0 else lam[i]
                    else:
                        coeff = rho[bidx] if bit == 0 else -rho[bidx] * lam[i]
                    mat[(target, b)] = sign * coeff
        action[x] = SparseMatrix(dim, dim, mat)
    return ExplicitModule(
        halg, weights, parities, action, labels=labels,
        highest_weight=lam, meta={"kind": "clifford"},
    )
