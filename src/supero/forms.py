"""Contravariant forms, maximal submodules and the standard
highest-weight constructions.

The contravariant form on a cyclic highest-weight module is computed by
peeling: every weight space below the top is spanned by images of higher
weight spaces under lowering operators, and

    <x.u, v> = <u, transpose(x).v>

pushes each pairing up to an already-known block.  The form starts from
the identity pairing on the top weight space; ranks of the per-weight
Gram blocks are independent of that normalization.

Every simple quotient is read off the simple raisings x, the basis
elements whose weight has height 1 (:func:`maximal_submodule`).  Let M
be generated by a one-dimensional top M_lam, and N the largest
submodule that misses it.  For v at mu != lam the M_lam part of U(g).v
is U(n+)_{lam-mu}.v, and U(n+)_+ = sum U(n+) x as the x generate n+; so
v lies in N iff every x.v does.  N is the radical of the form.

On top sit the standard constructions: truncated Verma slices, the even
simples L0(lam) (a Levi slice modulo N), Kac modules K(lam), their simple
quotients L(lam) = K(lam)/N, and Clifford modules for the q-type Cartan.

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

from itertools import product
from types import MappingProxyType

from .algebra import memo_entry, memoised, principal_dvector, w0_action
from .config import DEFAULT_LIMITS
from .errors import CliffordWeightError, DominanceError, GradingError
from .linalg import Echelon, SparseMatrix, apply_cols
from .modules import (
    ExplicitModule,
    copy_module,
    induced_module,
    inflate_module,
    intertwining_ids,
    on_orbits,
    quotient_module,
    trivial_module,
)
from .rational import QQ, rational_sqrt
from .weights import height, is_dominant_gl, root_leq, wadd, wdot, weight, wsub, wzero


class ContravariantForm:
    """Per-weight Gram blocks of the contravariant form on a module."""

    __slots__ = ("module", "gram")

    def __init__(self, module, gram):
        self.module = module
        self.gram = gram

    def ranks(self):
        return {w: mat.rank() for w, mat in self.gram.items()}


def _check_top(module):
    """The recorded highest weight lam of a module and its weight spaces;
    ValueError unless lam has vectors and every weight lies below it."""
    g = module.g
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
    return lam, spaces


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
    lam, spaces = _check_top(module)
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


def _simple_raisings(g):
    """The basis ids whose weight has height 1 in the root order: the
    simple root vectors, which generate n+ of g's distinguished Borel and
    of the Levi's Borel."""
    zero = wzero(g.weight_len)
    return [
        x for x in range(g.dim)
        if root_leq(zero, g.weight_of(x)) and height(zero, g.weight_of(x)) == 1
    ]


def _raising_rows(cols, idx, modulo):
    """The matrix of v -> (x.v)_x on the weight space idx, a row per pair
    (x, coordinate) that some x.v reaches, with x.v reduced modulo the
    ``Echelon`` modulo[x] unless that is None."""
    rows, data = {}, {}
    for c, i in enumerate(idx):
        for x, found in modulo.items():
            image = cols[x][i]
            if found is not None and image:
                image = found.reduce(image)
            for t, v in image.items():
                data[(rows.setdefault((x, t), len(rows)), c)] = v
    return SparseMatrix(len(rows), len(idx), data)


def maximal_submodule(module):
    """Canonical basis of the maximal submodule N of a module generated
    by a one-dimensional top weight space, as K(lam) and Verma slices are
    by PBW: vectors in module coordinates, weights descending.

    v below the top lies in N iff x.v does for every simple raising x
    (module docstring), so, weights descending, N_mu is the kernel of the
    x.v reduced modulo N at mu + wt(x) (:func:`_raising_rows`; raisings
    are exact on slices).  ``kernel_basis`` is canonical: these are the
    vectors of the radical of the contravariant form.  Certified per
    weight: every Lie-generator image of a vector of N lies in N at its
    weight (AssertionError otherwise).
    """
    g = module.g
    lam, spaces = _check_top(module)
    if len(spaces[lam]) != 1:
        raise ValueError(f"the top weight space {g.weight_str(lam)} has "
                         f"dimension {len(spaces[lam])}, not 1")
    cols = {x: mat.cols() for x, mat in module.action.items()}
    raisings = _simple_raisings(g)
    found = {lam: Echelon()}
    out = []
    for mu, idx in sorted(spaces.items(), reverse=True)[1:]:  # every weight is below lam
        modulo = {x: found.get(wadd(mu, g.weight_of(x))) for x in raisings}
        part = [
            {idx[c]: v for c, v in kvec.items()}
            for kvec in _raising_rows(cols, idx, modulo).kernel_basis()
        ]
        found[mu] = Echelon(part)
        out.extend(part)
    for v, x in product(out, intertwining_ids(module)):
        image = apply_cols(cols[x], v)
        if image and not found[module.weights[min(image)]].contains(image):
            raise AssertionError(f"maximal submodule failed to be a submodule: "
                                 f"{g.label(x)} moves a vector out of it")
    return tuple(out)


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


@on_orbits(_levi_character, "L0")
def simple_even_module(g, lam, limits=DEFAULT_LIMITS):
    """The simple module of the even part gl(m) + gl(n) at a dominant
    weight, a module over the Levi subalgebra: the Levi Verma slice cut
    at the degree of w0.lam (:func:`verma_module_truncated`) modulo its
    maximal submodule.  Every positive Levi root has positive degree, so
    the slice holds every weight in [w0.lam, lam], the support of the
    quotient, which is therefore not truncated.
    """
    levi, _ = even_levi(g)
    m, n = g.params
    depth = wdot(wsub(lam, w0_action(m, n, lam)), principal_dvector(m, n))
    slice_ = verma_module_truncated(levi, lam, depth, limits=limits)
    V, _ = quotient_module(slice_, maximal_submodule(slice_), kind="simple_even")
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


@on_orbits(_berezinian, "K")
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


@memoised
def kac_radical(g, lam, limits=DEFAULT_LIMITS):
    """(K, rad): K(lam) and its certified maximal submodule, so L(lam) =
    K/rad (:func:`maximal_submodule`).  Off the orbit representative of
    ``kac_module``, rad is the representative's, in the same coordinates."""
    K = kac_module(g, lam, limits=limits)
    rep = kac_module.representative(g, lam)
    if rep != lam:
        return K, kac_radical(g, rep, limits=limits)[1]
    return K, maximal_submodule(K)


@on_orbits(_berezinian, "L")
def simple_module(g, lam, limits=DEFAULT_LIMITS):
    """The simple highest-weight module L(lam): the quotient of the Kac
    module K(lam) by its certified maximal submodule (``kac_radical``)."""
    K, rad = kac_radical(g, lam, limits=limits)
    return quotient_module(K, rad, kind="simple")[0]


def simple_character(g, lam, limits=DEFAULT_LIMITS):
    """ch L(lam): ch K(lam) less one e^wt(v) for each vector v of the
    certified maximal submodule of K(lam) (:func:`kac_radical`); no
    quotient module is built."""
    K, rad = kac_radical(g, lam, limits=limits)
    ch = K.character()
    for v in rad:
        ch[K.weights[next(iter(v))]] -= 1
    return {w: c for w, c in ch.items() if c}


@memoised
def _peel_factors(g, mu, limits=DEFAULT_LIMITS):
    """Full factor multiset of ch K(mu), a read-only mapping weight ->
    multiplicity: peeled at ``kac_module``'s orbit representative only,
    translated by chi elsewhere, as tensoring with C_chi takes L(nu) to L(nu + chi)."""
    rep = kac_module.representative(g, mu)
    if rep != mu:
        chi, base = wsub(mu, rep), _peel_factors(g, rep, limits)
        return MappingProxyType({wadd(w, chi): c for w, c in base.items()})
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
    return MappingProxyType(factors)


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
