"""Contravariant forms and the standard highest-weight constructions.

The contravariant form on a cyclic highest-weight module is computed by
peeling: every weight space below the top is spanned by images of higher
weight spaces under lowering operators, and

    <x.u, v> = <u, transpose(x).v>

pushes each pairing up to an already-known block.  The form starts from
the identity pairing on the top weight space; ranks of the per-weight
Gram blocks are independent of that normalization.

On top of the form sit the standard constructions: simple modules of the
even part (windowed Verma followed by the form quotient), the finite
induced modules built from them, truncated Verma slices, and the exact
Clifford modules for the q-type Cartan.
"""

from .algebra import memoised, principal_dvector, w0_action
from .config import DEFAULT_LIMITS
from .errors import CliffordWeightError, DominanceError, GradingError
from .linalg import SparseMatrix, apply_cols
from .modules import (
    ExplicitModule,
    copy_module,
    induced_module,
    inflate_module,
    quotient_module,
    trivial_module,
)
from .rational import QQ, rational_sqrt
from .weights import (
    height,
    is_dominant_gl,
    root_leq,
    wdot,
    weight,
    weights_between,
    wsub,
)


class ContravariantForm:
    """Per-weight Gram blocks of the contravariant form on a module."""

    __slots__ = ("module", "gram", "_ranks")

    def __init__(self, module, gram):
        self.module = module
        self.gram = gram
        self._ranks = None

    def rank(self, w):
        return self.ranks()[tuple(w)]

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
    """The degree-0 part of a compatibly graded gl(m|n), with the
    principal triangular structure installed on it."""
    if g.family != "gl" or g.grading_kind != "compatible":
        raise GradingError("even Levi extraction needs a compatible grading")
    m, n = g.params
    h_ids = g.h_ids()
    prin = principal_dvector(m, n)
    degs = [wdot(g.weight_of(i), prin) for i in h_ids]
    return g.subalgebra(h_ids, degrees=degs, family_tag="levi"), h_ids


@memoised
def simple_even_module(g, lam, limits=DEFAULT_LIMITS):
    """The simple module of the even part gl(m) + gl(n) at a dominant weight.

    Built exactly: a Verma module of the Levi restricted to the weight
    interval [w0.lam, lam] (which contains the full support of the simple
    quotient), then the quotient by the radical of the contravariant form.
    The result is a module over the Levi subalgebra.
    """
    m, n = g.params
    if not is_dominant_gl(lam, m, n):
        raise DominanceError(
            f"{g.weight_str(lam)} is not dominant for gl({m})+gl({n})"
        )
    levi, _ = even_levi(g)
    low = w0_action(m, n, lam)
    steps = [levi.weight_of(i) for i in levi.ids_of_degree(1)]
    window = [wsub(mu, lam) for mu in weights_between(low, lam, steps)]
    hb = sorted(levi.h_ids() + levi.positive_ids())
    fib = trivial_module(levi.subalgebra(hb), lam)
    slice_ = induced_module(
        levi, hb, fib, weight_window=window, highest_weight=lam,
        kind="levi_verma", limits=limits,
    )
    V, _ = form_quotient(slice_, kind="simple_even")
    # the support of the simple lies inside the window
    return copy_module(V, truncated=False)


# ---------------------------------------------------------------------------
# the induced families


def _borel_ids(g):
    return sorted(g.h_ids() + g.positive_ids())


@memoised
def kac_module(g, lam, limits=DEFAULT_LIMITS):
    """Induce the even-part simple V(lam) through the parabolic with the
    odd raisings acting by zero.  Dimension 2^(m n) * dim V(lam)."""
    if g.family != "gl" or g.grading_kind != "compatible":
        raise GradingError("this induction needs gl with the compatible grading")
    m, n = g.params
    V = simple_even_module(g, lam, limits=limits)
    b_ids = _borel_ids(g)
    # one parabolic per algebra, built by the first Kac module
    if ("kac_parabolic",) not in g.memo:
        g.memo[("kac_parabolic",)] = g.subalgebra(b_ids)
    fiber = inflate_module(V, g.memo[("kac_parabolic",)])
    K = induced_module(
        g, b_ids, fiber, highest_weight=tuple(V.highest_weight),
        kind="kac", limits=limits,
    )
    expected = (1 << (m * n)) * V.dim
    if K.dim != expected:
        raise AssertionError(f"induced dimension {K.dim}, expected {expected}")
    return K


@memoised
def simple_module(g, lam, limits=DEFAULT_LIMITS):
    """The simple highest-weight module L(lam): the quotient of the
    induced module at lam by the radical of its contravariant form."""
    K = kac_module(g, lam, limits=limits)
    return form_quotient(K, kind="simple")[0]


def induced_projective(g, lam, limits=DEFAULT_LIMITS):
    """Induce V(lam) from the even part alone: a projective module of
    dimension 4^(m n) * dim V(lam) whose summands are the projective
    covers in the block."""
    if g.family != "gl" or g.grading_kind != "compatible":
        raise GradingError("this induction needs gl with the compatible grading")
    m, n = g.params
    V = simple_even_module(g, lam, limits=limits)
    levi, h_ids = even_levi(g)
    key = lambda i: (g.degree_of(i), i)
    order = (
        sorted(g.negative_ids(), key=key)
        + sorted(g.positive_ids(), key=key)
        + sorted(h_ids, key=key)
    )
    P = induced_module(
        g, h_ids, V, order=order, kind="induced_projective", limits=limits,
    )
    expected = (1 << (2 * m * n)) * V.dim
    if P.dim != expected:
        raise AssertionError(f"induced dimension {P.dim}, expected {expected}")
    return P


def verma_module_truncated(g, lam, depth, limits=DEFAULT_LIMITS):
    """The Verma module for the principal grading, cut at word degree
    -depth.  Raising operators are exact on the slice; lowerings are
    exact above the floor."""
    if g.degrees is None:
        raise GradingError("verma slice needs a graded algebra")
    if g.family == "gl" and g.grading_kind != "principal":
        raise GradingError("use the principal grading for verma slices")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    b_ids = _borel_ids(g)
    fib = trivial_module(g.subalgebra(b_ids), lam)
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
