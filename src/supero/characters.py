"""Character arithmetic, decomposition matrices and multiplicity tables.

Characters are sparse dicts weight -> positive integer.  Two independent
sources are kept: the product formula (Weyl characters for the even part
times the odd-root factor) and the weight census of explicitly built
modules; tests require them to agree.  A simple character is the census
of K(lam) less the weights of its certified maximal submodule, read off
the simple raisings (``forms.kac_radical``), so the decomposition matrix
never builds L(lam).

Windows are ordered lists of dominant weights, lexicographically
descending.  Matrix rows may have factors strictly below every window
weight (those columns are simply absent), but a factor lying between two
window weights and missing from the window is an error: such a window
would silently misreport the numbers the identities quantify over.
"""

from collections import Counter

from .rational import as_int
from .weights import dominant_weights_in_box, is_dominant_gl, wadd, weight
from .algebra import beta_reflect
from .config import DEFAULT_LIMITS
from .errors import (
    DominanceError, GradingError, ResourceLimitError, WindowError,
)
from .forms import (
    _peel_factors, _raising_rows, _simple_raisings, simple_character,
    verma_module_truncated,
)
from .structure import projective_cover, tilting_module


# ---------------------------------------------------------------------------
# characters


def char_mul(a, b):
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            w = wadd(wa, wb)
            out[w] = out.get(w, 0) + ca * cb
    return {w: c for w, c in out.items() if c}


def _gt_rows(upper):
    """All rows interlacing a weakly decreasing integer row from above."""
    k = len(upper)
    if k == 1:
        return [()]
    out = []

    def rec(prefix, i):
        if i == k - 1:
            out.append(tuple(prefix))
            return
        hi = upper[i]
        lo = upper[i + 1]
        v = hi
        while v >= lo:
            rec(prefix + [v], i + 1)
            v -= 1

    rec([], 0)
    return out


def weyl_character(hw):
    """Character of the irreducible gl(k)-module with highest weight hw.

    Enumerates triangular interlacing patterns; the weight of a pattern
    reads off the successive row-sum differences.  Entirely combinatorial,
    independent of any module construction.
    """
    hw = tuple(as_int(c) for c in hw)
    for a, b in zip(hw, hw[1:]):
        if a < b:
            raise DominanceError(f"{hw} is not weakly decreasing")
    k = len(hw)
    chars = {}

    def rec(row, acc):
        if len(row) == 1:
            w = tuple(acc + [row[0]])
            chars[w] = chars.get(w, 0) + 1
            return
        for nxt in _gt_rows(row):
            rec(nxt, acc + [sum(row) - sum(nxt)])

    rec(hw, [])
    # the recursion collects coordinates top row first; our convention
    # lists the eigenvalue of the first diagonal entry first as well
    return chars


def even_character(m, n, lam):
    """Character of the simple module of gl(m) + gl(n) at lam."""
    lam = weight(lam)
    if not is_dominant_gl(lam, m, n):
        raise DominanceError(f"{lam} is not dominant for gl({m})+gl({n})")
    left = weyl_character(lam[:m])
    right = weyl_character(lam[m:])
    out = {}
    for wl, cl in left.items():
        for wr, cr in right.items():
            out[wl + wr] = cl * cr
    return out


def kac_character(g, lam):
    """ch of the induced module at lam by the product formula."""
    if g.family != "gl" or g.grading_kind != "compatible":
        raise GradingError("the product formula needs gl compatible grading")
    m, n = g.params
    ch = even_character(m, n, lam)
    for x in g.positive_ids():
        gamma = g.weight_of(x)
        ch = char_mul(ch, {tuple(0 * c for c in gamma): 1, tuple(-c for c in gamma): 1})
    return ch


# ---------------------------------------------------------------------------
# windows


def window_from_box(g, lo, hi, support_closure=True):
    """Window construction: dominant weights in the box, optionally
    extended by the dominant support of their induced characters."""
    window = set(dominant_weights_in_box(*g.params, lo, hi))
    if support_closure:
        extra = set()
        for mu in window:
            for nu in kac_character(g, mu):
                if is_dominant_gl(nu, *g.params):
                    extra.add(nu)
        window |= extra
    return sorted(window, reverse=True)


def _validate_window(g, window, dominant=True):
    """WindowError naming a weight that repeats, or, with dominant, one
    that is not dominant."""
    seen = set()
    for w in window:
        if dominant and not is_dominant_gl(w, *g.params):
            raise WindowError(f"window weight {g.weight_str(w)} is not dominant")
        if w in seen:
            raise WindowError(f"window repeats {g.weight_str(w)}")
        seen.add(w)


def _check_support(g, window, factors_seen):
    """Raise WindowError naming the weights that the window should have
    contained but does not.

    A missing factor is tolerated only when it escapes the window's
    coordinate hull: factors spilling over the edge of a box are a
    boundary effect, a hole inside the box is a malformed window.
    """
    if not window:
        return
    wset = set(window)
    k = len(window[0])
    hull_lo = [min(w[i] for w in window) for i in range(k)]
    hull_hi = [max(w[i] for w in window) for i in range(k)]
    missing = set()
    for nu in factors_seen:
        if nu in wset:
            continue
        if all(hull_lo[i] <= nu[i] <= hull_hi[i] for i in range(k)):
            missing.add(nu)
    if missing:
        missing = sorted(missing, reverse=True)
        raise WindowError(
            "window is not support-closed; missing "
            + ", ".join(g.weight_str(w) for w in missing),
            missing=missing,
        )


# ---------------------------------------------------------------------------
# decomposition matrices


class DecompositionMatrix:
    """Composition multiplicities [K(mu) : L(lam)] over a window.

    rows/cols are indexed by the window (lex descending).  full_rows
    keeps the complete factor dicts including the ones below the window,
    so character identities can be tested exactly.
    """

    def __init__(self, weights, entries, full_rows):
        self.weights = list(weights)
        self.entries = entries
        self.full_rows = full_rows
        self._index = {w: i for i, w in enumerate(self.weights)}

    def entry(self, mu, lam):
        return self.entries[self._index[tuple(mu)]][self._index[tuple(lam)]]

    def __repr__(self):
        return f"DecompositionMatrix({len(self.weights)} weights)"


def decomposition_matrix(g, window, limits=DEFAULT_LIMITS):
    window = [weight(w) for w in window]
    _validate_window(g, window)
    rows = []
    seen = set()
    for mu in window:
        factors = _peel_factors(g, mu, limits)
        if factors.get(mu, 0) != 1:
            raise AssertionError(
                f"peel of K({g.weight_str(mu)}) is not unitriangular"
            )
        rows.append(factors)
        seen.update(factors)
    _check_support(g, window, seen)
    entries = [
        [factors.get(lam, 0) for lam in window] for factors in rows
    ]
    return DecompositionMatrix(window, entries, rows)


def cartan_matrix_via_bgg(D):
    """Predicted Cartan matrix D^T D; always symmetric."""
    k = len(D.weights)
    return [
        [
            sum(D.entries[r][i] * D.entries[r][j] for r in range(k))
            for j in range(k)
        ]
        for i in range(k)
    ]


def flag_matrix(g, window, limits=DEFAULT_LIMITS):
    """(P(lam) : K(mu)) over the window from explicit projective covers,
    read off the flag that projective_cover certified."""
    window = [weight(w) for w in window]
    _validate_window(g, window)
    rows = []
    seen = set()
    for lam in window:
        P = projective_cover(g, lam, limits=limits)
        mults = Counter(mu for mu, _parity in P.meta["flag_bottom_up"])
        rows.append(mults)
        seen.update(mults)
    _check_support(g, window, seen)
    return [[mults.get(mu, 0) for mu in window] for mults in rows]


def cartan_matrix_direct(g, window, limits=DEFAULT_LIMITS):
    """Cartan matrix assembled from explicit flags and the decomposition
    matrix: entry (lam, nu) = sum_mu (P(lam):K(mu)) [K(mu):L(nu)]."""
    F = flag_matrix(g, window, limits=limits)
    D = decomposition_matrix(g, window, limits=limits)
    k = len(window)
    return [
        [
            sum(F[i][r] * D.entries[r][j] for r in range(k))
            for j in range(k)
        ]
        for i in range(k)
    ]


# ---------------------------------------------------------------------------
# the tilting multiplicity table


def tilting_table(g, window, limits=DEFAULT_LIMITS):
    """Both sides of the tilting / decomposition multiplicity identity.

    left[(lam, mu)] counts K(mu) in the flag of the tilting module at
    lam; right[(lam, mu)] is the composition number [K(b - w0.mu) :
    L(b - w0.lam)] with b the sum of the odd positive roots.  The report
    carries both matrices and their difference, which the identity says
    is empty.
    """
    window = [weight(w) for w in window]
    _validate_window(g, window)
    left = []
    for lam in window:
        U = tilting_module(g, lam, limits=limits)
        mults = Counter(mu for mu, _parity in U.meta["flag_bottom_up"])
        left.append([mults.get(mu, 0) for mu in window])
    reflected = [beta_reflect(*g.params, w) for w in window]
    refl = sorted(reflected, reverse=True)
    D = decomposition_matrix(g, refl, limits=limits)
    right = [[D.entry(rmu, rlam) for rmu in reflected] for rlam in reflected]
    diff = [
        (window[i], window[j], left[i][j], right[i][j])
        for i in range(len(window))
        for j in range(len(window))
        if left[i][j] != right[i][j]
    ]
    return {
        "weights": window,
        "reflected_weights": refl,
        "left": left,
        "right": right,
        "differences": diff,
    }


# ---------------------------------------------------------------------------
# truncated Verma composition data


def verma_decomposition_truncated(g, lam, depth, limits=DEFAULT_LIMITS):
    """Singular-vector counts per weight in the depth-truncated Verma.

    Each entry (mu, k) is a depth-limited lower bound: k independent
    vectors of weight mu are annihilated by every simple raising, hence
    by n+, so at least that many highest-weight factors occur there.
    Raisings move up in degree, hence act exactly on the truncation; the
    rows are those of ``forms.maximal_submodule``, with nothing to reduce
    modulo.  Raises ResourceLimitError when a weight space has more than
    max_hom_vars unknowns.
    """
    M = verma_module_truncated(g, lam, depth, limits=limits)
    raisings = dict.fromkeys(_simple_raisings(g))
    cols = {x: M.action[x].cols() for x in raisings}
    out = []
    for w, idxs in sorted(M.weight_spaces().items(), reverse=True):
        if len(idxs) > limits.max_hom_vars:
            raise ResourceLimitError(
                f"singular-vector system at {g.weight_str(w)} has "
                f"{len(idxs)} unknowns and {len(raisings) * M.dim} equations; "
                f"max_hom_vars is {limits.max_hom_vars}"
            )
        sing = len(idxs) - _raising_rows(cols, idxs, raisings).rank()
        if sing:
            out.append((w, sing))
    return out


# ---------------------------------------------------------------------------
# serialization


def matrix_to_tsv(g, row_weights, col_weights, entries):
    lines = ["\t" + "\t".join(g.weight_str(w) for w in col_weights)]
    for w, row in zip(row_weights, entries):
        lines.append(
            g.weight_str(w) + "\t" + "\t".join(str(v) for v in row)
        )
    return "\n".join(lines) + "\n"


def matrix_to_json_dict(g, row_weights, col_weights, entries):
    return {
        "rows": [g.weight_str(w) for w in row_weights],
        "cols": [g.weight_str(w) for w in col_weights],
        "entries": [[int(v) for v in row] for row in entries],
    }
