"""Normal-ordered arithmetic in the universal enveloping superalgebra.

A monomial is a tuple of basis ids sorted by a fixed total order (ascending
degree, then ascending id, unless a caller installs a custom order); an
element of U(g) is a dict mapping monomials to rational coefficients.
Straightening applies xy = (-1)^{|x||y|} yx + [x,y] and the odd-square rule
x^2 = (1/2)[x,x] until every term is normal; bracket terms strictly drop the
filtration degree, so this terminates.

Each PbwAlgebra memoizes straightened words; its table is cleared once it
holds STRAIGHTEN_CACHE entries.
"""

from .errors import WindowError
from .linalg import vec_add_into
from .rational import QQ
from .weights import root_leq, wadd, wzero

STRAIGHTEN_CACHE = 200_000


class PbwAlgebra:
    """Straightening engine for U(g) with a fixed basis order.

    Dicts returned by straighten_word are cached and shared; callers must
    treat them as read-only.
    """

    def __init__(self, g, order=None):
        self.g = g
        if order is None:
            order = g.pbw_order()
        if sorted(order) != list(range(g.dim)):
            raise ValueError("order must list every basis id exactly once")
        self.order = tuple(order)
        self.rank = {b: r for r, b in enumerate(self.order)}
        self._cache = {}

    def straighten_word(self, word):
        word = tuple(word)
        cached = self._cache.get(word)
        if cached is not None:
            return cached
        g = self.g
        defect = None
        for i in range(len(word) - 1):
            a, b = word[i], word[i + 1]
            if a == b and g.parity(a):
                defect = (i, True)
                break
            if self.rank[a] > self.rank[b]:
                defect = (i, False)
                break
        if defect is None:
            result = {word: QQ(1)}
        else:
            i, square = defect
            a, b = word[i], word[i + 1]
            result = {}
            if square:
                half = QQ(1, 2)
                for k, c in g.bracket(a, a).items():
                    vec_add_into(
                        result, self.straighten_word(word[:i] + (k,) + word[i + 2 :]), half * c
                    )
            else:
                sign = -1 if g.parity(a) and g.parity(b) else 1
                swapped = word[:i] + (b, a) + word[i + 2 :]
                vec_add_into(result, self.straighten_word(swapped), sign)
                for k, c in g.bracket(a, b).items():
                    vec_add_into(
                        result, self.straighten_word(word[:i] + (k,) + word[i + 2 :]), c
                    )
        if len(self._cache) >= STRAIGHTEN_CACHE:
            self._cache.clear()
        self._cache[word] = result
        return result

    def sort_key(self, word):
        return (len(word), tuple(self.rank[b] for b in word))


def monomial_weight(g, word):
    total = wzero(g.weight_len)
    for b in word:
        total = wadd(total, g.weight_of(b))
    return total


def monomial_degree(g, word):
    total = QQ(0)
    for b in word:
        total += g.degree_of(b)
    return total


def monomial_parity(g, word):
    return sum(g.parity(b) for b in word) % 2


def monomial_str(g, word):
    """Render as an ordered product, e.g. "e(1,-1)^1 * e(2,-1)^2"; unit is "1"."""
    if not word:
        return "1"
    parts = []
    current, count = word[0], 0
    for b in word:
        if b == current:
            count += 1
        else:
            parts.append(f"{g.label(current)}^{count}")
            current, count = b, 1
    parts.append(f"{g.label(current)}^{count}")
    return " * ".join(parts)


def monomials(pbw, ids, weight_window=None, min_degree=None):
    """All normal-ordered monomials in the given generators, with cutoffs.

    weight_window: keep monomials whose weight (sum of generator weights)
    lies in this set; partial products are pruned once no window weight sits
    below them in the root order, which keeps the walk finite whenever every
    generator weight is a negative root.
    min_degree: keep monomials of degree >= min_degree (generators must have
    negative degree for this to terminate).
    """
    g = pbw.g
    gens = sorted(set(ids), key=lambda i: pbw.rank[i])
    if weight_window is None and min_degree is None:
        if any(not g.parity(b) for b in gens):
            raise WindowError(
                "unbounded monomial family: even generators need a weight "
                "window or a degree cutoff"
            )
    if min_degree is not None:
        if any(g.degree_of(b) >= 0 for b in gens):
            raise ValueError("degree cutoff needs strictly negative generator degrees")
    window = None if weight_window is None else {tuple(QQ(c) for c in w) for w in weight_window}
    min_deg = None if min_degree is None else QQ(min_degree)
    out = []
    word = []

    def viable(wt):
        return any(root_leq(w, wt) for w in window)

    def emit(wt):
        if window is not None and wt not in window:
            return
        out.append(tuple(word))

    def walk(pos, wt, deg):
        emit(wt)
        for p in range(pos, len(gens)):
            b = gens[p]
            if g.parity(b) and word and word[-1] == b:
                continue
            nwt = wadd(wt, g.weight_of(b))
            if window is not None and not viable(nwt):
                continue
            ndeg = None if deg is None else deg + g.degree_of(b)
            if min_deg is not None and ndeg < min_deg:
                continue
            word.append(b)
            walk(p, nwt, ndeg)
            word.pop()

    start_deg = QQ(0) if min_deg is not None else None
    walk(0, wzero(g.weight_len), start_deg)
    out.sort(key=pbw.sort_key)
    return out

