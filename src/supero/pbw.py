"""Normal-ordered arithmetic in the universal enveloping superalgebra.

A monomial is a tuple of basis ids sorted by a fixed total order (ascending
degree, then ascending id, unless a caller installs a custom order); an
element of U(g) is a dict mapping monomials to rational coefficients.
Straightening applies xy = (-1)^{|x||y|} yx + [x,y] and the odd-square rule
x^2 = (1/2)[x,x] until every term is normal; bracket terms strictly drop the
filtration degree, so this terminates.

Each PbwAlgebra memoizes straightened words, and the split of each into a
free prefix and an inducing suffix (:meth:`PbwAlgebra.split_word`).
``modules.induced_module`` keeps one engine per algebra and basis order in
``g.memo``, so these tables are shared by every module induced along that
order and live as long as ``g``; each is cleared once it holds
STRAIGHTEN_CACHE entries.
"""

from .errors import WindowError
from .linalg import vec_add_into
from .rational import exact
from .weights import wadd, wzero

STRAIGHTEN_CACHE = 200_000


class PbwAlgebra:
    """Straightening engine for U(g) with a fixed basis order.

    Dicts returned by straighten_word and split_word are cached and
    shared; callers must treat them as read-only.
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
        self._splits = {}

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
            result = {word: 1}
        else:
            i, square = defect
            a, b = word[i], word[i + 1]
            result = {}
            if square:
                for k, c in g.bracket(a, a).items():
                    vec_add_into(
                        result,
                        self.straighten_word(word[:i] + (k,) + word[i + 2 :]),
                        exact(c, 2),
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

    def split_word(self, word, sub_ids):
        """straighten_word(word) grouped by free prefix, for induction from
        the span of the tuple ``sub_ids`` (ranked after every other id):
        {prefix: [(suffix, c), ...]}, each normal word cut at its first
        letter in sub_ids and the suffix written as positions in sub_ids."""
        key = (sub_ids, tuple(word))
        cached = self._splits.get(key)
        if cached is not None:
            return cached
        local = {s: r for r, s in enumerate(sub_ids)}
        result = {}
        for nword, c in self.straighten_word(word).items():
            cut = next((p for p, b in enumerate(nword) if b in local), len(nword))
            suffix = tuple(local[b] for b in nword[cut:])
            result.setdefault(nword[:cut], []).append((suffix, c))
        if len(self._splits) >= STRAIGHTEN_CACHE:
            self._splits.clear()
        self._splits[key] = result
        return result

    def sort_key(self, word):
        return (len(word), tuple(self.rank[b] for b in word))


def monomial_weight(g, word):
    total = wzero(g.weight_len)
    for b in word:
        total = wadd(total, g.weight_of(b))
    return total


def monomial_degree(g, word):
    total = 0
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


def monomials(pbw, ids, min_degree=None):
    """All normal-ordered monomials in the given generators, down to one
    degree cutoff.

    min_degree: keep monomials of degree >= min_degree (generators must
    have negative degree for this to terminate).  Without it the family is
    finite only when every generator is odd.
    """
    g = pbw.g
    gens = sorted(set(ids), key=lambda i: pbw.rank[i])
    if min_degree is None:
        if any(not g.parity(b) for b in gens):
            raise WindowError(
                "unbounded monomial family: even generators need a degree cutoff"
            )
    elif any(g.degree_of(b) >= 0 for b in gens):
        raise ValueError("degree cutoff needs strictly negative generator degrees")
    min_deg = None if min_degree is None else exact(min_degree)
    out = []
    word = []

    def walk(pos, deg):
        out.append(tuple(word))
        for p in range(pos, len(gens)):
            b = gens[p]
            if g.parity(b) and word and word[-1] == b:
                continue
            ndeg = None if deg is None else deg + g.degree_of(b)
            if min_deg is not None and ndeg < min_deg:
                continue
            word.append(b)
            walk(p, ndeg)
            word.pop()

    walk(0, None if min_deg is None else 0)
    out.sort(key=pbw.sort_key)
    return out
