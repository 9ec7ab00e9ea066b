"""Weights as tuples of exact scalars, plus the root-order combinatorics.

A weight coordinate follows the value rule of ``rational``: an ``int``
when it is integral and a ``QQ`` only when it is not, so an integral
weight is a tuple of ints and "(1/2|-1/2)" keeps its ``QQ`` coordinates.
:func:`weight` is the one normaliser; arithmetic on normalised weights
may give an integral ``QQ``, which hashes and compares like the ``int``.

A weight for gl(m|n) has m+n coordinates in the index order
(-m, ..., -1, 1, ..., n); for q(n) it has n coordinates.  The textual form is
"(a,b|c)" with the bar after the first m coordinates for gl, "(a,b)" for q.

The partial order used everywhere is the root order of the full triangular
family delta_i - delta_j (position i before position j): mu <= lam iff
lam - mu has integer entries, zero coordinate sum, and nonnegative prefix
sums.  For type-A position chains this prefix-sum test is exactly membership
in the nonnegative span of the positive roots.
"""

from itertools import permutations, product

from .rational import as_int, exact, is_integer, rat_str


def weight(*coords):
    if len(coords) == 1 and isinstance(coords[0], (tuple, list)):
        coords = coords[0]
    return tuple(exact(c) for c in coords)


def wadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def wsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def wneg(a):
    return tuple(-x for x in a)


def wscale(a, c):
    return tuple(exact(c * x) for x in a)


def wzero(length):
    return (0,) * length


def wdot(a, b):
    return exact(sum(x * y for x, y in zip(a, b)))


def format_weight(w, bar_after=None):
    parts = [rat_str(c) for c in w]
    if bar_after is None or bar_after >= len(parts):
        return "(" + ",".join(parts) + ")"
    return "(" + ",".join(parts[:bar_after]) + "|" + ",".join(parts[bar_after:]) + ")"


def parse_weight(text):
    """Inverse of format_weight; accepts both barred and unbarred forms."""
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    body = body.replace("|", ",")
    if not body:
        return ()
    return weight([p.strip() for p in body.split(",")])


def root_leq(lo, hi):
    """lo <= hi in the root order (prefix-sum test)."""
    if len(lo) != len(hi):
        return False
    acc = 0
    for x, y in zip(hi, lo):
        d = x - y
        if not is_integer(d):
            return False
        acc += d
        if acc < 0:
            return False
    return acc == 0


def height(lo, hi):
    """Sum of simple-root coefficients of hi - lo (requires lo <= hi)."""
    if not root_leq(lo, hi):
        raise ValueError(f"{hi} does not dominate {lo}")
    acc = total = 0
    for x, y in zip(hi, lo):
        acc += x - y
        total += acc
    return as_int(total)


def is_dominant_gl(w, m, n):
    """Consecutive differences within each side are nonnegative integers."""
    if len(w) != m + n:
        raise ValueError(f"expected {m + n} coordinates, got {len(w)}")
    for block in (w[:m], w[m:]):
        for a, b in zip(block, block[1:]):
            d = a - b
            if not is_integer(d) or d < 0:
                return False
    return True


def dominant_weights_in_box(m, n, lo, hi):
    """All dominant integer-coordinate gl(m|n) weights with entries in
    [lo, hi], lexicographically descending."""
    out = []

    def descend(length, floor):
        """Weakly decreasing integer tuples of given length with entries in [lo, floor]."""
        if length == 0:
            return [()]
        seqs = []
        for top in range(floor, lo - 1, -1):
            for rest in descend(length - 1, top):
                seqs.append((top,) + rest)
        return seqs

    for left in descend(m, hi):
        for right in descend(n, hi):
            out.append(weight(left + right))
    return sorted(out, reverse=True)


def weyl_shifts(m, n):
    """(sign, rho - w rho) for every w in S_m x S_n, w permuting the
    coordinates within each side.  Only differences within a side matter,
    so rho = (m+n-1, ..., 1, 0) serves, and the shift at k is w(k) - k."""
    out = []
    for left, right in product(permutations(range(m)), permutations(range(m, m + n))):
        w = left + right
        inversions = sum(a > b for i, a in enumerate(w) for b in w[i + 1:])
        out.append(((-1) ** inversions, tuple(j - k for k, j in enumerate(w))))
    return out
