"""Weights as tuples of rationals, plus the root-order combinatorics.

A weight for gl(m|n) has m+n coordinates in the index order
(-m, ..., -1, 1, ..., n); for q(n) it has n coordinates.  The textual form is
"(a,b|c)" with the bar after the first m coordinates for gl, "(a,b)" for q.

The partial order used everywhere is the root order of the full triangular
family delta_i - delta_j (position i before position j): mu <= lam iff
lam - mu has integer entries, zero coordinate sum, and nonnegative prefix
sums.  For type-A position chains this prefix-sum test is exactly membership
in the nonnegative span of the positive roots.
"""

from .rational import QQ, ZERO, as_int, is_integer, rat_str


def weight(*coords):
    if len(coords) == 1 and isinstance(coords[0], (tuple, list)):
        coords = coords[0]
    return tuple(QQ(c) for c in coords)


def wadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def wsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def wneg(a):
    return tuple(-x for x in a)


def wscale(a, c):
    q = QQ(c)
    return tuple(q * x for x in a)


def wzero(length):
    return (ZERO,) * length


def wdot(a, b):
    return sum((x * y for x, y in zip(a, b)), ZERO)


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
    return tuple(QQ(p.strip()) for p in body.split(","))


def root_leq(lo, hi):
    """lo <= hi in the root order (prefix-sum test)."""
    if len(lo) != len(hi):
        return False
    acc = ZERO
    for x, y in zip(hi, lo):
        d = x - y
        if not is_integer(d):
            return False
        acc += d
        if acc < 0:
            return False
    return acc == 0


def root_lt(lo, hi):
    return lo != hi and root_leq(lo, hi)


def height(lo, hi):
    """Sum of simple-root coefficients of hi - lo (requires lo <= hi)."""
    if not root_leq(lo, hi):
        raise ValueError(f"{hi} does not dominate {lo}")
    acc = ZERO
    total = ZERO
    for x, y in zip(hi, lo):
        acc += x - y
        total += acc
    return as_int(total)


def maximal_weights(weights):
    """All root-order-maximal elements, sorted lexicographically descending."""
    ws = list(dict.fromkeys(weights))
    out = [w for w in ws if not any(root_lt(w, other) for other in ws)]
    return sorted(out, reverse=True)


def weights_between(lo, hi, steps):
    """All weights reachable from hi by subtracting steps while staying >= lo.

    With ``steps`` the simple root directions this enumerates the interval
    {w : lo <= w <= hi} in the root order.  Returned sorted descending.
    """
    lo = tuple(lo)
    hi = tuple(hi)
    zero = wzero(len(hi))
    for s in steps:
        if tuple(s) == zero or not root_leq(zero, s):
            raise ValueError(f"steps must be root-positive, got {tuple(s)}")
    if not root_leq(lo, hi):
        return []
    seen = {hi}
    frontier = [hi]
    while frontier:
        nxt = []
        for w in frontier:
            for s in steps:
                cand = wsub(w, s)
                if cand not in seen and root_leq(lo, cand):
                    seen.add(cand)
                    nxt.append(cand)
        frontier = nxt
    return sorted(seen, reverse=True)


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
    """All dominant integer-coordinate gl(m|n) weights with entries in [lo, hi]."""
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
    return sorted(out)
