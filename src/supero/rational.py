"""Exact rational scalars.

gmpy2's mpq is used when available (it is fast and always stores a reduced
fraction with positive denominator); otherwise the stdlib Fraction, which has
the same normalization, serves as a drop-in.  Both stringify as "p/q", or "p"
when the denominator is one, which is the serialization format used in every
file this package writes.
"""

try:
    from gmpy2 import mpq as QQ

    _BACKEND = "gmpy2"
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as QQ

    _BACKEND = "fractions"

ZERO = QQ(0)
ONE = QQ(1)


def rat(numerator, denominator=1):
    """Build a rational from integers or from a 'p/q' string."""
    if isinstance(numerator, str):
        return QQ(numerator)
    return QQ(numerator, denominator)


def rat_str(value):
    """Serialize to 'p/q' ('p' if integral)."""
    return str(QQ(value))


def is_integer(value):
    q = value if type(value) is QQ else QQ(value)
    return q.denominator == 1


def as_int(value):
    q = QQ(value)
    if q.denominator != 1:
        raise ValueError(f"{q} is not an integer")
    return int(q.numerator)


def rational_sqrt(value):
    """Return r with r*r == value, or None if value is not a rational square."""
    q = QQ(value)
    if q < 0:
        return None
    num, den = int(q.numerator), int(q.denominator)
    rn, rd = _isqrt_exact(num), _isqrt_exact(den)
    if rn is None or rd is None:
        return None
    return QQ(rn, rd)


def _isqrt_exact(n):
    from math import isqrt

    r = isqrt(n)
    return r if r * r == n else None
