"""Exact rational scalars.

gmpy2's mpq is used when available (it is fast and always stores a reduced
fraction with positive denominator); otherwise the stdlib Fraction, which has
the same normalization, serves as a drop-in.  Both stringify as "p/q", or "p"
when the denominator is one, which is the serialization format used in every
file this package writes.

A stored scalar (a matrix entry, a vector coordinate, a structure constant,
a weight coordinate, a grading degree) is a Python ``int`` when it is
integral and a ``QQ`` only when it is not; :func:`exact` is the one
normaliser that makes it so (``weights.weight`` applies it to a weight).
An ``int`` and the equal ``QQ`` compare and hash alike and print alike
under :func:`rat_str`, so keys and reports do not depend on which of the
two a value is.  Floats are not exact and are refused with ``TypeError``.
Division must keep a ``QQ`` operand, since ``int / int`` is a float.
"""

try:
    from gmpy2 import mpq as QQ
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as QQ


def exact(num, den=1):
    """num/den as an int when it is integral, else as QQ; raises TypeError
    on a float.  ``num`` may be anything QQ accepts (int, QQ, "p/q")."""
    if type(num) is int and type(den) is int:
        quo, rem = divmod(num, den)
        return QQ(num, den) if rem else quo
    if isinstance(num, float) or isinstance(den, float):
        raise TypeError(f"inexact scalar {num!r}: pass an int, a QQ or a 'p/q' string")
    q = QQ(num) if den == 1 else QQ(num, den)
    return int(q.numerator) if q.denominator == 1 else q


def rat_str(value):
    """Serialize to 'p/q' ('p' if integral)."""
    return str(QQ(value))


def is_integer(value):
    if type(value) is int:
        return True
    q = value if type(value) is QQ else QQ(value)
    return q.denominator == 1


def as_int(value):
    if type(value) is int:
        return value
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
