"""Sparse exact linear algebra over the rationals.

Vectors are dicts ``{index: nonzero rational}``; matrices store a dict
``{(row, col): nonzero rational}``.  Every elimination (rank, reduced row
echelon form, kernels, solves, spans) goes through one engine, ``Echelon``,
which works on primitive integer rows: fraction-free elimination with the
content of each row divided out after every step (Bareiss, Math. Comp. 22,
1968).  Rationals appear only at its boundary, in the vectors it is given
and the vectors and coefficients it returns.  Pivoting is deterministic
(rows are processed in order, each reduced row pivots on its leading
column), so echelon forms, ranks and kernel bases are reproducible across
runs.  The reduced row echelon form itself is unique, so nothing downstream
depends on the sweep order or on the integer scaling of the rows.
"""

from math import gcd, lcm

from .config import DEFAULT_LIMITS
from .errors import ResourceLimitError
from .rational import QQ, ZERO

# ---------------------------------------------------------------------------
# dict-vector helpers


def vec_add_into(target, source, coeff=1):
    """target += coeff * source, pruning zeros in place."""
    if not coeff:
        return target
    for k, v in source.items():
        s = target.get(k, ZERO) + coeff * v
        if s:
            target[k] = s
        else:
            target.pop(k, None)
    return target


def apply_cols(cols, vector):
    """Matrix-vector product read off a column view (``SparseMatrix.cols()``)."""
    out = {}
    for j, c in vector.items():
        vec_add_into(out, cols[j], c)
    return out


class SparseMatrix:
    """Immutable-by-convention sparse matrix over QQ."""

    __slots__ = ("nrows", "ncols", "data")

    def __init__(self, nrows, ncols, data=None):
        self.nrows = nrows
        self.ncols = ncols
        self.data = {}
        if data:
            for (i, j), v in data.items():
                q = v if type(v) is QQ else QQ(v)
                if q:
                    if not (0 <= i < nrows and 0 <= j < ncols):
                        raise ValueError(f"entry ({i},{j}) outside {nrows}x{ncols}")
                    self.data[(i, j)] = q

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, n):
        m = cls(n, n)
        for i in range(n):
            m.data[(i, i)] = QQ(1)
        return m

    @classmethod
    def from_dense(cls, rows):
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        m = cls(nrows, ncols)
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError("ragged dense matrix")
            for j, v in enumerate(row):
                q = QQ(v)
                if q:
                    m.data[(i, j)] = q
        return m

    # -- basic accessors ---------------------------------------------------

    def rows(self):
        """The row view: one dict {col: entry} per row, empty rows included."""
        out = [{} for _ in range(self.nrows)]
        for (i, j), v in self.data.items():
            out[i][j] = v
        return out

    def cols(self):
        """The column view: one dict {row: entry} per column."""
        out = [{} for _ in range(self.ncols)]
        for (i, j), v in self.data.items():
            out[j][i] = v
        return out

    def is_zero(self):
        return not self.data

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.data == other.data
        )

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={len(self.data)})"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        self._check_shape(other)
        out = SparseMatrix(self.nrows, self.ncols, dict(self.data))
        for k, v in other.data.items():
            s = out.data.get(k, ZERO) + v
            if s:
                out.data[k] = s
            else:
                out.data.pop(k, None)
        return out

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, coeff):
        q = QQ(coeff)
        out = SparseMatrix(self.nrows, self.ncols)
        if q:
            out.data = {k: q * v for k, v in self.data.items()}
        return out

    def _check_shape(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError(
                f"shape mismatch {self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}"
            )

    def __mul__(self, other):
        if isinstance(other, SparseMatrix):
            return self.matmul(other)
        raise TypeError("use .scale for scalars, apply_cols(cols(), v) for vectors")

    def matmul(self, other):
        if self.ncols != other.nrows:
            raise ValueError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        other_rows = other.rows()
        acc = {}
        for (i, k), a in self.data.items():
            for j, b in other_rows[k].items():
                key = (i, j)
                s = acc.get(key, ZERO) + a * b
                if s:
                    acc[key] = s
                else:
                    acc.pop(key, None)
        return SparseMatrix(self.nrows, other.ncols, acc)

    __matmul__ = matmul

    def transpose(self):
        return SparseMatrix(
            self.ncols, self.nrows, {(j, i): v for (i, j), v in self.data.items()}
        )

    # -- elimination -------------------------------------------------------

    def rref(self):
        """Reduced row echelon form.

        Returns (rows, pivot_cols): rows are dict-vectors sorted by pivot
        column, each with leading coefficient one.
        """
        ech = Echelon(self.rows())
        ech.full_reduce()
        return ech.basis(), ech.pivot_cols()

    def rank(self):
        return len(Echelon(self.rows()))

    def kernel_basis(self):
        """Basis of the right kernel, one dict-vector per free column.

        Free columns are visited in ascending order; each vector has a one in
        its free column, so the basis is canonical.
        """
        rows, piv_cols = self.rref()
        pivots = dict(zip(piv_cols, rows))
        basis = []
        for free in range(self.ncols):
            if free not in pivots:
                vec = {free: QQ(1)}
                for p, row in pivots.items():
                    if free in row:
                        vec[p] = -row[free]
                basis.append(vec)
        return basis

    def solve(self, rhs):
        """One solution of A x = rhs (free variables zero), or None."""
        sols = self.solve_multi([rhs])
        return sols[0]

    def solve_multi(self, rhs_list):
        """Solve against several right-hand sides with one elimination."""
        n = self.ncols
        aug_cols = n + len(rhs_list)
        aug = SparseMatrix(self.nrows, aug_cols, dict(self.data))
        for k, rhs in enumerate(rhs_list):
            for i, v in rhs.items():
                q = QQ(v)
                if q:
                    aug.data[(i, n + k)] = q
        rows, piv_cols = aug.rref()
        solutions = [dict() for _ in rhs_list]
        for p, row in zip(piv_cols, rows):
            for j, v in row.items():
                if j < n:
                    continue
                if p >= n:
                    # zero on all variable columns: rhs j - n is inconsistent
                    solutions[j - n] = None
                elif solutions[j - n] is not None:
                    solutions[j - n][p] = v
        return solutions


class Echelon:
    """Incremental row echelon over QQ with deterministic leading-column pivots.

    Pivot rows are primitive integer rows with positive leading entry; an
    incoming vector is cleared of denominators once and each step is
    ``v <- a*v - b*p`` (see ``_eliminate``).  Rationals appear only in what
    ``reduce``, ``express``, ``pivot_row`` and ``basis`` return.  Keys may
    be any mutually orderable values.
    """

    def __init__(self, vectors=()):
        self._rows = {}  # leading key -> primitive integer row (dict)
        for v in vectors:
            self.add(v)

    def _head_reduce(self, vec):
        """Eliminate vec's leading entries in place while they sit on
        pivots; returns the leading key left, or None when vec vanishes."""
        rows = self._rows
        while vec:
            lead = min(vec)
            piv = rows.get(lead)
            if piv is None:
                return lead
            _eliminate(vec, piv, lead)
        return None

    def add(self, vector):
        """Insert a vector; returns its pivot column, or None if dependent."""
        vec = _integral(vector)[0]
        lead = self._head_reduce(vec)
        if lead is not None:
            if vec[lead] < 0:
                for k in vec:
                    vec[k] = -vec[k]
            self._rows[lead] = vec
        return lead

    def contains(self, vector):
        return self._head_reduce(_integral(vector)[0]) is None

    def reduce(self, vector):
        """Normal form of vector modulo the span: the unique vector in
        vector + span with no entry on a pivot column (a fresh dict)."""
        vec, num, den = _integral(vector)
        rows = self._rows
        while True:
            lead = min((k for k in vec if k in rows), default=None)
            if lead is None:
                return {k: QQ(x * num, den) for k, x in vec.items()}
            a, c = _eliminate(vec, rows[lead], lead)
            num, den = _scaled(num, den, c, a)

    def express(self, vector):
        """Coefficients {pivot_col: c} with vector = sum c * pivot_row(col),
        or None when vector is outside the span."""
        vec, num, den = _integral(vector)
        rows = self._rows
        steps = []
        while vec:
            lead = min(vec)
            piv = rows.get(lead)
            if piv is None:
                return None
            # vector minus what is expressed so far is vec * num / den, and
            # pivot_row(lead) has a one at lead
            steps.append((lead, vec[lead] * num, den))
            a, c = _eliminate(vec, piv, lead)
            num, den = _scaled(num, den, c, a)
        return {lead: QQ(n, d) for lead, n, d in steps}

    def full_reduce(self):
        """Eliminate every pivot column from the other rows (RREF)."""
        rows = self._rows
        for lead in sorted(rows, reverse=True):
            piv = rows[lead]
            for other_lead, row in rows.items():
                if other_lead != lead and lead in row:
                    _eliminate(row, piv, lead)

    def pivot_row(self, lead):
        """The pivot row at column lead, scaled to leading coefficient one."""
        row = self._rows[lead]
        d = row[lead]
        return {k: QQ(x, d) for k, x in row.items()}

    def basis(self):
        return [self.pivot_row(c) for c in sorted(self._rows)]

    def pivot_cols(self):
        return sorted(self._rows)

    def __len__(self):
        return len(self._rows)


def _integral(vector):
    """(ints, num, den): a primitive integer dict-vector and the rational
    num/den with vector == ints * num / den; zero entries are dropped."""
    den = lcm(*(int(v.denominator) for v in vector.values()))
    ints = {
        k: int(v.numerator) * (den // int(v.denominator))
        for k, v in vector.items()
        if v
    }
    num = gcd(*ints.values()) or 1
    if num > 1:
        ints = {k: x // num for k, x in ints.items()}
    g = gcd(num, den)
    return ints, num // g, den // g


def _eliminate(vec, piv, lead):
    """vec <- (a*vec - b*piv) / content in place, clearing vec[lead].

    piv has positive leading entry piv[lead]; a and b are piv[lead] and
    vec[lead] divided by their gcd, so a > 0.  Returns (a, content), which
    is what a caller tracking vec's rational scale needs.
    """
    a = piv[lead]
    b = vec[lead]
    g = gcd(a, b)
    if g != 1:
        a //= g
        b //= g
    if a != 1:
        for k in vec:
            vec[k] *= a
    for k, x in piv.items():
        s = vec.get(k, 0) - b * x
        if s:
            vec[k] = s
        else:
            del vec[k]
    c = gcd(*vec.values())
    if c > 1:
        for k in vec:
            vec[k] //= c
    return a, c


def _scaled(num, den, c, a):
    """num/den * c/a in lowest terms."""
    num *= c
    den *= a
    g = gcd(num, den)
    return num // g, den // g


# ---------------------------------------------------------------------------
# associative-algebra radical


def algebra_radical(products, dim, limits=DEFAULT_LIMITS):
    """Radical of a finite-dimensional associative algebra over QQ.

    products[i][j] must be the coordinate dict of basis_i * basis_j.  In
    characteristic zero the Jacobson radical is the kernel of the trace form
    (x, y) -> trace(L_{xy}), which is what gets computed; the returned value
    is a list of dict-vectors spanning the radical.  The table is taken
    to be associative; nothing here checks it.
    """
    if dim > limits.max_end_dim:
        raise ResourceLimitError(
            f"algebra dimension {dim} exceeds configured bound {limits.max_end_dim}"
        )
    if len(products) != dim or any(len(r) != dim for r in products):
        raise ValueError("products table must be dim x dim")

    # L[i] as dict (out_index, j) -> coeff ; trace(L_i L_j) via entry pairing
    left = []
    for i in range(dim):
        mat = {}
        for j in range(dim):
            for k, v in products[i][j].items():
                mat[(k, j)] = v
        left.append(mat)
    gram = SparseMatrix(dim, dim)
    for i in range(dim):
        li = left[i]
        for j in range(i, dim):
            lj = left[j]
            if len(li) > len(lj):
                a, b = lj, li
            else:
                a, b = li, lj
            t = ZERO
            for (r, c), v in a.items():
                w = b.get((c, r))
                if w is not None:
                    t += v * w
            if t:
                gram.data[(i, j)] = t
                if i != j:
                    gram.data[(j, i)] = t
    return gram.kernel_basis()
