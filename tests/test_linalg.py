"""Exact linear algebra: hand examples plus randomized structural properties."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supero.algebra import build_gl, install_grading
from supero.errors import ResourceLimitError
from supero.homs import hom_space
from supero.linalg import Echelon, SparseMatrix, algebra_radical, vec_add_into
from supero.rational import QQ

from full_basis import apply, full_basis_hom_system, induced_projective
from helpers import assert_associative, plain


def to_dense(mat):
    out = [[QQ(0)] * mat.ncols for _ in range(mat.nrows)]
    for (i, j), v in mat.data.items():
        out[i][j] = v
    return out


def test_vec_add_into_prunes_zeros():
    v = {0: QQ(1), 1: QQ(2)}
    vec_add_into(v, {1: QQ(-2), 2: QQ(3)})
    assert v == {0: QQ(1), 2: QQ(3)}
    vec_add_into(v, {0: QQ(1)}, coeff=0)
    assert v == {0: QQ(1), 2: QQ(3)}


def test_rref_hand_example():
    # [[1,2,3],[2,4,8],[1,2,5]] has rank 2, pivots in columns 0 and 2
    a = SparseMatrix.from_dense([[1, 2, 3], [2, 4, 8], [1, 2, 5]])
    rows, pivots = a.rref()
    assert pivots == [0, 2]
    assert rows == [{0: QQ(1), 1: QQ(2)}, {2: QQ(1)}]
    assert a.rank() == 2


def test_kernel_hand_example():
    a = SparseMatrix.from_dense([[1, 2, 3], [2, 4, 8], [1, 2, 5]])
    (k,) = a.kernel_basis()
    assert k == {0: QQ(-2), 1: QQ(1)}
    assert apply(a, k) == {}


def test_solve_consistent_and_inconsistent():
    a = SparseMatrix.from_dense([[1, 1], [1, -1], [2, 0]])
    # b = (3, 1, 4) is A @ (2, 1)
    assert a.solve({0: QQ(3), 1: QQ(1), 2: QQ(4)}) == {0: QQ(2), 1: QQ(1)}
    # b = (3, 1, 5) is not in the column space
    assert a.solve({0: QQ(3), 1: QQ(1), 2: QQ(5)}) is None


def test_solve_multi_mixed_consistency():
    a = SparseMatrix.from_dense([[1, 0], [0, 0]])
    good = {0: QQ(7)}
    bad = {1: QQ(1)}
    sols = a.solve_multi([good, bad, {}])
    assert sols[0] == {0: QQ(7)}
    assert sols[1] is None
    assert sols[2] == {}


def test_matmul_and_transpose():
    a = SparseMatrix.from_dense([[1, 2], [0, 1]])
    b = SparseMatrix.from_dense([[1, 0], [3, "1/2"]])
    assert to_dense(a.matmul(b)) == [[QQ(7), QQ(1)], [QQ(3), QQ(1, 2)]]
    assert a.matmul(b).transpose() == b.transpose().matmul(a.transpose())
    with pytest.raises(ValueError):
        a.matmul(SparseMatrix(3, 3))


def test_echelon_express():
    ech = Echelon()
    ech.add({0: QQ(1), 1: QQ(1)})
    ech.add({1: QQ(2)})
    coeffs = ech.express({0: QQ(3), 1: QQ(5)})
    assert coeffs is not None
    rebuilt = {}
    for lead, c in coeffs.items():
        vec_add_into(rebuilt, ech.pivot_row(lead), c)
    assert rebuilt == {0: QQ(3), 1: QQ(5)}
    assert ech.express({2: QQ(1)}) is None


entry = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def matrices(draw, max_side=5):
    nrows = draw(st.integers(1, max_side))
    ncols = draw(st.integers(1, max_side))
    rows = draw(
        st.lists(
            st.lists(entry, min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    return SparseMatrix.from_dense(rows)


@settings(deadline=None)
@given(matrices())
def test_rank_equals_transpose_rank(a):
    assert a.rank() == a.transpose().rank()


@settings(deadline=None)
@given(matrices())
def test_rank_nullity(a):
    kernel = a.kernel_basis()
    assert a.rank() + len(kernel) == a.ncols
    for v in kernel:
        assert apply(a, v) == {}


@settings(deadline=None)
@given(matrices(), st.lists(entry, min_size=5, max_size=5))
def test_solve_recovers_image_vectors(a, xs):
    x = {j: QQ(c) for j, c in enumerate(xs[: a.ncols]) if c}
    b = apply(a, x)
    s = a.solve(b)
    assert s is not None
    assert apply(a, s) == b


@settings(deadline=None)
@given(matrices())
def test_rref_is_reduced(a):
    rows, pivots = a.rref()
    assert pivots == sorted(pivots)
    for r, p in zip(rows, pivots):
        assert r[p] == QQ(1)
        for other, q in zip(rows, pivots):
            if q != p:
                assert p not in other


def _radical_span(products):
    assert_associative(products)
    return algebra_radical(products, len(products))


def test_radical_dual_numbers():
    # Q[x]/(x^2): basis 1, x; the radical is the span of x
    products = [
        [{0: QQ(1)}, {1: QQ(1)}],
        [{1: QQ(1)}, {}],
    ]
    assert _radical_span(products) == [{1: QQ(1)}]


def test_radical_split_pair():
    # Q x Q is semisimple
    products = [[{0: QQ(1)}, {}], [{}, {1: QQ(1)}]]
    assert _radical_span(products) == []


def _matrix_algebra_products():
    # 2x2 matrix units in the order E11, E12, E21, E22
    def unit(i, j):
        return (i, j)

    basis = [unit(0, 0), unit(0, 1), unit(1, 0), unit(1, 1)]
    index = {u: k for k, u in enumerate(basis)}
    products = []
    for (i, j) in basis:
        row = []
        for (k, l) in basis:
            row.append({index[(i, l)]: QQ(1)} if j == k else {})
        products.append(row)
    return products


def test_radical_matrix_algebra():
    assert _radical_span(_matrix_algebra_products()) == []


def test_radical_upper_triangular():
    # basis E11, E12, E22 of upper-triangular 2x2 matrices; radical = span E12
    products = [
        [{0: QQ(1)}, {1: QQ(1)}, {}],
        [{}, {}, {1: QQ(1)}],
        [{}, {}, {2: QQ(1)}],
    ]
    assert _radical_span(products) == [{1: QQ(1)}]


def test_associativity_helper_rejects_nonassociative_table():
    # negative control for assert_associative, which the radical tests and
    # the endomorphism-ring tests rely on: the sl2 bracket table is
    # anticommutative, not associative
    x, h, y = 0, 1, 2
    products = [[{} for _ in range(3)] for _ in range(3)]
    products[x][y] = {h: QQ(1)}
    products[y][x] = {h: QQ(-1)}
    products[h][x] = {x: QQ(2)}
    products[x][h] = {x: QQ(-2)}
    products[h][y] = {y: QQ(-2)}
    products[y][h] = {y: QQ(2)}
    with pytest.raises(AssertionError, match="associativity fails"):
        assert_associative(products)


def test_radical_dimension_guard():
    from supero.config import Limits

    tiny = Limits(max_end_dim=1)
    with pytest.raises(ResourceLimitError):
        algebra_radical([[{}, {}], [{}, {}]], 2, limits=tiny)


def test_fraction_entries_coerce():
    a = SparseMatrix.from_dense([[Fraction(1, 2), 1]])
    assert a.data[(0, 0)] == QQ(1, 2)


# -- differential test against a rational-arithmetic oracle ---------------


class FractionEchelon:
    """Reference echelon in rational arithmetic.

    Pivot rows are scaled to leading coefficient one and reduction
    subtracts rational multiples of them.  Slow, but transparently
    correct; the integer engine of supero.linalg.Echelon must agree with
    it entry by entry.
    """

    def __init__(self):
        self.pivots = {}  # leading col -> normalized row (dict)

    def reduce(self, vector):
        vec = dict(vector)
        for lead in sorted(self.pivots):
            c = vec.get(lead)
            if c:
                vec_add_into(vec, self.pivots[lead], -c)
        return vec

    def _head_reduce(self, vector):
        vec = dict(vector)
        while vec:
            lead = min(vec)
            if lead not in self.pivots:
                break
            vec_add_into(vec, self.pivots[lead], -vec[lead])
        return vec

    def add(self, vector):
        vec = self._head_reduce(vector)
        if not vec:
            return None
        lead = min(vec)
        inv = QQ(1) / vec[lead]
        self.pivots[lead] = {k: v * inv for k, v in vec.items()}
        return lead

    def contains(self, vector):
        return not self._head_reduce(vector)

    def express(self, vector):
        vec = dict(vector)
        coeffs = {}
        while vec:
            lead = min(vec)
            piv = self.pivots.get(lead)
            if piv is None:
                return None
            coeffs[lead] = vec[lead]
            vec_add_into(vec, piv, -vec[lead])
        return coeffs

    def full_reduce(self):
        for lead in sorted(self.pivots, reverse=True):
            piv = self.pivots[lead]
            for other_lead, row in self.pivots.items():
                c = row.get(lead) if other_lead != lead else None
                if c:
                    vec_add_into(row, piv, -c)

    def basis(self):
        return [dict(self.pivots[c]) for c in sorted(self.pivots)]

    def pivot_cols(self):
        return sorted(self.pivots)


def oracle_rref(a):
    ech = FractionEchelon()
    for row in a.rows():
        ech.add(row)
    ech.full_reduce()
    return ech.basis(), ech.pivot_cols()


def oracle_kernel(a):
    rows, piv_cols = oracle_rref(a)
    by_piv = dict(zip(piv_cols, rows))
    basis = []
    for free in range(a.ncols):
        if free in by_piv:
            continue
        vec = {free: QQ(1)}
        for p in piv_cols:
            if by_piv[p].get(free):
                vec[p] = -by_piv[p][free]
        basis.append(vec)
    return basis


def oracle_solve_multi(a, rhs_list):
    n = a.ncols
    aug = dict(a.data)
    for k, rhs in enumerate(rhs_list):
        for i, v in rhs.items():
            aug[(i, n + k)] = QQ(v)
    rows, piv_cols = oracle_rref(SparseMatrix(a.nrows, n + len(rhs_list), aug))
    solutions = [dict() for _ in rhs_list]
    for p, row in zip(piv_cols, rows):
        for j, v in row.items():
            if j >= n and p >= n:
                solutions[j - n] = None
            elif j >= n and solutions[j - n] is not None:
                solutions[j - n][p] = v
    return solutions


wide_entry = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-60, max_value=60, max_denominator=12),
)


@st.composite
def sparse_matrices(draw, max_side=8):
    """Tall, wide and square matrices with zero, negative and non-integral
    entries and some rows cleared entirely."""
    nrows = draw(st.integers(1, max_side))
    ncols = draw(st.integers(1, max_side))
    rows = draw(
        st.lists(
            st.lists(wide_entry, min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    for i in draw(st.sets(st.integers(0, nrows - 1), max_size=nrows)):
        rows[i] = [Fraction(0)] * ncols
    return SparseMatrix.from_dense(rows)


@settings(deadline=None)
@given(sparse_matrices())
def test_rref_rank_kernel_match_oracle(a):
    rows, pivots = a.rref()
    assert (rows, pivots) == oracle_rref(a)
    assert a.rank() == len(pivots)
    assert a.kernel_basis() == oracle_kernel(a)


@settings(deadline=None)
@given(sparse_matrices(), st.data())
def test_solve_multi_matches_oracle(a, data):
    vectors = st.lists(wide_entry, min_size=a.ncols + a.nrows, max_size=a.ncols + a.nrows)
    rhs_list = []
    for kind in data.draw(st.lists(st.sampled_from(["image", "free"]), max_size=4)):
        xs = data.draw(vectors)
        if kind == "image":
            # consistent by construction
            rhs_list.append(apply(a, {j: QQ(c) for j, c in enumerate(xs[: a.ncols]) if c}))
        else:
            # usually outside the column space when a is rank deficient
            rhs_list.append({i: QQ(c) for i, c in enumerate(xs[: a.nrows]) if c})
    sols = a.solve_multi(rhs_list)
    assert sols == oracle_solve_multi(a, rhs_list)
    for rhs, sol in zip(rhs_list, sols):
        if sol is not None:
            assert apply(a, sol) == {i: QQ(v) for i, v in rhs.items() if v}


def test_solve_multi_inconsistent_rhs_matches_oracle():
    a = SparseMatrix.from_dense([[1, 2], [2, 4], [0, 0]])
    rhs_list = [{0: QQ(1), 1: QQ(2)}, {0: QQ(1)}, {2: QQ(-3, 2)}, {}]
    sols = a.solve_multi(rhs_list)
    assert sols == oracle_solve_multi(a, rhs_list)
    assert sols[1] is None and sols[2] is None


int_key = st.integers(0, 6)
pair_key = st.tuples(st.integers(0, 2), st.integers(0, 2))


def dict_vectors(keys):
    """Dict-vectors as the package uses them: nonzero entries only."""
    return st.dictionaries(keys, wide_entry, max_size=6).map(
        lambda d: {k: QQ(v) for k, v in d.items() if v}
    )


@settings(deadline=None)
@given(st.sampled_from([int_key, pair_key]).flatmap(
    lambda keys: st.lists(
        st.tuples(st.sampled_from(["add", "reduce", "express", "contains", "span"]),
                  dict_vectors(keys)),
        max_size=14,
    )
))
def test_echelon_operation_sequences_match_oracle(ops):
    ech, oracle = Echelon(), FractionEchelon()
    added = []
    for reduced in (False, True):
        for op, vec in ops:
            if op == "span":
                # a combination of what was added, so express succeeds
                vec = {}
                for k, w in enumerate(added):
                    vec_add_into(vec, w, QQ(k + 1, 3))
                op = "express"
            if op == "add":
                if reduced:
                    continue
                added.append(vec)
                assert ech.add(vec) == oracle.add(vec)
            else:
                got, want = getattr(ech, op)(vec), getattr(oracle, op)(vec)
                assert got == want
                if op != "contains":
                    assert_int_exactly_where_integral(got, want)
        assert ech.pivot_cols() == oracle.pivot_cols()
        assert [ech.pivot_row(c) for c in ech.pivot_cols()] == oracle.basis()
        assert len(ech) == len(oracle.pivots)
        ech.full_reduce()
        oracle.full_reduce()
        assert ech.basis() == oracle.basis()
        for got, want in zip(ech.basis(), oracle.basis()):
            assert_int_exactly_where_integral(got, want)


def assert_int_exactly_where_integral(got, want):
    """got holds an int exactly where the oracle's value has denominator 1
    (and a QQ elsewhere); None, the outside-the-span answer, passes."""
    for k, v in (got or {}).items():
        integral = QQ(want[k]).denominator == 1
        assert type(v) is (int if integral else QQ), (k, v, want[k])


def test_reduce_is_the_normal_form():
    # the leading column 1 is not a pivot, but column 2 is
    ech = Echelon()
    ech.add({0: QQ(1), 1: QQ(1)})
    ech.add({2: QQ(2), 3: QQ(1)})
    assert ech.reduce({1: QQ(1), 2: QQ(1)}) == {1: QQ(1), 3: QQ(-1, 2)}
    assert ech.reduce({0: QQ(2), 2: QQ(4)}) == {1: QQ(-2), 3: QQ(-2)}


def test_end_system_of_gl21_projective_matches_oracle(monkeypatch):
    """The even End system of P(1,0|0) for gl(2|1) without its flag
    record, captured from hom_space (the trivial record: Lie generators
    only, every entry an unknown) and built over every basis element of g,
    and the End basis as (i, j)-keyed vectors: all agree with the oracle,
    and both systems have the same kernel."""
    P = plain(induced_projective(install_grading(build_gl(2, 1), "compatible"), (1, 0, 0)))
    captured = []
    real = SparseMatrix.kernel_basis

    def spy(self):
        captured.append(self)
        return real(self)

    monkeypatch.setattr(SparseMatrix, "kernel_basis", spy)
    basis = hom_space(P, P, parity=0)
    monkeypatch.undo()
    (system,) = captured
    full, _ = full_basis_hom_system(P, P, 0)
    assert full.ncols == system.ncols > 100 and full.nrows > 500
    for mat in (system, full):
        assert mat.rref() == oracle_rref(mat)
        assert mat.kernel_basis() == oracle_kernel(mat)
    assert oracle_kernel(system) == oracle_kernel(full)

    ech, oracle = Echelon(), FractionEchelon()
    for F in basis:
        assert ech.add(dict(F.data)) == oracle.add(dict(F.data))
    for F in basis:
        for G in basis:
            product = dict((F @ G).data)
            assert ech.express(product) == oracle.express(product)
            assert ech.reduce(product) == oracle.reduce(product) == {}
