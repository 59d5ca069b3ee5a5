import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from umvue.linalg import Matrix, coordinates, dense, null_space, rank, rref, solve_in_span

from helpers import from_sympy, matrix_of, sympy_rank, to_sympy


def test_rref_identity():
    ident = matrix_of([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    result = rref(ident)
    assert result.matrix == ident
    assert result.pivots == (0, 1, 2)
    assert result.rank == 3


def test_rref_dependent_rows():
    # v3 = v1 + v2, so stacking it must not raise the rank
    two = matrix_of([[0, 1, 0], [0, 0, 1]])
    three = matrix_of([[0, 1, 0], [0, 0, 1], [0, 1, 1]])
    assert rref(two).rank == 2
    assert rref(three).rank == 2


def test_rref_zero_matrix():
    zero = matrix_of([[0, 0], [0, 0]])
    result = rref(zero)
    assert result.matrix == zero
    assert result.pivots == ()
    assert result.rank == 0


def test_null_space_trivial():
    assert null_space(matrix_of([[1, 0], [0, 1]])) == []


def test_null_space_antisymmetry():
    assert null_space(matrix_of([[1, 1]])) == [(1, -1)]


def test_null_space_four_cell_columns():
    # columns are the coefficient vectors of theta, theta^2, theta+theta^2,
    # 1-2theta-2theta^2 in the basis [1, theta, theta^2]
    c = matrix_of([[0, 0, 0, 1], [1, 0, 1, -2], [0, 1, 1, -2]])
    assert null_space(c) == [(1, 1, -1, 0)]


def test_solve_in_span():
    cols = [(Fraction(1), Fraction(0)), (Fraction(1), Fraction(1))]
    assert solve_in_span(cols, (Fraction(3), Fraction(2))) == [1, 2]
    assert solve_in_span([cols[0]], (Fraction(0), Fraction(1))) is None


def _random_matrix(rng: random.Random) -> Matrix:
    nrows = rng.randint(1, 5)
    ncols = rng.randint(1, 5)
    return Matrix([
        [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ncols)]
        for _ in range(nrows)
    ])


@given(st.integers(0, 10**6))
def test_rref_idempotent(seed):
    m = _random_matrix(random.Random(seed))
    once = rref(m)
    twice = rref(once.matrix)
    assert twice.matrix == once.matrix
    assert twice.pivots == once.pivots
    assert twice == once  # primitive relations with x_j > 0 are unique


@given(st.integers(0, 10**6))
def test_null_space_is_exact_kernel_basis(seed):
    m = _random_matrix(random.Random(seed))
    basis = null_space(m)
    assert len(basis) == m.ncols - rank(m)
    for vec in basis:
        assert all(x == 0 for x in m.mul_vector(vec))
        lead = next(x for x in vec if x != 0)
        assert lead == 1
    # basis vectors are linearly independent
    assert sympy_rank(basis) == len(basis)


@given(st.integers(0, 10**6))
def test_pivots_strictly_increase(seed):
    m = _random_matrix(random.Random(seed))
    pivots = rref(m).pivots
    assert list(pivots) == sorted(set(pivots))


# --- the sparse elimination against a sympy oracle ---------------------------

ENTRIES = st.one_of(
    st.integers(-3, 3).map(Fraction),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**15),
)


@st.composite
def matrices(draw, entries=ENTRIES):
    """Dense, low-rank, banded, lower-triangular and repeated-column
    matrices up to 10x14, with zero rows and zero columns."""
    nrows = draw(st.integers(1, 10))
    ncols = draw(st.integers(1, 14))
    shape = draw(st.sampled_from(["dense", "low-rank", "banded", "triangular", "repeated"]))
    if shape == "low-rank":
        # a product of thin factors has rank at most k
        k = draw(st.integers(0, min(nrows, ncols)))
        left = draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=nrows, max_size=nrows))
        right = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=k, max_size=k))
        rows = [[sum((row[t] * right[t][j] for t in range(k)), Fraction(0)) for j in range(ncols)]
                for row in left]
    elif shape == "banded":
        # like lehmann-trunc: a few nonzeros per column, along the diagonal
        width = draw(st.integers(1, 3))
        rows = [[draw(entries) if abs(i - j * nrows // ncols) < width else Fraction(0)
                 for j in range(ncols)] for i in range(nrows)]
    elif shape == "triangular":
        # like binomial: column j is nonzero from row j down
        rows = [[draw(entries.filter(bool)) if i == j else draw(entries) if i > j else Fraction(0)
                 for j in range(ncols)] for i in range(nrows)]
    elif shape == "repeated":
        # wide and rank-deficient: every column repeats or scales a few
        k = draw(st.integers(1, min(nrows, ncols)))
        base = draw(st.lists(st.lists(entries, min_size=nrows, max_size=nrows), min_size=k, max_size=k))
        picks = draw(st.lists(st.tuples(st.integers(0, k - 1), st.one_of(st.just(Fraction(1)), entries)),
                              min_size=ncols, max_size=ncols))
        rows = [[scale * base[b][i] for b, scale in picks] for i in range(nrows)]
    else:
        rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                             min_size=nrows, max_size=nrows))
    zero_rows = draw(st.sets(st.integers(0, nrows - 1)))
    zero_columns = draw(st.sets(st.integers(0, ncols - 1)))
    return Matrix([[Fraction(0) if i in zero_rows or j in zero_columns else x for j, x in enumerate(row)]
                   for i, row in enumerate(rows)])


def normalized(vec):
    lead = next(x for x in vec if x != 0)
    return tuple(x / lead for x in vec)


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rref_and_null_space_match_sympy(m):
    oracle, oracle_pivots = to_sympy(m.rows).rref()
    result = rref(m)
    assert result.pivots == oracle_pivots
    assert result.rank == len(oracle_pivots)
    assert [list(row) for row in result.matrix.rows] == \
        [[from_sympy(x) for x in oracle.row(i)] for i in range(m.nrows)]
    expected = [normalized([from_sympy(x) for x in v]) for v in to_sympy(m.rows).nullspace()]
    assert null_space(m) == expected
    # one integer relation per non-pivot column, in column order
    free = [j for j in range(m.ncols) if j not in result.pivots]
    assert [relation[-1][0] for relation in result.relations] == free
    for relation in result.relations:
        columns = [c for c, _ in relation]
        j, xj = relation[-1]
        assert all(type(x) is int for _, x in relation)
        assert dense_product(m, dense(relation, m.ncols)) == (0,) * m.nrows
        assert columns == sorted(columns)
        assert set(columns[:-1]) <= {p for p in result.pivots if p < j}
        assert gcd(*(x for _, x in relation)) == 1 and xj > 0


@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
def test_solve_in_span_matches_sympy(m, data):
    if data.draw(st.booleans()):  # consistent by construction
        x = data.draw(st.lists(ENTRIES, min_size=m.ncols, max_size=m.ncols))
        target = m.mul_vector(x)
    else:
        target = tuple(data.draw(st.lists(ENTRIES, min_size=m.nrows, max_size=m.nrows)))
    got = solve_in_span(m.columns(), target)
    try:
        solution, params = to_sympy(m.rows).gauss_jordan_solve(to_sympy([[t] for t in target]))
    except ValueError:  # sympy: the system is inconsistent
        assert got is None
        return
    particular = solution.subs({p: 0 for p in params})
    assert got == [from_sympy(x) for x in particular]


# --- the integer mat-vec against the dense Fraction sum ------------------------

def dense_product(m: Matrix, v) -> tuple[Fraction, ...]:
    return tuple(sum((a * x for a, x in zip(row, v)), Fraction(0)) for row in m.rows)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_mul_vector_matches_the_dense_fraction_sum(data):
    m = data.draw(matrices())
    # Fraction, int and large int entries, with zeros, twice on the same matrix
    for entries in (ENTRIES, st.integers(-3, 3), st.integers(-10**30, 10**30)):
        v = data.draw(st.lists(st.one_of(st.just(0), entries), min_size=m.ncols, max_size=m.ncols))
        product = m.mul_vector(v)
        assert product == dense_product(m, v)
        assert all(type(x) is Fraction for x in product)
        # the product and rref read the same integer columns, and the next product reads them after rref
        assert rref(m) == rref(Matrix(m.rows, ncols=m.ncols))


def test_mul_vector_edge_shapes():
    assert matrix_of([[0, 0, 0], [1, Fraction(1, 2), 0]]).mul_vector([3, Fraction(1, 3), 5]) == (0, Fraction(19, 6))
    assert Matrix([(), ()]).mul_vector(()) == (0, 0)
    assert Matrix([], ncols=2).mul_vector([1, 2]) == ()
    assert rref(Matrix([], ncols=2)).relations == (((0, 1),), ((1, 1),))
    assert null_space(Matrix([], ncols=2)) == [(1, 0), (0, 1)]
    with pytest.raises(ValueError):
        matrix_of([[1, 2]]).mul_vector([1])


def test_sparse_columns_build_the_dense_matrix():
    half = Fraction(1, 2)
    m = Matrix.from_sparse_columns(3, [[(2, half), (0, Fraction(-3))], [], [(1, Fraction(4, 6))]])
    dense_m = matrix_of([[-3, 0, 0], [0, 0, Fraction(2, 3)], [half, 0, 0]])
    assert m == dense_m and hash(m) == hash(dense_m)
    assert m.columns() == [(-3, 0, half), (0, 0, 0), (0, Fraction(2, 3), 0)]
    assert m._rows is None  # hash and columns read the integer columns
    assert m.rows == dense_m.rows and m.columns() == dense_m.columns()
    assert m.integer_columns == [(2, {2: 1, 0: -6}), (1, {}), (3, {1: 2})]
    assert Matrix.from_sparse_columns(2, []).rows == ((), ())
    assert Matrix.from_sparse_columns(0, [[], []]) == Matrix([], ncols=2)
    assert Matrix.from_sparse_columns(2, [[]]) != Matrix.from_sparse_columns(3, [[]])


def test_span_readers_check_lengths():
    with pytest.raises(ValueError):
        solve_in_span([(1, 1)], (1,))  # a target shorter than the columns
    with pytest.raises(ValueError):
        solve_in_span([(1, 1), (1,)], (1, 1))  # ragged columns
    with pytest.raises(ValueError):
        coordinates(rref(matrix_of([[1, 0], [0, 1]])), (1,))
    assert solve_in_span([], ()) == []
    assert solve_in_span([], (0, 0)) == [] and solve_in_span([], (0, 1)) is None
