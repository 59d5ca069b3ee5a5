import random
from fractions import Fraction

import sympy
from hypothesis import given, settings, strategies as st

from umvue.linalg import Matrix, bareiss, null_space, rank, rank_of_vectors, rref, solve_in_span

from helpers import matrix_of


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
    assert rank_of_vectors(basis) == len(basis)


@given(st.integers(0, 10**6))
def test_pivots_strictly_increase(seed):
    m = _random_matrix(random.Random(seed))
    pivots = rref(m).pivots
    assert list(pivots) == sorted(set(pivots))


# --- the fraction-free kernel against a sympy oracle -------------------------

ENTRIES = st.one_of(
    st.integers(-3, 3).map(Fraction),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**15),
)


@st.composite
def matrices(draw, entries=ENTRIES):
    """Wide, tall, rank-deficient and zero-column matrices."""
    nrows = draw(st.integers(1, 6))
    ncols = draw(st.integers(1, 7))
    if draw(st.booleans()):
        # a product of thin factors has rank at most k
        k = draw(st.integers(0, min(nrows, ncols)))
        left = draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=nrows, max_size=nrows))
        right = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=k, max_size=k))
        rows = [[sum((row[t] * right[t][j] for t in range(k)), Fraction(0)) for j in range(ncols)]
                for row in left]
    else:
        rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                             min_size=nrows, max_size=nrows))
    zero_columns = draw(st.sets(st.integers(0, ncols - 1)))
    return Matrix([[Fraction(0) if j in zero_columns else x for j, x in enumerate(row)]
                   for row in rows])


def to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows])


def from_sympy(x) -> Fraction:
    return Fraction(int(x.p), int(x.q))


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


class CheckedInt(int):
    """An int whose floor division fails unless it is exact."""

    divisions = 0

    def __mul__(self, other):
        return CheckedInt(int(self) * int(other))

    def __sub__(self, other):
        return CheckedInt(int(self) - int(other))

    def __floordiv__(self, other):
        quotient, remainder = divmod(int(self), int(other))
        assert remainder == 0, f"{int(self)} / {int(other)} is not exact"
        CheckedInt.divisions += 1
        return CheckedInt(quotient)


@settings(max_examples=150, deadline=None)
@given(matrices(entries=st.integers(-10**9, 10**9).map(Fraction)))
def test_every_bareiss_division_is_exact(m):
    rows = [[CheckedInt(x.numerator) for x in row] for row in m.rows]
    before = CheckedInt.divisions
    pivots, d = bareiss(rows)
    if pivots and m.nrows > 1:
        assert CheckedInt.divisions > before
    # row r is d times the RREF row
    reduced = rref(m).matrix.rows
    for r in range(len(pivots)):
        assert [Fraction(a, d) for a in rows[r]] == list(reduced[r])
    assert all(a == 0 for row in rows[len(pivots):] for a in row)
