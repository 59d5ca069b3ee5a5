"""Exact rational matrices: an elimination to pivots, kernel relations and
pivot vectors, the RREF, rank, null space and span coordinates read off it,
and an integer matrix-vector product.

A matrix is stored only as integer columns: column j scaled by the LCM s_j
of its denominators, as {row: integer}; dense rows are built when read.
Scaling a column keeps the pivot columns (the column matroid) and only
rescales the kernel. The elimination and the product both read the columns.

Elimination is fraction-free and sparse. The columns are taken in order.
Each is reduced, in pivot order, against the earlier pivot vectors whose
pivot rows it touches, by integer steps w <- a*w - b*v with gcd(a, b)
divided out, and it carries the integer combination of the rational columns
that it stands for, starting at {j: s_j}. A column that leaves a remainder
is the next pivot; the RREF is unique, so any of the remainder's rows may be
its pivot row. A column j reduced to zero leaves a relation
sum_c x_c * column c = 0 on j and the earlier pivots, made primitive with
x_j > 0: -x_c/x_j is j's RREF column and x/x_lead its kernel vector, with no
back-substitution, so a triangular or banded matrix costs about its
nonzeros. `rref` is pure: the pivot vectors are part of its result, and
`coordinates` reduces any other vector against them.
The null-space basis is normalized deterministically: one vector per free
column in ascending column order, its leading nonzero entry scaled to 1.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, TypeVar

Vector = tuple[Fraction, ...]
Key = TypeVar("Key")


class Matrix:
    """A rectangular matrix of Fractions, kept as integer columns. Immutable by convention."""

    __slots__ = ("nrows", "ncols", "integer_columns", "_rows")

    def __init__(self, rows: Iterable[Sequence[Fraction]], ncols: int | None = None):
        rows = [[x if type(x) is Fraction else Fraction(x) for x in row] for row in rows]
        if len({len(r) for r in rows}) > 1:
            raise ValueError("ragged rows")
        if rows and ncols not in (None, len(rows[0])):
            raise ValueError("ncols does not match rows")
        self._scale(len(rows), map(enumerate, zip(*rows)) if rows else [()] * (ncols or 0))

    @classmethod
    def from_sparse_columns(cls, nrows: int, columns: Iterable[Iterable[tuple[int, Fraction]]]) -> Matrix:
        """The matrix with one column per item, given as (row, entry) pairs, each row at most once."""
        m = cls.__new__(cls)
        m._scale(nrows, columns)
        return m

    def _scale(self, nrows: int, columns: Iterable[Iterable[tuple[int, Fraction]]]) -> None:
        self.nrows = nrows
        # per column j: the lcm s_j of its denominators, and s_j times its nonzero entries as {row: integer}
        self.integer_columns = [(s, dict(pairs)) for s, pairs in map(integer_form, columns)]
        self.ncols = len(self.integer_columns)
        self._rows = None  # dense rows, built on first read

    @property
    def rows(self) -> tuple[Vector, ...]:
        if self._rows is None:
            self._rows = tuple(zip(*self.columns())) if self.ncols else ((),) * self.nrows
        return self._rows

    def columns(self) -> list[Vector]:
        return [dense([(r, Fraction(x, s)) for r, x in c.items()], self.nrows) for s, c in self.integer_columns]

    def mul_vector(self, v: Sequence[Fraction | int]) -> Vector:
        """The exact product M.v, summed in integers.

        With v_j = a_j/b_j, integer column j equals s_j times M's column
        j, so s = lcm(b_j*s_j) over the nonzero v_j makes s*v_j*M_j equal
        a_j*(s // (b_j*s_j)) times integer column j. Those are added into
        integer row sums, and row sum r over s is the product. So a sparse v
        costs the nonzeros of its support's columns, not the dense size of M.
        """
        if len(v) != self.ncols:
            raise ValueError("vector length does not match column count")
        columns = self.integer_columns
        terms = [(x.numerator, x.denominator * columns[j][0], columns[j][1]) for j, x in enumerate(v) if x]
        s = lcm(*(d for _, d, _ in terms))
        sums = [0] * self.nrows
        for a, d, column in terms:
            x = a * (s // d)
            for r, c in column.items():
                sums[r] += c * x
        zero = Fraction(0)
        return tuple(Fraction(t, s) if t else zero for t in sums)

    def __eq__(self, other) -> bool:
        # each column's (lcm, entries) is canonical, so this compares the rows
        return (isinstance(other, Matrix) and self.nrows == other.nrows
                and self.integer_columns == other.integer_columns)

    def __hash__(self) -> int:
        return hash((self.nrows, tuple((s, frozenset(c.items())) for s, c in self.integer_columns)))

    def __repr__(self) -> str:
        body = "; ".join("[" + ", ".join(str(x) for x in row) + "]" for row in self.rows)
        return f"Matrix({self.nrows}x{self.ncols}: {body})"


def integer_form(entries: Iterable[tuple[Key, Fraction | int]]) -> tuple[int, list[tuple[Key, int]]]:
    """(key, value) entries scaled to integers: the lcm s of the values'
    denominators and the (key, s*value) pairs of the nonzero values."""
    ratios = [(k, r) for k, x in entries if (r := x.as_integer_ratio())[0]]
    s = lcm(*[d for _, (_, d) in ratios])
    return s, [(k, n * (s // d)) for k, (n, d) in ratios]


Relation = tuple[tuple[int, int], ...]
PivotVector = tuple[int, dict[int, int], dict[int, int]]


@dataclass(frozen=True)
class RrefResult:
    """Pivot columns (strictly increasing), one relation per non-pivot
    column j in column order (its (column, integer) pairs in ascending column
    order, j last, primitive, x_j > 0) and the pivot vectors as (pivot row,
    vector, combination of the rational columns), each zero on the earlier
    pivot rows. == and hash read only the pivots and relations."""

    nrows: int
    ncols: int
    pivots: tuple[int, ...]
    relations: tuple[Relation, ...]
    pivot_vectors: tuple[PivotVector, ...] = field(compare=False, repr=False)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def matrix(self) -> Matrix:
        """The dense RREF, built on each read: row i holds 1 at pivot c =
        pivots[i], and -x_c/x_j in each non-pivot column j whose relation
        has an entry x_c at c."""
        rows = [[Fraction(0)] * self.ncols for _ in range(self.nrows)]
        row_of = {}
        for i, c in enumerate(self.pivots):
            rows[i][c] = Fraction(1)
            row_of[c] = i
        for *expansion, (j, xj) in self.relations:
            for c, x in expansion:
                rows[row_of[c]][j] = Fraction(-x, xj)
        return Matrix(rows, ncols=self.ncols)


def _combine(a: int, x: dict[int, int], b: int, y: dict[int, int]) -> dict[int, int]:
    """The sparse integer vector a*x - b*y, without its zero entries."""
    out = {i: a * xi for i, xi in x.items()} if a != 1 else dict(x)
    for i, yi in y.items():
        t = out.get(i, 0) - b * yi
        if t:
            out[i] = t
        else:
            del out[i]
    return out


def _reduce(vectors: Iterable[PivotVector], w: dict[int, int],
            comb: dict[int, int]) -> tuple[dict[int, int], dict[int, int]]:
    """w and its combination, reduced in one pass in pivot order: each pivot
    vector is zero on the earlier pivot rows, so this clears all of w's."""
    for r, v, vcomb in vectors:
        b = w.get(r)
        if b:
            a = v[r]
            g = gcd(a, b)
            a, b = a // g, b // g
            w, comb = _combine(a, w, b, v), _combine(a, comb, b, vcomb)
    return w, comb


def rref(m: Matrix) -> RrefResult:
    """The pivot columns, kernel relations and pivot vectors of m's RREF."""
    columns = m.integer_columns
    later = Counter(r for _, w in columns for r in w)  # row -> columns still to come
    pivots: list[int] = []
    vectors: list[PivotVector] = []
    relations: list[Relation] = []
    for j, (s, w) in enumerate(columns):
        for r in w:
            later[r] -= 1
        w, comb = _reduce(vectors, w, {j: s})  # w is s_j times column j
        if w:
            # the RREF is unique, so any row may hold the pivot: take the
            # one fewest later columns touch, which keeps the fill-in low
            # whatever the order of the rows
            r = min(w, key=lambda i: (later[i], i))
            vectors.append((r, w, comb))
            pivots.append(j)
        else:
            # sum_c comb[c] * column c = 0, on j and earlier pivots; made
            # primitive with x_j > 0, so equal RREFs give equal relations
            relation = sorted(comb.items())
            g = gcd(*comb.values())
            if relation[-1][1] < 0:
                g = -g
            relations.append(tuple((c, x // g) for c, x in relation))
    return RrefResult(m.nrows, m.ncols, tuple(pivots), tuple(relations), tuple(vectors))


def coordinates(reduced: RrefResult, v: Sequence[Fraction]) -> dict[int, Fraction] | None:
    """v over the pivot columns as {pivot: nonzero coefficient}, or None off
    the column space. v scaled by s to integers and reduced to zero leaves
    x*v + sum_c y_c*column c = 0, so its coefficient is -y_c/x."""
    if len(v) != reduced.nrows:
        raise ValueError("vector length does not match row count")
    s, pairs = integer_form(enumerate(v))
    w, comb = _reduce(reduced.pivot_vectors, dict(pairs), {-1: s})  # -1 stands for v
    if w:
        return None
    x = comb.pop(-1)
    return {c: Fraction(-y, x) for c, y in sorted(comb.items())}


def rank(m: Matrix) -> int:
    return rref(m).rank


def null_space(m: Matrix) -> list[Vector]:
    """Exact basis of {x : m.x = 0}; empty list iff the kernel is trivial.

    One basis vector per free column, ascending; each vector is scaled so its
    first nonzero entry equals 1.
    """
    return [dense(v, m.ncols) for v in kernel(rref(m))]


def kernel(reduced: RrefResult) -> list[list[tuple[int, Fraction]]]:
    """The null-space basis of `null_space`, read off an existing RREF, each
    vector as its nonzero (column, entry) pairs in column order: a relation
    divided by its leading entry."""
    return [[(c, Fraction(x, relation[0][1])) for c, x in relation] for relation in reduced.relations]


def dense(v: Iterable[tuple[int, Fraction]], n: int) -> Vector:
    """The length-n vector with v's (index, entry) pairs and zeros elsewhere."""
    vec = [Fraction(0)] * n
    for k, x in v:
        vec[k] = x
    return tuple(vec)


def solve_in_span(columns: Sequence[Sequence[Fraction]], target: Sequence[Fraction]) -> list[Fraction] | None:
    """Solve sum_j c_j * columns[j] = target exactly; None if inconsistent.
    Free coefficients are 0, so dependent columns give one fixed solution."""
    if any(len(column) != len(target) for column in columns):
        raise ValueError("column and target lengths differ")
    found = coordinates(rref(Matrix.from_sparse_columns(len(target), map(enumerate, columns))), target)
    return None if found is None else [found.get(j, Fraction(0)) for j in range(len(columns))]
