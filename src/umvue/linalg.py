"""Exact rational matrices: reduced row echelon form, rank, null space and
an integer matrix-vector product.

Elimination is fraction-free and sparse. Each column is scaled by the LCM
of its denominators, which keeps the pivot columns (the column matroid) and
only rescales the kernel, and stored as {row: integer}. The columns are
then taken in order. Each is reduced, in pivot order, against the earlier
pivot vectors whose pivot rows it touches, by integer steps w <- a*w - b*v
with gcd(a, b) divided out, and it carries the integer combination of
original columns that it stands for. A column that leaves a remainder is
the next pivot; the RREF is unique, so any of the remainder's rows may be
its pivot row. A column reduced to zero leaves a kernel relation, and that
relation is its expansion over the earlier pivot columns, i.e. its RREF
column: no back-substitution is needed. A triangular or banded matrix
therefore costs about its nonzeros, not its dense size.
The null-space basis is normalized deterministically: one vector per free
column in ascending column order, its leading nonzero entry scaled to 1.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, NamedTuple, Sequence, TypeVar

Vector = tuple[Fraction, ...]
Key = TypeVar("Key")


class Matrix:
    """A rectangular matrix of Fractions. Immutable by convention."""

    __slots__ = ("nrows", "ncols", "rows", "_integer_columns")

    def __init__(self, rows: Iterable[Sequence[Fraction]], ncols: int | None = None):
        self.rows: tuple[Vector, ...] = tuple(
            tuple(x if type(x) is Fraction else Fraction(x) for x in row) for row in rows
        )
        self._integer_columns = None  # built by the first mul_vector
        self.nrows = len(self.rows)
        if self.nrows:
            widths = {len(r) for r in self.rows}
            if len(widths) != 1:
                raise ValueError("ragged rows")
            self.ncols = widths.pop()
            if ncols is not None and ncols != self.ncols:
                raise ValueError("ncols does not match rows")
        else:
            self.ncols = 0 if ncols is None else ncols

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[Fraction]], nrows: int | None = None) -> "Matrix":
        if not columns:
            return cls([], ncols=0) if nrows is None else cls([()] * nrows, ncols=0)
        return cls(zip(*columns))

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.rows)

    def columns(self) -> list[Vector]:
        return [self.column(j) for j in range(self.ncols)]

    def mul_vector(self, v: Sequence[Fraction | int]) -> Vector:
        """The exact product M.v, summed in integers.

        The first call scales each row r by the lcm d_r of its denominators
        and keeps every column as its nonzero (row, integer) pairs. Each call
        scales v to integers by the lcm s of its denominators, adds s*v_j
        times column j into integer row sums for the nonzero v_j only, and
        returns row sum r over d_r*s. So a sparse v costs the nonzeros of
        its support's columns, not the dense size of M.
        """
        if len(v) != self.ncols:
            raise ValueError("vector length does not match column count")
        if self._integer_columns is None:
            rows = [integer_form(enumerate(row)) for row in self.rows]
            columns: list[list[tuple[int, int]]] = [[] for _ in range(self.ncols)]
            for r, (_, pairs) in enumerate(rows):
                for j, a in pairs:
                    columns[j].append((r, a))
            self._integer_columns = [d for d, _ in rows], columns
        scales, columns = self._integer_columns
        s, pairs = integer_form(enumerate(v))
        sums = [0] * self.nrows
        for j, x in pairs:
            for r, a in columns[j]:
                sums[r] += a * x
        zero = Fraction(0)
        return tuple(Fraction(t, d * s) if t else zero for t, d in zip(sums, scales))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.ncols, self.rows))

    def __repr__(self) -> str:
        body = "; ".join("[" + ", ".join(str(x) for x in row) + "]" for row in self.rows)
        return f"Matrix({self.nrows}x{self.ncols}: {body})"


def integer_form(entries: Iterable[tuple[Key, Fraction | int]]) -> tuple[int, list[tuple[Key, int]]]:
    """(key, value) entries scaled to integers: the lcm s of the values'
    denominators and the (key, s*value) pairs of the nonzero values."""
    nonzero = [(k, x) for k, x in entries if x]
    s = lcm(*(x.denominator for _, x in nonzero))
    return s, [(k, x.numerator * (s // x.denominator)) for k, x in nonzero]


class RrefResult(NamedTuple):
    matrix: Matrix
    pivots: tuple[int, ...]
    rank: int


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


def rref(m: Matrix) -> RrefResult:
    """Reduced row echelon form with pivot columns (strictly increasing)."""
    ncols = m.ncols
    scales, columns = [], []
    for col in zip(*m.rows):
        s, pairs = integer_form(enumerate(col))
        scales.append(s)
        columns.append(dict(pairs))
    later = Counter(r for col in columns for r in col)  # row -> columns still to come
    zero, one = Fraction(0), Fraction(1)
    pivots: list[int] = []
    position: dict[int, int] = {}  # pivot column -> index of its pivot vector
    vectors: list[tuple[int, dict[int, int], dict[int, int]]] = []  # (row, vector, combination)
    reduced: list[list[Fraction]] = []
    for j, w in enumerate(columns):
        for r in w:
            later[r] -= 1
        comb = {j: 1}
        # each pivot vector is zero on the pivot rows before its own, so one
        # pass in pivot order clears every pivot row of w
        for r, v, vcomb in vectors:
            b = w.get(r)
            if b:
                a = v[r]
                g = gcd(a, b)
                a, b = a // g, b // g
                w, comb = _combine(a, w, b, v), _combine(a, comb, b, vcomb)
        if w:
            # the RREF is unique, so any row may hold the pivot: take the
            # one fewest later columns touch, which keeps the fill-in low
            # whatever the order of the rows
            r = min(w, key=lambda i: (later[i], i))
            position[j] = len(vectors)
            vectors.append((r, w, comb))
            pivots.append(j)
            reduced.append([zero] * ncols)
            reduced[-1][j] = one
        else:
            # sum_c comb[c] * scales[c] * column c = 0 expands column j over
            # the earlier pivots, and that expansion is its RREF column
            den = comb.pop(j) * scales[j]
            for c, x in comb.items():
                reduced[position[c]][j] = Fraction(-x * scales[c], den)
    reduced += [(zero,) * ncols] * (m.nrows - len(pivots))
    return RrefResult(Matrix(reduced, ncols=ncols), tuple(pivots), len(pivots))


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
    vector as its nonzero (column, entry) pairs in column order."""
    red, pivots, _ = reduced
    pivot_set = set(pivots)
    one = Fraction(1)
    basis = []
    for free in range(red.ncols):
        if free in pivot_set:
            continue
        # an RREF entry is nonzero only left of its column, so the lead is
        # the first pivot entry, or the free column's own 1
        support = [(pc, -row[free]) for pc, row in zip(pivots, red.rows) if row[free]]
        support.append((free, one))
        lead = support[0][1]
        basis.append(support if lead == 1 else [(k, x / lead) for k, x in support])
    return basis


def dense(v: Iterable[tuple[int, Fraction]], n: int) -> Vector:
    """The length-n vector with v's (index, entry) pairs and zeros elsewhere."""
    vec = [Fraction(0)] * n
    for k, x in v:
        vec[k] = x
    return tuple(vec)


def solve_in_span(columns: Sequence[Sequence[Fraction]], target: Sequence[Fraction]) -> list[Fraction] | None:
    """Solve sum_j c_j * columns[j] = target exactly; None if inconsistent.

    When the columns are linearly independent the solution is unique; when
    they are dependent an arbitrary-but-deterministic solution is returned
    (free coefficients set to zero).
    """
    mat = Matrix.from_columns(list(columns) + [target], nrows=len(target))
    red, pivots, _ = rref(mat)
    n = len(columns)
    if n in pivots:
        return None
    coeffs = [Fraction(0)] * n
    for r, pc in enumerate(pivots):
        coeffs[pc] = red.rows[r][n]
    return coeffs
