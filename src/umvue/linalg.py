"""Exact rational matrices: reduced row echelon form, rank, null space.

Elimination is fraction-free: each column is scaled by the LCM of its
denominators, which keeps the pivot columns (the column matroid) and only
rescales the kernel, and the integer matrix is reduced by Gauss-Jordan with
Bareiss's exact division by the previous pivot (Bareiss 1968; Nakos, Turner
and Williams 1997). No gcd is taken until the rational RREF is read back.
The null-space basis is normalized deterministically: one vector per free
column in ascending column order, its leading nonzero entry scaled to 1.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, NamedTuple, Sequence

Vector = tuple[Fraction, ...]


class Matrix:
    """A rectangular matrix of Fractions. Immutable by convention."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows: Iterable[Sequence[Fraction]], ncols: int | None = None):
        self.rows: tuple[Vector, ...] = tuple(
            tuple(x if type(x) is Fraction else Fraction(x) for x in row) for row in rows
        )
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

    def mul_vector(self, v: Sequence[Fraction]) -> Vector:
        if len(v) != self.ncols:
            raise ValueError("vector length does not match column count")
        return tuple(sum((a * b for a, b in zip(row, v) if a and b), Fraction(0)) for row in self.rows)

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


class RrefResult(NamedTuple):
    matrix: Matrix
    pivots: tuple[int, ...]
    rank: int


def bareiss(rows: list[list[int]]) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan on integer rows, in place; each division
    by the previous pivot is exact. Returns the pivot columns and the last
    pivot d: row r < rank is then d times row r of the RREF, the rest are 0."""
    pivots: list[int] = []
    d = 1
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        found = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if found is None:
            continue
        rows[r], rows[found] = rows[found], rows[r]
        prow, p = rows[r], rows[r][c]
        for i, row in enumerate(rows):
            if i != r:
                f = row[c]
                rows[i] = [(p * a - f * b) // d for a, b in zip(row, prow)]
        pivots.append(c)
        d = p
    return pivots, d


def rref(m: Matrix) -> RrefResult:
    """Reduced row echelon form with pivot columns (strictly increasing)."""
    scales = [lcm(*(x.denominator for x in col)) for col in zip(*m.rows)]
    rows = [[x.numerator * (s // x.denominator) for x, s in zip(row, scales)] for row in m.rows]
    pivots, d = bareiss(rows)
    zero = Fraction(0)
    # row r of the scaled RREF is rows[r] / d: unscale column j and the pivot
    reduced = [
        tuple(Fraction(a * scales[pc], d * s) if a else zero for a, s in zip(rows[r], scales))
        for r, pc in enumerate(pivots)
    ]
    reduced += [(zero,) * m.ncols] * (m.nrows - len(pivots))
    return RrefResult(Matrix(reduced, ncols=m.ncols), tuple(pivots), len(pivots))


def rank(m: Matrix) -> int:
    return rref(m).rank


def null_space(m: Matrix) -> list[Vector]:
    """Exact basis of {x : m.x = 0}; empty list iff the kernel is trivial.

    One basis vector per free column, ascending; each vector is scaled so its
    first nonzero entry equals 1.
    """
    return kernel(rref(m))


def kernel(reduced: RrefResult) -> list[Vector]:
    """The null-space basis of `null_space`, read off an existing RREF."""
    red, pivots, _ = reduced
    pivot_set = set(pivots)
    basis: list[Vector] = []
    for free in range(red.ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * red.ncols
        vec[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red.rows[r][free]
        lead = next(x for x in vec if x != 0)
        basis.append(tuple(x / lead for x in vec))
    return basis


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
