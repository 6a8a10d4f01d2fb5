"""Exact matrices over Scalar: determinant and Pfaffian engines.

The working engines are polynomial in the order: integer Bareiss elimination
for determinants and block elimination for Pfaffians.  One Bareiss loop
serves two entry points: det_fraction_free, which swaps rows past a zero
pivot, and leading_minors, which swaps none and reads the determinant of
every leading block of a matrix as that elimination's pivots.  The
determinant families whose matrices are nested (entry (i, j) independent of
the order) read all their orders from one leading_minors call.  The skew
families do not: the odd leading minors of a skew matrix vanish, so the
swap-free pass stops at the first step.  Cofactor expansion and
signed perfect matchings are factorial-cost oracles capped at order 8; they
scale the whole matrix by the lcm of all its denominators, expand on ints over
that one common denominator, and share no code with the engines they check.
Dodgson condensation is a further cross-check; the condensation route is
itself one of the verified identities, via

    det M * det M(interior) = det M(1,1) det M(n,n) - det M(1,n) det M(n,1),

where M(i,j) drops row i and column j and the interior minor drops both border
rows and columns (taken as 1 for 2x2 matrices).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .scalar import Scalar

COFACTOR_CAP = 8
MATCHINGS_CAP = 8


class NonSquare(ValueError):
    """Operation requires a square matrix."""


class OddOrder(ValueError):
    """Pfaffians exist for even order only."""


class OrderTooLarge(ValueError):
    """The factorial-cost reference engine is capped at small orders."""


@dataclass(frozen=True)
class Matrix:
    rows: int
    cols: int
    entries: tuple[Scalar, ...]  # row-major

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Scalar]]) -> "Matrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return cls(r, c, tuple(Fraction(x) for row in rows for x in row))

    @classmethod
    def build(cls, rows: int, cols: int, fn: Callable[[int, int], Scalar]) -> "Matrix":
        return cls(
            rows, cols, tuple(Fraction(fn(i, j)) for i in range(rows) for j in range(cols))
        )

    def __getitem__(self, ij: tuple[int, int]) -> Scalar:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i},{j}) out of range")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Scalar, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_lists(self) -> list[list[Scalar]]:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols


class SkewMatrix(Matrix):
    """Square matrix with M[i,j] = -M[j,i] (checked at construction)."""

    def __post_init__(self):
        super().__post_init__()
        if self.rows != self.cols:
            raise NonSquare("skew matrix must be square")
        for i in range(self.rows):
            for j in range(i, self.cols):
                if self[i, j] != -self[j, i]:
                    raise ValueError(f"not skew-symmetric at ({i},{j})")

    @classmethod
    def from_upper(cls, order: int, fn: Callable[[int, int], Scalar]) -> "SkewMatrix":
        """Build from the strict upper triangle, f(i,j) with i < j."""
        rows = [[Fraction(0)] * order for _ in range(order)]
        for i in range(order):
            for j in range(i + 1, order):
                v = Fraction(fn(i, j))
                rows[i][j] = v
                rows[j][i] = -v
        return cls(order, order, tuple(x for row in rows for x in row))


def minor(M: Matrix, drop_rows: Iterable[int], drop_cols: Iterable[int]) -> Matrix:
    """Submatrix with the given rows and columns removed."""
    drop_rows, drop_cols = tuple(drop_rows), tuple(drop_cols)
    dr, dc = set(drop_rows), set(drop_cols)
    if len(dr) != len(drop_rows) or len(dc) != len(drop_cols):
        raise IndexError("duplicate indices in minor")
    for i in dr:
        if not 0 <= i < M.rows:
            raise IndexError(f"row {i} out of range")
    for j in dc:
        if not 0 <= j < M.cols:
            raise IndexError(f"column {j} out of range")
    keep_r = [i for i in range(M.rows) if i not in dr]
    keep_c = [j for j in range(M.cols) if j not in dc]
    return Matrix(
        len(keep_r),
        len(keep_c),
        tuple(M[i, j] for i in keep_r for j in keep_c),
    )


def _require_square(M: Matrix):
    if not M.is_square:
        raise NonSquare(f"{M.rows}x{M.cols} matrix is not square")


def _integer_rows(M: Matrix) -> tuple[list[list[int]], int]:
    """The rows of L*M as ints, for L the lcm of the denominators of all entries.

    Only the factorial-cost oracles use this whole-matrix scaling; the
    engines they check scale their own way.
    """
    lcm = math.lcm(*(x.denominator for x in M.entries))
    rows = [[x.numerator * (lcm // x.denominator) for x in M.row(i)] for i in range(M.rows)]
    return rows, lcm


def det_cofactor(M: Matrix) -> Scalar:
    """Laplace expansion along the first row; reference oracle, order <= 8.

    The expansion runs on the integer matrix L*M, and det M = det(L*M) / L^n.
    """
    _require_square(M)
    if M.rows > COFACTOR_CAP:
        raise OrderTooLarge(f"cofactor expansion capped at order {COFACTOR_CAP}")
    rows, lcm = _integer_rows(M)
    return Fraction(_det_laplace(rows), lcm**M.rows)


def _det_laplace(rows: list[list[int]]) -> int:
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    sign = 1
    for j in range(n):
        a = rows[0][j]
        if a != 0:
            sub = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
            total += sign * a * _det_laplace(sub)
        sign = -sign
    return total


def _row_scaled(M: Matrix) -> tuple[list[list[int]], list[int]]:
    """The rows of M as ints, each scaled by the lcm of its own denominators,
    and those row scales."""
    rows, scales = [], []
    for row in M.to_lists():
        s = math.lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (s // x.denominator) for x in row])
        scales.append(s)
    return rows, scales


def _bareiss(a: list[list[int]], pivoting: bool) -> Iterator[int]:
    """Bareiss fraction-free elimination of the square int rows `a`, in place.

    Yields the pivot of each step k = 0..n-1, read before the step, times the
    sign of the row swaps so far.  By Sylvester's identity that pivot is the
    determinant of the leading (k+1)x(k+1) block of the row-swapped matrix,
    so every division is exact (``//``) and the last value is det a.  With
    `pivoting`, a zero pivot is first swapped for a nonzero entry below it.
    A zero pivot that remains ends the elimination: the leading block, and
    with pivoting the whole matrix, is singular.
    """
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n):
        if pivoting and a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
        pivot_row = a[k]
        pivot = pivot_row[k]
        yield sign * pivot
        if pivot == 0:
            return
        for i in range(k + 1, n):
            row = a[i]
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - f * pivot_row[j]) // prev
            row[k] = 0
        prev = pivot


def det_fraction_free(M: Matrix) -> Scalar:
    """Bareiss fraction-free elimination on integers, with row-swap pivoting.

    Each row is scaled by the lcm of its denominators, so elimination runs on
    Python ints; the scaling is divided out at the end.  A column with no
    available pivot proves the matrix singular, so the determinant is 0
    outright.
    """
    _require_square(M)
    a, scales = _row_scaled(M)
    det = 1
    for det in _bareiss(a, pivoting=True):
        pass
    return Fraction(det, math.prod(scales))


def leading_minors(M: Matrix) -> list[Scalar]:
    """det of the leading k x k block of M for k = 1..n, from one elimination.

    Bareiss elimination without row swaps on the row-scaled integer matrix
    reads the order-k leading minor of that matrix as its pivot before step
    k-1, and det M_k is that pivot over the product of the first k row
    scales.  A zero pivot makes its minor 0 and ends the elimination; each
    later order then falls back to det_fraction_free of its leading block.
    """
    _require_square(M)
    n = M.rows
    a, scales = _row_scaled(M)
    out = []
    scale = 1
    for s, pivot in zip(scales, _bareiss(a, pivoting=False)):
        scale *= s
        out.append(Fraction(pivot, scale))
    for k in range(len(out) + 1, n + 1):
        out.append(det_fraction_free(minor(M, range(k, n), range(k, n))))
    return out


def det_condensation(M: Matrix) -> Scalar:
    """Iterated condensation of 2x2 connected minors.

    Each step replaces the matrix by its 2x2 connected minors, divided
    elementwise by the interior of the matrix two steps back.  A vanishing
    interior entry makes the division impossible, in which case the whole call
    falls back to fraction-free elimination.
    """
    _require_square(M)
    n = M.rows
    if n == 0:
        return Fraction(1)
    if n == 1:
        return M[0, 0]
    cur = M.to_lists()
    prev: list[list[Scalar]] | None = None
    try:
        while len(cur) > 1:
            m = len(cur) - 1
            nxt = [
                [
                    cur[i][j] * cur[i + 1][j + 1] - cur[i][j + 1] * cur[i + 1][j]
                    for j in range(m)
                ]
                for i in range(m)
            ]
            if prev is not None:
                for i in range(m):
                    for j in range(m):
                        nxt[i][j] /= prev[i + 1][j + 1]
            prev, cur = cur, nxt
    except ZeroDivisionError:
        return det_fraction_free(M)
    return cur[0][0]


def desnanot_jacobi_residual(M: Matrix) -> Scalar:
    """det M * det(interior) - [det M(1,1) det M(n,n) - det M(1,n) det M(n,1)].

    Identically zero for every square matrix of order >= 2 (the interior minor
    is taken as 1 at order 2).
    """
    _require_square(M)
    n = M.rows
    if n < 2:
        raise NonSquare("relation needs order >= 2")
    last = n - 1
    det = det_fraction_free
    lhs = det(M) * det(minor(M, (0, last), (0, last)))
    rhs = det(minor(M, (0,), (0,))) * det(minor(M, (last,), (last,))) - det(
        minor(M, (0,), (last,))
    ) * det(minor(M, (last,), (0,)))
    return lhs - rhs


def _check_even_skew(M: Matrix):
    _require_square(M)
    if M.rows % 2:
        raise OddOrder("Pfaffian requires even order")


def perfect_matchings(items: Sequence[int]):
    """Yield all perfect matchings of `items` as lists of (i, j) pairs, i < j."""
    items = list(items)
    if not items:
        yield []
        return
    first = items[0]
    for idx in range(1, len(items)):
        rest = items[1:idx] + items[idx + 1 :]
        for rest_match in perfect_matchings(rest):
            yield [(first, items[idx])] + rest_match


def matching_sign(pairs: Sequence[tuple[int, int]]) -> int:
    """(-1)^(number of crossings): pairs (i,j), (i',j') with i < i' < j < j'."""
    crossings = 0
    for idx, (i, j) in enumerate(pairs):
        for i2, j2 in pairs[idx + 1 :]:
            lo, hi = (i, j) if i < i2 else (i2, j2)
            a, b = (i2, j2) if i < i2 else (i, j)
            if lo < a < hi < b:
                crossings += 1
    return -1 if crossings % 2 else 1


def pfaffian_matchings(M: Matrix) -> Scalar:
    """Pfaffian as the signed sum over perfect matchings (order <= 8).

    The sum runs on the integer matrix L*M, and pf M = pf(L*M) / L^(n/2).
    """
    _check_even_skew(M)
    if M.rows > MATCHINGS_CAP:
        raise OrderTooLarge(f"matching enumeration capped at order {MATCHINGS_CAP}")
    rows, lcm = _integer_rows(M)
    total = 0
    for pairs in perfect_matchings(range(M.rows)):
        term = matching_sign(pairs)
        for i, j in pairs:
            term *= rows[i][j]
        total += term
    return Fraction(total, lcm ** (M.rows // 2))


def pfaffian_expansion(M: Matrix) -> Scalar:
    """Pfaffian by block elimination of the leading row pair, O(n^3).

    With a = D[0][1] != 0, pf D = a * pf D', where D' is the Schur complement
    on rows and columns 2..n-1:

        D'[i][j] = D[i][j] + (D[1][i] D[0][j] - D[0][i] D[1][j]) / a.

    A zero pivot is replaced by swapping row and column 1 with those of a
    later nonzero entry of row 0, which flips the sign; a zero row 0 makes
    the Pfaffian 0.
    """
    _check_even_skew(M)
    n = M.rows
    d = M.to_lists()
    out = Fraction(1)
    for k in range(0, n, 2):
        row0 = d[k]
        p = next((j for j in range(k + 1, n) if row0[j] != 0), None)
        if p is None:
            return Fraction(0)
        if p != k + 1:
            d[k + 1], d[p] = d[p], d[k + 1]
            for row in d[k:]:
                row[k + 1], row[p] = row[p], row[k + 1]
            out = -out
        row1 = d[k + 1]
        a = row0[k + 1]
        out *= a
        for i in range(k + 2, n):
            c0i, c1i = row0[i], row1[i]
            row = d[i]
            for j in range(i + 1, n):
                v = row[j] + (c1i * row0[j] - c0i * row1[j]) / a
                row[j] = v
                d[j][i] = -v
    return out
