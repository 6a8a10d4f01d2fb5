"""Exact matrices over Scalar: determinant and Pfaffian engines.

The working engines are polynomial in the order: integer Bareiss elimination
for determinants and its Pfaffian analogue, fraction-free elimination of one
row pair at a time, for Pfaffians.  One Bareiss loop
serves two entry points: det_fraction_free, which swaps rows past a zero
pivot, and leading_minors, which swaps none and reads the determinant of
every leading block of a matrix as that elimination's pivots.  The
determinant families whose matrices are nested (entry (i, j) independent of
the order) read all their orders from one leading_minors call.  One Pfaffian
loop likewise serves pfaffian_expansion, which swaps past a zero pivot, and
leading_pfaffians, which swaps none and reads the Pfaffian of every leading
2k x 2k block as its pivots.  The odd leading minors
of a skew matrix vanish, so its even ones come from leading_minors of
pair_swapped(M), whose row pairs are swapped.

Each engine takes an optional prime modulus p, and puts each row over one
denominator, its row scale, by scalar._common_denominator: exactly, or with
p from entries that may be Fractions or scalar.Residues.  The same loop
then runs on ints, or on ints mod p, and returns a canonical Fraction or a
Residue.  Mod p the loop divides by nothing: it leaves each step's rows
times a product of earlier pivots, the pass's unit, which the Residue
carries in its denominator.  A pivot that vanishes mod p is treated as
zero, so a swap-free pass falls back there exactly as it does at an exact
zero, and every pivot in a unit is nonzero mod p.  Both kinds of value come
from scalar._ratio, as the closed forms' do.  The engines invert nothing
mod p, neither a pivot nor an entry's denominator.

Three oracles check the engines, each one algorithm that shares no code with
them.  Each scales the whole matrix by one common denominator, and runs on
ints over it: the lcm of all its denominators, or with a prime p their
product mod p.  Cofactor expansion keeps each column-subset minor once and
the matching expansion each partial matching once, so both cost O(n 2^n);
they are capped at order 8.  Dodgson condensation reads every leading minor
from one pass, dividing exactly by interior connected minors, or mod p
multiplying by their inverses; where one of them vanishes (mod p, where it
is ≡ 0), it leaves out the orders whose leading blocks contain the minor
that divides by it.  The condensation relation is itself one of the
verified identities, via

    det M * det M(interior) = det M(1,1) det M(n,n) - det M(1,n) det M(n,1),

where M(i,j) drops row i and column j and the interior minor drops both border
rows and columns (taken as 1 for 2x2 matrices).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from .scalar import Residue, Scalar, _common_denominator, _ratio

COFACTOR_CAP = 8
MATCHINGS_CAP = 8


class NonSquare(ValueError):
    """Operation requires a square matrix."""


class OddOrder(ValueError):
    """Pfaffians exist for even order only."""


class OrderTooLarge(ValueError):
    """The exponential-cost oracles are capped at small orders."""


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
    def build(cls, rows: int, cols: int, fn: Callable[[int, int], Scalar]) -> "Matrix":
        return cls(
            rows, cols, tuple([Fraction(fn(i, j)) for i in range(rows) for j in range(cols)])
        )

    @classmethod
    def _trusted(cls, rows: int, cols: int, entries: tuple[Scalar, ...]) -> "Matrix":
        """An instance from entries valid by construction: __post_init__ is skipped."""
        M = object.__new__(cls)
        for name, value in (("rows", rows), ("cols", cols), ("entries", entries)):
            object.__setattr__(M, name, value)
        return M

    def leading(self, k: int) -> "Matrix":
        """The leading k x k block, of the same class (a block of a skew matrix is skew)."""
        if not 0 <= k <= min(self.rows, self.cols):
            raise IndexError(f"no leading block of order {k}")
        c = self.cols
        return self._trusted(
            k, k, tuple([x for i in range(k) for x in self.entries[i * c : i * c + k]])
        )

    def __getitem__(self, ij: tuple[int, int]) -> Scalar:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i},{j}) out of range")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Scalar, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols


class SkewMatrix(Matrix):
    """Square matrix with M[i,j] = -M[j,i] (checked at construction, except by
    from_upper and leading, whose results are skew by construction)."""

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
        """Build from the strict upper triangle, f(i,j) with i < j.  An int or
        Residue entry is kept as it is; any other becomes a Fraction."""
        if order < 0:
            raise ValueError("dimensions must be nonnegative")
        rows = [[Fraction(0)] * order for _ in range(order)]
        for i in range(order):
            for j in range(i + 1, order):
                v = fn(i, j)
                v = v if isinstance(v, (int, Residue)) else Fraction(v)
                rows[i][j] = v
                rows[j][i] = -v
        return cls._trusted(order, order, tuple([x for row in rows for x in row]))


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
        tuple([M[i, j] for i in keep_r for j in keep_c]),
    )


def _require_square(M: Matrix):
    if not M.is_square:
        raise NonSquare(f"{M.rows}x{M.cols} matrix is not square")


def _integer_rows(M: Matrix, p: int | None = None) -> tuple[list[list[int]], int]:
    """The rows of L*M as ints, and L: the lcm of the denominators of all
    entries, or with a prime p their product, the rows then reduced mod p.

    Only the oracles use this whole-matrix scaling; the engines they check
    scale their own way.
    """
    flat, scale = _common_denominator(M.entries, p)
    return [flat[i * M.cols : (i + 1) * M.cols] for i in range(M.rows)], scale


def det_cofactor(M: Matrix, p: int | None = None) -> Scalar | Residue:
    """Laplace expansion along rows 0..n-1; reference oracle, order <= 8.

    After row k, `minors` maps each (k+1)-subset of columns, as a bitmask, to
    the minor of L*M on rows 0..k and those columns: expanding that minor
    along row k gives a[k][j] times the minor on the other columns, with sign
    (-1)^(number of those columns right of j).  Each minor is formed once,
    O(n 2^n) work, and det M = det(L*M) / L^n.  With a prime p the minors
    are taken mod p and det M is a Residue.
    """
    _require_square(M)
    n = M.rows
    if n > COFACTOR_CAP:
        raise OrderTooLarge(f"cofactor expansion capped at order {COFACTOR_CAP}")
    rows, scale = _integer_rows(M, p)
    minors = {0: 1}
    for row in rows:
        nxt: dict[int, int] = {}
        for cols, d in minors.items():
            for j, a in enumerate(row):
                bit = 1 << j
                if a and not cols & bit:
                    term = -a * d if (cols >> j).bit_count() & 1 else a * d
                    nxt[cols | bit] = nxt.get(cols | bit, 0) + term
        minors = nxt if p is None else {cols: d % p for cols, d in nxt.items()}
    return _ratio([minors.get((1 << n) - 1, 0)], [scale] * n, p)


def _row_scaled(M: Matrix, p: int | None = None) -> tuple[list[list[int]], list[int]]:
    """The rows of M as ints, each over its own denominator, and those row scales."""
    scaled = [_common_denominator(M.row(i), p) for i in range(M.rows)]
    return [row for row, _ in scaled], [s for _, s in scaled]


def _bareiss(
    a: list[list[int]], pivoting: bool, p: int | None = None
) -> Iterator[tuple[int, int]]:
    """Bareiss fraction-free elimination of the square int rows `a`, in place.

    Yields (pivot, unit) for each step k = 0..n-1, read before the step, the
    pivot times the sign of the row swaps so far.  By Sylvester's identity
    pivot / unit is the determinant of the leading (k+1)x(k+1) block of the
    row-swapped matrix, and the last one is det a.  Exactly, every unit is 1
    and every division is exact (``//``).  With a prime p the rows are
    residues mod p, and no pivot is inverted: step k stores its rows as the
    Bareiss rows times e_k, with e_0 = e_1 = 1 and

        e_(k+1) = e_k^2 * (stored pivot of step k-1),

    so the update past pivot k multiplies by e_(k-1) where it would divide by
    the previous pivot, and e_k is the unit of step k.  With `pivoting`, a
    zero pivot is first swapped for a nonzero entry below it.  A zero pivot
    that remains ends the elimination: the leading block, and with pivoting
    the whole matrix, is singular (mod p, with a prime).  So every pivot in
    a unit is nonzero mod p, and every unit is.
    """
    n = len(a)
    sign = 1
    prev = 1  # the stored pivot of the previous step
    unit = prev_unit = 1  # mod p: e_k and e_(k-1)
    for k in range(n):
        if pivoting and a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
        pivot_row = a[k]
        pivot = pivot_row[k]
        yield sign * pivot, unit
        if pivot == 0:
            return
        # mod p, both factors carry the multiplication by e_(k-1)
        pe = pivot if p is None else pivot * prev_unit % p
        for i in range(k + 1, n):
            row = a[i]
            f = row[k] if p is None else row[k] * prev_unit % p
            for j in range(k + 1, n):
                v = row[j] * pe - f * pivot_row[j]
                row[j] = v // prev if p is None else v % p
            row[k] = 0
        if p is not None:
            prev_unit, unit = unit, unit * unit * prev % p
        prev = pivot


def det_fraction_free(M: Matrix, p: int | None = None) -> Scalar | Residue:
    """Bareiss fraction-free elimination on integers, with row-swap pivoting.

    Each row is scaled as _row_scaled scales it, so elimination runs on
    Python ints; the scaling is divided out at the end.  A column with no
    available pivot proves the matrix singular, so the determinant is 0
    outright.  With a prime p the elimination runs mod p and returns det M
    as a Residue, over the row scales and the last pivot's unit.
    """
    _require_square(M)
    a, scales = _row_scaled(M, p)
    det = unit = 1
    for det, unit in _bareiss(a, pivoting=True, p=p):
        pass
    return _ratio([det], [*scales, unit], p)


def leading_minors(M: Matrix, p: int | None = None) -> list[Scalar | Residue]:
    """det of the leading k x k block of M for k = 1..n, from one elimination.

    Bareiss elimination without row swaps on the row-scaled integer matrix
    reads the order-k leading minor of that matrix as its pivot before step
    k-1, and det M_k is that pivot over the product of the first k row
    scales.  A zero pivot makes its minor 0 and ends the elimination; each
    later order then falls back to det_fraction_free of its leading block.
    With a prime p both passes run mod p and the minors are Residues.
    """
    _require_square(M)
    n = M.rows
    a, scales = _row_scaled(M, p)
    out = []
    scale = 1
    for s, (pivot, unit) in zip(scales, _bareiss(a, pivoting=False, p=p)):
        scale *= s
        out.append(_ratio([pivot], [scale, unit], p))
    for k in range(len(out) + 1, n + 1):
        out.append(det_fraction_free(M.leading(k), p))
    return out


def pair_swapped(M: Matrix) -> Matrix:
    """M with rows 2i and 2i+1 swapped, for each i.

    The leading 2k x 2k block of the result is that of M after k row swaps,
    so its leading minor of order 2k is (-1)^k det M_2k.  For skew M, whose
    odd leading minors vanish, the odd leading minors of the result are
    generically nonzero, so one leading_minors pass reads every even leading
    minor of M.
    """
    if M.rows % 2:
        raise OddOrder("row pairs need an even row count")
    return Matrix(M.rows, M.cols, tuple([x for i in range(M.rows) for x in M.row(i ^ 1)]))


def det_condensation(M: Matrix, p: int | None = None) -> list[Scalar | Residue]:
    """det of the leading k x k block of M for k = 1..r, from one Dodgson
    condensation of the integer matrix L*M, where r <= n is the highest order
    whose block's own condensation divides by no zero.

    Each step replaces the matrix by its 2x2 connected minors, divided
    elementwise by the interior of the matrix two steps back.  After k steps
    the entries are the (k+1) x (k+1) connected minors of L*M, so every
    division is exact (``//``), and entry (0, 0) is L^(k+1) det M_(k+1).  A
    vanishing interior entry leaves the connected minor that divides by it
    unknown, and with it every leading block that contains that minor's
    rows and columns: those orders are left out, so the list is shorter
    than n exactly when some block's condensation divides by a zero.  With a
    prime p the entries are residues mod p, each division multiplies by the
    inverse of the interior entry, an interior entry ≡ 0 mod p leaves its
    orders out as a zero does, and the minors are Residues.
    """
    _require_square(M)
    cur, common = _integer_rows(M, p)
    prev: list[list[int]] | None = None
    out = []
    scale = 1
    reach = M.rows
    while len(out) < reach:
        scale *= common
        out.append(_ratio([cur[0][0]], [scale], p))
        m = len(cur) - 1
        nxt = []
        for i in range(m):
            top, bottom = cur[i], cur[i + 1]
            row = [top[j] * bottom[j + 1] - top[j + 1] * bottom[j] for j in range(m)]
            if prev is not None:
                interior = prev[i + 1][1:-1]
                if 0 in interior:
                    # the minor at (i, j) of order len(out) + 1 first lies in
                    # the block of order len(out) + 1 + max(i, j)
                    j = interior.index(0)
                    reach = min(reach, len(out) + max(i, j))
                if p is None:
                    row = [v // d if d else 0 for v, d in zip(row, interior)]
                else:
                    row = [v * pow(d, -1, p) if d else 0 for v, d in zip(row, interior)]
            nxt.append(row if p is None else [v % p for v in row])
        prev, cur = cur, nxt
    return out


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


def pfaffian_matchings(M: Matrix, p: int | None = None) -> Scalar | Residue:
    """Pfaffian as the signed sum over perfect matchings (order <= 8).

    Pairing the lowest unmatched index i with a later unmatched j takes sign
    (-1)^(unmatched indices between them).  `partial` maps each matched set,
    as a bitmask, to its signed sum of products of L*M, formed once: O(n 2^n)
    work, and pf M = pf(L*M) / L^(n/2).  With a prime p the sums are taken
    mod p and pf M is a Residue.
    """
    _check_even_skew(M)
    n = M.rows
    if n > MATCHINGS_CAP:
        raise OrderTooLarge(f"matching enumeration capped at order {MATCHINGS_CAP}")
    rows, scale = _integer_rows(M, p)
    partial = {0: 1}
    for _ in range(n // 2):
        nxt: dict[int, int] = {}
        for used, v in partial.items():
            i = (~used & (used + 1)).bit_length() - 1  # lowest unmatched index
            sign = 1
            for j in range(i + 1, n):
                if used >> j & 1:
                    continue
                a = rows[i][j]
                if a:
                    key = used | 1 << i | 1 << j
                    nxt[key] = nxt.get(key, 0) + sign * a * v
                sign = -sign
        partial = nxt if p is None else {used: v % p for used, v in nxt.items()}
    return _ratio([partial.get((1 << n) - 1, 0)], [scale] * (n // 2), p)


def _skew_rows(M: Matrix, p: int | None) -> tuple[list[list[int]], list[int]]:
    """S M S as int rows, for S the diagonal of the row scales s_i of
    _row_scaled, and those scales; with a prime p, reduced mod p.

    S M S is skew with integer entries, and its leading 2k x 2k block has
    Pfaffian (s_0 ... s_(2k-1)) pf M_2k.
    """
    rows, scales = _row_scaled(M, p)
    if p is None:
        return [[v * s for v, s in zip(row, scales)] for row in rows], scales
    return [[v * s % p for v, s in zip(row, scales)] for row in rows], scales


def _pfaffian_pairs(
    d: list[list[int]], pivoting: bool, p: int | None = None
) -> Iterator[tuple[int, int]]:
    """Fraction-free block elimination of the even-order skew int rows `d`,
    in place, one row pair at a time.

    After pair k-1 the entry (i, j), for i, j >= 2k, is the Pfaffian of the
    block on rows and columns 0..2k-1, i, j.  The Pfaffian analogue of
    Sylvester's identity updates it past pair k as

        d'[i][j] = (a d[i][j] + d[2k+1][i] d[2k][j] - d[2k][i] d[2k+1][j]) / prev,

    with a = d[2k][2k+1] the pivot of pair k and prev that of pair k-1, so
    every division is exact (``//``).  Yields (pivot, unit) for each pair,
    the pivot times the sign of the swaps so far: without swaps, pivot / unit
    is the Pfaffian of the leading (2k+2) x (2k+2) block, and the last one
    is pf d.  With `pivoting`, a zero pivot is first replaced by swapping
    row and column 2k+1 with those of a later nonzero entry of row 2k, which
    flips the sign.  A zero pivot that remains ends the elimination: the
    leading block, and with pivoting the whole matrix, has Pfaffian 0.
    Exactly, every unit is 1.  With a prime p the rows are residues mod p
    and, as in _bareiss, no pivot is inverted: pair k stores its rows times
    e_k, e_(k+1) = e_k^2 * (stored pivot of pair k-1), and the update
    multiplies by e_(k-1) where it would divide by prev.
    """
    n = len(d)
    sign = 1
    prev = 1  # the stored pivot of the previous pair
    unit = prev_unit = 1  # mod p: e_k and e_(k-1)
    for k in range(0, n, 2):
        row0 = d[k]
        if pivoting and row0[k + 1] == 0:
            piv = next((j for j in range(k + 2, n) if row0[j] != 0), None)
            if piv is not None:
                d[k + 1], d[piv] = d[piv], d[k + 1]
                for row in d[k:]:
                    row[k + 1], row[piv] = row[piv], row[k + 1]
                sign = -sign
        row1 = d[k + 1]
        a = row0[k + 1]
        yield sign * a, unit
        if a == 0:
            return
        # mod p, the three factors carry the multiplication by e_(k-1)
        e = prev_unit
        f = a if p is None else a * e % p
        for i in range(k + 2, n):
            c0i, c1i = (row0[i], row1[i]) if p is None else (row0[i] * e % p, row1[i] * e % p)
            row = d[i]
            for j in range(i + 1, n):
                v = f * row[j] + c1i * row0[j] - c0i * row1[j]
                v = v // prev if p is None else v % p
                row[j] = v
                d[j][i] = -v
        if p is not None:
            prev_unit, unit = unit, unit * unit * prev % p
        prev = a


def pfaffian_expansion(M: Matrix, p: int | None = None) -> Scalar | Residue:
    """Pfaffian by fraction-free elimination of row pairs, with pivoting, O(n^3).

    The elimination runs on the integer matrix S M S of _skew_rows, whose
    Pfaffian is (prod s_i) pf M, and divides that scale out at the end.  A
    zero row makes the Pfaffian 0.  With a prime p the elimination runs mod p
    and the result is a Residue, over the scale and the last pivot's unit.
    """
    _check_even_skew(M)
    d, scales = _skew_rows(M, p)
    pf = unit = 1
    for pf, unit in _pfaffian_pairs(d, pivoting=True, p=p):
        pass
    return _ratio([pf], [*scales, unit], p)


def leading_pfaffians(M: Matrix, p: int | None = None) -> list[Scalar | Residue]:
    """pf of the leading 2k x 2k block of M for k = 1..n/2, from one elimination.

    The row-pair elimination without swaps reads pf M_2k, over the first 2k
    row scales, as the pivot of pair k-1 (see _pfaffian_pairs).  A
    zero pivot makes its Pfaffian 0 and ends the elimination; each later
    order then falls back to pfaffian_expansion of its leading block.  With a
    prime p both passes run mod p and the Pfaffians are Residues.
    """
    _check_even_skew(M)
    d, scales = _skew_rows(M, p)
    out = []
    scale = 1
    for k, (pf, unit) in enumerate(_pfaffian_pairs(d, pivoting=False, p=p)):
        scale *= scales[2 * k] * scales[2 * k + 1]
        out.append(_ratio([pf], [scale, unit], p))
    for k in range(2 * len(out) + 2, M.rows + 1, 2):
        out.append(pfaffian_expansion(M.leading(k), p))
    return out
