"""Shared helpers for the test suite: small seeded rational generators, the
six-term coefficients read one (k, n) at a time, the perfect matchings with
their crossing signs behind the reference Pfaffian, and the small builders
the tests use that the package does not (matrices from row lists, series
specs from ints, powers of polynomials in x, Pochhammer prefix tables as
Fractions)."""

import random
from fractions import Fraction
from typing import Sequence

from qident.askey_wilson import (
    AWParams,
    PolynomialInX,
    _basis_moments,
    _peel_functional,
    pochhammer_basis_polys,
)
from qident.identities import _quadratic_shapes
from qident.scalar import _qpoch_multi_prefix, qpoch
from qident.series import HypergeometricSpec


def rand_fraction(rng: random.Random, height: int = 12) -> Fraction:
    """Nonzero rational with numerator/denominator bounded by `height`."""
    return Fraction(rng.randint(1, height) * rng.choice((1, -1)), rng.randint(1, height))


def rand_q(rng: random.Random, height: int = 12) -> Fraction:
    while True:
        q = rand_fraction(rng, height)
        if q not in (1, -1):
            return q


def prefix_table(params, q, n) -> list[Fraction]:
    """[(params;q)_0, ..., (params;q)_n] as canonical Fractions, read from the
    integer pairs of scalar._qpoch_multi_prefix."""
    return [Fraction(x, y) for x, y in zip(*_qpoch_multi_prefix(params, q, n))]


def six_term_parts(k, n, pt, r, s):
    """(A_k, B_k, C_k) at z^n: (-1)^(s-r) prefactor F[k] G[n-k] of each product of
    shape (r, s) of _quadratic_shapes, with the series built up to n."""
    if k == n + 1:
        return (Fraction(0),) * 3
    sign = Fraction(-1) ** (s - r)
    factors = next(_quadratic_shapes(pt, ((r, s),), n))
    return tuple(sign * pref * f[k] * g[n - k] for pref, f, g in factors)


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


def from_rows(cls, rows: Sequence[Sequence]):
    """A `cls` (Matrix, or SkewMatrix with its skew check) from equal-length rows."""
    cols = len(rows[0]) if rows else 0
    return cls(len(rows), cols, tuple([Fraction(x) for row in rows for x in row]))


def to_lists(M) -> list[list[Fraction]]:
    """The rows of a matrix as lists."""
    return [list(M.row(i)) for i in range(M.rows)]


def phi(numerators: Sequence, denominators: Sequence, q) -> HypergeometricSpec:
    """A series spec from ints or Fractions."""
    return HypergeometricSpec(
        tuple([Fraction(a) for a in numerators]),
        tuple([Fraction(b) for b in denominators]),
        Fraction(q),
    )


def poly_power(p: PolynomialInX, n: int) -> PolynomialInX:
    """p^n by repeated multiplication."""
    out = PolynomialInX([1])
    for _ in range(n):
        out = out * p
    return out


def basis_peel(f: PolynomialInX, p: AWParams) -> Fraction:
    """L(f) from L's definition on the basis (a*z, a/z; q)_k: the peel of
    askey_wilson._peel_functional on the basis and moments of order deg f.
    No lattice node enters, so it is independent of the lattice weights."""
    n = f.degree
    return _peel_functional(f, pochhammer_basis_polys(p.a, p.q, n), _basis_moments(n, p))


def aw_leading_coeff(n: int, p: AWParams) -> Fraction:
    """Leading x^n coefficient of the Askey-Wilson p_n: 2^n (abcd q^(n-1); q)_n."""
    return Fraction(2) ** n * qpoch(p.abcd * p.q ** (n - 1), p.q, n)
