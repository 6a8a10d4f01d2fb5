"""Truncated formal power series and basic hypergeometric series.

A basic hypergeometric series with r numerator and s denominator parameters is

    sum_n  (a_1,...,a_r;q)_n / (q,b_1,...,b_s;q)_n * ((-1)^n q^C(n,2))^(1+s-r) * z^n.

It is materialised here either as a TruncatedSeries in the formal variable z
(dense coefficients up to a fixed order) or, when a numerator parameter equals
q^(-m), as the exact Scalar value of the terminating sum.  Both come from one
pass of the term-ratio recurrence on integer pairs from scalar._pair;
phi_term, which builds a term from its Pochhammer products, is their oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .scalar import PoleError, Scalar, _common_denominator, _pair, qpoch_multi

DEFAULT_ORDER = 12


class NotTerminating(ValueError):
    """No numerator parameter equals q^(-m), so the sum does not terminate there."""


class OrderMismatch(ValueError):
    """Arithmetic attempted on truncated series of different orders."""


@dataclass(frozen=True)
class HypergeometricSpec:
    """Parameter lists and base of one r-phi-s series (argument kept separate)."""

    numerators: tuple[Scalar, ...]
    denominators: tuple[Scalar, ...]
    q: Scalar

    @property
    def sign_exponent(self) -> int:
        # the ((-1)^n q^C(n,2)) power is raised to 1 + s - r, possibly negative
        return 1 + len(self.denominators) - len(self.numerators)


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients c_0..c_N of a formal power series in z, exact and immutable."""

    coeffs: tuple[Scalar, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("a truncated series needs at least the z^0 coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> Scalar:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} outside truncation order {self.order}")
        return self.coeffs[n]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return series_linear_combine([(Fraction(1), self), (Fraction(1), other)])

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return series_linear_combine([(Fraction(1), self), (Fraction(-1), other)])

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return series_mul(self, other)

    def scale(self, c) -> "TruncatedSeries":
        c = Fraction(c)
        return TruncatedSeries(tuple([c * x for x in self.coeffs]))


def phi_term(spec: HypergeometricSpec, n: int) -> Scalar:
    """Coefficient of z^n in the series (argument factored out), from its
    Pochhammer products: the oracle for the term-ratio recurrence."""
    if n < 0:
        raise ValueError("term index must be nonnegative")
    q = spec.q
    den = qpoch_multi((q,) + tuple(spec.denominators), q, n)
    if den == 0:
        raise PoleError(f"denominator Pochhammer vanishes at term {n}")
    num = qpoch_multi(spec.numerators, q, n)
    e = spec.sign_exponent
    sign = -1 if (n * e) % 2 else 1
    return num / den * sign * q ** (math.comb(n, 2) * e)


def _term_ratios(spec: HypergeometricSpec, z: Scalar, top: int) -> Iterator[tuple[int, int]]:
    """Term n / term n-1 of the series at argument z, n = 1..top, as an
    unreduced integer pair.  The denominator factor (1 - q^n) prod_b (1 - b q^(n-1))
    enters inverted; PoleError is raised at the first n where it vanishes."""
    qn, qd = _pair(spec.q)
    e = spec.sign_exponent
    zn, zd = _pair(z)
    nums = [_pair(a) for a in spec.numerators]
    dens = [_pair(b) for b in spec.denominators]
    # ((-1)^n q^C(n,2))^e contributes (-q^(n-1))^e to the ratio of term n
    sign = -1 if e % 2 else 1
    pn, pd = 1, 1  # q^(n-1) = pn/pd while computing term n
    for n in range(1, top + 1):
        r_den = pd * qd - pn * qn
        r_num = pd * qd
        for bn, bd in dens:
            r_den *= bd * pd - bn * pn
            r_num *= bd * pd
        if r_den == 0:
            raise PoleError(f"denominator Pochhammer vanishes at term {n}")
        for an, ad in nums:
            r_num *= ad * pd - an * pn
            r_den *= ad * pd
        r_num *= zn
        r_den *= zd
        if e > 0:
            r_num *= sign * pn**e
            r_den *= pd**e
        elif e < 0:
            r_num *= sign * pd**-e
            r_den *= pn**-e
        yield r_num, r_den
        pn *= qn
        pd *= qd


def phi_series(
    spec: HypergeometricSpec, argument_scale: Scalar, order: int = DEFAULT_ORDER
) -> TruncatedSeries:
    """The series with argument (argument_scale * z), truncated at `order`.

    Coefficient n equals phi_term(spec, n) * argument_scale^n: coefficient
    n-1 times the ratio from _term_ratios, reduced once into a Fraction.
    """
    coeffs = [Fraction(1)]
    for r_num, r_den in _term_ratios(spec, Fraction(argument_scale), order):
        tn, td = _pair(coeffs[-1])
        coeffs.append(Fraction(tn * r_num, td * r_den))
    return TruncatedSeries(tuple(coeffs))


def phi_terminating(spec: HypergeometricSpec, z_value: Scalar, m: int) -> Scalar:
    """Exact value of the sum terminating at index m.

    Requires a numerator parameter equal to q^(-m), which kills every later
    term.  With r_n from _term_ratios, the sum 1 + r_1 (1 + r_2 (... (1 + r_m)))
    is folded by Horner's rule on integers into one Fraction.  It raises
    PoleError exactly where phi_term(spec, n) does for some n <= m.
    """
    if m < 0:
        raise ValueError(f"termination order must be nonnegative, got {m}")
    if spec.q ** (-m) not in spec.numerators:
        raise NotTerminating(f"no numerator parameter equals q^(-{m})")
    num, den = 1, 1
    for r_num, r_den in reversed(list(_term_ratios(spec, Fraction(z_value), m))):
        num, den = r_den * den + r_num * num, r_den * den
    return Fraction(num, den)


def series_mul(u: TruncatedSeries, v: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated at the common order, by integer convolution."""
    if u.order != v.order:
        raise OrderMismatch(f"orders differ: {u.order} vs {v.order}")
    return TruncatedSeries(tuple(_convolve(u.coeffs, v.coeffs, u.order + 1)))


def _convolve(u: Sequence[Scalar], v: Sequence[Scalar], length: int) -> list[Scalar]:
    """The first `length` coefficients of the product of two coefficient lists.

    Each operand is scaled to integers over the lcm of its denominators; the
    integer numerators are convolved and each coefficient becomes one
    canonical Fraction.
    """
    a, da = _common_denominator(u)
    b, db = _common_denominator(v)
    den = da * db
    out = []
    for k in range(length):
        lo, hi = max(0, k - len(b) + 1), min(k, len(a) - 1)
        out.append(Fraction(sum(a[i] * b[k - i] for i in range(lo, hi + 1)), den))
    return out


def series_linear_combine(
    terms: Sequence[tuple[Scalar, TruncatedSeries]]
) -> TruncatedSeries:
    """Coefficientwise sum of c_i * u_i; all series must share one order."""
    if not terms:
        raise ValueError("need at least one term")
    order = terms[0][1].order
    coeffs = [Fraction(0)] * (order + 1)
    for c, u in terms:
        if u.order != order:
            raise OrderMismatch(f"orders differ: {u.order} vs {order}")
        c = Fraction(c)
        for k in range(order + 1):
            coeffs[k] += c * u.coeffs[k]
    return TruncatedSeries(tuple(coeffs))
