"""Truncated formal power series and basic hypergeometric series.

A basic hypergeometric series with r numerator and s denominator parameters is

    sum_n  (a_1,...,a_r;q)_n / (q,b_1,...,b_s;q)_n * ((-1)^n q^C(n,2))^(1+s-r) * z^n.

It is materialised here either as a TruncatedSeries in the formal variable z
(dense coefficients up to a fixed order) or, when a numerator parameter equals
q^(-m), as the exact Scalar value of the terminating sum.  Both come from one
pass of the term-ratio recurrence on integer pairs from scalar._pair;
phi_term, which builds a term from its Pochhammer products, is their oracle.

Every sum and product of series here, and of polynomials in askey_wilson, is
one call of _sum_of_products: a signed sum of products of coefficient lists,
computed on integers with one canonical Fraction per coefficient.
series_linear_combine applies it to truncated series of one order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .scalar import PoleError, Scalar, _common_denominator, _pair, qpoch_multi


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


def phi_series(spec: HypergeometricSpec, argument_scale: Scalar, order: int) -> TruncatedSeries:
    """The series with argument (argument_scale * z), truncated at `order`.

    Coefficient n equals phi_term(spec, n) * argument_scale^n: coefficient
    n-1 times the ratio from _term_ratios, reduced once into a Fraction.
    """
    if order < 0:
        raise ValueError(f"truncation order must be nonnegative, got {order}")
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


def _coefficient(a: Sequence[int], b: Sequence[int], k: int) -> int:
    """Coefficient k of the product of two integer coefficient lists."""
    lo, hi = max(0, k - len(b) + 1), min(k, len(a) - 1)
    return sum(a[i] * b[k - i] for i in range(lo, hi + 1))


def _sum_of_products(terms: Sequence[Sequence], length: int) -> list[Scalar]:
    """The first `length` coefficients of sum_i c_i prod_j u_ij.

    A term is (c, u_1, ..., u_k) with k >= 1: a scalar and coefficient lists
    of any lengths.  Each u_j is scaled to integers over the lcm of its
    denominators, and every factor but the last is multiplied out on those
    integers.  Each coefficient is then one integer sum over the terms, read
    from the last factor's convolution as it goes, and one canonical Fraction
    over the lcm of the terms' denominators.  No term's full product is built:
    holding those lists raised the peak memory of a run.
    """
    parts = []
    for c, *factors in terms:
        *rest, last = factors  # by position: the same list may come twice
        num, den = _pair(c)
        head = [1]
        for u in rest:
            a, d = _common_denominator(u)
            head = [_coefficient(head, a, k) for k in range(min(length, len(head) + len(a) - 1))]
            den *= d
        b, d = _common_denominator(last)
        parts.append((num, den * d, head, b))
    lcm = math.lcm(*[den for _, den, _, _ in parts])
    parts = [(num * (lcm // den), head, b) for num, den, head, b in parts]
    return [
        Fraction(sum(num * _coefficient(head, b, k) for num, head, b in parts), lcm)
        for k in range(length)
    ]


def series_linear_combine(terms: Sequence[Sequence]) -> TruncatedSeries:
    """sum_i c_i u_i1 ... u_ik for terms (c_i, u_i1, ..., u_ik), k >= 1: a
    linear combination of products of series that all share one order."""
    if not terms:
        raise ValueError("need at least one term")
    order = terms[0][1].order
    for _, *factors in terms:
        for u in factors:
            if u.order != order:
                raise OrderMismatch(f"orders differ: {u.order} vs {order}")
    products = [[c] + [u.coeffs for u in factors] for c, *factors in terms]
    return TruncatedSeries(tuple(_sum_of_products(products, order + 1)))
