"""Truncated formal power series and basic hypergeometric series.

A basic hypergeometric series with r numerator and s denominator parameters is

    sum_n  (a_1,...,a_r;q)_n / (q,b_1,...,b_s;q)_n * ((-1)^n q^C(n,2))^(1+s-r) * z^n.

It is materialised here either as a TruncatedSeries in the formal variable z
(dense coefficients up to a fixed order) or, when a numerator parameter equals
q^(-m), as the exact Scalar value of the terminating sum.  Both come from one
pass of the term-ratio recurrence, _term_ratios, which reads the parameters
as integer pairs: phi_series and phi_terminating pair their spec once, and
askey_wilson.aw_poly passes the pairs of its 4phi3 directly, with no spec,
and so does identities' Mehta-Wang closed form.  A terminating sum is one
Horner fold of those ratios, _terminating_sum, shared by phi_terminating,
aw_poly and the Mehta-Wang 4phi3, and taken mod p when a prime is given.
phi_term, which builds a term from its Pochhammer products, is the oracle
of all of them.

The term sequence is multiplicative in its parameter lists, and q is an
ordinary denominator parameter of it: _term_ratios reads (q,) + the
denominators, with the sign exponent len(denominators) - len(numerators).
Term k of the series with numerators N + E, denominators D + F and argument
z w is term k of (N; D; z) times the extension multiplier

    (E;q)_k / (F;q)_k * ((-1)^k q^C(k,2))^(|F|-|E|) * w^k,

which the same loop yields with no (q;q)_k (term_multiplier).  So a series
is extended by termwise_product, the Hadamard product, and one generator,
identities._extended_shapes, reads a series check's (r, s) shapes from one base.

A TruncatedSeries, like askey_wilson.PolynomialInX, holds integer numerators
over one positive denominator; its canonical Fraction coefficients are built
only when .coeffs is read or a coefficient is indexed.  phi_series cancels
each term ratio by one gcd and takes the common denominator from the
products of the ratio denominators, so no coefficient is reduced on its own.
Every sum and product of series here, and of polynomials in askey_wilson, is
one call of _sum_of_products: a signed sum of products of integer vectors,
integers in and integers out over one denominator.  series_linear_combine
applies it to truncated series of one order, so a residual series is tested
for zero on its integers.

Given a prime p, phi_series and series_linear_combine return a
SeriesResidue instead: the same unreduced integers taken mod p, with no gcd
and no Fraction.  _term_ratios still decides every pole on the exact
integers before a ratio is reduced, and the products and convolutions then
run on ints below p^2.  The terms of a sum are put over one denominator by
scalar._over_one_denominator, as every engine row is.  The residual of Thm
1.1, of its specialisation and of the contiguous relation is formed this way
in identities; the six-term checks divide by their prefactors and
read single coefficients, so they stay exact.  A termwise product mod p
multiplies the residues of the numerators over the product of the two
denominators, with nothing inverted, and is a SeriesResidue too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .scalar import (
    PoleError, Scalar, _common_denominator, _over_one_denominator, _pair, _reduced, qpoch_multi
)


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


class _IntegerVector:
    """Rational coefficients nums[i] / den, held as ints with den > 0; the
    canonical Fractions are built only when .coeffs is read."""

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Sequence[Scalar]):
        self._hold(*_common_denominator(coeffs))

    @classmethod
    def from_integers(cls, nums: Sequence[int], den: int):
        """The vector with coefficients nums[i] / den, den nonzero."""
        if den == 0:
            raise ZeroDivisionError("integer vector over a zero denominator")
        if den < 0:
            nums, den = [-n for n in nums], -den
        vector = cls.__new__(cls)
        vector._hold(nums, den)
        return vector

    def _hold(self, nums: Sequence[int], den: int) -> None:
        self.nums, self.den = tuple(nums), den

    @property
    def coeffs(self) -> tuple[Scalar, ...]:
        return tuple([Fraction(n, self.den) for n in self.nums])


class TruncatedSeries(_IntegerVector):
    """Coefficients c_0..c_N of a formal power series in z, exact and immutable:
    c_n = nums[n] / den, with no common factor divided out."""

    __slots__ = ()

    def _hold(self, nums: Sequence[int], den: int) -> None:
        if not nums:
            raise ValueError("a truncated series needs at least the z^0 coefficient")
        super()._hold(nums, den)

    @property
    def order(self) -> int:
        return len(self.nums) - 1

    def __getitem__(self, n: int) -> Scalar:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} outside truncation order {self.order}")
        return Fraction(self.nums[n], self.den)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncatedSeries)
            and self.order == other.order
            and all(a * other.den == b * self.den for a, b in zip(self.nums, other.nums))
        )

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"TruncatedSeries({self.coeffs!r})"

    def is_zero(self) -> bool:
        return not any(self.nums)


class SeriesResidue:
    """A truncated series with coefficients N_n / D, held as (N_n mod p,
    D mod p): the image of the unreduced integers of the exact series.

    As for scalar.Residue, D is never inverted and may be ≡ 0 mod p.  An
    exactly zero coefficient reads 0, and a nonzero residue proves the exact
    coefficient nonzero."""

    __slots__ = ("nums", "den", "p")

    def __init__(self, nums: Sequence[int], den: int, p: int):
        self.nums, self.den, self.p = tuple([n % p for n in nums]), den % p, p

    @property
    def order(self) -> int:
        return len(self.nums) - 1

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __repr__(self) -> str:
        return f"SeriesResidue({self.nums!r}, {self.den}, {self.p})"


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


def _paired(spec: HypergeometricSpec) -> tuple:
    """The spec as the integer pairs _term_ratios reads, with q the first
    denominator parameter: the (q;q)_n of a basic hypergeometric term."""
    return _pairs(spec.numerators, (spec.q, *spec.denominators), spec.q)


def _pairs(numerators: Sequence[Scalar], denominators: Sequence[Scalar], q: Scalar) -> tuple:
    nums, dens = [_pair(a) for a in numerators], [_pair(b) for b in denominators]
    return tuple(nums), tuple(dens), _pair(q)


def _term_ratios(spec: tuple, z: tuple[int, int], top: int) -> Iterator[tuple[int, int]]:
    """Term n / term n-1 of a term sequence at argument z, n = 1..top, as an
    unreduced integer pair.

    spec is (numerators, denominators, q) and z one pair, each parameter an
    integer pair (n, d) with d nonzero, in lowest terms or not.  Term n is
    (numerators;q)_n / (denominators;q)_n ((-1)^n q^C(n,2))^e z^n with
    e = len(denominators) - len(numerators): a basic hypergeometric term when
    the denominators start with q (_paired), an extension multiplier
    otherwise.  The factor prod_b (1 - b q^(n-1)) enters inverted; PoleError
    is raised at the first n where it vanishes."""
    nums, dens, (qn, qd) = spec
    zn, zd = z
    e = len(dens) - len(nums)
    # ((-1)^n q^C(n,2))^e contributes (-q^(n-1))^e to the ratio of term n
    sign = -1 if e % 2 else 1
    pn, pd = 1, 1  # q^(n-1) = pn/pd while computing term n
    for n in range(1, top + 1):
        r_num, r_den = zn, zd
        for bn, bd in dens:
            r_den *= bd * pd - bn * pn
            r_num *= bd * pd
        if r_den == 0:
            raise PoleError(f"denominator Pochhammer vanishes at term {n}")
        for an, ad in nums:
            r_num *= ad * pd - an * pn
            r_den *= ad * pd
        if e > 0:
            r_num *= sign * pn**e
            r_den *= pd**e
        elif e < 0:
            r_num *= sign * pd**-e
            r_den *= pn**-e
        yield r_num, r_den
        pn *= qn
        pd *= qd


def _term_series(
    spec: tuple, z: tuple[int, int], order: int, prime: int | None
) -> TruncatedSeries | SeriesResidue:
    """Terms 0..order of the term sequence of _term_ratios, as one series.

    Term n is the product of the first n ratios.  Each ratio r_i = a_i / b_i
    is cancelled by one gcd; over the denominator b_1 ... b_order, term n has
    the numerator a_1 ... a_n b_(n+1) ... b_order.  Given a prime, each ratio
    is reduced mod p instead of cancelled, the products run mod p, and the
    result is their SeriesResidue; PoleError is raised where it is without
    one."""
    if order < 0:
        raise ValueError(f"truncation order must be nonnegative, got {order}")
    ratios = []
    for r_num, r_den in _term_ratios(spec, z, order):
        if prime is None:
            g = math.gcd(r_num, r_den)
            ratios.append((r_num // g, r_den // g))
        else:
            ratios.append((r_num % prime, r_den % prime))
    tails = [1]  # tails[i] = b_(order-i+1) ... b_order
    for _, r_den in reversed(ratios):
        tails.append(_reduced(tails[-1] * r_den, prime))
    nums, head = [tails[-1]], 1
    for (r_num, _), tail in zip(ratios, reversed(tails[:-1])):
        head = _reduced(head * r_num, prime)
        nums.append(head * tail)
    if prime is None:
        return TruncatedSeries.from_integers(nums, tails[-1])
    return SeriesResidue(nums, tails[-1], prime)


def phi_series(
    spec: HypergeometricSpec, argument_scale: Scalar, order: int, prime: int | None = None
) -> TruncatedSeries | SeriesResidue:
    """The series with argument (argument_scale * z), truncated at `order`:
    coefficient n equals phi_term(spec, n) * argument_scale^n.  Exact, or
    the SeriesResidue mod `prime` when one is given (_term_series)."""
    return _term_series(_paired(spec), _pair(argument_scale), order, prime)


def term_multiplier(
    numerators: Sequence[Scalar],
    denominators: Sequence[Scalar],
    q: Scalar,
    argument: Scalar,
    order: int,
    prime: int | None = None,
) -> TruncatedSeries | SeriesResidue:
    """The extension multiplier of parameter lists E = `numerators` and
    F = `denominators` at argument w, truncated at `order`: term k is

        (E;q)_k / (F;q)_k ((-1)^k q^C(k,2))^(|F|-|E|) w^k,

    with no (q;q)_k.  The term of a series with numerators N + E,
    denominators D + F and argument z w is the term of (N; D; z) times this,
    so termwise_product extends a series by it.  PoleError is raised at the
    first term where a factor of (F;q)_k vanishes, as the extended series
    raises it."""
    return _term_series(_pairs(numerators, denominators, q), _pair(argument), order, prime)


def termwise_product(
    u: TruncatedSeries | SeriesResidue, v: TruncatedSeries | SeriesResidue, prime: int | None = None
) -> TruncatedSeries | SeriesResidue:
    """The Hadamard product of two series of one order, coefficient n being
    u_n v_n: the numerators multiplied termwise over the product of the two
    denominators.  Nothing is inverted, so given a prime the factors may be
    SeriesResidues modulo it and the result is a SeriesResidue."""
    if u.order != v.order:
        raise OrderMismatch(f"orders differ: {u.order} vs {v.order}")
    nums = [a * b for a, b in zip(u.nums, v.nums)]
    if prime is None:
        return TruncatedSeries.from_integers(nums, u.den * v.den)
    return SeriesResidue(nums, u.den * v.den, prime)


def _terminating_sum(
    spec: tuple, z: tuple[int, int], m: int, prime: int | None = None
) -> tuple[int, int]:
    """1 + r_1 (1 + r_2 (... (1 + r_m))) over the ratios r_n of _term_ratios,
    folded by Horner's rule into one unreduced integer pair.  Given a prime,
    each step of the fold is reduced mod p, which gives the residues of the
    same pair: the exact ratios have decided every pole before the fold.

    _term_ratios is looked up at each call, so a patched generator reaches
    every terminating sum, askey_wilson's p_n included."""
    num = den = 1
    for r_num, r_den in reversed(list(_term_ratios(spec, z, m))):
        num, den = r_den * den + r_num * num, r_den * den
        if prime is not None:
            num, den = num % prime, den % prime
    return num, den


def phi_terminating(spec: HypergeometricSpec, z_value: Scalar, m: int) -> Scalar:
    """Exact value of the sum terminating at index m.

    Requires a numerator parameter equal to q^(-m), which kills every later
    term.  The sum is one _terminating_sum over the spec's pairs, made one
    Fraction.  It raises PoleError exactly where phi_term(spec, n) does for
    some n <= m.
    """
    if m < 0:
        raise ValueError(f"termination order must be nonnegative, got {m}")
    if spec.q ** (-m) not in spec.numerators:
        raise NotTerminating(f"no numerator parameter equals q^(-{m})")
    return Fraction(*_terminating_sum(_paired(spec), _pair(z_value), m))


def _coefficient(a: Sequence[int], b: Sequence[int], k: int) -> int:
    """Coefficient k of the product of two integer coefficient lists."""
    lo, hi = max(0, k - len(b) + 1), min(k, len(a) - 1)
    return sum(a[i] * b[k - i] for i in range(lo, hi + 1))


def _sum_of_products(
    terms: Sequence[Sequence], length: int, prime: int | None = None
) -> tuple[list[int], int]:
    """The first `length` coefficients of sum_i c_i prod_j u_ij, as integer
    numerators over one positive denominator.

    A term is (c, u_1, ..., u_k) with k >= 1: a scalar and integer vectors
    u_j = (nums, den) of any lengths, each standing for nums[i] / den with
    den > 0.  Every factor but the last is multiplied out on the integers,
    starting from the first one truncated to `length`.  Each coefficient is
    then one integer sum over the terms, read from the last factor's
    convolution as it goes, over the terms' one denominator
    (scalar._over_one_denominator); nothing is reduced.  No term's full
    product is built: holding those lists raised the peak memory of a run.
    Given a prime, every integer is reduced mod p as it is formed.
    """
    pairs, parts = [], []  # each term's (numerator, denominator) and (head, last factor)
    for c, *factors in terms:
        num, d = _pair(c)
        if prime is not None:
            num, factors = num % prime, [([x % prime for x in a], den) for a, den in factors]
        *rest, (b, den) = factors  # by position: the same vector may come twice
        den *= d
        head = None  # a one-factor term reads its coefficients off b
        for i, (a, d) in enumerate(rest):  # the product starts from the first factor
            head = a[:length] if i == 0 else [
                _coefficient(head, a, k) for k in range(min(length, len(head) + len(a) - 1))
            ]
            if prime is not None:
                head = [x % prime for x in head]
            den *= d
        pairs.append((num, den))
        parts.append((head, b))
    scaled, common = _over_one_denominator(pairs, prime)
    nums = [
        sum(
            num * (b[k] if k < len(b) else 0) if head is None else num * _coefficient(head, b, k)
            for num, (head, b) in zip(scaled, parts)
        )
        for k in range(length)
    ]
    return (nums, common) if prime is None else ([x % prime for x in nums], common)


def series_linear_combine(
    terms: Sequence[Sequence], prime: int | None = None
) -> TruncatedSeries | SeriesResidue:
    """sum_i c_i u_i1 ... u_ik for terms (c_i, u_i1, ..., u_ik), k >= 1: a
    linear combination of products of series that all share one order.

    Given a prime, the factors may be TruncatedSeries or SeriesResidues
    modulo that prime, and the result is the SeriesResidue of the sum."""
    if not terms:
        raise ValueError("need at least one term")
    order = terms[0][1].order
    for _, *factors in terms:
        for u in factors:
            if u.order != order:
                raise OrderMismatch(f"orders differ: {u.order} vs {order}")
            if isinstance(u, SeriesResidue) and u.p != prime:
                raise ValueError(f"a series mod {u.p} in a sum mod {prime}")
    products = [[c] + [(u.nums, u.den) for u in factors] for c, *factors in terms]
    if prime is None:
        return TruncatedSeries.from_integers(*_sum_of_products(products, order + 1))
    return SeriesResidue(*_sum_of_products(products, order + 1, prime), prime)
