"""Askey-Wilson polynomials, their moment functional, and Newton interpolation.

The four-parameter family p_n(x; a,b,c,d; q) is the terminating 4-phi-3

    p_n = (ab,ac,ad;q)_n / a^n *
          4phi3[ q^(-n), abcd q^(n-1), a*z, a/z ; ab, ac, ad ; q, q ],

with x = (z + 1/z)/2.  Every point stays rational: the substitution z for
e^(i*theta) makes each evaluation a rational number, and the orthogonality
functional L is characterised algebraically by its values on the basis
(a*z, a/z; q)_n rather than by the contour integral.  The values of p_n and
of the moment layer may instead be taken mod a prime p: _aw_polys,
_lattice_denominators, _weight_orders, _apply_weights, aw_moment,
aw_moments, moment_weights, _weighted_sum, _basis_moments,
_peel_functional and _aw_norm_ratios take an optional `prime`, and then
return the scalar.Residue of the unreduced integer pair N/D their exact
route would form, never inverting D.  Their poles and node collisions are
still decided on exact integers: the nodes stay Fractions, and the
Pochhammer tables mod p tell an exactly zero entry from one ≡ 0 mod p.
With no prime each kernel runs on ℚ, the route the tests take as oracle.

aw_poly forms the seven 4phi3 parameters as integer pairs from those of a,
b, c, d, q and z, with no Fraction in between, and sums the 4phi3 with
series._terminating_sum, the Horner fold phi_terminating uses, on the one
term-ratio recurrence series._term_ratios: one canonical Fraction per value.
Its prefactor (ab,ac,ad;q)_n / a^n is entry n of one scalar._qpoch_multi_prefix
table over the powers of a.  _aw_polys yields p_0, ..., p_n at one point, one
degree at a time, from pairs formed once and that one table up to n, or
given a prime their Residues, with the same poles: the exact term ratios
decide them, and the fold then runs mod p; a check that needs
several degrees at a point reads them from it, and the orthogonality check
evaluates each p_m at the lattice nodes z_j = a q^j that way.
aw_leading_coeff is the closed form of the x^n coefficient, so a degree
drop is read without expanding p_n; aw_poly_as_polynomial, which
interpolates p_n to monomials, is the oracle for both p_n's values and its
leading coefficient.  The norm ratios h_n/h_0 of every order come from one
pass of the closed-form kernel, scalar._closed_forms.

L is applied in two ways, which check each other.  _peel_functional applies
the definition directly: it expands f on the basis by peeling off leading
coefficients.  The lattice weights go through Newton interpolation on the
q-quadratic lattice b_j = (q^j a + q^-j / a)/2 instead: w_j with
L(f) = sum_j w_j f(b_j) for deg f <= n.  The double sum of Thm 4.3 is summed
in one place, _weight_orders, one loop that yields the weights of every
order n in turn, and _apply_weights sums one order's weights times values
on integer pairs: aw_moment applies the last order to (t + b_j)^n, and
aw_moments every order to (t + b_j)^k from one pass.  moment_weights reads
one order as values, for the checks that apply one weight vector to
many value columns through _weighted_sum.  The lattice Newton matrix is read
from one Pochhammer prefix table, (a^2 q; q)_m, and (q;q)_m, and each
lattice coefficient u_k puts its terms over one denominator.

Newton interpolation through free nodes and the connection coefficients
read one node-difference table, _difference_table: the products
prod_{r<=k, r!=j} (b_j - b_r) as integer pairs, column k from column k-1 by
prefix products.  newton_coeffs sums the closed form of the divided
differences over it with scalar._pair_sum, and _connection_table every
u(n, k) up to a degree in one pass, with prod_{j<n} (b_r + a_j) as prefix
products over n.  The lattice coefficients, the moment weights and the
connection coefficients run on integer pairs from
scalar._pair and build one canonical Fraction, or one Residue, per value
they return.  A PolynomialInX holds integer numerators over one positive
denominator, in lowest terms after one gcd per polynomial.  Polynomial
products and differences are each one call of the series kernel for sums
of products, series._sum_of_products, on that integer form, and the Newton
expansion builds its basis (x - b_0)...(x - b_(k-1)) as prefix products,
one call per factor, and sums it in one more; the basis peel takes one
basis polynomial off at a time with no division, so it runs mod p too.
Fractions are built only for a value that leaves it: .coeffs when read, a
polynomial's value at a point, and each coefficient the peel takes off.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .scalar import (
    DomainError,
    PoleError,
    Residue,
    Scalar,
    _closed_form,
    _closed_forms,
    _lowest_terms,
    _over_one_denominator,
    _pair,
    _pair_sum,
    _qpoch_multi_prefix,
    _ratio,
    _ratio_table,
    _reduced,
)
from .series import _IntegerVector, _sum_of_products, _terminating_sum


class DuplicateNodes(ValueError):
    """Interpolation nodes must be pairwise distinct."""


class DegenerateLattice(ValueError):
    """The q-quadratic lattice nodes (q^j a + q^-j / a)/2 collided."""


@dataclass(frozen=True)
class AWParams:
    """The parameter quadruple (a,b,c,d) and base q."""

    a: Scalar
    b: Scalar
    c: Scalar
    d: Scalar
    q: Scalar

    @functools.cached_property
    def abcd(self) -> Scalar:
        """The product abcd, formed on first read."""
        return self.a * self.b * self.c * self.d

    def permuted(self, order: Sequence[str]) -> "AWParams":
        """Same base q with (a,b,c,d) replaced by the named permutation."""
        vals = {k: getattr(self, k) for k in "abcd"}
        a, b, c, d = (vals[k] for k in order)
        return AWParams(a, b, c, d, self.q)


@dataclass(frozen=True)
class XPoint:
    """Evaluation point: rational z standing in for e^(i*theta), x = (z+1/z)/2."""

    z: Scalar

    def __post_init__(self):
        if self.z == 0:
            raise DomainError("z must be nonzero")

    @property
    def x(self) -> Scalar:
        return (self.z + 1 / self.z) / 2


class PolynomialInX(_IntegerVector):
    """Dense polynomial in x with coefficients nums[k] / den, immutable:
    trailing zeros stripped and no factor common to den and every numerator,
    so equal polynomials hold equal integers."""

    __slots__ = ()

    def _hold(self, nums: Sequence[int], den: int) -> None:
        nums = list(nums) or [0]
        while len(nums) > 1 and nums[-1] == 0:
            nums.pop()
        super()._hold(*_lowest_terms(nums, den))

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    def __call__(self, x: Scalar) -> Scalar:
        """Horner's rule on the integer numerators."""
        xn, xd = _pair(x)
        acc, scale = self.nums[-1], 1
        for c in self.nums[-2::-1]:
            scale *= xd
            acc = acc * xn + c * scale
        return Fraction(acc, self.den * scale)

    def __eq__(self, other) -> bool:
        return isinstance(other, PolynomialInX) and (self.nums, self.den) == (other.nums, other.den)

    def __sub__(self, other: "PolynomialInX") -> "PolynomialInX":
        length = max(len(self.nums), len(other.nums))
        terms = [(1, (self.nums, self.den)), (-1, (other.nums, other.den))]
        return PolynomialInX.from_integers(*_sum_of_products(terms, length))

    def __mul__(self, other: "PolynomialInX") -> "PolynomialInX":
        length = len(self.nums) + len(other.nums) - 1
        terms = [(1, (self.nums, self.den), (other.nums, other.den))]
        return PolynomialInX.from_integers(*_sum_of_products(terms, length))

    def __repr__(self) -> str:
        return f"PolynomialInX({list(self.coeffs)})"


def poly_x_plus(t: Scalar) -> PolynomialInX:
    """The linear polynomial t + x."""
    tn, td = _pair(t)
    return PolynomialInX.from_integers([tn, td], td)


def pochhammer_basis_polys(a: Scalar, q: Scalar, n: int) -> list[PolynomialInX]:
    """[(a*z, a/z; q)_k as a polynomial in x for k = 0..n], each the last times
    one factor: (a*z, a/z; q)_k = prod_(i<k) (1 - 2 a q^i x + a^2 q^(2i))."""
    out = [PolynomialInX.from_integers([1], 1)]
    (an, ad), (qn, qd) = _pair(a), _pair(q)
    for _ in range(n):  # a q^i = an / ad
        factor = PolynomialInX.from_integers([ad * ad + an * an, -2 * an * ad], ad * ad)
        out.append(out[-1] * factor)
        an, ad = an * qn, ad * qd
    return out


def _aw_pairs(p: AWParams, pt: XPoint) -> tuple[tuple[int, int], ...]:
    """The integer pairs of a, b, c, d, q and z, the only inputs of p_n."""
    if p.a == 0:
        raise DomainError("parameter a must be nonzero")
    return tuple([_pair(x) for x in (p.a, p.b, p.c, p.d, p.q, pt.z)])


def _aw_prefactors(p: AWParams, top: int) -> list[tuple[int, int]]:
    """(ab,ac,ad;q)_k / a^k for k = 0..top, as unreduced integer pairs."""
    a = p.a
    nums, dens = _qpoch_multi_prefix((a * p.b, a * p.c, a * p.d), p.q, top)
    an, ad = _pair(a)
    return [(x * ad**k, y * an**k) for k, (x, y) in enumerate(zip(nums, dens))]


def _aw_value(
    pairs: tuple[tuple[int, int], ...], n: int, pref: tuple[int, int], prime: int | None = None
) -> Scalar | Residue:
    """p_n from the pairs of _aw_pairs and its prefactor pair: the 4phi3's
    parameters q^(-n), abcd q^(n-1), az, a/z; q, ab, ac, ad are unreduced
    integer pairs, summed by series._terminating_sum at argument q.  One
    canonical Fraction, or with a prime the Residue of the same pair, its
    sum folded mod p."""
    (an, ad), (bn, bd), (cn, cd), (dn, dd), q, (zn, zd) = pairs
    qn, qd = q
    sn, sd = (qn ** (n - 1), qd ** (n - 1)) if n else (qd, qn)  # q^(n-1)
    nums = (
        (qd**n, qn**n),
        (an * bn * cn * dn * sn, ad * bd * cd * dd * sd),
        (an * zn, ad * zd),
        (an * zd, ad * zn),
    )
    dens = (q, (an * bn, ad * bd), (an * cn, ad * cd), (an * dn, ad * dd))
    num, den = _terminating_sum((nums, dens, q), q, n, prime)
    return _ratio([pref[0], num], [pref[1], den], prime)


def aw_poly(n: int, p: AWParams, pt: XPoint) -> Scalar:
    """Value of p_n(x; a,b,c,d; q) at x = (z + 1/z)/2, raising PoleError at
    the first term whose denominator (q,ab,ac,ad;q)_k vanishes."""
    if n < 0:
        raise DomainError("degree must be nonnegative")
    return _aw_value(_aw_pairs(p, pt), n, _aw_prefactors(p, n)[n])


def _aw_polys(
    p: AWParams,
    pt: XPoint,
    n: int,
    *,
    prime: int | None = None,
    prefactors: list[tuple[int, int]] | None = None,
) -> Iterator[Scalar | Residue]:
    """p_0, ..., p_n at one point, one degree at a time: aw_poly(k, p, pt) for
    each k in turn, from pairs formed once and one prefactor table;
    Residues mod `prime` when one is given, with the same poles.  The table
    does not depend on the point, so a caller that reads several points may
    pass `prefactors`, _aw_prefactors(p, n), built once for all of them.

    The k-th term's denominator (q,ab,ac,ad;q)_k does not depend on n, so the
    first degree that raises is that k, and every later degree would raise
    the same PoleError; a caller that reads degrees in some order of its own
    sees the exception its first aw_poly call at a pole would raise.
    """
    pairs = _aw_pairs(p, pt)
    for k, pref in enumerate(prefactors or _aw_prefactors(p, n)):
        yield _aw_value(pairs, k, pref, prime)


def aw_leading_coeff(n: int, p: AWParams) -> Scalar:
    """Coefficient of x^n in p_n: 2^n (abcd q^(n-1);q)_n.  p_n drops degree
    exactly where it vanishes."""
    q = p.q
    return _closed_form(((2, n),), (((p.abcd * q ** (n - 1),), q, (n,)),))


def aw_poly_as_polynomial(n: int, p: AWParams) -> PolynomialInX:
    """p_n expanded in the monomial basis, by exact interpolation.

    Nodes use z = 2, 3, ..., n+2; x(z) is strictly increasing for z > 1, so the
    interpolation nodes never collide and no resampling is needed.
    """
    nodes = [XPoint(Fraction(z)) for z in range(2, n + 3)]
    xs = [pt.x for pt in nodes]
    ys = [aw_poly(n, p, pt) for pt in nodes]
    cs = newton_coeffs(xs, ys)
    return newton_to_monomial(cs, xs)


def _aw_norm_ratios(
    p: AWParams, orders: Sequence[int], prime: int | None = None
) -> Iterator[Scalar | Residue]:
    """h_n/h_0 for the orthogonality L(p_m p_n) = (h_n/h_0) delta_mn, for each
    n of `orders` in turn, or its Residue mod `prime` when one is given, from
    one scalar._closed_forms pass:

        h_n/h_0 = (1 - abcd q^(n-1)) / (1 - abcd q^(2n-1))
                  * (q, ab, ac, ad, bc, bd, cd;q)_n / (abcd;q)_n.

    Order n raises PoleError("norm ratio denominator vanishes") only where
    its own denominator does."""
    a, b, c, d, q, abcd = p.a, p.b, p.c, p.d, p.q, p.abcd
    bases = (q, a * b, a * c, a * d, b * c, b * d, c * d)
    return _closed_forms(
        orders,
        lambda n: (
            ((1 - abcd * q ** (n - 1), 1), (1 - abcd * q ** (2 * n - 1), -1)),
            ((bases, q, (n,)),),
            (((abcd,), q, (n,)),),
        ),
        "norm ratio denominator",
        prime,
    )


def _basis_moments(n: int, p: AWParams, prime: int | None = None) -> list[Scalar | Residue]:
    """[L((a*z, a/z; q)_k) = (ab,ac,ad;q)_k / (abcd;q)_k for k = 0..n], or
    their Residues mod `prime` when one is given, from the pairs of
    _basis_moment_pairs."""
    return [_ratio([x], [y], prime) for x, y in zip(*_basis_moment_pairs(n, p, prime))]


def _basis_moment_pairs(
    n: int, p: AWParams, prime: int | None = None
) -> tuple[list[int], list[int]]:
    """(ab,ac,ad;q)_k / (abcd;q)_k for k = 0..n, from one Pochhammer ratio
    table, as unreduced integer pairs, mod `prime` when one is given.

    A zero (abcd;q)_k also zeroes every later entry of its table, so this
    raises PoleError exactly when (abcd;q)_n vanishes.
    """
    ab = p.a * p.b
    return _ratio_table(
        (ab, p.a * p.c, p.a * p.d), ab * p.c * p.d, p.q, n, "(abcd;q)_n", prime=prime
    )


def lattice_nodes(a: Scalar, q: Scalar, n: int) -> list[Scalar]:
    """Nodes b_j = (q^j a + q^-j / a)/2 of the q-quadratic lattice, j = 0..n.

    With q^j a = u/w as an unreduced integer pair, b_j = (u^2 + w^2) / (2uw):
    one canonical Fraction per node.
    """
    u, w = _pair(a)
    qn, qd = _pair(q)
    out = []
    for _ in range(n + 1):
        out.append(Fraction(u * u + w * w, 2 * u * w))
        u *= qn
        w *= qd
    return out


def _distinct_lattice_nodes(a: Scalar, q: Scalar, n: int) -> list[Scalar]:
    nodes = lattice_nodes(a, q, n)
    if len(set(map(_pair, nodes))) != len(nodes):  # canonical pairs, cheaper to hash
        raise DegenerateLattice("lattice nodes collided; resample a or q")
    return nodes


def _lattice_denominators(
    a: Scalar, q: Scalar, n: int, prime: int | None = None
) -> list[tuple[int, int, list[int], list[int]]]:
    """The lattice Newton matrix M_kj, 0 <= j <= k <= n, as integer pairs.

    M_kj = q^(k-j^2) a^(-2j) / ((q, q^(1-2j)/a^2; q)_j (q, q^(2j+1) a^2; q)_(k-j))
    is the weight of f(b_j) in u_k.  Each factor of the two Pochhammer
    symbols in a^2 is, up to a monomial, one of T_m = (a^2 q; q)_m, since
    1 - q^(-m)/a^2 = -(q^(-m)/a^2) (1 - a^2 q^m), so that

        M_kj = (-1)^j q^(k + j(j-1)/2) T_(j-1) T_(2j)
               / ((q;q)_j (q;q)_(k-j) T_(2j-1) T_(k+j)).

    Node j yields (cn, cd, dn, dd) with M_(j+i)j = (cn/cd) (dn[i]/dd[i]):
    the head (-1)^j q^(j(j+1)/2) T_(j-1) / ((q;q)_j T_(2j-1)) and, for
    i = 1..n-j, the tail q^i T_(2j) / ((q;q)_i T_(2j+i)); both are 1 at 0.
    They are products of the entries of two prefix tables, T_0..T_(2n-1) and
    (q;q)_0..(q;q)_n, left unreduced, or taken mod `prime` when one is
    given.  A factor 1 - a^2 q^m with 1 <= m <= 2n-1 enters some M_kj with
    k <= n, so a zero T_(2n-1) raises PoleError.  The tables tell an exact
    zero from an entry ≡ 0 mod p, so the poles are the same with a prime.
    """
    q = Fraction(q)
    qn, qd = _pair(q)
    qq_n, qq_d = _qpoch_multi_prefix((q,), q, n, prime)
    tn, td = _qpoch_multi_prefix((Fraction(a) ** 2 * q,), q, max(2 * n - 1, 0), prime)
    if qq_n[n] == 0 or tn[-1] == 0:
        raise PoleError("lattice Newton denominator vanishes")
    qn_pows, qd_pows = [1], [1]  # q_n^i and q_d^i, i = 0..n
    for _ in range(n):
        qn_pows.append(_reduced(qn_pows[-1] * qn, prime))
        qd_pows.append(_reduced(qd_pows[-1] * qd, prime))
    out = []
    en = ed = 1  # q_n^e and q_d^e, e = j(j+1)/2
    for j in range(n + 1):
        en, ed = _reduced(en * qn_pows[j], prime), _reduced(ed * qd_pows[j], prime)
        lo, hi = max(j - 1, 0), max(2 * j - 1, 0)  # T_(j-1) / T_(2j-1), T_0 / T_0 at j = 0
        cn = (-1) ** j * en * qq_d[j] * tn[lo] * td[hi]
        cd = ed * qq_n[j] * td[lo] * tn[hi]
        dn, dd = [1], [1]
        for i in range(1, n - j + 1):
            dn.append(_reduced(qn_pows[i] * qq_d[i] * tn[2 * j] * td[2 * j + i], prime))
            dd.append(_reduced(qd_pows[i] * qq_n[i] * td[2 * j] * tn[2 * j + i], prime))
        out.append((_reduced(cn, prime), _reduced(cd, prime), dn, dd))
    return out


def newton_lattice_coeffs(
    f: PolynomialInX, a: Scalar, q: Scalar, n: int
) -> list[Scalar]:
    """Coefficients u_k with f(x) = sum_k u_k (a*z, a/z; q)_k, for deg f <= n.

    u_k is the closed double sum obtained from Newton interpolation on the
    q-quadratic lattice:

        u_k = sum_{j=0}^k q^(k - j^2) a^(-2j) f(b_j)
              / ( (q, q^(1-2j)/a^2; q)_j (q, q^(2j+1) a^2; q)_{k-j} ).

    The terms M_kj f(b_j) are unreduced integer pairs, with M_kj from
    _lattice_denominators; their denominators share most of their factors,
    so each u_k puts its terms over their lcm (scalar._over_one_denominator)
    and becomes one canonical Fraction.
    """
    if f.degree > n:
        raise DomainError(f"degree {f.degree} exceeds expansion order {n}")
    fvals = [_pair(f(b)) for b in _distinct_lattice_nodes(a, q, n)]
    tables = _lattice_denominators(a, q, n)
    heads = [(fn * cn, fd * cd) for (fn, fd), (cn, cd, _, _) in zip(fvals, tables)]
    out = []
    for k in range(n + 1):
        terms = [
            (wn * dn[k - j], wd * dd[k - j])
            for j, ((wn, wd), (_, _, dn, dd)) in enumerate(zip(heads[: k + 1], tables))
        ]
        nums, den = _over_one_denominator(terms)
        out.append(Fraction(sum(nums), den))
    return out


def _weight_orders(
    p: AWParams, n: int, prime: int | None = None
) -> Iterator[list[tuple[int, int, int, int]]]:
    """The lattice weights of each order k = 0..n in turn: (cn, cd, sn, sd) per
    node j <= k, with w_j = (cn sn)/(cd sd) as unreduced integers, or those
    integers mod `prime` when one is given.

    M_kj = (cn/cd) (dn[k-j]/dd[k-j]) from _lattice_denominators does not depend
    on the order, so s_j = sum_(j<=k'<=k) mu_k' dn[k'-j]/dd[k'-j] is a partial
    sum: one accumulation loop over k adds one term to each s_j per order.
    The tables of order n are read before the first yield.
    """
    tables = _lattice_denominators(p.a, p.q, n, prime)
    sums: list[tuple[int, int]] = []
    for k, (mn, md) in enumerate(zip(*_basis_moment_pairs(n, p, prime))):
        sums.append((0, 1))
        for j in range(k + 1):
            dn, dd = tables[j][2][k - j], tables[j][3][k - j]
            sn, sd = sums[j]
            tn, td = mn * dn, md * dd
            sums[j] = (_reduced(sn * td + tn * sd, prime), _reduced(sd * td, prime))
        yield [(cn, cd, sn, sd) for (cn, cd, _, _), (sn, sd) in zip(tables, sums)]


def moment_weights(
    p: AWParams, n: int, prime: int | None = None
) -> tuple[list[Scalar], list[Scalar | Residue]]:
    """Nodes b_0..b_n and weights w_j with L(f) = sum_j w_j f(b_j) for deg f <= n;
    the nodes stay exact, and the weights are Residues mod `prime` when one
    is given.

    L is linear and L(f) = sum_k mu_k u_k, with mu_k = L((a*z, a/z; q)_k) and
    u_k = sum_{j<=k} M_kj f(b_j), so w_j = sum_{j<=k<=n} mu_k M_kj, with M_kj
    from _lattice_denominators: the order-n weights of _weight_orders, the one
    loop that sums the double sum of Thm 4.3.  Raises DegenerateLattice when
    two of b_0..b_n coincide (the only way a lattice Newton denominator of
    order n vanishes) and PoleError when (abcd;q)_n vanishes; both persist as
    n grows.  The basis peel (_peel_functional on _basis_moments) reads no
    node, so only the latter stops it.
    """
    nodes = _distinct_lattice_nodes(p.a, p.q, n)
    *_, weights = _weight_orders(p, n, prime)
    return nodes, [_ratio([cn, sn], [cd, sd], prime) for cn, cd, sn, sd in weights]


def _weighted_sum(
    *columns: tuple[Sequence[int], int], prime: int | None = None
) -> Scalar | Residue:
    """sum_j x_j y_j ... over integer columns (nums, den), x_j = nums[j] / den:
    one integer dot product over the product of the denominators, or its
    Residue mod `prime` when one is given."""
    total = sum(map(math.prod, zip(*[nums for nums, _ in columns])))
    return _ratio([total], [math.prod(den for _, den in columns)], prime)


def _peel_functional(
    f: PolynomialInX,
    basis: list[PolynomialInX],
    moments: list[Scalar | Residue],
    prime: int | None = None,
) -> Scalar | Residue:
    """L(f) from L's definition on the basis: f = sum_k u_k (a*z, a/z; q)_k and
    L(f) = sum_k u_k L((a*z, a/z; q)_k), on the basis polynomials
    (pochhammer_basis_polys) and moments (_basis_moments) of any order
    >= deg f, or its Residue mod `prime` when one is given, with the moments
    too.

    The u_k are peeled off from the top degree down: (a*z, a/z; q)_k has
    leading coefficient (-2a)^k q^(k(k-1)/2), so u_k is the x^k coefficient
    of what is left once the terms above k are subtracted.  No lattice node
    enters, so this is independent of the lattice weights of moment_weights.

    What is left of f stays integers over one denominator.  With r = nums/den
    and b = basis[k], u_k = r_k / b_k, and r - u_k b is
    (nums b_k - nums[k] b.nums) / (den b_k): no division, so this runs mod p
    as it does on ℚ.  The leading coefficient b_k of a basis polynomial is
    (-2a)^k q^(k(k-1)/2) times its denominator, never zero.  On ℚ what is left
    is put in lowest terms after each peel."""
    nums, den = f.nums, f.den
    total = 0
    for k in range(f.degree, -1, -1):
        b = basis[k]
        nk, bk = nums[k], b.nums[k]
        total += _ratio([nk, b.den], [den, bk], prime) * moments[k]
        # the x^k coefficient cancels
        nums = [_reduced(x * bk - nk * y, prime) for x, y in zip(nums[:k], b.nums)]
        den = _reduced(den * bk, prime)
        if prime is None:
            nums, den = _lowest_terms(nums, den)
    return total


def _apply_weights(
    weights: list[tuple[int, int, int, int]],
    values: list[tuple[int, int]],
    prime: int | None = None,
) -> Scalar | Residue:
    """sum_j w_j v_j for the weights (cn, cd, sn, sd) of one _weight_orders
    order and value pairs v_j, summed as unreduced integer pairs, or mod
    `prime` into a Residue when one is given."""
    terms = ((cn * sn * xn, cd * sd * xd) for (cn, cd, sn, sd), (xn, xd) in zip(weights, values))
    num, den = _pair_sum(terms, prime)
    return _ratio([num], [den], prime)


def _shifted_nodes(t: Scalar, p: AWParams, n: int) -> list[tuple[int, int]]:
    """t + b_j for j = 0..n as unreduced integer pairs, once the nodes b_j are
    checked distinct."""
    tn, td = _pair(t)
    nodes = map(_pair, _distinct_lattice_nodes(p.a, p.q, n))
    return [(tn * bd + bn * td, td * bd) for bn, bd in nodes]


def aw_moment(n: int, t: Scalar, p: AWParams, prime: int | None = None) -> Scalar | Residue:
    """L((t+x)^n) by the double-sum formula.

    L((t+x)^n) = sum_{k=0}^n (ac,ab,ad;q)_k/(abcd;q)_k *
                 sum_{j=0}^k q^(k-j^2) a^(-2j) (t + (q^j a + q^-j/a)/2)^n
                 / ( (q, q^(1-2j)/a^2; q)_j (q, q^(2j+1) a^2; q)_{k-j} ).

    This applies the order-n weights of _weight_orders to (t + b_j)^n, after
    checking the nodes as moment_weights does; aw_moments gives every order
    up to n from one pass.  Given a prime, the weights and the powers are
    taken mod p and the value is a Residue; the nodes and the poles stay
    exact.
    """
    shifted = _shifted_nodes(t, p, n)
    *_, weights = _weight_orders(p, n, prime)
    powers = [(pow(xn, n, prime), pow(xd, n, prime)) for xn, xd in shifted]
    return _apply_weights(weights, powers, prime)


def aw_moments(
    t: Scalar, p: AWParams, n: int, prime: int | None = None
) -> list[Scalar | Residue]:
    """[L((t+x)^k) for k = 0..n], equal to aw_moment(k, t, p, prime) for each k.

    One _weight_orders pass gives the weights of every order, and (t + b_j)^k
    gains one factor per order.  This raises exactly when aw_moment(n, t, p)
    raises, with its exception.  A lower order may raise another one: a zero
    (abcd;q)_k raises PoleError there, while order n finds two nodes collided
    first and raises DegenerateLattice.  The checks resample on both.
    """
    shifted = _shifted_nodes(t, p, n)
    powers = [(1, 1)] * len(shifted)  # (t + b_j)^k at order k
    out = []
    for weights in _weight_orders(p, n, prime):
        out.append(_apply_weights(weights, powers, prime))
        powers = [
            (_reduced(xn * sn, prime), _reduced(xd * sd, prime))
            for (xn, xd), (sn, sd) in zip(powers, shifted)
        ]
    return out


def _difference_table(pairs: Sequence[tuple[int, int]]) -> list[list[tuple[int, int]]]:
    """The node-difference table of nodes b_j = j_n/j_d, given as canonical
    pairs: column k lists, for j = 0..k, prod_{r<=k, r!=j} (b_j - b_r) as the
    unreduced integer pair D[j][k] / E[j][k], with

        D[j][k] = prod_{r<=k, r!=j} (j_n r_d - r_n j_d),
        E[j][k] = prod_{r<=k, r!=j} j_d r_d.

    Column k is column k-1 with the factor of r = k in each entry, and one
    new entry j = k: prefix products.  D is nonzero when the nodes are
    distinct.  newton_coeffs and _connection_table read their denominators
    from it.
    """
    columns: list[list[tuple[int, int]]] = []
    column: list[tuple[int, int]] = []
    b_den = 1  # prod_{r<k} r_d
    for k, (kn, kd) in enumerate(pairs):
        head = pairs[:k]
        column = [(d * (jn * kd - kn * jd), e * jd * kd) for (d, e), (jn, jd) in zip(column, head)]
        column.append((math.prod([kn * jd - jn * kd for jn, jd in head]), kd**k * b_den))
        columns.append(column)
        b_den *= kd
    return columns


def newton_coeffs(nodes: Sequence[Scalar], values: Sequence[Scalar]) -> list[Scalar]:
    """Divided differences c_k = sum_j f(b_j) / prod_{r<=k, r!=j} (b_j - b_r).

    These are the coefficients of f in the basis (x-b_0)...(x-b_{k-1}).  Each
    c_k is that closed form, summed on integer pairs over column k of
    _difference_table: one canonical Fraction.
    """
    if len(nodes) != len(values):
        raise ValueError("nodes and values must have equal length")
    pairs = list(map(_pair, nodes))
    if len(set(pairs)) != len(pairs):  # canonical pairs, cheaper to hash
        raise DuplicateNodes("interpolation nodes must be distinct")
    fvals = list(map(_pair, values))
    return [
        Fraction(*_pair_sum((fn * e, fd * d) for (fn, fd), (d, e) in zip(fvals, column)))
        for column in _difference_table(pairs)
    ]


def newton_to_monomial(coeffs: Sequence[Scalar], nodes: Sequence[Scalar]) -> PolynomialInX:
    """Expand sum_k c_k (x-b_0)...(x-b_{k-1}) into the monomial basis.

    The basis polynomials are prefix products, each the last times x - b_(k-1),
    and the sum over them is one more series._sum_of_products call.
    """
    if len(nodes) < len(coeffs) - 1:
        raise ValueError("need a node for each basis factor: len(nodes) >= len(coeffs) - 1")
    basis = [([1], 1)]
    for k, (bn, bd) in enumerate(map(_pair, nodes[: len(coeffs) - 1]), 1):
        basis.append(_sum_of_products([(1, basis[-1], ([-bn, bd], bd))], k + 1))
    return PolynomialInX.from_integers(*_sum_of_products(list(zip(coeffs, basis)), len(coeffs)))


def _connection_table(
    a_nodes: Sequence[Scalar], b_nodes: Sequence[Scalar], n_top: int
) -> list[list[Scalar]]:
    """Rows n = 0..n_top of the connection coefficients between the bases
    prod(x+a_j) and prod(x-b_j):

        u(n,k) = sum_{r=0}^k prod_{j<n} (b_r + a_j) / prod_{j<=k, j!=r} (b_r - b_j).

    Row n lists u(n, k) for k = 0..min(n, len(b_nodes) - 1), each reading
    a_0..a_(n-1) and b_0..b_k.  The table reads a_0..a_(n_top-1) and raises
    DuplicateNodes when two b-nodes coincide.

    With b_r = r_n/r_d, prod_{j<n} (b_r + a_j) is values[r] / (r_d^n A_n): the
    numerators gain one factor r_n a_d + a_n r_d per row, and A_n is the
    product of the a-nodes' denominators.  The denominators
    prod_{j<=k, j!=r} (b_r - b_j) are column k of _difference_table, read by
    every row.  Each u(n, k) is summed on integer pairs: one canonical
    Fraction.
    """
    b_pairs = list(map(_pair, b_nodes))
    if len(set(b_pairs)) != len(b_pairs):  # canonical pairs, cheaper to hash
        raise DuplicateNodes("b-nodes must be distinct")
    columns = _difference_table(b_pairs)
    values, powers, a_den = [1] * len(b_pairs), [1] * len(b_pairs), 1  # powers[r] = r_d^n
    rows = []
    for n in range(n_top + 1):
        if n:
            an, ad = _pair(a_nodes[n - 1])
            values = [v * (rn * ad + an * rd) for v, (rn, rd) in zip(values, b_pairs)]
            powers = [x * rd for x, (_, rd) in zip(powers, b_pairs)]
            a_den *= ad
        row = []
        for column in columns[: n + 1]:
            num, den = _pair_sum(
                (v * e, x * d) for v, x, (d, e) in zip(values, powers, column)
            )
            row.append(Fraction(num, a_den * den))
        rows.append(row)
    return rows
