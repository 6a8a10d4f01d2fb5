"""Exact rational scalars, q-Pochhammer primitives, and parameter sampling.

A scalar of this package is a ``fractions.Fraction`` (aliased ``Scalar``):
arithmetic is exact, values are kept in lowest terms with positive
denominator, and division by zero raises instead of producing a NaN.  Series
and polynomials are integer vectors over one denominator, and the modular
checks compare residues mod a prime (below).  The Pochhammer kernels run their
loops on plain-int numerator/denominator pairs and build one canonical
``Fraction`` per value they return: the values of running ``Fraction``
products, without a gcd at every factor.  Every closed form of the paper, a
monomial times a ratio of Pochhammer products, comes from one kernel,
``_closed_forms``, which reads the forms of every order at a point from one
pass: one prefix table per Pochhammer group, each order evaluated by
``_form_value``.  ``_closed_form`` is its one-order case: it builds the
tables of its one order and calls ``_form_value`` directly.  The
Askey-Wilson norm ratios h_n/h_0 are read by askey_wilson from a pair of
prefix tables of their own.  The other
modules read a value's integer pair only through ``_pair`` (or its residues
mod p through ``_pair_mod``), divide with a pole check through
``_quotient``, and take their tables from the helpers here: Pochhammer
prefix tables, Pochhammer ratio tables, and lists over one common
denominator.  Identities are certified by
evaluating both sides at random small-height rational points (Schwartz-Zippel
style), so the sampler here is the only source of randomness and is fully
deterministic in its seed: a point's seed fixes its values and its modulus.

The engines, series and closed forms of the modular checks run modulo the
trial's prime ``pt.prime``, which is ``trial_prime(pt.seed)`` drawn on first
read.  Their values are ``Residue``s and ``series.SeriesResidue``s: the images
mod p of exact rationals N/D, compared without ever inverting D.
The closed-form kernel given a prime takes its prefix tables mod p and builds
no canonical Fraction; its poles are still decided on the exact entries.
The modular matrix builders make each entry the same way, one ``_ratio`` of
unreduced integer products, so their entries are Residues with no gcd, and
the engines and oracles read an entry's pair mod p through
``_common_denominator``: a Residue mod that p in place, any other value
through ``_pair_mod``.  The moment layer takes its
Pochhammer prefix tables mod p: each factor is formed exactly, and an entry
is held as its residue in 1..p, or as 0 when the exact entry is zero, so a
zero entry still means an exact zero.

One rule puts values over one denominator, ``_over_one_denominator``, and
every engine row, every sum of products of series or polynomials and the
six-term numerators take it from there.  On ℚ the denominator is the lcm
of the values' denominators.  Mod p it is their product, and each
numerator is multiplied by the other denominators: nothing is inverted, so
a denominator ≡ 0 mod p is allowed, and the residue of the result is that
of the exact cross-multiplied numerator.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Sequence

Scalar = Fraction

DEFAULT_HEIGHT = 40
RETRY_CAP = 1000  # draws before sample_point gives up on a q away from +-1


class PoleError(ArithmeticError):
    """A q-Pochhammer (or other factor) required to be nonzero vanished."""


class DomainError(ValueError):
    """Argument outside the operation's domain."""


class SamplingExhausted(RuntimeError):
    """No usable parameter point was found within the retry cap."""


def _pair(x: Scalar) -> tuple[int, int]:
    """(numerator, positive denominator) of an int or Fraction, in lowest terms."""
    return x.numerator, x.denominator


def _pair_mod(x: Scalar | Residue, p: int) -> tuple[int, int]:
    """(N mod p, D mod p) of the pair N/D an int, Fraction or Residue mod p is
    held as: a Fraction's is in lowest terms, a Residue's is unreduced."""
    if isinstance(x, Residue):
        if x.p != p:
            raise ValueError("residues modulo different primes")
        return x.num, x.den
    return x.numerator % p, x.denominator % p


def _quotient(num: Scalar, den: Scalar, what: str) -> Scalar:
    """num / den, reporting a vanishing denominator as PoleError(f"{what} vanishes")."""
    if den == 0:
        raise PoleError(f"{what} vanishes")
    return num / den


def qpoch(a: Scalar, q: Scalar, n: int) -> Scalar:
    """q-shifted factorial (a;q)_n for any integer n.

    (a;q)_n = prod_{k=0}^{n-1} (1 - a q^k) for n >= 0, and
    (a;q)_n = 1 / (a q^n; q)_{-n} for n < 0, a pole when that product vanishes.
    """
    if n >= 0:
        nums, dens = _qpoch_multi_prefix((a,), q, n)
        return Fraction(nums[n], dens[n])
    nums, dens = _qpoch_multi_prefix((Fraction(a) / q**-n,), q, -n)
    if nums[-n] == 0:
        raise PoleError(f"(a;q)_{n} undefined: factor 1 - a*q^k vanishes")
    return Fraction(dens[-n], nums[-n])


def _qpoch_multi_prefix(
    params: Iterable[Scalar], q: Scalar, n: int, prime: int | None = None
) -> tuple[list[int], list[int]]:
    """Integer numerators and positive denominators of (params;q)_0, ..., (params;q)_n.

    With a = a_n/a_d and q = q_n/q_d in lowest terms, the factor 1 - a q^k is
    (a_d q_d^k - a_n q_n^k) / (a_d q_d^k); the pairs are the running products
    of every base's factors, left unreduced.  With no base every entry is 1/1.

    Given a prime, each factor is still formed exactly and the running
    products are taken mod p.  An entry is then held as its residue in
    1..p when the exact entry is nonzero and as 0 when it is zero, so
    `== 0` still tests the exact entry: one that is only ≡ 0 mod p reads p
    and is no pole, and `% p` gives its residue.
    """
    if n < 0:
        raise DomainError("a Pochhammer table needs n >= 0")
    qn, qd = _pair(q)
    bases = [list(_pair(a)) for a in params]
    num = den = 1
    nums, dens = [1], [1]
    for _ in range(n):
        for base in bases:
            an, ad = base
            num *= ad - an
            den *= ad
            base[0], base[1] = an * qn, ad * qd
        if prime is not None:  # a product of entries in 1..p is 0 only by an exact zero
            num, den = num and (num % prime or prime), den % prime or prime
        nums.append(num)
        dens.append(den)
    return nums, dens


def qpoch_multi(params: Iterable[Scalar], q: Scalar, n: int) -> Scalar:
    """Product (a_1, ..., a_r; q)_n = (a_1;q)_n ... (a_r;q)_n."""
    if n < 0:
        return math.prod((qpoch(a, q, n) for a in params), start=Fraction(1))
    nums, dens = _qpoch_multi_prefix(params, q, n)
    return Fraction(nums[n], dens[n])


_Group = tuple[Sequence[Scalar], Scalar, Sequence[int]]
_Form = tuple[Iterable[tuple[Scalar, int]], Sequence[_Group], Sequence[_Group]]


def _closed_forms(
    orders: Sequence[int],
    form: Callable[[int], _Form],
    what: str = "",
    prime: int | None = None,
) -> Iterator[Scalar | Residue]:
    """Every closed form in the paper, at each order n of `orders` in turn.

    form(n) is (powers, nums, dens): prod base^e over `powers` (e of either
    sign) times the Pochhammer groups of `nums` over those of `dens`.  A
    group (bases, q, ks) is prod_(k in ks) (bases;q)_k; the i-th group of
    every order has the bases and q of the first order's, and only its ks
    change with n.  So each group is one _qpoch_multi_prefix table, mod
    `prime` when one is given, up to the largest k any order reads, and
    order n is one canonical Fraction of unreduced integer products of its
    entries, or their Residue mod `prime`.  form(n) is called for every
    order before the first value is yielded.

    Order n raises PoleError(f"{what} vanishes") when it is reached if a
    power base with e < 0 is zero or a denominator entry it reads is exactly
    zero, so only the entries read can be poles; an entry that is only
    ≡ 0 mod p is none.
    """
    forms = [form(n) for n in orders]
    if not forms:
        return
    _, nums, dens = forms[0]
    groups = (*nums, *dens)
    tops = [0] * len(groups)
    for _, nums, dens in forms:
        for i, (_, _, ks) in enumerate((*nums, *dens)):
            tops[i] = max(tops[i], max(ks, default=0))
    tables = [_qpoch_multi_prefix(bases, q, top, prime) for (bases, q, _), top in zip(groups, tops)]
    for one in forms:
        yield _form_value(one, tables, what, prime)


def _form_value(
    form: _Form, tables: Sequence[tuple[list[int], list[int]]], what: str, prime: int | None
) -> Scalar | Residue:
    """One order of _closed_forms: the form (powers, nums, dens) from the
    prefix tables of its groups, nums' then dens', in order."""
    powers, nums, dens = form
    ups, downs = [], []
    pole = False
    for base, e in powers:
        bn, bd = _pair(base) if e >= 0 else _pair(base)[::-1]
        pole = pole or bd == 0  # a denominator is positive, so only e < 0
        ups.append(pow(bn, abs(e), prime))
        downs.append(pow(bd, abs(e), prime))
    for (tn, td), (_, _, ks) in zip(tables, nums):
        for k in ks:
            ups.append(tn[k])
            downs.append(td[k])
    for (tn, td), (_, _, ks) in zip(tables[len(nums):], dens):
        # a zero stays zero in a running product, so the last entry read decides
        pole = pole or tn[max(ks, default=0)] == 0
        for k in ks:
            ups.append(td[k])
            downs.append(tn[k])
    if pole:
        raise PoleError(f"{what} vanishes")
    if prime is None:
        return Fraction(math.prod(ups), math.prod(downs))
    return Residue(math.prod(ups), math.prod(downs), prime)  # every factor is reduced mod p


def _closed_form(
    powers: Iterable[tuple[Scalar, int]],
    nums: Sequence[_Group],
    dens: Sequence[_Group] = (),
    what: str = "",
    prime: int | None = None,
) -> Scalar | Residue:
    """One closed form: _closed_forms at a single order, with each group's
    table taken up to the largest k it reads."""
    tables = [
        _qpoch_multi_prefix(bases, q, max((0, *ks)), prime) for bases, q, ks in (*nums, *dens)
    ]
    return _form_value((powers, nums, dens), tables, what, prime)


def _ratio(ups: list[int], downs: list[int], prime: int | None = None) -> Scalar | Residue:
    """prod ups / prod downs for nonzero integer factors `downs`: one canonical
    Fraction, or with a prime the Residue of the two products, each product
    reduced mod p once."""
    if prime is None:
        return Fraction(math.prod(ups), math.prod(downs))
    return Residue(math.prod(ups), math.prod(downs), prime)


def _ratio_table(
    nums: Iterable[Scalar],
    den: Scalar,
    q: Scalar,
    top: int,
    what: str,
    shift: int = 0,
    prime: int | None = None,
) -> tuple[list[int], list[int]]:
    """(nums;q)_k / (den;q)_(k+shift) for k = 0..top, as unreduced integer pairs,
    products of the entries of _qpoch_multi_prefix tables mod `prime` when
    one is given.

    Callers read every entry, so a zero (den;q)_(top+shift) raises
    PoleError(f"{what} vanishes"); a zero stays zero in a running product, so
    the last entry decides, on the exact entry with or without a prime.  A
    negative top gives empty tables.
    """
    nn, nd = _qpoch_multi_prefix(nums, q, max(top, 0), prime)
    dn, dd = _qpoch_multi_prefix((den,), q, max(top + shift, 0), prime)
    if top >= 0 and dn[top + shift] == 0:
        raise PoleError(f"{what} vanishes")
    return (
        [nn[k] * dd[k + shift] for k in range(top + 1)],
        [nd[k] * dn[k + shift] for k in range(top + 1)],
    )


def _over_one_denominator(
    pairs: Sequence[tuple[int, int]], prime: int | None = None
) -> tuple[list[int], int]:
    """Integers x_i and L with n_i / d_i = x_i / L for the pairs (n_i, d_i),
    exact or mod `prime` by the rule of the module docstring; mod p the x_i
    come from prefix and suffix products of the d_i."""
    if prime is None:
        lcm = math.lcm(*[d for _, d in pairs])
        return [n * (lcm // d) for n, d in pairs], lcm
    prefix = [1]  # prefix[i]: the product of the first i denominators
    for _, d in pairs:
        prefix.append(prefix[-1] * d % prime)
    nums, suffix = [0] * len(pairs), 1
    for i in range(len(pairs) - 1, -1, -1):
        n, d = pairs[i]
        nums[i] = n * prefix[i] * suffix % prime
        suffix = suffix * d % prime
    return nums, prefix[-1]


def _common_denominator(
    values: Sequence[Scalar | Residue], prime: int | None = None
) -> tuple[list[int], int]:
    """_over_one_denominator of the values' pairs: ints and Fractions, or
    with a prime also Residues, a Residue mod that prime read in place and
    any other value through _pair_mod."""
    if prime is None:  # the pairs are read in place, with no list of them
        lcm = math.lcm(*[v.denominator for v in values])
        return [v.numerator * (lcm // v.denominator) for v in values], lcm
    pairs = [
        (v.num, v.den) if v.__class__ is Residue and v.p == prime else _pair_mod(v, prime)
        for v in values
    ]
    return _over_one_denominator(pairs, prime)


class Residue:
    """A rational N/D, with D a nonzero integer, held as (N mod p, D mod p).

    Each operation is the image of the exact one on unreduced integer pairs
    (a/b - c/d = (ad - cb)/(bd), and so on), so the residue of any result is
    X mod p, where X is the exact cross-multiplied numerator.  An exactly
    zero value therefore always reads 0, and a nonzero residue proves the
    exact value nonzero.  No residue is inverted, so D mod p may be 0.
    Operands are ints, Fractions and Residues modulo the same p.
    """

    __slots__ = ("num", "den", "p")

    def __init__(self, num: int, den: int, p: int):
        self.num, self.den, self.p = num % p, den % p, p

    def _pair(self, other) -> tuple[int, int] | None:
        if isinstance(other, (int, Fraction, Residue)):
            return _pair_mod(other, self.p)
        return None

    def __add__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        n, d = pair
        return Residue(self.num * d + n * self.den, self.den * d, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        n, d = pair
        return Residue(self.num * d - n * self.den, self.den * d, self.p)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        n, d = pair
        return Residue(self.num * n, self.den * d, self.p)

    __rmul__ = __mul__

    def __neg__(self):
        return Residue(-self.num, self.den, self.p)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented  # a negative power would invert N
        return Residue(pow(self.num, k, self.p), pow(self.den, k, self.p), self.p)

    def __eq__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        n, d = pair
        return (self.num * d - n * self.den) % self.p == 0

    __hash__ = None

    def is_zero(self) -> bool:
        return self.num == 0

    def __repr__(self) -> str:
        return f"Residue({self.num}, {self.den}, {self.p})"


_MASK64 = (1 << 64) - 1
# share a factor with every odd n that has a prime factor below 64 (1000):
# the cheap first gcd rejects 74% of the odd candidates and both together
# 84%, before any modular power
_SIEVE_64 = math.lcm(*range(3, 64, 2))
_SIEVE_1000 = math.lcm(*range(3, 1000, 2))
# a strong probable prime to these seven bases is prime for every n < 2^64
_MR_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)


def _is_prime(n: int) -> bool:
    """Deterministic primality for odd 1000 < n < 2^64: small-prime gcds,
    then the strong probable-prime test to the seven bases above."""
    if math.gcd(n, _SIEVE_64) != 1 or math.gcd(n, _SIEVE_1000) != 1:
        return False
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def trial_prime(seed: int) -> int:
    """The first prime at or after an odd start in [2^60, 2^61) drawn from `seed`.

    The start is a splitmix64 hash of the seed mod 2^64, so it shares no
    state with the sampler's stream.  2^61 - 1 is prime, so the search stays
    in range.  Deterministic in `seed`.
    """
    x = (seed + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    n = (1 << 60) | (x ^ (x >> 31)) >> 4 | 1
    while not _is_prime(n):
        n += 2
    return n


def gamma_int(n: int) -> Scalar:
    """Gamma at a positive integer: Gamma(n) = (n-1)!."""
    if n <= 0:
        raise DomainError("gamma_int needs a positive integer")
    return Fraction(math.factorial(n - 1))


@dataclass(frozen=True)
class ParamPoint:
    """An assignment of Scalar values to named parameters, tagged by its seed."""

    assignments: Mapping[str, Scalar]
    seed: int = 0

    def __getitem__(self, name: str) -> Scalar:
        return self.assignments[name]

    def values(self, names: Sequence[str]) -> tuple[Scalar, ...]:
        return tuple([self.assignments[n] for n in names])

    @functools.cached_property
    def prime(self) -> int:
        """The trial's modulus, trial_prime(seed), drawn on first read: most
        checks never read it."""
        return trial_prime(self.seed)


def sample_point(names: Sequence[str], seed: int = 0, height: int = DEFAULT_HEIGHT) -> ParamPoint:
    """Draw a random small-height rational assignment for `names`.

    Each parameter gets p/r with 1 <= |p|, r <= height (never 0); the parameter
    named "q" is additionally kept away from 1 and -1 by redrawing the whole
    point, up to RETRY_CAP draws.  Deterministic in `seed`.
    """
    rng = random.Random(seed)
    for _ in range(RETRY_CAP):
        assignments: dict[str, Scalar] = {}
        for name in names:
            num = rng.randint(1, height) * rng.choice((1, -1))
            den = rng.randint(1, height)
            assignments[name] = Fraction(num, den)
        if assignments.get("q") not in (1, -1):
            return ParamPoint(assignments, seed)
    raise SamplingExhausted(f"no point for {list(names)} had q != +-1 in {RETRY_CAP} draws")
