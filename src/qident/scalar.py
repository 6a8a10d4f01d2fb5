"""Exact rational scalars, q-Pochhammer primitives, and parameter sampling.

Every quantity in this package is a ``fractions.Fraction`` (aliased ``Scalar``):
arithmetic is exact, values are kept in lowest terms with positive denominator,
and division by zero raises instead of producing a NaN.  The Pochhammer
kernels run their loops on plain-int numerator/denominator pairs and build one
canonical ``Fraction`` per value they return: the values of running
``Fraction`` products, without a gcd at every factor.  Identities are
certified by evaluating both sides at random small-height rational points
(Schwartz-Zippel style), so the sampler here is the only source of randomness
and is fully deterministic in its seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

Scalar = Fraction

DEFAULT_HEIGHT = 40
DEFAULT_RETRY_CAP = 1000


class PoleError(ArithmeticError):
    """A q-Pochhammer (or other factor) required to be nonzero vanished."""


class DomainError(ValueError):
    """Argument outside the operation's domain."""


class SamplingExhausted(RuntimeError):
    """No parameter point satisfying the constraints was found in the retry cap."""


def qpoch(a: Scalar, q: Scalar, n: int) -> Scalar:
    """q-shifted factorial (a;q)_n for any integer n.

    (a;q)_n = prod_{k=0}^{n-1} (1 - a q^k) for n >= 0, and
    (a;q)_{-n} = 1 / prod_{k=1}^{n} (1 - a q^{-k}) for n > 0.
    """
    if n >= 0:
        nums, dens = _qpoch_prefix(a, q, n)
        return Fraction(nums[n], dens[n])
    out = Fraction(1)
    f = a
    for _ in range(-n):
        f /= q
        factor = 1 - f
        if factor == 0:
            raise PoleError(f"(a;q)_{n} undefined: factor 1 - a*q^k vanishes")
        out *= factor
    return 1 / out


def _qpoch_prefix(a: Scalar, q: Scalar, n: int) -> tuple[list[int], list[int]]:
    """Integer numerators and positive denominators of (a;q)_0, ..., (a;q)_n."""
    return _qpoch_multi_prefix((a,), q, n)


def qpoch_table(a: Scalar, q: Scalar, n: int) -> list[Scalar]:
    """Prefix table [(a;q)_0, (a;q)_1, ..., (a;q)_n], one running product.

    Builders that read (a;q)_k at many k take it from one table instead of
    recomputing each product from scratch.  Entries may be zero; only a
    caller dividing by one knows whether that is a pole.
    """
    return [Fraction(x, y) for x, y in zip(*_qpoch_prefix(a, q, n))]


def _qpoch_multi_prefix(params: Iterable[Scalar], q: Scalar, n: int) -> tuple[list[int], list[int]]:
    """Integer numerators and positive denominators of (params;q)_0, ..., (params;q)_n.

    With a = a_n/a_d and q = q_n/q_d in lowest terms, the factor 1 - a q^k is
    (a_d q_d^k - a_n q_n^k) / (a_d q_d^k); the pairs are the running products
    of every base's factors, left unreduced.  With no base every entry is 1/1.
    """
    if n < 0:
        raise DomainError("qpoch_table needs n >= 0")
    qn, qd = q.numerator, q.denominator
    bases = [[a.numerator, a.denominator] for a in params]
    num = den = 1
    nums, dens = [1], [1]
    for _ in range(n):
        for base in bases:
            an, ad = base
            num *= ad - an
            den *= ad
            base[0], base[1] = an * qn, ad * qd
        nums.append(num)
        dens.append(den)
    return nums, dens


def qpoch_multi_table(params: Iterable[Scalar], q: Scalar, n: int) -> list[Scalar]:
    """Prefix table [(params;q)_0, ..., (params;q)_n], one canonical Fraction per entry."""
    return [Fraction(x, y) for x, y in zip(*_qpoch_multi_prefix(params, q, n))]


def qpoch_multi(params: Iterable[Scalar], q: Scalar, n: int) -> Scalar:
    """Product (a_1, ..., a_r; q)_n = (a_1;q)_n ... (a_r;q)_n."""
    if n < 0:
        return math.prod((qpoch(a, q, n) for a in params), start=Fraction(1))
    nums, dens = _qpoch_multi_prefix(params, q, n)
    return Fraction(nums[n], dens[n])


def qint(k: int, q: Scalar) -> Scalar:
    """q-integer [k]_q = (1 - q^k)/(1 - q)."""
    if q == 1:
        raise ZeroDivisionError("[k]_q undefined at q = 1")
    return (1 - q**k) / (1 - q)


def qfactorial(n: int, q: Scalar) -> Scalar:
    """q-factorial [n]_q! = [1]_q [2]_q ... [n]_q."""
    if n < 0:
        raise DomainError("qfactorial needs n >= 0")
    if q == 1:
        raise ZeroDivisionError("[n]_q! undefined at q = 1")
    out = Fraction(1)
    for k in range(1, n + 1):
        out *= qint(k, q)
    return out


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

    def get(self, name: str, default: Scalar | None = None) -> Scalar | None:
        return self.assignments.get(name, default)

    def values(self, names: Sequence[str]) -> tuple[Scalar, ...]:
        return tuple(self.assignments[n] for n in names)


Constraint = Callable[[ParamPoint], bool]


def sample_point(
    names: Sequence[str],
    constraints: Constraint | None = None,
    seed: int = 0,
    height: int = DEFAULT_HEIGHT,
    retry_cap: int = DEFAULT_RETRY_CAP,
) -> ParamPoint:
    """Draw a random small-height rational assignment for `names`.

    Each parameter gets p/r with 1 <= |p|, r <= height (never 0); the parameter
    named "q" is additionally kept away from 1 and -1.  Candidates violating
    `constraints` are redrawn, up to `retry_cap` attempts.  Deterministic in
    `seed`.  A constraint that raises PoleError/ZeroDivisionError counts as a
    violation, so pole guards can simply evaluate the guarded expression.
    """
    rng = random.Random(seed)
    for _ in range(retry_cap):
        assignments: dict[str, Scalar] = {}
        for name in names:
            num = rng.randint(1, height) * rng.choice((1, -1))
            den = rng.randint(1, height)
            assignments[name] = Fraction(num, den)
        q = assignments.get("q")
        if q is not None and q in (1, -1):
            continue
        point = ParamPoint(assignments, seed)
        if constraints is not None:
            try:
                if not constraints(point):
                    continue
            except (PoleError, ZeroDivisionError):
                continue
        return point
    raise SamplingExhausted(
        f"no point for {list(names)} satisfied the constraints in {retry_cap} tries"
    )
