"""Shared helpers for the test suite: small seeded rational generators and
the six-term coefficients read one (k, n) at a time."""

import random
from fractions import Fraction

from qident.identities import main_quadratic_factors


def rand_fraction(rng: random.Random, height: int = 12) -> Fraction:
    """Nonzero rational with numerator/denominator bounded by `height`."""
    return Fraction(rng.randint(1, height) * rng.choice((1, -1)), rng.randint(1, height))


def rand_q(rng: random.Random, height: int = 12) -> Fraction:
    while True:
        q = rand_fraction(rng, height)
        if q not in (1, -1):
            return q


def six_term_parts(k, n, pt, r, s):
    """(A_k, B_k, C_k) at z^n: (-1)^(s-r) prefactor F[k] G[n-k] of each product of
    main_quadratic_factors, with the series built up to n."""
    if k == n + 1:
        return (Fraction(0),) * 3
    sign = Fraction(-1) ** (s - r)
    return tuple(
        sign * pref * f[k] * g[n - k] for pref, f, g in main_quadratic_factors(pt, r, s, n)
    )
