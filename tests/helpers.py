"""Shared helpers for the test suite: small seeded rational generators and
the six-term coefficient products read one (k, n) at a time."""

import random
from fractions import Fraction

from qident.identities import _six_term_table


def rand_fraction(rng: random.Random, height: int = 12) -> Fraction:
    """Nonzero rational with numerator/denominator bounded by `height`."""
    return Fraction(rng.randint(1, height) * rng.choice((1, -1)), rng.randint(1, height))


def rand_q(rng: random.Random, height: int = 12) -> Fraction:
    while True:
        q = rand_fraction(rng, height)
        if q not in (1, -1):
            return q


def six_term_parts(k, n, pt, r, s):
    """(A_k, B_k, C_k) at z^n from the six-term checks' tables, built up to n."""
    return tuple(Fraction(x, y) for x, y in _six_term_table(n, pt, r, s)(k, n))
