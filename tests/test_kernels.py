"""Integer numerator/denominator kernels against plain-Fraction references.

The references below are the running Fraction products the kernels replace.
Every comparison is on (numerator, denominator) and type, so a kernel must
return the canonical Fraction, not just an equal value.
"""

import random
from fractions import Fraction as F

import pytest

from helpers import rand_fraction, rand_q
from qident.scalar import DomainError, PoleError, qpoch, qpoch_multi, qpoch_multi_table, qpoch_table
from qident.series import HypergeometricSpec, TruncatedSeries, phi_series, series_mul

SEEDS = range(40)


def ref_qpoch_table(a, q, n):
    prod = F(1)
    out = [prod]
    f = a
    for _ in range(n):
        prod *= 1 - f
        out.append(prod)
        f *= q
    return out


def ref_qpoch(a, q, n):
    if n >= 0:
        return ref_qpoch_table(a, q, n)[n]
    out = F(1)
    f = a
    for _ in range(-n):
        f /= q
        factor = 1 - f
        if factor == 0:
            raise PoleError("factor vanishes")
        out *= factor
    return 1 / out


def ref_qpoch_multi(params, q, n):
    out = F(1)
    for a in params:
        out *= ref_qpoch(a, q, n)
    return out


def ref_qpoch_multi_table(params, q, n):
    out = [F(1)] * (n + 1)
    for a in params:
        out = [x * y for x, y in zip(out, ref_qpoch_table(a, q, n))]
    return out


def ref_phi_series(spec, scale, order):
    q, e = spec.q, spec.sign_exponent
    coeffs = [F(1)]
    term = F(1)
    qn = F(1)
    for n in range(1, order + 1):
        den = 1 - qn * q
        for b in spec.denominators:
            den *= 1 - b * qn
        if den == 0:
            raise PoleError(f"denominator Pochhammer vanishes at term {n}")
        for a in spec.numerators:
            term *= 1 - a * qn
        term = term / den * scale
        if e:
            term *= (-1 if e % 2 else 1) * qn**e
        coeffs.append(term)
        qn *= q
    return tuple(coeffs)


def ref_series_mul(a, b):
    return tuple(sum((a[i] * b[k - i] for i in range(k + 1)), F(0)) for k in range(len(a)))


def canon(values):
    """(type, numerator, denominator) of each value: equal only if canonical."""
    return [(type(x), x.numerator, x.denominator) for x in values]


def sample_base(rng, q):
    """A random base: a small rational, an integer, or q^-k (a zero factor)."""
    pick = rng.random()
    if pick < 0.25:
        return F(q) ** -rng.randint(0, 5)
    if pick < 0.4:
        return rng.choice((-3, -2, 2, 3))
    return rand_fraction(rng)


def sample_q(rng):
    """Negative and positive rationals, and integer-valued q given as ints."""
    return rng.choice((rand_q(rng), -rand_q(rng), rng.choice((-3, -2, 2, 3))))


@pytest.mark.parametrize("seed", SEEDS)
def test_qpoch_family_matches_fraction_products(seed):
    rng = random.Random(seed)
    q = sample_q(rng)
    params = [sample_base(rng, q) for _ in range(rng.randint(0, 4))]
    for n in range(9):
        for a in params:
            assert canon(qpoch_table(a, q, n)) == canon(ref_qpoch_table(F(a), F(q), n))
            assert canon([qpoch(a, q, n)]) == canon([ref_qpoch(F(a), F(q), n)])
        assert canon(qpoch_multi_table(params, q, n)) == canon(
            ref_qpoch_multi_table([F(a) for a in params], F(q), n)
        )
        assert canon([qpoch_multi(params, q, n)]) == canon(
            [ref_qpoch_multi([F(a) for a in params], F(q), n)]
        )


def test_qpoch_multi_negative_index_matches_reference():
    q = F(-3, 5)
    params = [F(2, 7), F(-4), F(5, 3)]
    for n in range(-4, 0):
        assert canon([qpoch_multi(params, q, n)]) == canon([ref_qpoch_multi(params, q, n)])
    with pytest.raises(PoleError):
        qpoch_multi([F(2, 7), q**2], q, -3)


@pytest.mark.parametrize("q", [F(2, 3), F(-3, 4), -2, 3])
def test_qpoch_at_q_to_minus_k_holds_zeros(q):
    for k in range(4):
        a = F(q) ** -k
        table = qpoch_table(a, q, k + 3)
        assert all(x != 0 for x in table[: k + 1])
        assert canon(table[k + 1 :]) == canon([F(0)] * 3)
        assert qpoch(a, q, k + 1) == 0
        multi = qpoch_multi_table((F(1, 2), a), q, k + 3)
        assert canon(multi[k + 1 :]) == canon([F(0)] * 3)
        assert qpoch_multi((a,), q, k + 2) == 0


def test_qpoch_table_order_zero_and_negative():
    assert canon(qpoch_table(F(5, 3), F(1, 2), 0)) == canon([F(1)])
    assert canon(qpoch_multi_table((F(5, 3), 2), F(1, 2), 0)) == canon([F(1)])
    assert canon([qpoch_multi((), F(1, 2), 4)]) == canon([F(1)])
    with pytest.raises(DomainError):
        qpoch_table(F(5, 3), F(1, 2), -1)
    with pytest.raises(DomainError):
        qpoch_multi_table((F(5, 3),), F(1, 2), -1)


def random_spec(rng):
    q = sample_q(rng)
    nums = tuple(F(sample_base(rng, q)) for _ in range(rng.randint(0, 5)))
    dens = tuple(F(sample_base(rng, q)) for _ in range(rng.randint(0, 5)))
    return HypergeometricSpec(nums, dens, F(q))


def outcome(fn, *args):
    try:
        return "value", canon(fn(*args))
    except PoleError as exc:
        return "pole", str(exc)


@pytest.mark.parametrize("seed", SEEDS)
def test_phi_series_matches_term_ratio_reference(seed):
    rng = random.Random(seed)
    spec = random_spec(rng)
    scale = rng.choice((rand_fraction(rng), F(0), -3))
    for order in (0, 1, 5, 9):
        got = outcome(lambda: phi_series(spec, scale, order).coeffs)
        assert got == outcome(ref_phi_series, spec, F(scale), order)


def test_phi_series_poles_at_the_reference_index():
    q = F(-2, 3)
    seen = set()
    for k in range(5):
        spec = HypergeometricSpec((F(1, 3), F(5)), (q**-k, F(2, 7)), q)
        got = outcome(lambda: phi_series(spec, F(3, 2), 8).coeffs)
        assert got == outcome(ref_phi_series, spec, F(3, 2), 8)
        assert got == ("pole", f"denominator Pochhammer vanishes at term {k + 1}")
        seen.add(got)
    assert len(seen) == 5
    # q^n = 1 at n = 2: the (q;q)_n factor itself vanishes
    spec = HypergeometricSpec((F(1, 3),), (), F(-1))
    assert outcome(lambda: phi_series(spec, F(1), 4).coeffs) == (
        "pole",
        "denominator Pochhammer vanishes at term 2",
    )


def test_phi_series_order_zero_and_zero_scale():
    spec = HypergeometricSpec((F(1, 3), F(-2)), (F(3, 4),), F(-2, 5))
    assert canon(phi_series(spec, F(7, 2), 0).coeffs) == canon([F(1)])
    assert canon(phi_series(spec, F(0), 5).coeffs) == canon([F(1)] + [F(0)] * 5)
    # a pole is still raised when the scale zeroes every later term
    pole = HypergeometricSpec((F(1, 3),), (F(-2, 5) ** -1,), F(-2, 5))
    with pytest.raises(PoleError):
        phi_series(pole, F(0), 4)


@pytest.mark.parametrize("seed", SEEDS)
def test_series_mul_matches_fraction_convolution(seed):
    rng = random.Random(seed)
    order = rng.randint(0, 8)

    def coeff():
        return rng.choice((rand_fraction(rng, 40), F(0), F(rng.randint(-5, 5))))

    a = tuple(coeff() for _ in range(order + 1))
    b = tuple(coeff() for _ in range(order + 1))
    got = series_mul(TruncatedSeries(a), TruncatedSeries(b)).coeffs
    assert canon(got) == canon(ref_series_mul(a, b))


def test_series_mul_order_zero_and_zero_series():
    one = TruncatedSeries((F(3, 4),))
    assert canon(series_mul(one, TruncatedSeries((F(-2, 9),))).coeffs) == canon([F(-1, 6)])
    zero = TruncatedSeries((F(0),) * 4)
    other = TruncatedSeries((F(1, 2), F(-5, 3), F(7), F(2, 9)))
    assert canon(series_mul(zero, other).coeffs) == canon([F(0)] * 4)
