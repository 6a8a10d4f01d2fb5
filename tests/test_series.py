import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import phi, rand_fraction, rand_q
from qident.scalar import PoleError, qpoch, sample_point, trial_prime
from qident.series import (
    NotTerminating,
    OrderMismatch,
    SeriesResidue,
    TruncatedSeries,
    phi_series,
    phi_term,
    phi_terminating,
    series_linear_combine,
)

Q = F(2, 7)


def one(order):
    """The series 1 truncated at z^order."""
    return TruncatedSeries((F(1),) + (F(0),) * order)


def series_mul(u, v):
    """The Cauchy product of two series of one order."""
    return series_linear_combine([(1, u, v)])


def test_phi_term_zero_index_is_one():
    spec = phi([F(1, 3), F(2, 5)], [F(3, 4)], Q)
    assert phi_term(spec, 0) == 1


def test_phi_term_terminating_numerator():
    spec = phi([Q**-2, F(1, 3)], [F(3, 4)], Q)
    assert phi_term(spec, 2) != 0
    for n in (3, 4, 5):
        assert phi_term(spec, n) == 0


def test_phi_term_q_binomial_series():
    # 1phi0 has sign exponent 0: term n is (a;q)_n/(q;q)_n
    a = F(3, 5)
    spec = phi([a], [], Q)
    for n in range(5):
        assert phi_term(spec, n) == qpoch(a, Q, n) / qpoch(Q, Q, n)


def test_phi_term_sign_power_negative_exponent():
    # r = 2, s = 0: exponent 1+s-r = -1
    a, b = F(1, 3), F(2, 5)
    spec = phi([a, b], [], Q)
    n = 3
    expected = (
        qpoch(a, Q, n) * qpoch(b, Q, n) / qpoch(Q, Q, n) * (-1) ** n * Q ** (-3)
    )
    assert phi_term(spec, n) == expected


def test_phi_series_order_zero():
    spec = phi([F(1, 3)], [F(2, 5)], Q)
    s = phi_series(spec, F(1), 0)
    assert s.coeffs == (F(1),)


def test_phi_series_zero_argument_scale():
    spec = phi([F(1, 3)], [F(2, 5)], Q)
    s = phi_series(spec, F(0), 4)
    assert s.coeffs == (F(1), F(0), F(0), F(0), F(0))


def test_phi_series_terminates_with_qminus2_numerator():
    spec = phi([Q**-2], [], Q)
    s = phi_series(spec, F(1), 5)
    assert all(c == 0 for c in s.coeffs[3:])
    assert s.coeffs[2] != 0


def test_phi_series_matches_phi_term():
    spec = phi([F(1, 3), F(2, 5)], [F(3, 4), F(5, 6)], Q)
    scale = F(3, 2)
    s = phi_series(spec, scale, 8)
    for n in range(9):
        assert s[n] == phi_term(spec, n) * scale**n


def test_phi_series_denominator_pole():
    # denominator q^-3 makes (q^-3; q)_n vanish from n = 4 on
    spec = phi([F(1, 3)], [Q**-3], Q)
    with pytest.raises(PoleError):
        phi_series(spec, F(1), 6)


def test_phi_terminating_trivial():
    spec = phi([F(1), F(2, 5)], [F(3, 4)], Q)  # q^0 = 1 numerator
    assert phi_terminating(spec, F(5, 7), 0) == 1


def test_phi_terminating_zero_argument():
    spec = phi([Q**-3, F(2, 5)], [F(3, 4)], Q)
    assert phi_terminating(spec, F(0), 3) == 1


def test_phi_terminating_two_term_sum():
    # 2phi1[q^-1, b; c] at argument z: 1 + (1-q^-1)(1-b)/((1-q)(1-c)) z
    b, c, z = F(2, 5), F(3, 4), F(5, 7)
    spec = phi([Q**-1, b], [c], Q)
    expected = 1 + (1 - Q**-1) * (1 - b) / ((1 - Q) * (1 - c)) * z
    assert phi_terminating(spec, z, 1) == expected


def test_phi_terminating_requires_marker():
    spec = phi([F(1, 3)], [F(3, 4)], Q)
    with pytest.raises(NotTerminating):
        phi_terminating(spec, F(1), 2)


def test_phi_terminating_agrees_with_series_evaluation():
    m = 4
    spec = phi([Q**-m, F(2, 5), F(1, 3)], [F(3, 4), F(5, 6)], Q)
    z = F(2, 3)
    s = phi_series(spec, F(1), 7)
    by_series = sum(s[n] * z**n for n in range(8))
    assert phi_terminating(spec, z, m) == by_series


def _terms_oracle(spec, z, m):
    """sum_(n<=m) phi_term(spec, n) z^n, or the first PoleError's message."""
    total = F(0)
    for n in range(m + 1):
        try:
            total += phi_term(spec, n) * z**n
        except PoleError as exc:
            return str(exc)
    return total


@pytest.mark.parametrize("height", (2, 3, 40))
def test_phi_terminating_matches_the_term_by_term_oracle(height):
    # 0-4 extra numerators and denominators; at low heights b = q^(-k) is
    # common, so phi_terminating must raise at the oracle's first pole term
    names = ("q", "z") + tuple(f"a{i}" for i in range(4)) + tuple(f"b{i}" for i in range(4))
    outcomes = {"value": 0, "pole": 0}
    for seed in range(14):
        pt = sample_point(names, seed, height)
        q, z = pt["q"], pt["z"]
        if z == q:
            continue
        for r in range(5):
            for s in range(5):
                for m in range(9):
                    numerators = (q**-m,) + tuple(pt[f"a{i}"] for i in range(r))
                    spec = phi(numerators, [pt[f"b{i}"] for i in range(s)], q)
                    expected = _terms_oracle(spec, z, m)
                    if isinstance(expected, str):
                        with pytest.raises(PoleError) as exc:
                            phi_terminating(spec, z, m)
                        assert str(exc.value) == expected
                        outcomes["pole"] += 1
                    else:
                        assert phi_terminating(spec, z, m) == expected
                        outcomes["value"] += 1
    assert outcomes["value"]
    if height < 40:
        assert outcomes["pole"]


def test_series_mul_identity():
    u = TruncatedSeries((F(1), F(2), F(3)))
    assert series_mul(u, one(2)).coeffs == u.coeffs


def test_series_mul_shift():
    z = TruncatedSeries((F(0), F(1), F(0)))
    assert series_mul(z, z).coeffs == (F(0), F(0), F(1))


def test_series_mul_small():
    u = TruncatedSeries((F(1), F(1)))
    v = TruncatedSeries((F(1), F(-1)))
    assert series_mul(u, v).coeffs == (F(1), F(0))


def test_series_mul_order_mismatch():
    # a factor of another order, inside a term or in a later term
    for terms in (
        [(1, one(2), one(3))],
        [(1, one(2), one(2), one(3))],
        [(1, one(2)), (1, one(2), one(3))],
        [(1, one(3), one(3)), (1, one(2))],
    ):
        with pytest.raises(OrderMismatch):
            series_linear_combine(terms)


def test_series_linear_combine():
    u = TruncatedSeries((F(1), F(2)))
    v = TruncatedSeries((F(0), F(1)))
    assert series_linear_combine([(F(1), u)]).coeffs == u.coeffs
    assert series_linear_combine([(F(1), u), (F(-1), u)]).is_zero()
    assert series_linear_combine([(F(2), u), (F(3), v)]).coeffs == (F(2), F(7))
    # 2 u^2 - 3 u v + v: (1 + 2z)(2 + 4z - 3z) + z = 2 + 6z, truncated at z^1
    assert series_linear_combine([(2, u, u), (-3, u, v), (1, v)]).coeffs == (F(2), F(6))
    with pytest.raises(ValueError, match="need at least one term"):
        series_linear_combine([])


def test_phi_series_rejects_a_negative_order():
    spec = phi([F(1, 3)], [F(2, 5)], Q)
    for order in (-1, -3):
        with pytest.raises(ValueError, match=f"truncation order must be nonnegative, got {order}"):
            phi_series(spec, F(1), order)
    with pytest.raises(TypeError):
        phi_series(spec, F(1))  # the order has no default


def test_coefficient_access_beyond_order_errors():
    u = one(3)
    with pytest.raises(IndexError):
        u[4]


@given(seed=st.integers(0, 10_000))
def test_series_mul_commutative_associative(seed):
    rng = random.Random(seed)
    n = rng.randint(0, 6)
    u = TruncatedSeries(tuple(rand_fraction(rng) for _ in range(n + 1)))
    v = TruncatedSeries(tuple(rand_fraction(rng) for _ in range(n + 1)))
    w = TruncatedSeries(tuple(rand_fraction(rng) for _ in range(n + 1)))
    assert series_mul(u, v).coeffs == series_mul(v, u).coeffs
    lhs = series_mul(series_mul(u, v), w)
    rhs = series_mul(u, series_mul(v, w))
    assert lhs.coeffs == rhs.coeffs


@given(seed=st.integers(0, 10_000))
def test_q_binomial_functional_equation(seed):
    # (1 - s z) F(a; z) = (1 - a s z) F(a; qz) coefficientwise for F = 1phi0[a]
    rng = random.Random(seed)
    a, q, s = rand_fraction(rng), rand_q(rng), rand_fraction(rng)
    order = 8
    spec = phi([a], [], q)
    f_z = phi_series(spec, s, order)
    f_qz = phi_series(spec, s * q, order)
    one_minus_sz = TruncatedSeries((F(1), -s) + (F(0),) * (order - 1))
    one_minus_asz = TruncatedSeries((F(1), -a * s) + (F(0),) * (order - 1))
    assert series_mul(one_minus_sz, f_z).coeffs == series_mul(one_minus_asz, f_qz).coeffs


def assert_agrees_mod(exact, residue, p):
    """`residue` is `exact` mod p, coefficient by coefficient: N_n / D and
    n_p / d_p compared by cross-multiplying, n_p D ≡ N_n d_p (mod p)."""
    assert isinstance(residue, SeriesResidue) and residue.p == p
    assert residue.order == exact.order
    for num_p, num in zip(residue.nums, exact.nums):
        assert (num_p * exact.den - num * residue.den) % p == 0


@pytest.mark.parametrize("height", (2, 3, 40))
def test_phi_series_mod_p_matches_the_exact_series(height):
    # 0-3 numerators and denominators, orders 0-12: the series mod the trial
    # prime is the exact one's image, and both raise PoleError at one term
    names = ("q", "z") + tuple(f"a{i}" for i in range(3)) + tuple(f"b{i}" for i in range(3))
    outcomes = {"value": 0, "pole": 0}
    for seed in range(6):
        pt, p = sample_point(names, seed, height), trial_prime(seed)
        q, z = pt["q"], pt["z"]
        for r in range(4):
            for s in range(4):
                spec = phi([pt[f"a{i}"] for i in range(r)], [pt[f"b{i}"] for i in range(s)], q)
                for order in range(13):
                    try:
                        exact = phi_series(spec, z, order)
                    except PoleError as exc:
                        with pytest.raises(PoleError) as modular:
                            phi_series(spec, z, order, p)
                        assert str(modular.value) == str(exc)
                        outcomes["pole"] += 1
                        continue
                    assert_agrees_mod(exact, phi_series(spec, z, order, p), p)
                    outcomes["value"] += 1
    assert outcomes["value"]
    if height < 40:
        assert outcomes["pole"]


@pytest.mark.parametrize("height", (2, 3, 40))
def test_series_linear_combine_mod_p_matches_the_exact_sum(height):
    # sums of products of one, two and three factors, the factors given
    # exact or already mod p; a sum that is exactly zero reads zero
    names = ("q", "c0", "c1", "c2") + tuple(f"a{i}" for i in range(3))
    compared = 0
    for seed in range(8):
        pt, p = sample_point(names, seed, height), trial_prime(seed)
        q, cs = pt["q"], [pt[f"c{i}"] for i in range(3)]
        specs = [phi([pt[f"a{i}"]], [pt[f"a{(i + 1) % 3}"]], q) for i in range(3)]

        def combination(u, v, w):
            return [(cs[0], u, v), (-cs[1], w), (cs[2], u, v, w), (1, v, v)]

        for order in range(13):
            try:
                exact = [phi_series(spec, c, order) for spec, c in zip(specs, cs)]
            except PoleError:
                continue
            modular = [phi_series(spec, c, order, p) for spec, c in zip(specs, cs)]
            expected = series_linear_combine(combination(*exact))
            for u, v, w in (exact, modular):
                assert_agrees_mod(expected, series_linear_combine(combination(u, v, w), p), p)
                assert series_linear_combine([(cs[0], u, v), (-cs[0], v, u)], p).is_zero()
            compared += 1
    assert compared


def test_phi_series_mod_p_allows_a_denominator_that_is_zero_mod_p():
    # with q = 8 the ratio denominators carry 1 - q = -7: no pole over Q,
    # and the residue's denominator is ≡ 0 mod 7
    spec = phi([F(1, 3)], [F(2, 5)], 8)
    exact, residue = phi_series(spec, F(1), 4), phi_series(spec, F(1), 4, 7)
    assert residue.den == 0
    assert_agrees_mod(exact, residue, 7)
    assert series_linear_combine([(1, residue), (-1, exact)], 7).is_zero()


def test_series_linear_combine_rejects_a_series_mod_another_prime():
    u = phi_series(phi([F(1, 3)], [F(2, 5)], Q), F(1), 3, 7)
    for prime in (None, 11):
        with pytest.raises(ValueError, match="a series mod 7 in a sum mod"):
            series_linear_combine([(1, u)], prime)
