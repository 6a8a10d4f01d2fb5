import ast
import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import qident
from helpers import prefix_table
from qident.scalar import (
    PoleError,
    DomainError,
    Residue,
    SamplingExhausted,
    _common_denominator,
    _is_prime,
    _over_one_denominator,
    _pair,
    _pair_sum,
    _quotient,
    qpoch,
    qpoch_multi,
    sample_point,
    trial_prime,
)

small_fractions = st.fractions(
    min_value=-6, max_value=6, max_denominator=8
).filter(lambda x: x != 0)
small_q = small_fractions.filter(lambda x: x not in (1, -1))


def test_qpoch_empty_product():
    assert qpoch(F(3, 7), F(2, 5), 0) == 1


def test_qpoch_direct_product():
    # (1/2; 1/3)_2 = (1 - 1/2)(1 - 1/6)
    assert qpoch(F(1, 2), F(1, 3), 2) == F(5, 12)


def test_qpoch_negative_index_single_factor():
    # (bq; q)_(-1) = 1/(1-b)
    b, q = F(2, 7), F(3, 5)
    assert qpoch(b * q, q, -1) == 1 / (1 - b)


def test_qpoch_negative_index_pole():
    # (q; q)_(-1) would need 1/(1 - q/q)
    with pytest.raises(PoleError):
        qpoch(F(2, 5), F(2, 5), -1)


@given(a=small_fractions, q=small_q, m=st.integers(-4, 4), n=st.integers(-4, 4))
def test_qpoch_addition_law(a, q, m, n):
    try:
        lhs = qpoch(a, q, m + n)
        rhs = qpoch(a, q, m) * qpoch(a * q**m, q, n)
    except PoleError:
        assume(False)
    assert lhs == rhs


@given(a=small_fractions, q=small_q, n=st.integers(-4, 4))
def test_qpoch_inverse_law(a, q, n):
    try:
        prod = qpoch(a, q, n) * qpoch(a * q**n, q, -n)
    except PoleError:
        assume(False)
    assert prod == 1


@given(x=small_fractions, y=small_fractions)
def test_scalar_roundtrip(x, y):
    assert (x * y) / y == x


def test_qpoch_table_matches_qpoch():
    a, q = F(3, 7), F(-2, 5)
    table = prefix_table((a,), q, 6)
    assert table == [qpoch(a, q, k) for k in range(7)]
    assert prefix_table((a,), q, 0) == [1]
    with pytest.raises(DomainError):
        prefix_table((a,), q, -1)


def test_qpoch_table_holds_zero_without_raising():
    # a = q^-2: the factor 1 - a q^2 vanishes, so (a;q)_k = 0 from k = 3 on
    q = F(2, 3)
    table = prefix_table((q**-2,), q, 5)
    assert table[:3] == [qpoch(q**-2, q, k) for k in range(3)]
    assert all(v != 0 for v in table[:3])
    assert table[3:] == [0, 0, 0]


def test_qpoch_multi():
    q = F(1, 5)
    assert qpoch_multi([], q, 5) == 1
    a = F(3, 4)
    assert qpoch_multi([a], q, 3) == qpoch(a, q, 3)
    assert qpoch_multi([F(1, 2), F(1, 3)], F(1, 5), 1) == F(1, 3)


def test_pair():
    assert _pair(7) == (7, 1)
    assert _pair(F(-6, 4)) == (-3, 2)
    assert _pair(F(0)) == (0, 1)
    assert _pair(0) == (0, 1)


def test_quotient():
    assert _quotient(F(3, 4), F(-9, 2), "x") == F(-1, 6)
    assert _quotient(5, 2, "x") == F(5, 2)
    with pytest.raises(PoleError, match="^the prefactor vanishes$"):
        _quotient(F(1), F(0), "the prefactor")


def _nodes_outside_scalar():
    """(file name, node) for every AST node of every qident module but scalar."""
    for path in sorted(Path(qident.__file__).parent.glob("*.py")):
        if path.name != "scalar.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                yield path.name, node


def test_only_scalar_reads_integer_pairs():
    """Every module but scalar reads a value's integer pair through _pair, so
    scalar is the one place that knows how a value is stored."""
    offenders = []
    for name, node in _nodes_outside_scalar():
        if isinstance(node, ast.Attribute) and node.attr in ("numerator", "denominator"):
            offenders.append(f"{name}:{node.lineno} .{node.attr}")
    assert offenders == []


def test_only_scalar_draws_the_trial_prime():
    """A trial's modulus is its point's prime, so scalar is the one place that
    maps a seed to a modulus; the other modules read pt.prime."""
    offenders = []
    for name, node in _nodes_outside_scalar():
        # a Name's id, an Attribute's attr, an import alias's or a def's name
        if "trial_prime" in [getattr(node, field, None) for field in ("id", "attr", "name")]:
            offenders.append(f"{name}:{node.lineno}")
    assert offenders == []


def test_common_denominator():
    assert _common_denominator(()) == ([], 1)
    assert _common_denominator([3, -2, 0]) == ([3, -2, 0], 1)
    assert _common_denominator([F(-1, 4), F(5, 6), 2, F(-7, 3)]) == ([-3, 10, 24, -28], 12)
    assert _common_denominator((F(-9, 10), F(-1, 15))) == ([-27, -2], 30)


def random_pairs(rng, dens):
    """A few integer pairs (n, d) with d drawn from `dens`."""
    return [(rng.randint(-50, 50), rng.choice(dens)) for _ in range(rng.randint(0, 6))]


@pytest.mark.parametrize("seed", range(20))
def test_over_one_denominator_exactly_is_the_lcm_scaling(seed):
    rng = random.Random(seed)
    pairs = random_pairs(rng, range(1, 40))
    values = [F(n, d) for n, d in pairs]
    nums, lcm = _over_one_denominator([_pair(v) for v in values])
    assert (nums, lcm) == _common_denominator(values)
    # unreduced pairs over the lcm of their own denominators: the same values
    nums, lcm = _over_one_denominator(pairs)
    assert lcm == math.lcm(*[d for _, d in pairs])
    assert [F(x, lcm) for x in nums] == values


@pytest.mark.parametrize("seed", range(20))
def test_over_one_denominator_mod_p_cross_multiplies(seed):
    # mod p the denominator L is the product of the d_i, so each scaled
    # numerator x_i has x_i d_i = n_i L mod p, also where some d_i = 0 mod 7
    rng = random.Random(seed)
    for p in (7, trial_prime(seed)):
        for dens in (range(1, 40), (7, 14, 3, 5, 49)):
            pairs = random_pairs(rng, dens)
            nums, L = _over_one_denominator(pairs, p)
            assert L == math.prod(d for _, d in pairs) % p
            assert all(0 <= x < p for x in nums)
            assert all((x * d - n * L) % p == 0 for x, (n, d) in zip(nums, pairs))
            # and x_i is n_i times the other denominators, also where L = 0
            for i, (x, (n, _)) in enumerate(zip(nums, pairs)):
                others = math.prod(d for j, (_, d) in enumerate(pairs) if j != i)
                assert x == n * others % p
    # Fractions and Residues are read through their pairs mod p
    assert _common_denominator([F(3, 4), Residue(5, 2, 7), 2], 7) == ([6, 6, 2], 1)
    assert _common_denominator([F(3, 14), Residue(4, 3, 7)], 7) == ([2, 0], 0)
    with pytest.raises(ValueError, match="different primes"):
        _common_denominator([Residue(1, 2, 11)], 7)


@pytest.mark.parametrize("height", (2, 3, 40))
def test_pair_sum_mod_p_is_the_exact_pair_reduced(height):
    # exactly, the terms cross-multiplied over the product of the denominators;
    # mod p, that pair's integers reduced, also where a denominator is ≡ 0 mod 7
    names = tuple("abcdef")
    hit = False
    for seed in range(20):
        pt = sample_point(names, seed, height)
        terms = [_pair(x) for x in pt.values(names)]
        num, den = _pair_sum(terms)
        assert den == math.prod(d for _, d in terms) and F(num, den) == sum(pt.values(names))
        for p in (7, pt.prime):
            assert _pair_sum(terms, p) == (num % p, den % p)
        hit = hit or den % 7 == 0
    assert hit == (height == 40)
    assert _pair_sum([]) == _pair_sum([], 7) == (0, 1)
    # 3/7 + 1/2 = 13/14: mod 7 the denominator is 0 and the numerator is not
    assert _pair_sum([(3, 7), (1, 2)]) == (13, 14)
    assert _pair_sum([(3, 7), (1, 2)], 7) == (6, 0)


def test_sample_point_deterministic():
    names = ("a", "b", "q")
    p1 = sample_point(names, seed=123)
    p2 = sample_point(names, seed=123)
    assert p1.assignments == p2.assignments
    assert p1.seed == 123


def test_sample_point_respects_q_exclusions():
    for seed in range(200):
        pt = sample_point(("q",), seed=seed, height=2)
        assert pt["q"] not in (0, 1, -1)


def test_sample_point_nonzero_values():
    pt = sample_point(tuple("abcdefg"), seed=11)
    assert all(v != 0 for v in pt.assignments.values())


def test_sample_point_exhaustion():
    # height 1 leaves q only the excluded values +-1
    with pytest.raises(SamplingExhausted):
        sample_point(("q",), 0, height=1)


P61 = 2**61 - 1  # a Mersenne prime


def residue(x: F, p: int = P61) -> Residue:
    return Residue(x.numerator, x.denominator, p)


@given(x=small_fractions, y=small_fractions, k=st.integers(0, 5))
def test_residue_operations_are_images_of_exact_ones(x, y, k):
    rx, ry = residue(x), residue(y)
    assert rx - ry == x - y and rx - y == x - y and x - ry == x - y
    assert rx + ry == x + y and rx + 3 == x + 3 and 3 + rx == x + 3
    assert rx * ry == x * y and y * rx == x * y
    assert -rx == -x
    assert rx**k == x**k
    assert (rx - x == 0) and (rx - ry == 0) == (x == y)


def test_residue_zero_test_never_inverts_the_denominator():
    p = P61
    # a denominator divisible by p: the exact zero still reads 0
    x = F(3, p)
    r = Residue(3, p, p)
    assert (r.num, r.den) == (3, 0)
    assert r - x == 0 and x - r == 0
    # and a nonzero residual whose cross-multiplied numerator p divides reads 0
    assert r - F(4, p) == 0
    # a nonzero residue proves the exact value nonzero
    assert Residue(5, 7, p) - F(4, 7) != 0
    # a multiple of p is 0 mod p, though nonzero
    assert Residue(6 * p, 5, p) == 0


def test_residue_rejects_mixed_primes_and_negative_powers():
    a, b = Residue(1, 2, P61), Residue(1, 2, 1_000_003)
    with pytest.raises(ValueError):
        a - b
    with pytest.raises(TypeError):
        a ** -1
    with pytest.raises(TypeError):
        a * 0.5


def strong_probable_prime(n: int, a: int) -> bool:
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


FIRST_12_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def reference_is_prime(n: int) -> bool:
    """Strong probable prime to the first 12 primes: exact below 3.3e24."""
    return n in FIRST_12_PRIMES or (
        all(n % a for a in FIRST_12_PRIMES)
        and all(strong_probable_prime(n, a) for a in FIRST_12_PRIMES)
    )


def test_is_prime_matches_the_reference_above_2_60():
    start = 2**60 + 1
    window = range(start, start + 4000, 2)
    assert [n for n in window if _is_prime(n)] == [n for n in window if reference_is_prime(n)]
    assert _is_prime(P61)
    assert not _is_prime(P61 - 2)


@pytest.mark.parametrize(
    "n, factors, fooled",
    [
        # Chernick Carmichael numbers (6k+1)(12k+1)(18k+1) in [2^60, 2^61)
        (1163545076159797321, (578821, 1157641, 1736461), 2),
        (1170106602646993129, (579907, 1159813, 1739719), 9780504),
        # p(2p-1) just above 2^61
        (2305843149873875041, (1073741857, 2147483713), 2),
        (2305864281162028681, (1073746777, 2147493553), 28178),
        # strong pseudoprime to every prime base up to 23
        (3825123056546413051, (149491, 747451, 34233211), 23),
    ],
)
def test_is_prime_rejects_strong_pseudoprimes(n, factors, fooled):
    assert math.prod(factors) == n and min(factors) > 1000  # past the gcd sieve
    assert strong_probable_prime(n, fooled)  # one base alone would call n prime
    assert not _is_prime(n)


def test_trial_prime_is_deterministic_prime_and_in_range():
    seeds = [*range(50), -1, -(2**40), 10**30]
    primes = [trial_prime(s) for s in seeds]
    assert primes == [trial_prime(s) for s in seeds]
    assert all(2**60 <= p < 2**61 and reference_is_prime(p) for p in primes)
    assert len(set(primes)) == len(primes)
