"""Integer numerator/denominator kernels against plain-Fraction references.

The references below are the running Fraction products the kernels replace.
Every comparison is on (numerator, denominator) and type, so a kernel must
return the canonical Fraction, not just an equal value.
"""

import math
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from helpers import (
    basis_peel,
    from_rows,
    matching_sign,
    perfect_matchings,
    prefix_table,
    rand_fraction,
    rand_q,
    six_term_parts,
    to_lists,
)
from qident import askey_wilson, identities, scalar
from qident.askey_wilson import (
    AWParams,
    DegenerateLattice,
    DuplicateNodes,
    PolynomialInX,
    XPoint,
    _aw_norm_ratios,
    _aw_polys,
    _connection_table,
    _lattice_denominators,
    aw_leading_coeff,
    aw_moment,
    aw_poly,
    aw_poly_as_polynomial,
    lattice_nodes,
    moment_weights,
    newton_coeffs,
    newton_lattice_coeffs,
    newton_to_monomial,
)
from qident.identities import (
    _MAIN_NAMES,
    _RESAMPLE_ERRORS,
    CHECKS_BY_ID,
    COFACTOR_CAP,
    RS_PAIRS,
    Sizes,
    _aw_from,
    _contiguous_residual,
    _contiguous_shapes,
    _decoration_det,
    _decorations,
    _gram_dets,
    _six_term_excesses,
    _six_term_specs,
    aw_quadratic_residuals,
    build_bordered_matrix,
    build_even_det,
    build_gram_matrix,
    build_hankel_decorated,
    build_hankel_little_qjacobi,
    build_integer_exp_pfaffian,
    build_mehta_wang_matrix,
    check_andrews_watson,
    gram_elimination_residuals,
    mehta_wang_params,
    rhs_hankel,
    rhs_pfaffian,
    run_check,
    six_term_g,
    six_term_xi,
)
from qident.linalg import (
    Matrix,
    SkewMatrix,
    det_cofactor,
    det_condensation,
    det_fraction_free,
    minor,
    pfaffian_matchings,
)
from qident.scalar import (
    DomainError,
    ParamPoint,
    PoleError,
    Residue,
    _closed_form,
    _common_denominator,
    _quotient,
    _ratio_table,
    qpoch,
    qpoch_multi,
    sample_point,
    trial_prime,
)
from qident.series import (
    HypergeometricSpec,
    OrderMismatch,
    TruncatedSeries,
    _sum_of_products,
    phi_series,
    phi_terminating,
    series_linear_combine,
)

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
            raise PoleError(f"(a;q)_{n} undefined: factor 1 - a*q^k vanishes")
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


def ref_sum_of_products(terms, length):
    """sum_i c_i prod_j u_ij truncated to `length`, by running Fraction products."""
    out = [F(0)] * length
    for c, *factors in terms:
        prod = [F(c)]
        for u in factors:
            full = [F(0)] * (len(prod) + len(u) - 1)
            for i, x in enumerate(prod):
                for j, y in enumerate(u):
                    full[i + j] += x * y
            prod = full
        for k, x in enumerate(prod[:length]):
            out[k] += x
    return out


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
            assert canon(prefix_table((a,), q, n)) == canon(ref_qpoch_table(F(a), F(q), n))
            assert canon([qpoch(a, q, n)]) == canon([ref_qpoch(F(a), F(q), n)])
        assert canon(prefix_table(params, q, n)) == canon(
            ref_qpoch_multi_table([F(a) for a in params], F(q), n)
        )
        assert canon([qpoch_multi(params, q, n)]) == canon(
            [ref_qpoch_multi([F(a) for a in params], F(q), n)]
        )
    # negative n, with a = q^2 and q^5 for poles at a = q^k, 1 <= k <= -n
    for a in params + [F(q) ** 2, F(q) ** 5]:
        for n in range(-6, 0):
            assert attempt(qpoch, a, q, n) == attempt(ref_qpoch, F(a), F(q), n)


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
        table = prefix_table((a,), q, k + 3)
        assert all(x != 0 for x in table[: k + 1])
        assert canon(table[k + 1 :]) == canon([F(0)] * 3)
        assert qpoch(a, q, k + 1) == 0
        multi = prefix_table((F(1, 2), a), q, k + 3)
        assert canon(multi[k + 1 :]) == canon([F(0)] * 3)
        assert qpoch_multi((a,), q, k + 2) == 0


def test_qpoch_table_order_zero_and_negative():
    assert canon(prefix_table((F(5, 3),), F(1, 2), 0)) == canon([F(1)])
    assert canon(prefix_table((F(5, 3), 2), F(1, 2), 0)) == canon([F(1)])
    assert canon([qpoch_multi((), F(1, 2), 4)]) == canon([F(1)])
    with pytest.raises(DomainError):
        prefix_table((F(5, 3),), F(1, 2), -1)
    with pytest.raises(DomainError):
        prefix_table((F(5, 3), 2), F(1, 2), -1)


@pytest.mark.parametrize("seed", SEEDS)
def test_ratio_table_matches_ratios_of_prefix_tables(seed):
    rng = random.Random(seed)
    q = sample_q(rng)
    nums = tuple(sample_base(rng, q) for _ in range(2 + seed % 2))  # two or three bases
    den = sample_base(rng, q)
    for shift in (0, 1):
        for top in range(-1, 7):
            num_t = prefix_table(nums, q, max(top, 0))
            den_t = prefix_table((den,), q, max(top + shift, 0))
            if top >= 0 and den_t[top + shift] == 0:
                expected = (PoleError, "(den;q)_top vanishes")
            else:
                expected = "value", canon([num_t[k] / den_t[k + shift] for k in range(top + 1)])
            try:
                rn, rd = _ratio_table(nums, den, q, top, "(den;q)_top", shift)
                got = "value", canon([F(x, y) for x, y in zip(rn, rd)])
            except PoleError as exc:
                got = PoleError, str(exc)
            assert got == expected


def test_ratio_table_raises_at_a_zero_last_denominator_only():
    q = F(2, 3)
    nums = (F(1, 2), F(-3, 5), 2)
    # (q^-2;q)_k vanishes from k = 3 on
    rn, rd = _ratio_table(nums, q**-2, q, 2, "(q^-2;q)_k")
    assert canon([F(x, y) for x, y in zip(rn, rd)]) == canon(
        [a / b for a, b in zip(prefix_table(nums, q, 2), prefix_table((q**-2,), q, 2))]
    )
    with pytest.raises(PoleError, match=r"^\(q\^-2;q\)_\(k\+1\) vanishes$"):
        _ratio_table(nums, q**-2, q, 2, "(q^-2;q)_(k+1)", shift=1)
    assert _ratio_table(nums, q**-2, q, -1, "(q^-2;q)_(k+1)", shift=1) == ([], [])


def ref_closed_form(powers, nums, dens, what):
    """The closed-form kernel by running Fraction products, one symbol at a time."""

    def product(groups):
        return math.prod(
            (ref_qpoch_multi(bases, q, k) for bases, q, ks in groups for k in ks),
            start=F(1),
        )

    monomial = F(1)
    for base, e in powers:
        if e < 0 and base == 0:
            raise PoleError(f"{what} vanishes")
        monomial *= F(base) ** e
    den = product(dens)
    if den == 0:
        raise PoleError(f"{what} vanishes")
    return monomial * product(nums) / den


def ref_closed_form_pair(powers, nums, dens, what):
    """The unreduced integer products (N, D) that the closed-form kernel
    reduces mod a prime: each power base in lowest terms, and each factor
    1 - b q^j of a Pochhammer symbol as (b_d q_d^j - b_n q_n^j) / (b_d q_d^j),
    from b and q in lowest terms.  Raises where ref_closed_form does."""
    value = ref_closed_form(powers, nums, dens, what)
    N = D = 1
    for base, e in powers:
        bn, bd = F(base).numerator, F(base).denominator
        if e < 0:
            bn, bd = bd, bn
        N *= bn ** abs(e)
        D *= bd ** abs(e)

    def symbol(bases, q, k):
        q = F(q)
        num = den = 1
        for b in map(F, bases):
            for j in range(k):
                den_j = b.denominator * q.denominator**j
                num *= den_j - b.numerator * q.numerator**j
                den *= den_j
        return num, den

    for groups, flip in ((nums, False), (dens, True)):
        for bases, q, ks in groups:
            for k in ks:
                num, den = symbol(bases, q, k)
                N, D = (N * den, D * num) if flip else (N * num, D * den)
    assert F(N, D) == value
    return N, D


def ref_closed_form_mod(powers, nums, dens=(), what="", prime=None):
    """The closed-form kernel by the references: ref_closed_form, or with a
    prime the Residue of ref_closed_form_pair."""
    if prime is None:
        return ref_closed_form(powers, nums, dens, what)
    return Residue(*ref_closed_form_pair(powers, nums, dens, what), prime)


def ref_closed_forms(orders, form, what="", prime=None):
    """The one-pass kernel by the references: ref_closed_form_mod of each
    order's form in turn, with tables of its own."""
    for n in orders:
        yield ref_closed_form_mod(*form(n), what, prime)


def random_groups(rng, q):
    """Pochhammer groups over q or q^2: empty groups, repeated and equal bases,
    bases equal to q, k = 0 and repeated k, and q^-k bases whose symbols vanish."""
    groups = []
    for _ in range(rng.randint(0, 3)):
        bases = [sample_base(rng, q) for _ in range(rng.randint(0, 3))]
        if bases and rng.random() < 0.3:
            bases.append(rng.choice((bases[0], q)))
        ks = [rng.randint(0, 5) for _ in range(rng.randint(0, 3))]
        if ks and rng.random() < 0.3:
            ks.append(ks[0])
        groups.append((tuple(bases), rng.choice((q, F(q) ** 2)), tuple(ks)))
    return groups


@pytest.mark.parametrize("seed", SEEDS)
def test_closed_form_matches_fraction_products(seed):
    rng = random.Random(seed)
    q = sample_q(rng)
    for _ in range(6):
        powers = [
            (rng.choice((rand_fraction(rng), F(0), q, -1, 2)), rng.randint(-3, 3))
            for _ in range(rng.randint(0, 3))
        ]
        nums, dens = random_groups(rng, q), random_groups(rng, q)
        what = f"closed form {seed}"
        expected = attempt(ref_closed_form, powers, nums, dens, what)
        assert attempt(_closed_form, powers, nums, dens, what) == expected
        # mod a trial prime, and mod 101, where table entries can be ≡ 0 mod p:
        # a Residue whose denominator is ≡ 0 equals every value, so its fields
        # are compared with the residues of the unreduced products
        for prime in (trial_prime(seed), 101):
            assert attempt_mod(prime, _closed_form, powers, nums, dens, what) == expected
            assert attempt_fields(_closed_form, powers, nums, dens, what, prime) == (
                attempt_fields(ref_closed_form_mod, powers, nums, dens, what, prime)
            )


def test_closed_form_zeros_and_poles():
    q = F(2, 3)
    # (q^-2;q)_k vanishes from k = 3 on: a value 0 upstairs, a pole downstairs
    assert canon([_closed_form([(q, -2)], [((q**-2, F(1, 2)), q, (1, 3))], [], "x")]) == canon(
        [F(0)]
    )
    with pytest.raises(PoleError, match=r"^\(q\^-2;q\)_3 vanishes$"):
        _closed_form([(q, 2)], [((F(1, 2),), q, (2,))], [((q**-2,), q, (0, 3))], "(q^-2;q)_3")
    with pytest.raises(PoleError, match=r"^monomial vanishes$"):
        _closed_form([(q, 1), (F(0), -1)], [], [], "monomial")
    # empty groups, k = 0 and a zero base to a positive power
    assert canon([_closed_form([], [((), q, (4,)), ((q,), q, ())], [((q,), q, (0,))])]) == canon(
        [F(1)]
    )
    assert canon([_closed_form([(F(0), 2)], [], [((F(3),), q, (2,))], "x")]) == canon([F(0)])
    # a value with negative powers, equal bases and a base equal to q
    args = [(q, -3), (F(-1), 3)], [((q, q), q, (2, 2))], [((F(1, 5),), q**2, (3,))], ""
    assert canon([_closed_form(*args)]) == canon([ref_closed_form(*args)])


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
    got = series_linear_combine([(1, TruncatedSeries(a), TruncatedSeries(b))]).coeffs
    assert canon(got) == canon(ref_series_mul(a, b))


def test_series_mul_order_zero_and_zero_series():
    def mul(u, v):
        return series_linear_combine([(1, TruncatedSeries(u), TruncatedSeries(v))]).coeffs

    assert canon(mul((F(3, 4),), (F(-2, 9),))) == canon([F(-1, 6)])
    other = (F(1, 2), F(-5, 3), F(7), F(2, 9))
    assert canon(mul((F(0),) * 4, other)) == canon([F(0)] * 4)


def sum_of_products(terms, length):
    """_sum_of_products on Fraction lists: each factor passed in integer form,
    the result read back as one Fraction per coefficient."""
    nums, den = _sum_of_products(
        [(c, *[_common_denominator(u) for u in factors]) for c, *factors in terms], length
    )
    assert den > 0
    return [F(x, den) for x in nums]


@pytest.mark.parametrize("seed", SEEDS)
def test_sum_of_products_matches_fraction_reference(seed):
    rng = random.Random(seed)

    def factor():
        return [entry(rng) for _ in range(rng.randint(1, 6))]

    terms = []
    for _ in range(rng.randint(1, 4)):
        c = rng.choice((rand_fraction(rng, 40), F(0), rng.randint(-3, 3)))
        shared = factor()
        factors = [factor() for _ in range(rng.randint(1, 3))]
        if len(factors) > 1 and rng.random() < 0.4:
            factors[rng.randrange(len(factors))] = shared  # one list passed twice
            factors[rng.randrange(len(factors))] = shared
        terms.append((c, *factors))
    full = max(sum(len(u) - 1 for u in factors) + 1 for _, *factors in terms)
    for length in (1, max(full - 2, 1), full, full + 3):
        got = sum_of_products(terms, length)
        assert canon(got) == canon(ref_sum_of_products(terms, length))


@pytest.mark.parametrize("seed", SEEDS)
def test_sum_of_products_mod_7_matches_the_exact_route(seed):
    # denominators divisible by 7 put a zero into the product mod 7; the sum
    # mod 7 must still be the exact one, cross-multiplied to that product
    rng = random.Random(seed)

    def factor():
        den = rng.choice((1, 2, 7, 14, 49, 3))
        return [rng.randint(-30, 30) for _ in range(rng.randint(1, 4))], den

    terms = [
        (rand_fraction(rng, 30), *[factor() for _ in range(rng.randint(1, 3))])
        for _ in range(rng.randint(1, 4))
    ]
    terms.append((F(5, 7), factor()))
    nums, den = _sum_of_products(terms, 5)
    got, common = _sum_of_products(terms, 5, 7)
    product = math.prod(
        F(c).denominator * math.prod(d for _, d in factors) for c, *factors in terms
    )
    assert common == product % 7 == 0 and any(nums)
    assert got == [x * (product // den) % 7 for x in nums]


def test_sum_of_products_reads_a_repeated_factor_by_position():
    # p * p passes one list twice: both are factors, the second also the last
    p = [F(1, 2), F(-1, 3)]
    assert canon(sum_of_products([(1, p, p)], 3)) == canon([F(1, 4), F(-1, 3), F(1, 9)])
    assert canon(sum_of_products([(F(2, 3), p, p, p)], 2)) == canon([F(1, 12), F(-1, 6)])
    # an int coefficient and a zero one; a length past the product reads zeros
    terms = [(3, p), (0, [F(5, 7)], [F(1, 11)])]
    assert canon(sum_of_products(terms, 4)) == canon([F(3, 2), F(-1), F(0), F(0)])


def test_series_linear_combine_matches_the_reference_on_series():
    rng = random.Random(7)
    order = 5
    us = [TruncatedSeries(tuple(entry(rng) for _ in range(order + 1))) for _ in range(3)]
    terms = [(F(-2, 3), us[0], us[1]), (4, us[2]), (F(1, 5), us[1], us[1], us[2])]
    expected = ref_sum_of_products(
        [(c, *[u.coeffs for u in factors]) for c, *factors in terms], order + 1
    )
    assert canon(series_linear_combine(terms).coeffs) == canon(expected)
    mismatched = TruncatedSeries(us[0].coeffs[:-1])
    with pytest.raises(OrderMismatch, match=f"orders differ: {order - 1} vs {order}"):
        series_linear_combine([(1, us[0], mismatched)])


@pytest.mark.parametrize("seed", SEEDS)
def test_integer_form_equals_fraction_form(seed):
    # a series and a polynomial built from Fractions, and from integers over
    # any nonzero multiple of their common denominator, are the same value
    rng = random.Random(seed)
    values = [entry(rng) for _ in range(rng.randint(1, 7))] + [F(0)] * rng.randint(0, 2)
    den = math.lcm(*[F(v).denominator for v in values]) * rng.choice((1, -1)) * rng.randint(1, 30)
    nums = [int(v * den) for v in values]
    for built in (TruncatedSeries(values), TruncatedSeries.from_integers(nums, den)):
        assert canon(built.coeffs) == canon([F(v) for v in values])
        assert built == TruncatedSeries(values) and hash(built) == hash(TruncatedSeries(values))
        assert built.order == len(values) - 1 and built.den > 0
        assert built.is_zero() == all(v == 0 for v in values)
    stripped = [F(v) for v in values]
    while len(stripped) > 1 and stripped[-1] == 0:
        stripped.pop()
    for built in (PolynomialInX(values), PolynomialInX.from_integers(nums, den)):
        assert canon(built.coeffs) == canon(stripped)
        assert built == PolynomialInX(values) and built.degree == len(stripped) - 1
        assert built.den > 0 and math.gcd(built.den, *built.nums) == 1


def test_integer_form_edge_cases():
    # content reduction, the zero polynomial, a negative denominator
    half = PolynomialInX.from_integers([2, 0], 4)
    assert (half.nums, half.den, half.coeffs, half.degree) == ((1,), 2, (F(1, 2),), 0)
    assert half == PolynomialInX([F(2, 4), F(0)])
    zeros = (PolynomialInX([]), PolynomialInX([0, F(0)]), PolynomialInX.from_integers([0, 0], -5))
    for zero in zeros:
        assert (zero.nums, zero.den, zero.coeffs, zero.degree) == ((0,), 1, (F(0),), 0)
    negative = PolynomialInX.from_integers([3, -6, 9], -12)
    assert (negative.nums, negative.den) == ((-1, 2, -3), 4)
    assert negative == PolynomialInX([F(-1, 4), F(1, 2), F(-3, 4)])
    series = TruncatedSeries.from_integers([3, -6, 0], -12)
    assert (series.nums, series.den, series.order) == ((-3, 6, 0), 12, 2)
    assert series == TruncatedSeries([F(-1, 4), F(1, 2), 0]) != TruncatedSeries([F(-1, 4), F(1, 2)])
    zero = TruncatedSeries.from_integers([0, 0], 7)
    assert zero.is_zero() and zero == TruncatedSeries([0, 0]) and zero.coeffs == (F(0), F(0))
    with pytest.raises(ValueError, match="at least the z\\^0 coefficient"):
        TruncatedSeries.from_integers([], 1)
    for build in (TruncatedSeries.from_integers, PolynomialInX.from_integers):
        with pytest.raises(ZeroDivisionError):
            build([1], 0)


# ---------------------------------------------------------------------------
# Askey-Wilson layer: lattice sums, moments, connection coefficients, PolynomialInX
# ---------------------------------------------------------------------------


def ref_nodes(a, q, n):
    return [(q**j * a + q**-j / a) / 2 for j in range(n + 1)]


def ref_lattice_coeffs(fvals, a, q):
    """u_k as running Fraction sums over the nodes j <= k."""
    a, q = F(a), F(q)
    n = len(fvals) - 1
    a2 = a * a
    qq = ref_qpoch_table(q, q, n)
    sums = [F(0)] * (n + 1)
    for j in range(n + 1):
        head = qq[j] * ref_qpoch(q ** (1 - 2 * j) / a2, q, j)
        tail = ref_qpoch_table(q ** (2 * j + 1) * a2, q, n - j)
        if head == 0 or qq[n - j] * tail[n - j] == 0:
            raise PoleError("lattice Newton denominator vanishes")
        weight = q ** (-j * j) * a ** (-2 * j) * F(fvals[j]) / head
        for i in range(n - j + 1):
            sums[j + i] += weight / (qq[i] * tail[i])
    return [q**k * total for k, total in enumerate(sums)]


def ref_poly_call(coeffs, x):
    out = F(0)
    for c in reversed(coeffs):
        out = out * x + c
    return out


def ref_poly_mul(u, v):
    out = [F(0)] * (len(u) + len(v) - 1)
    for i, ci in enumerate(u):
        for j, cj in enumerate(v):
            out[i + j] += ci * cj
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def ref_poly_sub(u, v):
    n = max(len(u), len(v))
    out = [F(x) - F(y) for x, y in zip(list(u) + [0] * (n - len(u)), list(v) + [0] * (n - len(v)))]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def ref_newton_coeffs(nodes, values):
    """Divided differences by the recurrence on Fraction tables."""
    if len(nodes) != len(values):
        raise ValueError("nodes and values must have equal length")
    if len(set(map(F, nodes))) != len(nodes):
        raise DuplicateNodes("interpolation nodes must be distinct")
    table = [F(v) for v in values]
    out = [table[0]]
    for k in range(1, len(nodes)):
        table = [
            (table[i + 1] - table[i]) / (nodes[i + k] - nodes[i])
            for i in range(len(table) - 1)
        ]
        out.append(table[0])
    return out


def ref_newton_to_monomial(coeffs, nodes):
    """sum_k c_k (x-b_0)...(x-b_{k-1}) by Horner's rule on Fraction lists."""
    out = [F(coeffs[-1])]
    for c, b in zip(reversed(coeffs[:-1]), reversed(nodes[: len(coeffs) - 1])):
        out = ref_poly_mul(out, [-F(b), F(1)])
        out[0] += c
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def ref_newton_lattice_coeffs(coeffs, a, q, n):
    nodes = ref_nodes(F(a), F(q), n)
    if len(set(nodes)) != len(nodes):
        raise DegenerateLattice("lattice nodes collided; resample a or q")
    return ref_lattice_coeffs([ref_poly_call(coeffs, b) for b in nodes], a, q)


def ref_basis_moments(n, p):
    den = ref_qpoch(p.abcd, p.q, n)
    if den == 0:
        raise PoleError("(abcd;q)_n vanishes")
    a = p.a
    return [
        ref_qpoch_multi((a * p.b, a * p.c, a * p.d), p.q, k) / ref_qpoch(p.abcd, p.q, k)
        for k in range(n + 1)
    ]


def ref_functional(coeffs, p):
    """L(f) by the Newton route, on Fractions: sum_k mu_k u_k."""
    n = len(coeffs) - 1
    u = ref_newton_lattice_coeffs(coeffs, p.a, p.q, n)
    return sum((m * x for m, x in zip(ref_basis_moments(n, p), u)), F(0))


def ref_basis_functional(coeffs, p):
    """L(f) on the basis, on Fractions: each (az, a/z; q)_k multiplied out
    afresh, and f peeled from the top degree down."""
    n = len(coeffs) - 1
    moments = ref_basis_moments(n, p)
    rest = [F(c) for c in coeffs]
    total = F(0)
    for k in range(n, -1, -1):
        basis = [F(1)]
        for i in range(k):
            aq = p.a * p.q**i
            basis = ref_poly_mul(basis, [1 + aq * aq, -2 * aq])
        u = rest[k] / basis[k]
        rest = [r - u * b for r, b in zip(rest, basis + [F(0)] * (n - k))]
        total += u * moments[k]
    return total


def ref_connection_u(n, k, a_nodes, b_nodes):
    bs = [F(b) for b in b_nodes[: k + 1]]
    if len(set(bs)) != len(bs):
        raise DuplicateNodes("b-nodes must be distinct")
    total = F(0)
    for r in range(k + 1):
        num = F(1)
        for j in range(n):
            num *= bs[r] + a_nodes[j]
        den = F(1)
        for j in range(k + 1):
            if j != r:
                den *= bs[r] - bs[j]
        total += num / den
    return total


def ref_det(rows):
    if not rows:
        return F(1)
    total = F(0)
    for j, x in enumerate(rows[0]):
        sub = [row[:j] + row[j + 1 :] for row in rows[1:]]
        total += (-1) ** j * x * ref_det(sub)
    return total


def ref_pfaffian(M):
    total = F(0)
    for pairs in perfect_matchings(range(M.rows)):
        term = F(matching_sign(pairs))
        for i, j in pairs:
            term *= M[i, j]
        total += term
    return total


def attempt(fn, *args):
    """('value', canon) of a list or a single value, or (exception type, message)."""
    try:
        value = fn(*args)
    except (PoleError, DomainError, DegenerateLattice, DuplicateNodes) as exc:
        return type(exc), str(exc)
    return "value", canon(value if isinstance(value, list) else [value])


def attempt_mod(prime, fn, *args):
    """attempt() of fn(*args, prime), whose value must be a Residue mod `prime`
    equal to the exact fn(*args); the value is reported as that exact one."""
    try:
        value = fn(*args, prime)
    except (PoleError, DomainError, DegenerateLattice, DuplicateNodes) as exc:
        return type(exc), str(exc)
    exact = fn(*args)
    assert isinstance(value, Residue) and value.p == prime and value == exact
    return "value", canon([exact])


def attempt_fields(fn, *args):
    """attempt() of a Residue-valued fn, its value read as (num, den, p)."""
    try:
        value = fn(*args)
    except (PoleError, DomainError) as exc:
        return type(exc), str(exc)
    return "value", (value.num, value.den, value.p)


def entry(rng):
    """A matrix or node entry: often zero, sometimes a plain int."""
    return rng.choice((rand_fraction(rng, 20), rand_fraction(rng, 3), F(0), rng.randint(-4, 4)))


def lattice_point(rng):
    """(a, q): small heights make poles and collided nodes common."""
    height = rng.choice((2, 3, 40))
    a = rng.choice((rand_fraction(rng, height), rng.choice((-3, -2, 2, 3))))
    return a, sample_q(rng)


@pytest.mark.parametrize("seed", SEEDS)
def test_lattice_coeffs_match_fraction_sums(seed):
    rng = random.Random(seed)
    a, q = lattice_point(rng)
    for n in range(8):
        coeffs = [
            rng.choice((rand_fraction(rng, 30), F(0), rng.randint(-3, 3)))
            for _ in range(rng.randint(1, n + 1))
        ]
        if len(coeffs) <= n and rng.random() < 0.5:
            # f vanishes at one node, so a zero value enters the sums
            coeffs = ref_poly_mul(coeffs, [-ref_nodes(F(a), F(q), n)[rng.randint(0, n)], F(1)])
        f = PolynomialInX(coeffs)
        assert attempt(newton_lattice_coeffs, f, a, q, n) == attempt(
            ref_newton_lattice_coeffs, list(f.coeffs), a, q, n
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_aw_moment_and_weights_match_fraction_sums(seed):
    rng = random.Random(seed)
    a, q = lattice_point(rng)
    p = AWParams(F(a), rand_fraction(rng, 3), rand_fraction(rng, 40), rand_fraction(rng), F(q))
    t = rng.choice((rand_fraction(rng), F(0), 2))
    for n in range(7):
        power = [math.comb(n, i) * F(t) ** (n - i) for i in range(n + 1)]
        assert attempt(aw_moment, n, t, p) == attempt(ref_functional, power, p)
        f = PolynomialInX([rand_fraction(rng, 30) for _ in range(n + 1)])
        expected = attempt(ref_functional, list(f.coeffs), p)
        got = attempt(basis_peel, f, p)
        assert got == attempt(ref_basis_functional, list(f.coeffs), p)
        # the basis route reads no lattice node, so it has a value where the
        # Newton route's nodes collide and agrees with it everywhere else
        assert got == expected or expected[0] is DegenerateLattice and got[0] == "value"

        def by_weights():
            nodes, weights = moment_weights(p, n)
            return sum((w * f(b) for w, b in zip(weights, nodes)), F(0))

        assert attempt(by_weights) == expected


def test_lattice_poles_match_the_reference_message():
    # a^2 q^e = 1 first zeroes a head or tail at order n = ceil((e+1)/2), and
    # q = -1 zeroes (q;q)_2
    cases = ((F(2), F(1, 4), 1), (F(4), F(1, 4), 2), (F(8), F(1, 4), 2), (F(1, 8), F(4), 2))
    for a, q, n in cases + ((F(3), F(-1), 2),):
        fvals = [F(j + 1, 3) for j in range(n + 1)]
        pole = (PoleError, "lattice Newton denominator vanishes")
        assert attempt(ref_lattice_coeffs, fvals, a, q) == pole
        with pytest.raises(PoleError, match=pole[1]):
            _lattice_denominators(a, q, n)
        assert attempt(ref_lattice_coeffs, fvals[:-1], a, q)[0] == "value"
        _lattice_denominators(a, q, n - 1)
    # a^2 q^4 = 1: the lattice weights of aw_moment check the nodes first
    p = AWParams(F(4), F(3), F(5, 7), F(-2), F(1, 2))
    assert attempt(aw_moment, 2, F(1, 3), p)[0] == "value"
    assert attempt(aw_moment, 3, F(1, 3), p) == (
        DegenerateLattice, "lattice nodes collided; resample a or q"
    )


def test_collided_lattice_and_zero_basis_moment_raise_as_before():
    f = PolynomialInX([F(1), F(2, 3), F(-1, 5)])
    with pytest.raises(DegenerateLattice):
        newton_lattice_coeffs(f, F(2), F(1, 4), 2)
    with pytest.raises(DegenerateLattice):
        moment_weights(AWParams(F(2), F(3), F(5), F(7), F(1, 4)), 2)
    # abcd = q^-1: (abcd;q)_2 vanishes
    p = AWParams(F(3), F(5), F(7), F(2, 105), F(1, 2))
    assert attempt(lambda n: moment_weights(p, n)[1], 1)[0] == "value"
    assert attempt(moment_weights, p, 2) == (PoleError, "(abcd;q)_n vanishes")
    assert attempt(basis_peel, f, p) == (PoleError, "(abcd;q)_n vanishes")


@pytest.mark.parametrize("seed", SEEDS)
def test_connection_u_matches_fraction_sums(seed):
    rng = random.Random(seed)
    a_nodes = [entry(rng) for _ in range(6)]
    b_nodes = [entry(rng) for _ in range(7)]
    for n in range(7):
        for k in range(n + 1):
            got = attempt(lambda: _connection_table(a_nodes, b_nodes[: k + 1], n)[n][k])
            assert got == attempt(ref_connection_u, n, k, a_nodes, b_nodes)


def test_connection_u_duplicate_nodes_and_domain():
    with pytest.raises(DuplicateNodes):
        _connection_table([F(1, 2)] * 3, [F(1, 3), 2, F(2)], 3)
    assert canon([_connection_table([F(1, 2)] * 3, [F(1, 3), 2], 3)[3][1]]) == canon(
        [ref_connection_u(3, 1, [F(1, 2)] * 3, [F(1, 3), 2, F(2)])]
    )
    assert canon(_connection_table([], [5], 0)[0]) == canon([F(1)])
    # row n lists u(n, k) for k <= n only, however many b-nodes there are
    assert [len(row) for row in _connection_table([1, 2], [1, 2, 3, 4], 2)] == [1, 2, 3]


def test_newton_to_monomial_refuses_too_few_nodes():
    with pytest.raises(ValueError, match="a node for each basis factor"):
        newton_to_monomial([F(1), F(2), F(5)], [F(3)])
    # the last basis polynomial has len(coeffs) - 1 factors
    expected = ref_newton_to_monomial([F(1), F(2), F(5)], [F(3), F(4)])
    assert canon(newton_to_monomial([F(1), F(2), F(5)], [F(3), F(4)]).coeffs) == canon(expected)


INTERPOLATION_NAMES = (
    tuple(f"n{i}" for i in range(9))
    + tuple(f"p{i}" for i in range(8))
    + tuple(f"c{i}" for i in range(9))
    + ("a", "q")
)


@pytest.mark.parametrize("height", (2, 3, 5, 40))
@pytest.mark.parametrize("seed", range(10))
def test_difference_table_readers_match_their_references(seed, height):
    # the checks' own sampler: below height 5 most of the nine nodes collide,
    # so every prefix of them is read, and the lattice nodes collide often
    pt = sample_point(INTERPOLATION_NAMES, seed, height)
    nodes = [pt[f"n{i}"] for i in range(9)]
    a_nodes = [pt[f"p{i}"] for i in range(8)]
    coeffs = [pt[f"c{i}"] for i in range(9)]
    f = PolynomialInX(coeffs)
    for m in range(1, 10):
        b_nodes, values = nodes[:m], [f(b) for b in nodes[:m]]
        assert attempt(newton_coeffs, b_nodes, values) == attempt(
            ref_newton_coeffs, b_nodes, values
        )

        def table():
            return [u for row in _connection_table(a_nodes, b_nodes, 8) for u in row]

        def ref_table():
            return [
                ref_connection_u(n, k, a_nodes, b_nodes)
                for n in range(9)
                for k in range(min(n, m - 1) + 1)
            ]

        assert attempt(table) == attempt(ref_table)
    for n in range(9):
        f = PolynomialInX(coeffs[: n + 1])
        assert attempt(newton_lattice_coeffs, f, pt["a"], pt["q"], n) == attempt(
            ref_newton_lattice_coeffs, list(f.coeffs), pt["a"], pt["q"], n
        )


def _difference_factor_dropped(real, pairs):
    # column k keeps the entries of column k-1: their factor for r = k is lost
    columns = real(pairs)
    return columns[:1] + [prev + column[-1:] for prev, column in zip(columns, columns[1:])]


def _difference_factor_repeated(real, pairs):
    # every entry j >= 1 takes its factor b_j - b_0 twice
    zn, zd = pairs[0]
    return [
        [(d, e)] + [
            (x * (jn * zd - zn * jd), y * jd * zd)
            for (x, y), (jn, jd) in zip(rest, pairs[1:])
        ]
        for (d, e), *rest in real(pairs)
    ]


@pytest.mark.parametrize("mutate", (_difference_factor_dropped, _difference_factor_repeated))
@pytest.mark.parametrize("check_id", ("newton_interpolation", "connection_coeffs"))
def test_difference_table_slips_fail_every_trial(monkeypatch, check_id, mutate):
    real = askey_wilson._difference_table
    monkeypatch.setattr(askey_wilson, "_difference_table", lambda pairs: mutate(real, pairs))
    report = run_check(CHECKS_BY_ID[check_id], trials=20, seed=0)
    assert report.failures == report.trials == 20


def _lattice_basis_shifted(real, params, q, n, prime=None):
    # u_k is paired with (az, a/z; q)_(k+1)
    nums, dens = real(params, q, n + 1, prime)
    return nums[1:], dens[1:]


def _lattice_basis_one_base(real, params, q, n, prime=None):
    # (az; q)_k stands in for (az, a/z; q)_k
    return real(params[:1], q, n, prime)


@pytest.mark.parametrize("mutate", (_lattice_basis_shifted, _lattice_basis_one_base))
def test_lattice_evaluation_slips_fail_every_trial(monkeypatch, mutate):
    real = identities._qpoch_multi_prefix
    monkeypatch.setattr(identities, "_qpoch_multi_prefix", lambda *args: mutate(real, *args))
    report = run_check(CHECKS_BY_ID["newton_interpolation"], trials=20, seed=0)
    assert report.failures == report.trials == 20


@pytest.mark.parametrize("seed", SEEDS)
def test_polynomial_in_x_matches_fraction_loops(seed):
    rng = random.Random(seed)
    u = [entry(rng) for _ in range(rng.randint(1, 9))]
    v = [entry(rng) for _ in range(rng.randint(1, 9))]
    f, g = PolynomialInX(u), PolynomialInX(v)
    for x in (rand_fraction(rng, 40), F(0), rng.randint(-5, 5), -rand_q(rng)):
        assert canon([f(x)]) == canon([ref_poly_call(f.coeffs, F(x))])
    assert canon((f * g).coeffs) == canon(ref_poly_mul(f.coeffs, g.coeffs))
    assert canon((g * f).coeffs) == canon((f * g).coeffs)
    assert canon((f - g).coeffs) == canon(ref_poly_sub(f.coeffs, g.coeffs))
    assert canon((f - f).coeffs) == canon([F(0)])
    nodes = [entry(rng) for _ in range(len(u))]
    expected = ref_newton_to_monomial(u, nodes)
    assert canon(newton_to_monomial(u, nodes).coeffs) == canon(expected)


def test_polynomial_in_x_zero_and_constant():
    zero, c = PolynomialInX([0, 0]), PolynomialInX([F(-3, 4)])
    assert canon((zero * PolynomialInX([1, 2, 3])).coeffs) == canon([F(0)])
    assert (zero * c).degree == 0
    assert canon([zero(F(7, 3)), c(F(7, 3)), c(0)]) == canon([F(0), F(-3, 4), F(-3, 4)])
    f = PolynomialInX([F(1, 6), 0, F(-2, 9)])
    assert canon([f(F(3, 2))]) == canon([F(1, 6) - F(2, 9) * F(9, 4)])


@pytest.mark.parametrize("seed", SEEDS)
def test_det_cofactor_matches_fraction_expansion(seed):
    rng = random.Random(seed)
    # orders 7 and 8 cost the factorial reference about a second each
    for order in range(9 if seed < 3 else 6):
        rows = [[entry(rng) for _ in range(order)] for _ in range(order)]
        if order >= 2 and rng.random() < 0.3:
            rows[-1] = [2 * x for x in rows[0]]  # singular
        M = from_rows(Matrix, rows)
        expected = canon([ref_det(to_lists(M))])
        assert canon([det_cofactor(M)]) == expected
        # condensation stops short of the blocks with a vanishing interior minor
        got = canon(det_condensation(M))
        leading = [ref_det(to_lists(M.leading(k))) for k in range(1, order + 1)]
        assert got == canon(leading)[: len(got)]


@pytest.mark.parametrize("seed", SEEDS)
def test_pfaffian_matchings_matches_fraction_sum(seed):
    rng = random.Random(seed)
    for m in range(5):
        upper = {(i, j): entry(rng) for i in range(2 * m) for j in range(i + 1, 2 * m)}
        if m and rng.random() < 0.3:
            zero_row = rng.randrange(2 * m)
            upper = {ij: (0 if zero_row in ij else x) for ij, x in upper.items()}
        M = SkewMatrix.from_upper(2 * m, lambda i, j: upper[i, j])
        assert canon([pfaffian_matchings(M)]) == canon([ref_pfaffian(M)])


def test_factorial_oracles_on_singular_and_zero_row_matrices():
    singular = from_rows(Matrix, [[F(1, 2), F(2, 3), 5], [1, F(4, 3), 10], [F(-1, 7), 0, 3]])
    assert canon([det_cofactor(singular)]) == canon([F(0)])
    assert canon([det_cofactor(Matrix(0, 0, ()))]) == canon([F(1)])
    assert canon([det_cofactor(Matrix(1, 1, (F(-6, 4),)))]) == canon([F(-3, 2)])
    M = SkewMatrix.from_upper(4, lambda i, j: 0 if 2 in (i, j) else F(i + 1, j + 2))
    assert canon([pfaffian_matchings(M)]) == canon([F(0)])
    assert canon([pfaffian_matchings(SkewMatrix.from_upper(0, None))]) == canon([F(1)])
    assert canon([pfaffian_matchings(SkewMatrix.from_upper(2, lambda i, j: F(-4, 6)))]) == canon(
        [F(-2, 3)]
    )


# ---------------------------------------------------------------------------
# orthogonality: one weight vector per trial against one functional per product
# ---------------------------------------------------------------------------


def per_product_orthogonality(pt, sizes):
    p = AWParams(pt["a"], pt["b"], pt["c"], pt["d"], pt["q"])
    top = min(sizes.n_max, 4)
    polys = [aw_poly_as_polynomial(k, p) for k in range(top + 1)]
    if any(f.degree < m for m, f in enumerate(polys)):
        raise PoleError("leading coefficient of p_m vanishes")
    out = []
    for m in range(top + 1):
        for n in range(m, top + 1):
            value = ref_functional(list((polys[m] * polys[n]).coeffs), p)
            if m == n:
                value -= next(_aw_norm_ratios(p, (n,)))
            out.append(value)
    return out


def orthogonality_outcome(run, pt, sizes):
    try:
        return "value", run(pt, sizes)
    except (PoleError, ZeroDivisionError, DegenerateLattice, DuplicateNodes, DomainError) as exc:
        return type(exc), str(exc)


# abcd = q^-6 zeroes the leading coefficient of p_4 but no (abcd;q)_k up to
# k = 6, so p_4 drops to degree 3 while every product would still have a
# value; abcd = q^-2 also drops p_2 and p_3.  abcd = q^-1 with a^2 q^6 = 1
# drops p_2, and its nodes collide at order 4.  Each degree drop is a pole of
# the check, raised before the weights are formed.
DEGREE_DROPS = [
    {"a": F(3), "b": F(5), "c": F(7), "d": F(64, 105), "q": F(1, 2)},
    {"a": F(3), "b": F(5), "c": F(-7), "d": F(-1, 6720), "q": F(-2)},
    {"a": F(3), "b": F(5), "c": F(7), "d": F(4, 105), "q": F(1, 2)},
    {"a": F(8), "b": F(3), "c": F(5), "d": F(1, 60), "q": F(1, 2)},
]

# No p_m drops degree at these points, yet the weights at order 8 raise:
# abcd = q^-7 zeroes (abcd;q)_8, read by p_4 p_4 alone, and a^2 q^5 = 1 makes
# the nodes collide at order 3.
WEIGHT_POLES = [
    ({"a": F(3), "b": F(5), "c": F(7), "d": F(128, 105), "q": F(1, 2)}, PoleError),
    ({"a": F(32), "b": F(5), "c": F(7), "d": F(3, 11), "q": F(1, 4)}, DegenerateLattice),
]


@pytest.mark.parametrize("height", [2, 3, 40])
def test_orthogonality_weights_match_per_product_route(monkeypatch, height):
    # with no prime the check gives the per-product values; mod the trial
    # prime it raises the same exceptions and gives their residues
    check = CHECKS_BY_ID["orthogonality"]
    outcomes = set()
    points = [sample_point(check.param_names, 31 * s + height, height) for s in range(24)]
    points += [ParamPoint(values, 0) for values in DEGREE_DROPS]
    points += [ParamPoint(values, 0) for values, _ in WEIGHT_POLES]
    for pt in points:
        for sizes in (check.defaults, Sizes(n_max=2)):
            kind, want = orthogonality_outcome(per_product_orthogonality, pt, sizes)
            with monkeypatch.context() as m:
                m.setattr(scalar, "trial_prime", lambda seed: None)
                exact = orthogonality_outcome(check.run, ParamPoint(pt.assignments, pt.seed), sizes)
            got = orthogonality_outcome(check.run, pt, sizes)
            outcomes.add(kind)
            if kind != "value":
                assert exact == got == (kind, want)
                continue
            assert exact[0] == got[0] == "value" and canon(exact[1]) == canon(want)
            assert len(got[1]) == len(want)
            assert all(isinstance(r, Residue) and r == w for r, w in zip(got[1], want))
    assert "value" in outcomes


def test_orthogonality_degree_drops_are_covered():
    check = CHECKS_BY_ID["orthogonality"]
    for values, drops in zip(DEGREE_DROPS, (4, 4, 2, 2)):
        pt = ParamPoint(values, 0)
        p = AWParams(pt["a"], pt["b"], pt["c"], pt["d"], pt["q"])
        assert aw_poly_as_polynomial(drops, p).degree < drops
        assert attempt(check.run, pt, check.defaults) == (
            PoleError, "leading coefficient of p_m vanishes"
        )
    # below the dropped degree the relation holds exactly: at abcd = q^-6
    # every product up to p_3 p_3 reads moments of degree <= 6
    pt = ParamPoint(DEGREE_DROPS[0], 0)
    residuals = check.run(pt, Sizes(n_max=3))
    assert len(residuals) == 10 and all(r == 0 for r in residuals)


def test_orthogonality_weight_poles_are_covered():
    check = CHECKS_BY_ID["orthogonality"]
    for values, error in WEIGHT_POLES:
        pt = ParamPoint(values, 0)
        p = AWParams(pt["a"], pt["b"], pt["c"], pt["d"], pt["q"])
        assert all(aw_poly_as_polynomial(m, p).degree == m for m in range(5))
        with pytest.raises(error):
            check.run(pt, check.defaults)
    # below those orders the relation holds exactly
    for (values, _), n_max in zip(WEIGHT_POLES, (2, 1)):
        residuals = check.run(ParamPoint(values, 0), Sizes(n_max=n_max))
        assert residuals and all(r == 0 for r in residuals)


# ---------------------------------------------------------------------------
# matrix builders, six-term tables and closed forms: one Fraction per entry
# ---------------------------------------------------------------------------


def ref_quotient(num, den, what):
    if den == 0:
        raise PoleError(f"{what} vanishes")
    return num / den


def ref_hankel_ratios(num, den, q, top, what):
    nums = ref_qpoch_table(num, q, max(top, 0))
    dens = ref_qpoch_table(den, q, max(top, 0))
    return [ref_quotient(nums[k], dens[k], what) for k in range(top + 1)]


def ref_square(n, entry):
    return [entry(i, j) for i in range(n) for j in range(n)]


def ref_skew(order, upper):
    rows = [[F(0)] * order for _ in range(order)]
    for i in range(order):
        for j in range(i + 1, order):
            rows[i][j], rows[j][i] = upper(i, j), -upper(i, j)
    return [x for row in rows for x in row]


def ref_bordered(n, p, pt):
    a, b, c, d, q = p.a, p.b, p.c, p.d, p.q
    x = pt.x
    ab_t = ref_qpoch_table(a * b, q, 2 * n)
    abcd_t = ref_qpoch_table(p.abcd, q, 2 * n)
    ratio = [ref_quotient(ab_t[k], abcd_t[k + 1], "(abcd;q)_(i+j)") for k in range(2 * n - 1)]

    def entry(i, jj):
        j = jj + 1
        bracket = (
            c + d - 2 * x
            + (1 - c * d) * (a * q**i + b * q ** (j - 1))
            - a * b * (c + d - 2 * c * d * x) * q ** (i + j - 1)
        )
        return ratio[i + j - 1] * (-b * q ** (j - 1)) * bracket

    return ref_square(n, entry)


def ref_decorations(n, p):
    a, b, c, d, q = p.a, p.b, p.c, p.d, p.q
    return ref_qpoch_multi_table((a * c, a * d), q, n), ref_qpoch_multi_table((b * c, b * d), q, n)


def ref_decoration_det(n, p):
    row, col = ref_decorations(n, p)
    out = F(1)
    for i in range(n):
        out *= row[i] * col[i]
    return out


def ref_gram(n, p, pt):
    b, q, z = p.b, p.q, pt.z
    hankel = ref_hankel_ratios(p.a * b, p.abcd, q, 2 * n - 1, "(abcd;q)_(i+j)")
    row, col = ref_decorations(n, p)
    last = ref_qpoch_multi_table((b * z, b / z), q, n)
    return [
        last[j] if i == n else row[i] * col[j] * hankel[i + j]
        for i in range(n + 1)
        for j in range(n + 1)
    ]


def ref_hankel(n, p):
    hankel = ref_hankel_ratios(p.a * p.b, p.abcd, p.q, 2 * n - 2, "(abcd;q)_(i+j)")
    return ref_square(n, lambda i, j: hankel[i + j])


def ref_hankel_decorated(n, p):
    base = ref_hankel(n, p)
    row, col = ref_decorations(n, p)
    return ref_square(n, lambda i, j: row[i] * col[j] * base[i * n + j])


def ref_mehta_wang(n, pt):
    a, b, c, _, _, q = mehta_wang_params(pt)
    hankel = ref_hankel_ratios(a * q, a * b * q**2, q, 2 * n - 2, "(abq^2;q)_(i+j-2)")
    return ref_square(n, lambda i, j: (q**i - c * q**j) * hankel[i + j])


def ref_even_det(m, a, b, q):
    hankel = ref_hankel_ratios(a * q, a * b * q**2, q, 4 * m - 3, "(abq^2;q)_(i+j-2)")
    return ref_skew(2 * m, lambda i, j: (q**i - q**j) * hankel[i + j])


def ref_integer_exp(m, alpha, q):
    qa_t = ref_qpoch_table(q**alpha, q, 4 * m)
    return ref_skew(2 * m, lambda i, j: (q**i - q**j) * qa_t[i + j])


def ref_det_prefactor(n, p):
    a, b, q = p.a, p.b, p.q
    out = a ** (n * (n - 1) // 2) * b ** (n * (n + 1) // 2) * q ** (n * (n - 1) * (2 * n - 1) // 6)
    abcd_t = ref_qpoch_table(p.abcd, q, 2 * n)
    pochs = ref_qpoch_multi_table((a * b, p.c * p.d, q), q, n)
    for i in range(n):
        out *= ref_quotient(pochs[i], abcd_t[n + i], "(abcd;q)_(n+i)")
    return out


def ref_rhs_hankel(n, p):
    q, ab = p.q, p.a * p.b
    out = ab ** (n * (n - 1) // 2) * q ** (n * (n - 1) * (n - 2) // 3)
    abcd_t = ref_qpoch_table(p.abcd, q, 2 * n)
    pochs = ref_qpoch_multi_table((q, ab, p.c * p.d), q, n)
    for k in range(n):
        out *= ref_quotient(pochs[k], abcd_t[k + n - 1], "(abcd;q)_(k+n-1)")
    return out


def ref_rhs_pfaffian(m, a, b, q):
    out = a ** (m * (m - 1)) * q ** (m * (m - 1) * (4 * m + 1) // 3)
    den_t = ref_qpoch_table(a * b * q**2, q, 4 * m)
    pochs = ref_qpoch_multi_table((q, a * q), q, 2 * m)
    bq_t = ref_qpoch_table(b * q, q, 2 * m)
    for k in range(1, m + 1):
        num = pochs[2 * k - 1] * bq_t[2 * k - 2]
        out *= ref_quotient(num, den_t[2 * (k + m) - 3], "(abq^2;q)_(2(k+m)-3)")
    return out


def ref_rhs_integer_exp(m, alpha, q):
    out = q ** (m * (m - 1) * (alpha - 1) + m * (m - 1) * (4 * m + 1) // 3)
    pochs = ref_qpoch_multi_table((q, q**alpha), q, 2 * m)
    for k in range(1, m + 1):
        out *= pochs[2 * k - 1]
    return out


def ref_rhs_mehta_wang(n, pt):
    a, b, _, u, v, q = mehta_wang_params(pt)
    pref = F(-1) ** n * a ** (n * (n - 3) // 2) * q ** (n * (n + 1) * (2 * n - 5) // 6)
    pref *= ref_qpoch(u**2 * v**2, q**2, n)
    den_t = ref_qpoch_table(a * b * q**2, q, 2 * n)
    q_t, aq_t, bq_t = (ref_qpoch_table(x, q, n) for x in (q, a * q, b * q))
    for k in range(1, n + 1):
        bq = ref_qpoch(b * q, q, -1) if k == 1 else bq_t[k - 2]
        pref *= ref_quotient(q_t[k - 1] * aq_t[k] * bq, den_t[k + n - 2], "(abq^2;q)_(k+n-2)")
    spec = HypergeometricSpec((q**-n, a * b * q**n, u, -u), (a * q, u * v, -u * v), q)
    return pref * phi_terminating(spec, q, n)


def ref_vectors(pt, r, s):
    return tuple(pt[f"e{i}"] for i in range(1, r + 1)), tuple(pt[f"f{i}"] for i in range(1, s + 1))


def ref_six_term_g(k, pt, r, s):
    a, b, c, d, q = pt["a"], pt["b"], pt["c"], pt["d"], pt["q"]
    es, fs = ref_vectors(pt, r, s)
    bc = b * c
    num = (
        (1 - q**k) * (1 - bc * q ** (k - 2))
        * qpoch_multi((bc / a, c, d), q, k - 1) * qpoch(bc, q, k - 2) * qpoch_multi(es, q, k)
        * F(-1) ** (k * (s - r)) * q ** (k * (k - 1) // 2 * (s - r))
    )
    den = qpoch_multi((a, b, bc / d, q), q, k) * qpoch_multi(fs, q, k)
    return _quotient(num, den, "G_k denominator")


def ref_six_term_xi(n, pt, r, s):
    a, b, c, d, q = pt["a"], pt["b"], pt["c"], pt["d"], pt["q"]
    es, fs = ref_vectors(pt, r, s)
    bc = b * c
    num = (
        (a - b) * (a - c) * (a - d) * (b - d) * (c - d) * (a * d - bc) * (1 - bc * q ** (n - 1))
        * (1 - a) * (1 - b) * (1 - bc / d) * (1 - bc / q**2) * (1 - bc / q) * qpoch_multi(fs, q, 1)
    )
    den = a * d * q**2 * (1 - a / q) * (1 - b / q) * (1 - bc / (d * q)) * qpoch_multi(es, q, 1)
    return _quotient(num, den, "Xi denominator")


def ref_aw_norm_ratio(n, p):
    a, b, c, d, q, abcd = p.a, p.b, p.c, p.d, p.q, p.abcd
    den = (1 - q ** (2 * n - 1) * abcd) * qpoch(abcd, q, n)
    num = (1 - q ** (n - 1) * abcd) * qpoch_multi(
        (q, a * b, a * c, a * d, b * c, b * d, c * d), q, n
    )
    return _quotient(num, den, "norm ratio denominator")


def ref_aw_poly(n, p, pt):
    if n < 0:
        raise DomainError("degree must be nonnegative")
    if p.a == 0:
        raise DomainError("parameter a must be nonzero")
    a, b, c, d, q = p.a, p.b, p.c, p.d, p.q
    pref = qpoch_multi((a * b, a * c, a * d), q, n) / a**n
    spec = HypergeometricSpec(
        (q**-n, p.abcd * q ** (n - 1), a * pt.z, a / pt.z), (a * b, a * c, a * d), q
    )
    return pref * phi_terminating(spec, q, n)


def ref_andrews_watson(n, a, b, q):
    spec = HypergeometricSpec((q**-n, a**2 * q ** (n + 1), b, -b), (a * q, -a * q, b**2), q)
    lhs = phi_terminating(spec, q, n)
    if n % 2:
        return lhs
    h, q2 = n // 2, q**2
    den = qpoch_multi((a**2 * q**2, b**2 * q), q2, h)
    num = b**n * qpoch_multi((q, a**2 * q**2 / b**2), q2, h)
    return lhs - _quotient(num, den, "closed-form denominator")


def ref_contiguous(r, s, pt, order):
    q, a, b = pt["q"], pt["a"], pt["b"]
    A = tuple(pt[f"A{i}"] for i in range(1, r))
    B = tuple(pt[f"B{i}"] for i in range(1, s))
    e = 1 + s - r
    t1 = phi_series(HypergeometricSpec((a * q,) + A, (b * q,) + B, q), F(1), order)
    t2 = phi_series(HypergeometricSpec((a,) + A, (b,) + B, q), F(1), order)
    pref = _quotient(F(-1) ** e * (a - b), (1 - b) * (1 - b * q), "prefactor denominator")
    for x in A:
        pref *= 1 - x
    for x in B:
        pref = _quotient(pref, 1 - x, "prefactor denominator")
    t3_spec = HypergeometricSpec(
        (a * q,) + tuple(x * q for x in A), (b * q**2,) + tuple(x * q for x in B), q
    )
    t3 = phi_series(t3_spec, q**e, order)
    shifted = TruncatedSeries((F(0),) + t3.coeffs[:-1])
    return series_linear_combine([(1, t1), (-1, t2), (-pref, shifted)])


def ref_alpha(k, q, e):
    sign = -1 if (k * e) % 2 else 1
    return sign * q ** (k * (k - 1) // 2 * e)


def ref_six_term_parts(top, pt, r, s):
    q = pt["q"]
    alphas = [ref_alpha(k, q, s - r) for k in range(top + 2)]
    tables = [
        (pref,) + tuple(ref_qpoch_multi_table(params, q, top) for params in sides)
        for pref, *sides in _six_term_specs(pt, r, s)
    ]

    def parts(k, n):
        if k == n + 1:
            return (F(0),) * 3
        m = n - k
        return tuple(
            pref * alphas[k] * alphas[m + 1]
            * ref_quotient(nk[k] * nm[m], dk[k] * dm[m], "coefficient denominator")
            for pref, nk, nm, dk, dm in tables
        )

    return parts


def ref_six_term_excesses(pt, n_max, r, s):
    parts = ref_six_term_parts(n_max, pt, r, s)
    return [[A - B + C for A, B, C in (parts(k, n) for k in range(n + 2))] for n in range(n_max + 1)]


def ref_lattice_nodes(a, q, n):
    out, qa, qia = [], F(a), 1 / F(a)
    for _ in range(n + 1):
        out.append((qa + qia) / 2)
        qa *= q
        qia /= q
    return out


def matrix_outcome(fn, *args):
    """attempt() of a matrix builder, compared on its row-major entries."""
    return attempt(lambda: list(fn(*args).entries))


def point(seed, names):
    """A seeded point at height 2, 3 or 40; the low heights hit poles often."""
    return sample_point(names, seed, (2, 3, 40)[seed % 3])


@pytest.mark.parametrize("seed", SEEDS)
def test_aw_matrix_builders_match_fraction_builders(seed):
    pt = point(seed, ("a", "b", "c", "d", "q", "z"))
    p, x = AWParams(pt["a"], pt["b"], pt["c"], pt["d"], pt["q"]), XPoint(pt["z"])
    for n in range(6):
        assert matrix_outcome(build_bordered_matrix, n, p, x) == attempt(ref_bordered, n, p, x)
        assert matrix_outcome(build_gram_matrix, n, p, x) == attempt(ref_gram, n, p, x)
        assert matrix_outcome(build_hankel_little_qjacobi, n, p) == attempt(ref_hankel, n, p)
        assert matrix_outcome(build_hankel_decorated, n, p) == attempt(ref_hankel_decorated, n, p)
    for n_max in range(4):
        def ref_elimination():
            out = []
            for n in range(1, n_max + 1):
                A = Matrix(n + 1, n + 1, tuple(ref_gram(n, p, x)))
                B = Matrix(n, n, tuple(ref_bordered(n, p, x)))
                row, col = ref_decorations(n, p)
                for j in range(1, n + 1):
                    mult = 1 - 2 * p.b * x.x * p.q ** (j - 1) + p.b**2 * p.q ** (2 * j - 2)
                    for i in range(n):
                        expected = row[i] * col[j - 1] * B[i, j - 1]
                        out.append(A[i, j] - mult * A[i, j - 1] - expected)
                    out.append(A[n, j] - mult * A[n, j - 1])
                scaling = (-1) ** n * ref_decoration_det(n, p)
                out.append(ref_det(to_lists(A)) - scaling * ref_det(to_lists(B)))
            return out

        assert attempt(gram_elimination_residuals, n_max, p, x) == attempt(ref_elimination)


@pytest.mark.parametrize("seed", SEEDS)
def test_pfaffian_and_mehta_wang_builders_match_fraction_builders(seed):
    pt = point(seed, ("a", "u", "v", "q"))
    a, b, q = pt["a"], pt["v"] ** 2, pt["q"]
    for n in range(6):
        assert matrix_outcome(build_mehta_wang_matrix, n, pt) == attempt(ref_mehta_wang, n, pt)
    for m in range(4):
        assert matrix_outcome(build_even_det, m, a, b, q) == attempt(ref_even_det, m, a, b, q)
        for alpha in range(5):
            assert matrix_outcome(build_integer_exp_pfaffian, m, alpha, q) == attempt(
                ref_integer_exp, m, alpha, q
            )


@pytest.mark.parametrize("seed", SEEDS)
def test_closed_forms_match_fraction_products(seed):
    pt = point(seed, ("a", "b", "c", "d", "q", "u", "v"))
    p = AWParams(pt["a"], pt["b"], pt["c"], pt["d"], pt["q"])
    a, b, q = pt["a"], pt["b"], pt["q"]

    def integer_exp(m, alpha, q, prime=None):
        return next(identities._integer_exp_pfaffians((m,), alpha, q, prime))

    for n in range(6):
        assert attempt(one_order, "det_prefactor", pt, n) == attempt(ref_det_prefactor, n, p)
        assert attempt(one_order, "gram_prefactor", pt, n) == attempt(
            lambda: F(-1) ** n * ref_det_prefactor(n, p) * ref_decoration_det(n, p)
        )
        assert attempt(rhs_hankel, n, p) == attempt(ref_rhs_hankel, n, p)
        assert attempt(one_order, "rhs_hankel_decorated", pt, n) == attempt(
            lambda: ref_rhs_hankel(n, p) * ref_decoration_det(n, p)
        )
        assert attempt(one_order, "rhs_mehta_wang", pt, n) == attempt(ref_rhs_mehta_wang, n, pt)
    for m in range(5):
        assert attempt(rhs_pfaffian, m, a, b, q) == attempt(ref_rhs_pfaffian, m, a, b, q)
        assert attempt(rhs_pfaffian, m, a, F(0), q) == attempt(ref_rhs_pfaffian, m, a, F(0), q)
        for alpha in range(5):
            assert attempt(integer_exp, m, alpha, q) == attempt(ref_rhs_integer_exp, m, alpha, q)
    # every matrix closed form mod the trial prime: the Residue of the exact
    # value, or the exact form's exception (v stands in for p_n)
    prime, p_n = trial_prime(seed), pt["v"]
    for n in range(6):
        for fn, args in (
            (one_order, ("det_prefactor", pt, n)),
            (one_order, ("gram_prefactor", pt, n)),
            (lambda *args: one_order(*args) * p_n, ("det_prefactor", pt, n)),
            (lambda *args: one_order(*args) * p_n, ("gram_prefactor", pt, n)),
            (rhs_hankel, (n, p)),
            (one_order, ("rhs_hankel_decorated", pt, n)),
            (one_order, ("rhs_mehta_wang", pt, n)),
            (_decoration_det, (n, *_decorations(5, p))),
        ):
            assert attempt_mod(prime, fn, *args) == attempt(fn, *args)
    for m in range(5):
        for fn, args in (
            (rhs_pfaffian, (m, a, b, q)),
            (rhs_pfaffian, (m, a, F(0), q)),
            (lambda *args: rhs_pfaffian(*args) ** 2, (m, a, b, q)),
            *[(integer_exp, (m, alpha, q)) for alpha in range(5)],
        ):
            assert attempt_mod(prime, fn, *args) == attempt(fn, *args)
    # the six-term factors, the Askey-Wilson norm and p_n, and the q-Watson and
    # contiguous checks, at a random point and at points built on a pole
    pt = point(seed, _MAIN_NAMES + ("A1", "B1", "z"))
    a, b, c, q = pt["a"], pt["b"], pt["c"], pt["q"]

    def with_(**changes):
        return ParamPoint({**pt.assignments, **changes}, pt.seed)

    def contiguous(r, s, x, order):
        series = next(_contiguous_shapes(x, ((r, s),), order))
        return list(_contiguous_residual(*series, None).coeffs)

    for x in (pt, with_(a=1 / q, c=q / b), with_(a=q), with_(d=1 / (a * b * c * q))):
        for r, s in RS_PAIRS:
            for k in range(1, 6):
                assert attempt(six_term_g, k, x, r, s) == attempt(ref_six_term_g, k, x, r, s)
                assert attempt(six_term_xi, k, x, r, s) == attempt(ref_six_term_xi, k, x, r, s)
        p = _aw_from(x)
        for n in range(6):
            got = attempt(lambda: next(_aw_norm_ratios(p, (n,))))
            assert got == attempt(ref_aw_norm_ratio, n, p)
    for x in (pt, with_(b=1 / (a * q)), with_(a=F(0))):
        p, z = _aw_from(x), XPoint(x["z"])
        for n in range(6):
            assert attempt(aw_poly, n, p, z) == attempt(ref_aw_poly, n, p, z)
    for x in (pt, with_(a=q**-2)):
        for n in range(9):
            assert attempt(check_andrews_watson, n, x["a"], b, q) == attempt(
                ref_andrews_watson, n, x["a"], b, q
            )
    for x in (pt, with_(b=F(1)), with_(B1=F(1))):
        for r, s in ((1, 1), (2, 1), (2, 2)):
            for order in (0, 3):
                assert attempt(contiguous, r, s, x, order) == attempt(
                    lambda: list(ref_contiguous(r, s, x, order).coeffs)
                )


def test_closed_forms_mod_a_prime_dividing_a_denominator_entry(monkeypatch):
    # 1 - abcd = 101 and 1 - abq^2 = 101: every (abcd;q)_j and (abq^2;q)_j with
    # j >= 1 is ≡ 0 mod 101 but not zero, so it is no pole.  A Residue whose
    # denominator is ≡ 0 equals every value, so its fields are compared with
    # the same closed form built on the reference kernel
    aw = ParamPoint({"a": F(-4), "b": F(5), "c": F(5), "d": F(1), "q": F(1, 2)})
    p = _aw_from(aw)
    pt = ParamPoint({"a": F(-25), "u": F(3), "v": F(4), "q": F(1, 2)})
    a, b, _, _, _, q = mehta_wang_params(pt)
    assert 1 - p.abcd == 1 - a * b * q**2 == 101
    for n in range(2, 6):
        for fn, args in (
            (one_order, ("det_prefactor", aw, n)),
            (one_order, ("gram_prefactor", aw, n)),
            (rhs_hankel, (n, p)),
            (one_order, ("rhs_hankel_decorated", aw, n)),
            (one_order, ("rhs_mehta_wang", pt, n)),
            (rhs_pfaffian, (n - 1, a, b, q)),
            (lambda *args: rhs_pfaffian(*args) ** 2, (n - 1, a, b, q)),
        ):
            got = fn(*args, 101)
            with monkeypatch.context() as patched:
                patched.setattr(identities, "_closed_forms", ref_closed_forms)
                want = fn(*args, 101)
            assert got.den == 0 and (got.num, got.den) == (want.num, want.den)


# Each family the runners read from one _closed_forms pass: its parameter
# names, the one pass over `orders` at a point (mod `prime` when one is
# given), and the per-order Fraction reference of order n.
_AW5 = ("a", "b", "c", "d", "q")


def _decorated(p):
    return (p.a * p.c, p.a * p.d, p.b * p.c, p.b * p.d)


ONE_PASS_FAMILIES = {
    "det_prefactor": (
        _AW5,
        lambda pt, orders, prime: identities._det_prefactors(orders, _aw_from(pt), 1, (), prime),
        lambda pt, n: ref_det_prefactor(n, _aw_from(pt)),
    ),
    "gram_prefactor": (
        _AW5,
        lambda pt, orders, prime: identities._det_prefactors(
            orders, _aw_from(pt), -1, _decorated(_aw_from(pt)), prime
        ),
        lambda pt, n: F(-1) ** n * ref_det_prefactor(n, _aw_from(pt))
        * ref_decoration_det(n, _aw_from(pt)),
    ),
    "rhs_hankel": (
        _AW5,
        lambda pt, orders, prime: identities._hankel_forms(orders, _aw_from(pt), (), prime),
        lambda pt, n: ref_rhs_hankel(n, _aw_from(pt)),
    ),
    "rhs_hankel_decorated": (
        _AW5,
        lambda pt, orders, prime: identities._hankel_forms(
            orders, _aw_from(pt), _decorated(_aw_from(pt)), prime
        ),
        lambda pt, n: ref_rhs_hankel(n, _aw_from(pt)) * ref_decoration_det(n, _aw_from(pt)),
    ),
    "rhs_mehta_wang": (
        ("a", "u", "v", "q"),
        lambda pt, orders, prime: identities._mehta_wang_forms(orders, pt, prime),
        lambda pt, n: ref_rhs_mehta_wang(n, pt),
    ),
    "rhs_pfaffian": (
        ("a", "b", "q"),
        lambda pt, orders, prime: identities._pfaffian_forms(
            orders, pt["a"], pt["b"], pt["q"], prime
        ),
        lambda pt, m: ref_rhs_pfaffian(m, pt["a"], pt["b"], pt["q"]),
    ),
    "rhs_pfaffian_b0": (
        ("q", "k"),
        lambda pt, orders, prime: identities._pfaffian_forms(
            orders, pt["q"] ** (pt["k"].numerator % 4), F(0), pt["q"], prime
        ),
        lambda pt, m: ref_rhs_pfaffian(m, pt["q"] ** (pt["k"].numerator % 4), F(0), pt["q"]),
    ),
    "rhs_integer_exp_pfaffian": (
        ("q", "k"),
        lambda pt, orders, prime: identities._integer_exp_pfaffians(
            orders, 1 + pt["k"].numerator % 4, pt["q"], prime
        ),
        lambda pt, m: ref_rhs_integer_exp(m, 1 + pt["k"].numerator % 4, pt["q"]),
    ),
}


def one_order(family, pt, n, prime=None):
    """Order n of a family: next() of its one pass over (n,) alone."""
    return next(ONE_PASS_FAMILIES[family][1](pt, (n,), prime))


def family_orders(family):
    """Orders 1..10 of the determinant families, m = 1..5 of the Pfaffian ones."""
    return range(1, 6 if "pfaffian" in family else 11)


def yielded(values):
    """The values an iterator yields, then (PoleError, message) if it raises one."""
    out = []
    try:
        for value in values:
            out.append(value)
    except PoleError as exc:
        out.append((PoleError, str(exc)))
    return out


def per_order(ref, pt, orders):
    """ref(pt, n) at each order up to the first PoleError, which ends the list."""
    out = []
    for n in orders:
        try:
            out.append(ref(pt, n))
        except PoleError as exc:
            out.append((PoleError, str(exc)))
            break
    return out


def one_pass_matches_per_order(family, pt):
    """Whether the one pass over 1..top, exact and mod pt.prime, gives every
    value of the per-order reference and its first PoleError at the same order."""
    _, one_pass, ref = ONE_PASS_FAMILIES[family]
    orders = family_orders(family)
    expected = per_order(ref, pt, orders)
    exact = yielded(one_pass(pt, orders, None))
    modular = yielded(one_pass(pt, orders, pt.prime))
    if any(isinstance(v, Residue) or v != w for v, w in zip(exact, expected)):
        return False
    if any(isinstance(v, F) or v != w for v, w in zip(modular, expected)):
        return False
    return all(isinstance(v, tuple) or v.p == pt.prime for v in modular) and (
        len(exact) == len(modular) == len(expected)
    )


@pytest.mark.parametrize("height", [2, 3, 40])
@pytest.mark.parametrize("family", sorted(ONE_PASS_FAMILIES))
def test_one_pass_closed_forms_match_per_order_references(family, height):
    names, _, ref = ONE_PASS_FAMILIES[family]
    outcomes = set()
    for seed in range(12):
        pt = sample_point(names, 1000 * height + seed, height)
        assert one_pass_matches_per_order(family, pt), (family, pt.assignments)
        outcomes.add(isinstance(per_order(ref, pt, family_orders(family))[-1], tuple))
    assert False in outcomes  # some points reached every order
    if height == 2 and family not in ("rhs_pfaffian_b0", "rhs_integer_exp_pfaffian"):
        assert True in outcomes  # and some hit a pole (the last two have none)


def test_one_pass_poles_come_at_the_per_order_first_pole():
    # points built on a pole: abcd = q^-6 zeroes (abcd;q)_j from j = 7,
    # ab q^2 = q^-5 zeroes (abq^2;q)_j from j = 6, and v = 1 makes b = 1
    q = F(2, 3)
    aw = ParamPoint({"a": F(1, 2), "b": F(3), "c": F(5, 7), "d": F(14, 15) * q**-6, "q": q})
    ab = ParamPoint({"a": F(1, 2), "b": 2 * q**-7, "q": q})
    mw = ParamPoint({"a": F(3, 5), "u": F(2, 7), "v": F(1), "q": q})
    assert _aw_from(aw).abcd == q**-6
    for family, pt, first in (
        ("det_prefactor", aw, 4),  # reads (abcd;q)_(2n-1)
        ("gram_prefactor", aw, 4),
        ("rhs_hankel", aw, 5),  # reads (abcd;q)_(2n-2)
        ("rhs_hankel_decorated", aw, 5),
        ("rhs_pfaffian", ab, 3),  # reads (abq^2;q)_(4m-3)
        ("rhs_mehta_wang", mw, 1),  # (bq;q)_(-1) = 1/(1-b)
    ):
        ends = per_order(ONE_PASS_FAMILIES[family][2], pt, range(1, 11))
        assert len(ends) == first and ends[-1][0] is PoleError
        assert one_pass_matches_per_order(family, pt)


def test_one_pass_check_flags_an_exponent_read_one_order_late(monkeypatch):
    # a one-pass kernel whose powers lag one order behind, as a running
    # product that applies its update late would: every family's check fails
    real = identities._closed_forms

    def late(orders, form, what="", prime=None):
        first = orders[0] if orders else 0
        return real(
            orders, lambda n: (form(max(n - 1, first))[0], *form(n)[1:]), what, prime
        )

    monkeypatch.setattr(identities, "_closed_forms", late)
    for family, (names, _, _) in ONE_PASS_FAMILIES.items():
        points = [sample_point(names, 40_000 + seed, 40) for seed in range(3)]
        assert not any(one_pass_matches_per_order(family, pt) for pt in points), family


def test_aw_polys_yield_p_0_to_p_n_and_take_the_prime_by_keyword():
    p, z = AWParams(F(1, 2), F(2, 3), F(-3, 5), F(5, 7), F(3, 11)), XPoint(F(7, 3))
    for n in range(6):
        assert len(list(_aw_polys(p, z, n))) == n + 1
        assert len(list(_aw_polys(p, z, n, prime=trial_prime(n)))) == n + 1
    with pytest.raises(TypeError):  # a prime in the degree's place would ask for 2^60 degrees
        _aw_polys(p, z, 3, trial_prime(0))


@pytest.mark.parametrize("height", [2, 3, 40])
def test_aw_polys_match_fraction_route(height):
    # every degree of one pass against ref_aw_poly, value and pole outcome, at
    # random points and at points built on a denominator (q,ab,ac,ad;q)_k = 0;
    # a pole ends the pass, and every later degree raises the same PoleError
    outcomes = set()
    for s in range(24):
        pt = sample_point(("a", "b", "c", "d", "q", "z"), 97 * s + height, height)
        a, q = pt["a"], pt["q"]
        for changes in ({}, {"b": 1 / (a * q**2)}, {"d": 1 / (a * q**4)}, {"a": F(0)}):
            x = ParamPoint({**pt.assignments, **changes}, pt.seed)
            p, z = _aw_from(x), XPoint(x["z"])
            degrees = _aw_polys(p, z, 8)
            for n in range(9):
                got = attempt(next, degrees)
                assert got == attempt(ref_aw_poly, n, p, z)
                outcomes.add(got[0])
                if got[0] != "value":
                    assert all(attempt(ref_aw_poly, k, p, z) == got for k in range(n, 9))
                    break
    assert outcomes == {"value", PoleError, DomainError}


def test_leading_coeff_matches_interpolated_polynomial():
    # the closed form 2^m (abcd q^(m-1);q)_m is the x^m coefficient of the
    # interpolated p_m, so it vanishes exactly where p_m drops degree
    points = [ParamPoint(values, 0) for values in DEGREE_DROPS]
    points += [point(s, ("a", "b", "c", "d", "q")) for s in range(60)]
    drops = 0
    for pt in points:
        p = _aw_from(pt)
        for m in range(6):
            try:
                poly = aw_poly_as_polynomial(m, p)
            except PoleError:
                break
            lead = aw_leading_coeff(m, p)
            assert (poly.degree < m) == (lead == 0)
            assert poly.coeffs[m] == lead if poly.degree == m else lead == 0
            drops += poly.degree < m
    assert drops >= len(DEGREE_DROPS)


def ref_aw_quadratic(n_max, p, pt):
    """The degree-lowering quadratic relation at n = 2..n_max, term by term."""
    a, b, c, d, q, abcd = p.a, p.b, p.c, p.d, p.q, p.abcd
    p_ab, p_a, p_b = replace(p, a=a * q, b=b * q), replace(p, a=a * q), replace(p, b=b * q)
    out = []
    for n in range(2, n_max + 1):
        lhs = (
            a * b * (1 - q ** (n - 1)) * (1 - c * d * q ** (n - 2))
            * ref_aw_poly(n, p, pt) * ref_aw_poly(n - 2, p_ab, pt)
        )
        rhs1 = (
            (1 - a * b * q ** (n - 1)) * (1 - abcd * q ** (n - 1))
            * ref_aw_poly(n - 1, p, pt) * ref_aw_poly(n - 1, p_ab, pt)
        )
        rhs2 = (
            (1 - a * b) * (1 - abcd * q ** (2 * n - 2))
            * ref_aw_poly(n - 1, p_a, pt) * ref_aw_poly(n - 1, p_b, pt)
        )
        out.append(lhs - rhs1 + rhs2)
    return out


@pytest.mark.parametrize("height", [2, 3, 40])
def test_aw_quadratic_batches_raise_what_the_relation_raises(height):
    # the four passes are advanced degree by degree, so the first pole met is
    # the one the relation's own order of aw_poly calls meets first
    outcomes = set()
    for s in range(60):
        pt = sample_point(("a", "b", "c", "d", "q", "z"), 89 * s + height, height)
        p, z = _aw_from(pt), XPoint(pt["z"])
        got = attempt(aw_quadratic_residuals, 6, p, z)
        assert got == attempt(ref_aw_quadratic, 6, p, z)
        outcomes.add(got if got[0] is PoleError else got[0])
    if height < 40:
        assert len(outcomes) > 2  # values and poles at more than one term


def test_qwatson_right_side_poles_are_raised_by_the_left_side():
    # (a^2 q^2, b^2 q; q^2)_(n/2) = 0 makes (aq;q)_j, (-aq;q)_j or (b^2;q)_j
    # vanish for some j <= n, so the left side's terminating sum raises first
    seen = set()
    for t in (F(2, 3), F(-3, 2), F(5, 7)):
        q = t * t
        for i in range(3):
            a_pole, b_pole = q ** -(i + 1), t ** -(2 * i + 1)  # a q^(i+1) = 1, b^2 q^(2i+1) = 1
            points = ((a_pole, F(2, 5)), (-a_pole, F(2, 5)), (F(3, 7), b_pole), (F(3, 7), -b_pole))
            for a, b in points:
                for n in range(2 * i + 2, 9, 2):
                    assert qpoch_multi((a**2 * q**2, b**2 * q), q**2, n // 2) == 0
                    kind, message = attempt(check_andrews_watson, n, a, b, q)
                    assert kind is PoleError
                    assert message.startswith("denominator Pochhammer vanishes at term ")
                    seen.add(message)
    assert len(seen) > 1


@pytest.mark.parametrize("seed", SEEDS)
def test_six_term_tables_match_fraction_products(seed):
    pt = point(seed, _MAIN_NAMES)
    for r, s in RS_PAIRS:
        for n in range(5):
            # the series read every denominator up to n, the reference only
            # the two of (k, n); its whole order n reads them all
            whole = attempt(lambda: sum(ref_six_term_excesses(pt, n, r, s), []))
            ref = ref_six_term_parts(n, pt, r, s)
            for k in range(n + 2):
                got = attempt(lambda: list(six_term_parts(k, n, pt, r, s)))
                if whole[0] == "value" or k == n + 1:
                    assert got == attempt(lambda: list(ref(k, n)))
                else:
                    assert got[0] is PoleError
        got = attempt(lambda: sum(_six_term_excesses(pt, 4, r, s), []))
        expected = attempt(lambda: sum(ref_six_term_excesses(pt, 4, r, s), []))
        assert got == expected if expected[0] == "value" else got[0] is expected[0]


@pytest.mark.parametrize("seed", SEEDS)
def test_lattice_nodes_match_fraction_steps(seed):
    rng = random.Random(seed)
    a, q = lattice_point(rng)
    assert canon(lattice_nodes(a, q, 8)) == canon(ref_lattice_nodes(a, F(q), 8))
    assert canon(lattice_nodes(a, q, 0)) == canon(ref_lattice_nodes(a, F(q), 0))


def test_builders_raise_only_at_denominators_they_read():
    # abcd = q^-2: (abcd;q)_k vanishes for k >= 3 and nowhere below
    q = F(1, 2)
    p = AWParams(F(3), F(5), F(7), F(4, 105), q)
    x = XPoint(F(2))
    read = {  # the first n whose entries read (abcd;q)_3
        "bordered": (build_bordered_matrix, ref_bordered, (p, x), 2, "(abcd;q)_(i+j)"),
        "gram": (build_gram_matrix, ref_gram, (p, x), 2, "(abcd;q)_(i+j)"),
        "hankel": (build_hankel_little_qjacobi, ref_hankel, (p,), 3, "(abcd;q)_(i+j)"),
        "decorated": (build_hankel_decorated, ref_hankel_decorated, (p,), 3, "(abcd;q)_(i+j)"),
    }
    for build, ref, args, first, what in read.values():
        for n in range(first + 2):
            got = matrix_outcome(build, n, *args)
            assert got == attempt(ref, n, *args)
            assert got[0] == ("value" if n < first else PoleError)
        assert got == (PoleError, f"{what} vanishes")
    for closed, ref, first, what in (
        (lambda n, p: next(identities._det_prefactors((n,), p, 1, (), None)),
         ref_det_prefactor, 2, "(abcd;q)_(n+i)"),
        (rhs_hankel, ref_rhs_hankel, 3, "(abcd;q)_(k+n-1)"),
    ):
        for n in range(first + 2):
            got = attempt(closed, n, p)
            assert got == attempt(ref, n, p)
            assert got[0] == ("value" if n < first else PoleError)
        assert got == (PoleError, f"{what} vanishes")


@pytest.mark.parametrize("m", [1, 2, 3])
def test_even_det_does_not_read_its_last_denominator(m):
    # ab q^2 = q^(3-4m) zeroes (abq^2;q)_(4m-2), one past the last entry read
    q, a = F(1, 3), F(2)
    b = q ** (1 - 4 * m) / a
    assert ref_qpoch(a * b * q**2, q, 4 * m - 2) == 0 != ref_qpoch(a * b * q**2, q, 4 * m - 3)
    got = matrix_outcome(build_even_det, m, a, b, q)
    assert got[0] == "value" and got == attempt(ref_even_det, m, a, b, q)
    assert attempt(rhs_pfaffian, m, a, b, q) == attempt(ref_rhs_pfaffian, m, a, b, q)
    got = matrix_outcome(build_even_det, m + 1, a, b, q)
    assert got == (PoleError, "(abq^2;q)_(i+j-2) vanishes")
    assert got == attempt(ref_even_det, m + 1, a, b, q)


def test_mehta_wang_closed_form_pole_at_b_one():
    for v in (F(1), F(-1)):
        pt = ParamPoint({"a": F(3, 5), "u": F(2, 7), "v": v, "q": F(-1, 3)})
        assert attempt(one_order, "rhs_mehta_wang", pt, 0)[0] == "value"
        for n in range(1, 4):
            got = attempt(one_order, "rhs_mehta_wang", pt, n)
            assert got == attempt(ref_rhs_mehta_wang, n, pt)
            assert got == (PoleError, "(a;q)_-1 undefined: factor 1 - a*q^k vanishes")


def test_six_term_excesses_pole_at_a_to_q_minus_three():
    # (aq;q)_3 = 0 sits in the m-side series of A: every order from 3 raises,
    # the orders below have the reference's values
    pt = ParamPoint({"a": F(1, 8), "b": F(3), "c": F(5), "d": F(7), "q": F(2)})
    for top in range(6):
        got = attempt(lambda: sum(_six_term_excesses(pt, top, 0, 0), []))
        expected = attempt(lambda: sum(ref_six_term_excesses(pt, top, 0, 0), []))
        if top < 3:
            assert got == expected and got[0] == "value"
        else:
            assert got[0] is expected[0] is PoleError


# ---------------------------------------------------------------------------
# nested determinant families: every order from one leading_minors call
# ---------------------------------------------------------------------------


def leading_block(M, k):
    return minor(M, range(k, M.rows), range(k, M.rows))


def lifted(G):
    """A Gram matrix with its polynomial (last) row moved to the top."""
    cut = (G.rows - 1) * G.cols
    return Matrix(G.rows, G.cols, G.entries[cut:] + G.entries[:cut])


@pytest.mark.parametrize("seed", SEEDS)
def test_nested_builders_are_leading_blocks_of_the_top_order(seed):
    pt = point(seed, ("a", "b", "c", "d", "q", "z", "u", "v"))
    p, x = AWParams(pt["a"], pt["b"], pt["c"], pt["d"], pt["q"]), XPoint(pt["z"])
    top = 6
    builders = {
        "bordered": (lambda n: build_bordered_matrix(n, p, x), 0),
        "gram": (lambda n: lifted(build_gram_matrix(n, p, x)), 1),
        "hankel": (lambda n: build_hankel_little_qjacobi(n, p), 0),
        "decorated": (lambda n: build_hankel_decorated(n, p), 0),
        "mehta_wang": (lambda n: build_mehta_wang_matrix(n, pt), 0),
    }
    for build, extra in builders.values():
        try:
            M = build(top)
        except PoleError:  # a pole of the top order need not be one of a lower order
            continue
        for n in range(top + 1):
            assert canon(build(n).entries) == canon(leading_block(M, n + extra).entries)


@pytest.mark.parametrize("seed", SEEDS)
def test_gram_dets_carry_the_row_move_sign(seed):
    pt = point(seed, ("a", "b", "c", "d", "q", "z"))
    p, x = AWParams(pt["a"], pt["b"], pt["c"], pt["d"], pt["q"]), XPoint(pt["z"])
    top = 5
    try:
        G = build_gram_matrix(top, p, x)
    except PoleError:
        return
    expected = [det_fraction_free(build_gram_matrix(n, p, x)) for n in range(1, top + 1)]
    assert canon(_gram_dets(G)) == canon(expected)
    assert _gram_dets(G, trial_prime(seed)) == expected


# The per-order runners of the five checks that now read every order from one
# elimination: each builds and eliminates a fresh matrix for every n.


def per_order_bordered(pt, sizes):
    p, x = _aw_from(pt), XPoint(pt["z"])
    out = []
    for n in range(1, sizes.n_max + 1):
        M = build_bordered_matrix(n, p, x)
        p_n = aw_poly(n, p, x)
        rhs = one_order("det_prefactor", pt, n) * p_n
        d_ff = det_fraction_free(M)
        out.append(d_ff - rhs)
        condensed = det_condensation(M)
        if len(condensed) == n:  # no zero interior minor in M
            out.append(condensed[-1] - d_ff)
        if n <= COFACTOR_CAP:
            out.append(det_cofactor(M) - d_ff)
    return out


def per_order_mehta_wang(pt, sizes):
    return [
        det_fraction_free(build_mehta_wang_matrix(n, pt)) - one_order("rhs_mehta_wang", pt, n)
        for n in range(1, sizes.n_max + 1)
    ]


def per_order_gram(pt, sizes):
    p, x = _aw_from(pt), XPoint(pt["z"])
    return [
        det_fraction_free(build_gram_matrix(n, p, x))
        - aw_poly(n, p, x) * one_order("gram_prefactor", pt, n)
        for n in range(1, sizes.n_max + 1)
    ]


def per_order_elimination(n, p, pt):
    b, q, x = p.b, p.q, pt.x
    A = build_gram_matrix(n, p, pt)
    B = build_bordered_matrix(n, p, pt)
    row, col = _decorations(n, p)
    (rn, rd), (cn, cd) = row, col
    out = []
    for j in range(1, n + 1):
        mult = 1 - 2 * b * x * q ** (j - 1) + b**2 * q ** (2 * j - 2)
        for i in range(n):
            expected = F(rn[i] * cn[j - 1], rd[i] * cd[j - 1]) * B[i, j - 1]
            out.append(A[i, j] - mult * A[i, j - 1] - expected)
        out.append(A[n, j] - mult * A[n, j - 1])
    scaling = F(-1) ** n * _decoration_det(n, row, col)
    out.append(det_fraction_free(A) - scaling * det_fraction_free(B))
    return out


def per_order_gram_to_bordered(pt, sizes):
    p, x = _aw_from(pt), XPoint(pt["z"])
    out = []
    for n in range(1, sizes.n_max + 1):
        out.extend(per_order_elimination(n, p, x))
    return out


def per_order_hankel(pt, sizes):
    p = _aw_from(pt)
    out = []
    for n in range(1, sizes.n_max + 1):
        out.append(det_fraction_free(build_hankel_little_qjacobi(n, p)) - rhs_hankel(n, p))
        decorated = one_order("rhs_hankel_decorated", pt, n)
        out.append(det_fraction_free(build_hankel_decorated(n, p)) - decorated)
    return out


PER_ORDER_RUNNERS = {
    "bordered_det": per_order_bordered,
    "mehta_wang_det": per_order_mehta_wang,
    "gram_det": per_order_gram,
    "gram_to_bordered": per_order_gram_to_bordered,
    "little_qjacobi_hankel": per_order_hankel,
}


def run_outcome(run, pt, sizes):
    """Which residuals vanish, or 'resample' for an exception run_trial resamples.

    The checks' engines run mod a prime, so their residuals are Residues; the
    per-order runners' are exact.  The zero patterns must agree.
    """
    try:
        return [r == 0 for r in run(pt, sizes)]
    except _RESAMPLE_ERRORS:
        return "resample"


@pytest.mark.parametrize("height", [2, 3, 40])
@pytest.mark.parametrize("check_id", sorted(PER_ORDER_RUNNERS))
def test_one_elimination_runners_match_per_order_runners(check_id, height):
    check = CHECKS_BY_ID[check_id]
    outcomes = set()
    for seed in range(5):
        pt = sample_point(check.param_names, 1000 * height + seed, height)
        for n_max in (0, 1, 2, 5, 8):
            sizes = replace(check.defaults, n_max=n_max, height=height)
            got = run_outcome(check.run, pt, sizes)
            assert got == run_outcome(PER_ORDER_RUNNERS[check_id], pt, sizes)
            outcomes.add(got == "resample")
    assert False in outcomes  # some residuals were compared
    if height == 2:  # and the low height hit poles of both sides
        assert True in outcomes


# what makes the closed form of each check, as bound in identities and in
# this module: the kernel, which serves the one-pass runners and the public
# rhs_* of the per-order ones alike, or, for gram_to_bordered, the
# determinant scaling
CLOSED_FORMS = {
    "bordered_det": "_closed_forms",
    "mehta_wang_det": "_closed_forms",
    "gram_det": "_closed_forms",
    "gram_to_bordered": "_decoration_det",
    "little_qjacobi_hankel": "_closed_forms",
}


@pytest.mark.parametrize("check_id", sorted(PER_ORDER_RUNNERS))
def test_one_elimination_runners_flag_a_mutated_closed_form(monkeypatch, check_id):
    check = CHECKS_BY_ID[check_id]
    name = CLOSED_FORMS[check_id]
    real = getattr(identities, name)

    def mutated(*args):
        value = real(*args)
        return (v + 1 for v in value) if name == "_closed_forms" else value + 1

    monkeypatch.setattr(identities, name, mutated)
    monkeypatch.setitem(globals(), name, mutated)
    failed = 0
    for seed in range(5):
        pt = sample_point(check.param_names, seed, 40)
        sizes = replace(check.defaults, n_max=5)
        got = run_outcome(check.run, pt, sizes)
        assert got == run_outcome(PER_ORDER_RUNNERS[check_id], pt, sizes)
        failed += got != "resample" and not all(got)
    assert failed  # the mutation made nonzero residuals, at the same indices


# the checks whose engines or moment layers run mod a prime, with the two
# engine cross-checks
MODULAR_CHECKS = (
    "bordered_det",
    "mehta_wang_det",
    "even_order_det",
    "pfaffian_eval",
    "pfaffian_integer_exp",
    "gram_det",
    "gram_to_bordered",
    "little_qjacobi_hankel",
    "det_engines",
    "pfaffian_engines",
    "moment_double_sum",
    "moment_symmetry",
    "basis_moments",
    "orthogonality",
)


@pytest.mark.parametrize("height", [2, 3, 40])
@pytest.mark.parametrize("check_id", MODULAR_CHECKS)
def test_modular_runners_match_their_exact_runs(monkeypatch, check_id, height):
    # with no prime every engine runs exactly: the zero and resample patterns,
    # so the sampled points and the reports, must not change
    check = CHECKS_BY_ID[check_id]
    sizes = replace(check.defaults, height=height)
    modular, exact = [], []
    for seed in range(6):
        # a fresh point per run: a point keeps the prime it first drew
        args = (check.param_names, 1000 * height + seed, height)
        modular.append(run_outcome(check.run, sample_point(*args), sizes))
        with monkeypatch.context() as m:
            m.setattr(scalar, "trial_prime", lambda seed: None)
            exact.append(run_outcome(check.run, sample_point(*args), sizes))
    assert modular == exact
    assert any(o != "resample" for o in modular)


# The matrix builders mod the trial prime: each entry one scalar._ratio of
# the integer products the exact route reduces, with the exact route's poles.

_AW_NAMES = ("a", "b", "c", "d", "q", "z")
RESIDUE_BUILDERS = {
    "build_bordered_matrix": (_AW_NAMES, lambda pt, n: (n, _aw_from(pt), XPoint(pt["z"]))),
    "build_gram_matrix": (_AW_NAMES, lambda pt, n: (n, _aw_from(pt), XPoint(pt["z"]))),
    "build_hankel_little_qjacobi": (_AW_NAMES[:5], lambda pt, n: (n, _aw_from(pt))),
    "build_hankel_decorated": (_AW_NAMES[:5], lambda pt, n: (n, _aw_from(pt))),
    "build_mehta_wang_matrix": (("a", "u", "v", "q"), lambda pt, n: (n, pt)),
    "build_even_det": (("a", "b", "q"), lambda pt, n: (n, pt["a"], pt["b"], pt["q"])),
    "build_integer_exp_pfaffian": (("q",), lambda pt, n: (n, 1 + n % 4, pt["q"])),
}


def build_outcome(build, *args):
    """('value', matrix) of a builder, or (PoleError, message)."""
    try:
        return "value", build(*args)
    except PoleError as exc:
        return PoleError, str(exc)


@pytest.mark.parametrize("height", [2, 3, 40])
@pytest.mark.parametrize("name", sorted(RESIDUE_BUILDERS))
def test_residue_builders_match_their_exact_route(name, height):
    build = getattr(identities, name)
    names, args = RESIDUE_BUILDERS[name]
    outcomes = set()
    for seed in range(16):
        pt = sample_point(names, 1000 * height + seed, height)
        for n in range(11):
            kind, exact = build_outcome(build, *args(pt, n))
            got = build_outcome(build, *args(pt, n), pt.prime)
            outcomes.add(kind)
            if kind is PoleError:
                assert got == (kind, exact)
                continue
            M = got[1]
            assert type(M) is type(exact) and (M.rows, M.cols) == (exact.rows, exact.cols)
            skew = isinstance(M, SkewMatrix)
            for k, (r, e) in enumerate(zip(M.entries, exact.entries)):
                if not skew or k // M.cols != k % M.cols:  # a skew diagonal stays 0
                    assert isinstance(r, Residue) and r.p == pt.prime
                assert r == e
    assert "value" in outcomes
    if height == 2 and name != "build_integer_exp_pfaffian":  # that one has no pole
        assert PoleError in outcomes


@pytest.mark.parametrize("height", [2, 3, 40])
def test_aw_polys_mod_p_match_the_exact_pass(height):
    # a pass mod p yields the exact pass's values as Residues and raises
    # where it raises, with the same message
    outcomes = set()
    for s in range(24):
        pt = sample_point(_AW_NAMES, 97 * s + height, height)
        p, z = _aw_from(pt), XPoint(pt["z"])
        exact, modular = _aw_polys(p, z, 8), _aw_polys(p, z, 8, prime=pt.prime)
        for _ in range(9):
            want = attempt(next, exact)
            try:
                value = next(modular)
            except PoleError as exc:
                assert want == (PoleError, str(exc))
                outcomes.add(PoleError)
                break
            (_, num, den), = want[1]
            assert isinstance(value, Residue) and value.p == pt.prime and value == F(num, den)
            outcomes.add("value")
    assert "value" in outcomes
    if height == 2:
        assert PoleError in outcomes
