"""Integer numerator/denominator kernels against plain-Fraction references.

The references below are the running Fraction products the kernels replace.
Every comparison is on (numerator, denominator) and type, so a kernel must
return the canonical Fraction, not just an equal value.
"""

import random
from fractions import Fraction as F

import pytest

from helpers import rand_fraction, rand_q
from qident.askey_wilson import (
    AWParams,
    DegenerateLattice,
    DuplicateNodes,
    PolynomialInX,
    _lattice_coeffs,
    aw_moment,
    aw_norm_ratio,
    aw_poly_as_polynomial,
    connection_u,
    moment_functional,
    moment_weights,
    newton_lattice_coeffs,
)
from qident.identities import CHECKS_BY_ID, Sizes
from qident.linalg import (
    Matrix,
    SkewMatrix,
    det_cofactor,
    matching_sign,
    perfect_matchings,
    pfaffian_matchings,
)
from qident.scalar import (
    DomainError,
    ParamPoint,
    PoleError,
    qpoch,
    qpoch_multi,
    qpoch_multi_table,
    qpoch_table,
    sample_point,
)
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


def ref_aw_moment(n, t, p):
    inner = ref_lattice_coeffs([(t + b) ** n for b in ref_nodes(p.a, p.q, n)], p.a, p.q)
    outer = ref_basis_moments(n, p)
    return sum((o * u for o, u in zip(outer, inner)), F(0))


def ref_functional(coeffs, p):
    """L(f) by the Newton route, on Fractions: sum_k mu_k u_k."""
    n = len(coeffs) - 1
    u = ref_newton_lattice_coeffs(coeffs, p.a, p.q, n)
    return sum((m * x for m, x in zip(ref_basis_moments(n, p), u)), F(0))


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
        fvals = [
            rng.choice((rand_fraction(rng, 30), F(0), rng.randint(-3, 3))) for _ in range(n + 1)
        ]
        assert attempt(_lattice_coeffs, fvals, a, q) == attempt(ref_lattice_coeffs, fvals, a, q)
        coeffs = [rand_fraction(rng, 30) for _ in range(rng.randint(1, n + 1))]
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
        assert attempt(aw_moment, n, t, p) == attempt(ref_aw_moment, n, F(t), p)
        f = PolynomialInX([rand_fraction(rng, 30) for _ in range(n + 1)])
        expected = attempt(ref_functional, list(f.coeffs), p)
        assert attempt(moment_functional, f, p) == expected

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
        got = attempt(_lattice_coeffs, fvals, a, q)
        assert got == attempt(ref_lattice_coeffs, fvals, a, q)
        assert got == (PoleError, "lattice Newton denominator vanishes")
        assert attempt(_lattice_coeffs, fvals[:-1], a, q)[0] == "value"
    # a^2 q^4 = 1: aw_moment reads the lattice without checking the nodes
    p = AWParams(F(4), F(3), F(5, 7), F(-2), F(1, 2))
    assert attempt(aw_moment, 2, F(1, 3), p)[0] == "value"
    assert attempt(aw_moment, 3, F(1, 3), p) == (PoleError, "lattice Newton denominator vanishes")
    assert attempt(ref_aw_moment, 3, F(1, 3), p) == attempt(aw_moment, 3, F(1, 3), p)


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
    assert attempt(moment_functional, f, p) == (PoleError, "(abcd;q)_n vanishes")


@pytest.mark.parametrize("seed", SEEDS)
def test_connection_u_matches_fraction_sums(seed):
    rng = random.Random(seed)
    a_nodes = [entry(rng) for _ in range(6)]
    b_nodes = [entry(rng) for _ in range(7)]
    for n in range(7):
        for k in range(n + 1):
            got = attempt(connection_u, n, k, a_nodes, b_nodes)
            assert got == attempt(ref_connection_u, n, k, a_nodes, b_nodes)


def test_connection_u_duplicate_nodes_and_domain():
    with pytest.raises(DuplicateNodes):
        connection_u(3, 2, [F(1, 2)] * 3, [F(1, 3), 2, F(2)])
    assert canon([connection_u(3, 1, [F(1, 2)] * 3, [F(1, 3), 2, F(2)])]) == canon(
        [ref_connection_u(3, 1, [F(1, 2)] * 3, [F(1, 3), 2, F(2)])]
    )
    assert canon([connection_u(0, 0, [], [5])]) == canon([F(1)])
    with pytest.raises(DomainError):
        connection_u(2, 3, [1, 2], [1, 2, 3, 4])


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
    for order in range(6):
        rows = [[entry(rng) for _ in range(order)] for _ in range(order)]
        if order >= 2 and rng.random() < 0.3:
            rows[-1] = [2 * x for x in rows[0]]  # singular
        M = Matrix.from_rows(rows)
        assert canon([det_cofactor(M)]) == canon([ref_det(M.to_lists())])


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
    singular = Matrix.from_rows([[F(1, 2), F(2, 3), 5], [1, F(4, 3), 10], [F(-1, 7), 0, 3]])
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
    out = []
    for m in range(top + 1):
        for n in range(m, top + 1):
            value = moment_functional(polys[m] * polys[n], p)
            if m == n:
                value -= aw_norm_ratio(n, p)
            out.append(value)
    return out


def orthogonality_outcome(run, pt, sizes):
    try:
        return "value", canon(run(pt, sizes))
    except (PoleError, ZeroDivisionError, DegenerateLattice, DuplicateNodes, DomainError) as exc:
        return type(exc), None


# abcd = q^-6 zeroes the leading coefficient of p_4 but no (abcd;q)_k up to
# k = 6, so p_4 drops to degree 3 and every product still has a value;
# abcd = q^-2 also drops p_2 and p_3, and then the products of degree 3 raise.
# abcd = q^-1 with a^2 q^6 = 1 drops p_2, and (abcd;q)_3 vanishes before the
# nodes collide at order 4: the weights at N = 8 meet the collision, while
# the first failing product, p_0 p_3, meets the zero moment.
DEGREE_DROPS = [
    {"a": F(3), "b": F(5), "c": F(7), "d": F(64, 105), "q": F(1, 2)},
    {"a": F(3), "b": F(5), "c": F(-7), "d": F(-1, 6720), "q": F(-2)},
    {"a": F(3), "b": F(5), "c": F(7), "d": F(4, 105), "q": F(1, 2)},
    {"a": F(8), "b": F(3), "c": F(5), "d": F(1, 60), "q": F(1, 2)},
]


@pytest.mark.parametrize("height", [2, 3, 40])
def test_orthogonality_weights_match_per_product_route(height):
    check = CHECKS_BY_ID["orthogonality"]
    outcomes = set()
    points = [sample_point(check.param_names, None, 31 * s + height, height) for s in range(24)]
    points += [ParamPoint(values, 0) for values in DEGREE_DROPS]
    for pt in points:
        for sizes in (check.defaults, Sizes(n_max=2)):
            got = orthogonality_outcome(check.run, pt, sizes)
            assert got == orthogonality_outcome(per_product_orthogonality, pt, sizes)
            outcomes.add(got[0])
    assert "value" in outcomes


def test_orthogonality_degree_drops_are_covered():
    check = CHECKS_BY_ID["orthogonality"]
    dropped, raised = [ParamPoint(v, 0) for v in DEGREE_DROPS[:2]], ParamPoint(DEGREE_DROPS[2], 0)
    for pt in dropped:
        p = AWParams(pt["a"], pt["b"], pt["c"], pt["d"], pt["q"])
        assert aw_poly_as_polynomial(4, p).degree < 4
        assert len(check.run(pt, check.defaults)) == 15
    p = AWParams(raised["a"], raised["b"], raised["c"], raised["d"], raised["q"])
    assert aw_poly_as_polynomial(2, p).degree < 2
    with pytest.raises(PoleError):
        check.run(raised, check.defaults)
    crossed = ParamPoint(DEGREE_DROPS[3], 0)
    p = AWParams(crossed["a"], crossed["b"], crossed["c"], crossed["d"], crossed["q"])
    with pytest.raises(DegenerateLattice):
        moment_weights(p, 8)
    with pytest.raises(PoleError):
        check.run(crossed, check.defaults)
