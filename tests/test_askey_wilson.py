import itertools
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from helpers import aw_leading_coeff, basis_peel, poly_power, rand_fraction, rand_q
from qident import askey_wilson, identities
from qident.askey_wilson import (
    AWParams,
    DegenerateLattice,
    DuplicateNodes,
    PolynomialInX,
    XPoint,
    _aw_norm_ratios,
    _basis_moments,
    _connection_table,
    _lattice_denominators,
    _peel_functional,
    _weight_orders,
    _weighted_sum,
    aw_moment,
    aw_moments,
    aw_poly,
    aw_poly_as_polynomial,
    lattice_nodes,
    moment_weights,
    newton_coeffs,
    newton_lattice_coeffs,
    newton_to_monomial,
    pochhammer_basis_polys,
    poly_x_plus,
)
from qident.scalar import (
    DomainError,
    PoleError,
    Residue,
    _closed_form,
    _common_denominator,
    _qpoch_multi_prefix,
    _ratio,
    _ratio_table,
    qpoch,
    qpoch_multi,
    sample_point,
)

P = AWParams(F(2, 3), F(1, 5), F(3, 7), F(-5, 11), F(2, 7))
PT = XPoint(F(7, 3))


def aw_poly_oracle_n1(p: AWParams, pt: XPoint):
    """Independent two-term expansion of the degree-1 case:

    p_1 = (ab,ac,ad;q)_1/a * [1 + (1-q^-1)(1-abcd)(1-az)(1-a/z) q
                                  / ((1-q)(1-ab)(1-ac)(1-ad))]
    """
    a, b, c, d, q = p.a, p.b, p.c, p.d, p.q
    z = pt.z
    term0 = qpoch_multi((a * b, a * c, a * d), q, 1) / a
    term1 = (
        (1 - q**-1)
        * (1 - p.abcd)
        * (1 - a * z)
        * (1 - a / z)
        * q
        / ((1 - q) * (1 - a * b) * (1 - a * c) * (1 - a * d))
    )
    return term0 * (1 + term1)


def test_aw_poly_degree_zero():
    assert aw_poly(0, P, PT) == 1


def test_aw_poly_z_inversion_symmetry():
    assert aw_poly(3, P, PT) == aw_poly(3, P, XPoint(1 / PT.z))


def test_aw_poly_degree_one_against_two_term_oracle():
    assert aw_poly(1, P, PT) == aw_poly_oracle_n1(P, PT)
    # the same value in fully expanded form
    a = P.a
    x = PT.x
    expanded = (
        qpoch_multi((a * P.b, a * P.c, a * P.d), P.q, 1)
        - (1 - P.abcd) * (1 - 2 * a * x + a**2)
    ) / a
    assert aw_poly(1, P, PT) == expanded


def test_aw_poly_ab_symmetry():
    swapped = AWParams(P.b, P.a, P.c, P.d, P.q)
    for n in range(7):
        assert aw_poly(n, P, PT) == aw_poly(n, swapped, PT)


def test_aw_poly_s4_symmetry():
    for perm in itertools.permutations("abcd"):
        pp = P.permuted(perm)
        for n in range(5):
            assert aw_poly(n, P, PT) == aw_poly(n, pp, PT)


def test_aw_leading_coeff():
    assert aw_leading_coeff(0, P) == 1
    assert aw_leading_coeff(1, P) == 2 * (1 - P.abcd)
    poly3 = aw_poly_as_polynomial(3, P)
    assert poly3.coeffs[-1] == aw_leading_coeff(3, P)


def test_aw_poly_as_polynomial_contract():
    assert aw_poly_as_polynomial(0, P).coeffs == (F(1),)
    fresh = XPoint(F(19, 4))
    for n in range(5):
        poly = aw_poly_as_polynomial(n, P)
        assert poly.degree == n
        assert poly(fresh.x) == aw_poly(n, P, fresh)


def test_aw_norm_ratio():
    h_0, h_1 = _aw_norm_ratios(P, (0, 1))
    assert h_0 == 1
    a, b, c, d, q = P.a, P.b, P.c, P.d, P.q
    abcd = P.abcd
    expected = (
        (1 - abcd)
        * (1 - q) * (1 - a * b) * (1 - a * c) * (1 - a * d)
        * (1 - b * c) * (1 - b * d) * (1 - c * d)
        / ((1 - q * abcd) * (1 - abcd))
    )
    assert h_1 == expected


def test_basis_moment():
    moments = _basis_moments(4, P)
    assert moments[0] == 1
    a, b, c, d = P.a, P.b, P.c, P.d
    assert moments[1] == (1 - a * b) * (1 - a * c) * (1 - a * d) / (1 - P.abcd)
    # symmetric under permutations of b, c, d
    for perm in (("a", "c", "b", "d"), ("a", "d", "c", "b"), ("a", "c", "d", "b")):
        assert _basis_moments(4, P.permuted(perm)) == moments


def test_aw_moment_degree_zero():
    assert aw_moment(0, F(4, 9), P) == 1


def test_aw_moment_linear_against_basis_inversion():
    # (az, a/z; q)_1 = 1 + a^2 - 2ax, so L(x) = (1 + a^2 - L1)/(2a)
    a = P.a
    lx = (1 + a**2 - _basis_moments(1, P)[1]) / (2 * a)
    assert aw_moment(1, F(0), P) == lx


def test_aw_moment_ab_swap_invariance():
    swapped = AWParams(P.b, P.a, P.c, P.d, P.q)
    t = F(3, 8)
    for n in range(7):
        assert aw_moment(n, t, P) == aw_moment(n, t, swapped)
        # same value through the swapped-basis functional route
        f = poly_power(poly_x_plus(t), n)
        assert aw_moment(n, t, P) == basis_peel(f, swapped)


def test_aw_moment_full_symmetry():
    t = F(-2, 9)
    for n in range(7):
        base = aw_moment(n, t, P)
        for perm in itertools.permutations("abcd"):
            assert aw_moment(n, t, P.permuted(perm)) == base


def test_aw_moment_takes_one_value_per_first_slot():
    # b, c and d enter only symmetrically, so the moment_symmetry check needs
    # only the swaps of a with b, c and d: every other permutation repeats one
    rng = random.Random(11)
    for _ in range(4):
        p = AWParams(*(rand_fraction(rng) for _ in range(4)), rand_q(rng))
        t = rand_fraction(rng)
        for n in range(5):
            values = {}
            for perm in itertools.permutations("abcd"):
                values.setdefault(perm[0], set()).add(aw_moment(n, t, p.permuted(perm)))
            assert sorted(values) == list("abcd")
            assert all(len(v) == 1 for v in values.values())


def test_moment_functional_constant_and_monomials():
    assert basis_peel(PolynomialInX([F(1)]), P) == 1
    for n in range(5):
        f = poly_power(poly_x_plus(F(0)), n)
        assert basis_peel(f, P) == aw_moment(n, F(0), P)


def test_moment_functional_kills_p1():
    # independent oracle: L(p_1) = c_0 + c_1 L(x) with L(x) from basis inversion
    p1 = aw_poly_as_polynomial(1, P)
    a = P.a
    lx = (1 + a**2 - _basis_moments(1, P)[1]) / (2 * a)
    assert p1.coeffs[0] + p1.coeffs[1] * lx == 0
    assert basis_peel(p1, P) == 0


def test_orthogonality_small():
    p0 = aw_poly_as_polynomial(0, P)
    p1 = aw_poly_as_polynomial(1, P)
    p2 = aw_poly_as_polynomial(2, P)
    assert basis_peel(p0 * p1, P) == 0
    assert basis_peel(p1 * p2, P) == 0
    assert basis_peel(p2 * p2, P) == next(_aw_norm_ratios(P, (2,)))


def test_newton_coeffs_constant():
    nodes = [F(0), F(1), F(2)]
    assert newton_coeffs(nodes, [F(5), F(5), F(5)]) == [F(5), F(0), F(0)]


def test_newton_coeffs_linear():
    assert newton_coeffs([F(0), F(1)], [F(0), F(1)]) == [F(0), F(1)]


def test_newton_coeffs_reconstructs_random_quartic():
    rng = random.Random(42)
    f = PolynomialInX([rand_fraction(rng) for _ in range(5)])
    nodes = []
    while len(nodes) < 5:
        v = rand_fraction(rng)
        if v not in nodes:
            nodes.append(v)
    cs = newton_coeffs(nodes, [f(b) for b in nodes])
    assert newton_to_monomial(cs, nodes).coeffs == f.coeffs


def test_newton_coeffs_duplicate_nodes():
    with pytest.raises(DuplicateNodes):
        newton_coeffs([F(1), F(1)], [F(0), F(0)])


def test_node_collisions_are_found_on_canonical_pairs():
    # an int and a Fraction of one value are one node
    with pytest.raises(DuplicateNodes, match="^interpolation nodes must be distinct$"):
        newton_coeffs([3, F(1, 2), F(6, 2)], [F(1), F(2), F(3)])
    with pytest.raises(DuplicateNodes, match="^b-nodes must be distinct$"):
        _connection_table([F(1), F(2)], [2, F(1, 3), F(4, 2)], 2)
    assert newton_coeffs([F(1, 2), 3, F(7, 2)], [F(1), F(2), F(3)])


def test_newton_lattice_constant():
    u = newton_lattice_coeffs(PolynomialInX([F(1)]), F(2, 3), F(2, 7), 4)
    assert u == [F(1), F(0), F(0), F(0), F(0)]


def test_newton_lattice_basis_rescaling():
    # (x-b_0)...(x-b_{k-1}) = (-1)^k 2^-k a^-k q^-C(k,2) (az, a/z; q)_k
    a, q = F(2, 3), F(2, 7)
    nodes = lattice_nodes(a, q, 6)
    for k in range(6):
        lhs = PolynomialInX([F(1)])
        for i in range(k):
            lhs = lhs * PolynomialInX([-nodes[i], F(1)])
        scale = F(-1) ** k * F(1, 2) ** k * a**-k * q ** (-k * (k - 1) // 2)
        rhs = [scale * c for c in pochhammer_basis_polys(a, q, k)[k].coeffs]
        assert list(lhs.coeffs) == rhs


def test_newton_lattice_agrees_with_generic_newton():
    # same coefficients after the basis rescaling above
    rng = random.Random(7)
    a, q = F(2, 3), F(2, 7)
    n = 5
    f = PolynomialInX([rand_fraction(rng) for _ in range(n + 1)])
    nodes = lattice_nodes(a, q, n)
    generic = newton_coeffs(nodes, [f(b) for b in nodes])
    lattice = newton_lattice_coeffs(f, a, q, n)
    for k in range(n + 1):
        # c_k (x-b_0)...(x-b_{k-1}) = c_k * scale * (az, a/z; q)_k, so u_k = c_k * scale
        scale = F(-1) ** k * F(1, 2) ** k * a**-k * q ** (-k * (k - 1) // 2)
        assert lattice[k] == generic[k] * scale


def test_newton_lattice_reconstruction():
    rng = random.Random(3)
    a, q = F(3, 5), F(2, 7)
    f = PolynomialInX([rand_fraction(rng) for _ in range(6)])
    u = newton_lattice_coeffs(f, a, q, 5)
    for z in (F(2), F(3), F(7, 2)):
        x = (z + 1 / z) / 2
        val = sum(uk * qpoch_multi((a * z, a / z), q, k) for k, uk in enumerate(u))
        assert val == f(x)


def test_newton_lattice_degenerate():
    # q = 1 collapses the lattice: b_j = (a + 1/a)/2 for all j
    with pytest.raises(DegenerateLattice):
        newton_lattice_coeffs(PolynomialInX([F(1), F(1)]), F(2, 3), F(1), 1)


def test_newton_lattice_refuses_a_degree_above_the_order():
    # the basis (az, a/z; q)_k, k <= n, spans only the degrees up to n
    f = PolynomialInX([F(1), F(2), F(3)])
    with pytest.raises(DomainError, match="degree 2 exceeds expansion order 1"):
        newton_lattice_coeffs(f, F(2, 3), F(2, 7), 1)
    assert len(newton_lattice_coeffs(f, F(2, 3), F(2, 7), 2)) == 3


def test_connection_u_boundary():
    a_nodes = [F(1, 2), F(2, 3), F(3, 4)]
    b_nodes = [F(1, 5), F(2, 5), F(3, 5), F(4, 5)]
    u = _connection_table(a_nodes, b_nodes, 3)
    assert u[0][0] == 1
    expected = (b_nodes[0] + a_nodes[0]) * (b_nodes[0] + a_nodes[1]) * (
        b_nodes[0] + a_nodes[2]
    )
    assert u[3][0] == expected


def test_connection_u_recurrence():
    rng = random.Random(9)
    n = 6
    a_nodes = [rand_fraction(rng) for _ in range(n)]
    b_nodes = []
    while len(b_nodes) < n + 1:
        v = rand_fraction(rng)
        if v not in b_nodes:
            b_nodes.append(v)
    u = _connection_table(a_nodes, b_nodes, n)
    for nn in range(1, n + 1):
        for k in range(1, nn):
            assert u[nn][k] == u[nn - 1][k - 1] + (a_nodes[nn - 1] + b_nodes[k]) * u[nn - 1][k]


def test_quadratic_relation_for_polynomials():
    # degree-lowering quadratic relation, exact for 2 <= n <= 6
    from dataclasses import replace

    q = P.q
    p_ab = replace(P, a=P.a * q, b=P.b * q)
    p_a = replace(P, a=P.a * q)
    p_b = replace(P, b=P.b * q)
    for n in range(2, 7):
        lhs = (
            P.a * P.b * (1 - q ** (n - 1)) * (1 - P.c * P.d * q ** (n - 2))
            * aw_poly(n, P, PT) * aw_poly(n - 2, p_ab, PT)
        )
        rhs = (
            (1 - P.a * P.b * q ** (n - 1)) * (1 - P.abcd * q ** (n - 1))
            * aw_poly(n - 1, P, PT) * aw_poly(n - 1, p_ab, PT)
            - (1 - P.a * P.b) * (1 - P.abcd * q ** (2 * n - 2))
            * aw_poly(n - 1, p_a, PT) * aw_poly(n - 1, p_b, PT)
        )
        assert lhs == rhs


def lattice_coeff_oracle(fvals, a, q, k):
    """u_k as the docstring's double sum, every product formed term by term."""
    a2 = a * a
    total = F(0)
    for j in range(k + 1):
        den = (
            qpoch(q, q, j)
            * qpoch(q ** (1 - 2 * j) / a2, q, j)
            * qpoch(q, q, k - j)
            * qpoch(q ** (2 * j + 1) * a2, q, k - j)
        )
        if den == 0:
            raise PoleError("oracle denominator vanishes")
        total += q ** (k - j * j) * a ** (-2 * j) * fvals[j] / den
    return total


def aw_moment_oracle(n, t, p):
    fvals = [(t + b) ** n for b in lattice_nodes(p.a, p.q, n)]
    total = F(0)
    for k in range(n + 1):
        den = qpoch(p.abcd, p.q, k)
        if den == 0:
            raise PoleError("oracle (abcd;q)_k vanishes")
        outer = qpoch_multi((p.a * p.b, p.a * p.c, p.a * p.d), p.q, k) / den
        total += outer * lattice_coeff_oracle(fvals, p.a, p.q, k)
    return total


def test_lattice_coeffs_and_moments_match_term_by_term_oracle():
    rng = random.Random(2024)
    for _ in range(24):
        a, b, c, d = (rand_fraction(rng) for _ in range(4))
        q, t = rand_q(rng), rand_fraction(rng)
        p = AWParams(a, b, c, d, q)
        for n in range(7):
            f = PolynomialInX([rand_fraction(rng) for _ in range(n + 1)])
            fvals = [f(x) for x in lattice_nodes(a, q, n)]
            oracle = [lattice_coeff_oracle(fvals, a, q, k) for k in range(n + 1)]
            assert newton_lattice_coeffs(f, a, q, n) == oracle
            assert aw_moment(n, t, p) == aw_moment_oracle(n, t, p)


def test_vanishing_lattice_denominator_is_a_pole():
    # a^2 q^4 = 1 zeroes (q^3 a^2; q)_2, read at (j, k) = (1, 3), and the head
    # (q^-5/a^2; q)_3 at j = 3; n = 2 reads neither.
    q = F(1, 2)
    p = AWParams(F(4), F(3), F(5, 7), F(-2, 9), q)
    t = F(1, 3)
    assert aw_moment(2, t, p) == aw_moment_oracle(2, t, p)
    for n in (3, 4):
        with pytest.raises(PoleError):
            aw_moment_oracle(n, t, p)
        with pytest.raises(PoleError):
            _lattice_denominators(p.a, q, n)
        # every vanishing denominator is a node collision too (here b_1 = b_3),
        # which the lattice weights and newton_lattice_coeffs report first
        with pytest.raises(DegenerateLattice):
            aw_moment(n, t, p)
        with pytest.raises(DegenerateLattice):
            newton_lattice_coeffs(poly_power(poly_x_plus(t), n), p.a, q, n)


@pytest.mark.parametrize("height", (2, 3, 40))
def test_aw_moment_poles_match_the_term_by_term_oracle(height):
    # aw_moment checks the nodes and (abcd;q)_n, the oracle each denominator
    # it divides by; they must have a value, and raise, at the same points
    seen = set()
    for seed in range(40):
        pt = sample_point(("a", "b", "c", "d", "q", "t"), seed, height)
        p = AWParams(pt["a"], pt["b"], pt["c"], pt["d"], pt["q"])
        for n in range(7):
            try:
                expected = aw_moment_oracle(n, pt["t"], p)
            except PoleError:
                with pytest.raises((PoleError, DegenerateLattice)) as exc:
                    aw_moment(n, pt["t"], p)
                seen.add(exc.type)
            else:
                assert aw_moment(n, pt["t"], p) == expected
                seen.add("value")
    if height < 40:
        assert seen == {"value", PoleError, DegenerateLattice}


@pytest.mark.parametrize("height", (2, 3, 40))
def test_aw_moments_match_aw_moment_at_every_order(height):
    # one pass gives every order; it raises exactly when the top order does,
    # with its exception, which a lower order may not share
    seen, mixed = set(), 0
    for seed in range(40):
        pt = sample_point(("a", "b", "c", "d", "q", "t"), seed, height)
        p = AWParams(pt["a"], pt["b"], pt["c"], pt["d"], pt["q"])
        t = pt["t"]
        outcomes = []
        for n in range(7):
            try:
                expected = [aw_moment(k, t, p) for k in range(n + 1)]
            except (PoleError, DegenerateLattice):
                with pytest.raises((PoleError, DegenerateLattice)) as exc:
                    aw_moments(t, p, n)
                with pytest.raises(exc.type):
                    aw_moment(n, t, p)
                outcomes.append(exc.type)
            else:
                assert aw_moments(t, p, n) == expected
                outcomes.append("value")
        seen.update(outcomes)
        mixed += PoleError in outcomes and DegenerateLattice in outcomes
    if height < 40:
        assert seen == {"value", PoleError, DegenerateLattice}
    if height == 2:
        assert mixed  # some point raises PoleError at a low order, DegenerateLattice later


# The moment layer mod a prime: each kernel's prime route against its exact
# route, at p = 7, where entries ≡ 0 mod p are common, and at the trial prime.

_MOMENT_NAMES = ("a", "b", "c", "d", "q", "t")
_RAISED = (PoleError, DegenerateLattice, DomainError)


def outcome(fn, *args):
    """('value', fn(*args)), or (exception type, message)."""
    try:
        return "value", fn(*args)
    except _RAISED as exc:
        return type(exc), str(exc)


def assert_same_value(got, exact, prime):
    """got, from the route mod `prime`, equals the exact value: Residues whose
    cross-multiplied difference with the Fraction is ≡ 0 mod p."""
    if isinstance(exact, (list, tuple)):
        assert len(got) == len(exact)
        for g, e in zip(got, exact):
            assert_same_value(g, e, prime)
        return
    assert isinstance(got, Residue) and got.p == prime
    assert got == exact


def moment_kernels(p, t, n):
    """(name, kernel) for each ported kernel at one point: kernel() runs the
    exact route and kernel(prime) the route mod prime, and each returns a
    value or a list of them, Fractions or Residues."""
    basis = pochhammer_basis_polys(p.a, p.q, n)
    f = poly_power(poly_x_plus(t), n)

    def peel(prime=None):
        return _peel_functional(f, basis, _basis_moments(n, p, prime), prime)

    def weighted(prime=None):
        nodes, weights = moment_weights(p, n, prime)
        values = [_common_denominator([g(x) for x in nodes], prime) for g in basis]
        weights = _common_denominator(weights, prime)
        return [_weighted_sum(weights, v, prime=prime) for v in values]

    def orders(prime=None):  # each order's w_j = (cn sn) / (cd sd)
        return [
            [_ratio([cn, sn], [cd, sd], prime) for cn, cd, sn, sd in weights]
            for weights in _weight_orders(p, n, prime)
        ]

    return [
        ("_basis_moments", lambda *pr: _basis_moments(n, p, *pr)),
        ("_weight_orders", orders),
        ("moment_weights", lambda *pr: moment_weights(p, n, *pr)[1]),
        ("_weighted_sum", weighted),
        ("aw_moment", lambda *pr: aw_moment(n, t, p, *pr)),
        ("aw_moments", lambda *pr: aw_moments(t, p, n, *pr)),
        ("_peel_functional", peel),
        ("_aw_norm_ratios", lambda *pr: next(_aw_norm_ratios(p, (n,), *pr))),
    ]


@pytest.mark.parametrize("height", (2, 3, 40))
def test_moment_kernels_mod_p_match_their_exact_routes(height):
    # equal cross-multiplied values, or the same exception and message
    seen = {}
    for seed in range(12):
        pt = sample_point(_MOMENT_NAMES, 500 + seed, height)
        p = AWParams(pt["a"], pt["b"], pt["c"], pt["d"], pt["q"])
        for prime in (7, pt.prime):
            for n in range(7):
                for name, kernel in moment_kernels(p, pt["t"], n):
                    kind, exact = outcome(kernel)
                    got = outcome(kernel, prime)
                    seen.setdefault(name, set()).add(kind)
                    if kind != "value":
                        assert got == (kind, exact), (name, n, prime)
                    else:
                        assert got[0] == "value", (name, n, prime, got)
                        assert_same_value(got[1], exact, prime)
    assert all("value" in kinds for kinds in seen.values())
    if height == 2:
        assert {PoleError, DegenerateLattice} <= seen["aw_moments"]


@pytest.mark.parametrize("height", (2, 3, 40))
def test_moment_tables_mod_p_are_the_exact_tables_reduced(height):
    # the prefix, ratio and lattice tables mod p hold the exact integers
    # reduced, a nonzero entry as 1..p, and raise where the exact ones do
    near_poles, raised = 0, set()
    for seed in range(12):
        pt = sample_point(_MOMENT_NAMES, 700 + seed, height)
        p = AWParams(pt["a"], pt["b"], pt["c"], pt["d"], pt["q"])
        bases = (p.a * p.b, p.a * p.c, p.a * p.d)
        for prime in (7, pt.prime):
            for n in range(7):
                exact = _qpoch_multi_prefix(bases, p.q, n)
                got = _qpoch_multi_prefix(bases, p.q, n, prime)
                for table, reduced in zip(exact, got):
                    for x, y in zip(table, reduced):
                        assert (y == 0) == (x == 0) and 0 <= y <= prime and (x - y) % prime == 0
                        near_poles += x != 0 and x % prime == 0
                kind, exact = outcome(_ratio_table, bases, p.abcd, p.q, n, "(abcd;q)_n")
                got = outcome(_ratio_table, bases, p.abcd, p.q, n, "(abcd;q)_n", 0, prime)
                if kind != "value":
                    assert got == (kind, exact)
                    raised.add(exact)
                else:
                    for table, reduced in zip(exact, got[1]):
                        assert all((x - y) % prime == 0 for x, y in zip(table, reduced))
                kind, exact = outcome(_lattice_denominators, p.a, p.q, n)
                got = outcome(_lattice_denominators, p.a, p.q, n, prime)
                if kind != "value":
                    assert got == (kind, exact)
                    raised.add(exact)
                    continue
                for (cn, cd, dn, dd), (rn, rd, rdn, rdd) in zip(exact, got[1]):
                    assert len(rdn) == len(dn) and len(rdd) == len(dd)
                    pairs = zip([cn, cd, *dn, *dd], [rn, rd, *rdn, *rdd])
                    assert all((x - y) % prime == 0 for x, y in pairs)
    assert near_poles  # some entries were ≡ 0 mod 7 and not zero
    if height == 2:
        assert raised == {"(abcd;q)_n vanishes", "lattice Newton denominator vanishes"}


def test_an_entry_that_is_only_zero_mod_7_is_no_pole():
    # q = -6: 1 - q = 7, so (q;q)_k ≡ 0 mod 7 for k >= 1, and no entry is zero
    q = F(-6)
    p = AWParams(F(2, 3), F(1, 5), F(3, 7), F(-5, 11), q)
    t = F(1, 4)
    nums, dens = _qpoch_multi_prefix((q,), q, 4, 7)
    assert nums[1:] == [7] * 4 and all(d % 7 for d in dens)
    tables = _lattice_denominators(p.a, q, 4, 7)
    assert any(cd % 7 == 0 for _, cd, _, _ in tables[1:])
    assert_same_value(aw_moments(t, p, 4, 7), aw_moments(t, p, 4), 7)
    assert_same_value(moment_weights(p, 4, 7)[1], moment_weights(p, 4)[1], 7)
    # an exact zero still reads 0: (4;1/2)_k has the numerators 1, -3, 6, 0
    nums, _ = _qpoch_multi_prefix((F(4),), F(1, 2), 3, 7)
    assert nums == [1, 4, 6, 0]


def per_n_norm_ratio(n, p, prime=None):
    """h_n/h_0 as one closed form per n, the route _aw_norm_ratios replaced."""
    a, b, c, d, q = p.a, p.b, p.c, p.d, p.q
    abcd = p.abcd
    pairs = (q, a * b, a * c, a * d, b * c, b * d, c * d)
    return _closed_form(
        (),
        (((q ** (n - 1) * abcd,), q, (1,)), (pairs, q, (n,))),
        (((q ** (2 * n - 1) * abcd,), q, (1,)), ((abcd,), q, (n,))),
        "norm ratio denominator",
        prime,
    )


@pytest.mark.parametrize("height", (2, 3, 40))
def test_norm_ratios_from_one_table_are_the_per_n_closed_forms(height):
    # every entry, exact and mod p, holds the per-n closed form's integers
    # (equal reprs); the table raises at the first n whose own denominator
    # vanishes, with its message, and a one-order pass only at its own n
    kinds = set()
    for seed in range(20):
        pt = sample_point(_MOMENT_NAMES, 900 + seed, height)
        p = AWParams(pt["a"], pt["b"], pt["c"], pt["d"], pt["q"])
        for prime in (None, 7, pt.prime):
            want = [outcome(per_n_norm_ratio, n, p, prime) for n in range(7)]
            one_order = [outcome(lambda: next(_aw_norm_ratios(p, (n,), prime))) for n in range(7)]
            assert list(map(repr, one_order)) == list(map(repr, want))
            first = next((i for i, w in enumerate(want) if w[0] != "value"), len(want))
            values, ratios = [], _aw_norm_ratios(p, range(7), prime)
            raised = outcome(lambda: values.extend(ratios))
            assert list(map(repr, values)) == [repr(w[1]) for w in want[:first]]
            assert raised == (want[first] if first < len(want) else ("value", None))
            kinds.update(w[0] for w in want)
    assert "value" in kinds
    if height == 2:
        assert PoleError in kinds


@pytest.mark.parametrize("height", (3, 40))
def test_a_norm_ratio_exponent_slip_fails_orthogonality(monkeypatch, height):
    # q^(2n-1) -> q^(2n) in the factor 1 - abcd q^(2n-1) that h_n/h_0
    # divides by: orthogonality must fail in every trial
    check = identities.CHECKS_BY_ID["orthogonality"]
    sizes = replace(check.defaults, height=height)
    assert identities.run_check(check, 20, 0, sizes).failures == 0
    real = askey_wilson._closed_forms

    def slipped(orders, form, what, prime):
        def slipped_form(n):
            (rise, (fall, e)), nums, dens = form(n)
            q = nums[0][1]
            return (rise, (1 - (1 - fall) * q, e)), nums, dens

        assert what == "norm ratio denominator"
        return real(orders, slipped_form, what, prime)

    monkeypatch.setattr(askey_wilson, "_closed_forms", slipped)
    assert identities.run_check(check, 20, 0, sizes).failures == 20
