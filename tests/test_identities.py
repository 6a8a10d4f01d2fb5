import inspect
import math
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from helpers import rand_fraction, rand_q, six_term_parts
from qident import askey_wilson, identities, scalar, series
from qident.askey_wilson import AWParams, XPoint, aw_poly
from qident.identities import (
    CHECKS_BY_ID,
    REGISTRY,
    EmptyResiduals,
    IdentityCheck,
    Sizes,
    build_bordered_matrix,
    build_even_det,
    build_gram_matrix,
    build_hankel_decorated,
    build_hankel_little_qjacobi,
    build_integer_exp_pfaffian,
    build_mehta_wang_matrix,
    check_andrews_watson,
    check_gamma_pfaffian,
    check_three_term_kernel,
    mehta_wang_params,
    rhs_hankel,
    rhs_pfaffian,
    run_check,
    six_term_g,
    six_term_xi,
    run_trial,
    _contiguous_residual,
    _contiguous_shapes,
    _decoration_bases,
    _det_prefactors,
    _hankel_forms,
    _mehta_wang_forms,
    _quadratic_residual,
    _quadratic_shapes,
    _six_term_excesses,
    _six_term_specs,
    _specialization_shapes,
    _trial_seed,
)
from qident import linalg
from qident.linalg import SkewMatrix, det_cofactor, det_fraction_free, pfaffian_matchings
from qident.scalar import (
    DomainError,
    ParamPoint,
    PoleError,
    Residue,
    SamplingExhausted,
    qpoch,
    qpoch_multi,
    sample_point,
    trial_prime,
)
from qident.series import (
    HypergeometricSpec,
    SeriesResidue,
    phi_series,
    phi_terminating,
    series_linear_combine,
)

PT = ParamPoint(
    {
        "a": F(2, 3),
        "b": F(1, 5),
        "c": F(3, 7),
        "d": F(5, 11),
        "q": F(2, 7),
        "e1": F(1, 3),
        "e2": F(4, 9),
        "f1": F(2, 9),
        "f2": F(5, 13),
        "x": F(3, 4),
        "y": F(-2, 5),
        "z": F(7, 3),
    }
)
AW = AWParams(F(2, 3), F(1, 5), F(3, 7), F(-5, 11), F(2, 7))
X = XPoint(F(7, 3))


def abc_sum(k, n, pt, r, s):
    A, B, C = six_term_parts(k, n, pt, r, s)
    return A - B + C


# ---------------------------------------------------------------------------
# series quadratic formula and its coefficient-level machinery
# ---------------------------------------------------------------------------


def test_prefactor_identity_at_z0():
    a, b, c, d = PT["a"], PT["b"], PT["c"], PT["d"]
    bc = b * c
    assert (
        (a - b) * (a - c) * (bc - d) * (1 - d)
        - (a - d) * (1 - b) * (1 - c) * (bc - a * d)
        + (1 - a) * (b - d) * (c - d) * (a - bc)
    ) == 0


@pytest.mark.parametrize("rs", [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (2, 2)])
def test_main_quadratic_residual_is_zero_series(rs):
    for prime in (None, trial_prime(0)):
        factors = next(_quadratic_shapes(PT, (rs,), 10, prime))
        assert _quadratic_residual(factors, prime).is_zero()


# Fraction constructions of one run_check(check, trials=2, seed=0) with every
# series coefficient reduced to a Fraction between kernels (CPython 3.11)
@pytest.mark.parametrize(
    "check_id, reduced_count", [("main_quadratic", 1238), ("quadratic_specialization", 640)]
)
def test_series_checks_build_few_fractions(check_id, reduced_count, monkeypatch):
    check = CHECKS_BY_ID[check_id]
    run_check(check, 2, 0)  # the same point cache state for every run of this test
    built = []
    construct = F.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(None)
        return construct(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counting_new)
    run_check(check, 2, 0)
    monkeypatch.undo()
    assert 0 < len(built) <= reduced_count // 2


@pytest.mark.parametrize("rs", [(1, 1), (2, 1), (2, 2)])
def test_main_quadratic_coefficients_match_sums(rs):
    # coefficient of z^n in each prefactored product equals
    # (-1)^(s-r) * sum_k of the corresponding A/B/C term
    r, s = rs
    order = 6
    factors = next(_quadratic_shapes(PT, (rs,), order))
    sign = F(-1) ** (s - r)
    for n in range(order + 1):
        sums = [F(0), F(0), F(0)]
        for k in range(n + 1):
            A, B, C = six_term_parts(k, n, PT, r, s)
            sums[0] += A
            sums[1] += B
            sums[2] += C
        for i, (pref, f, g) in enumerate(factors):
            assert series_linear_combine([(pref, f, g)])[n] == sign * sums[i]
        # and therefore the residual coefficient is (-)sum(A_k - B_k + C_k) = 0
        assert sums[0] - sums[1] + sums[2] == 0


def test_six_term_excesses_vanish_beyond_n():
    excesses = _six_term_excesses(PT, 3, 1, 1)
    assert [len(row) for row in excesses] == [2, 3, 4, 5]
    assert [row[-1] for row in excesses] == [0] * 4


def test_six_term_sums_vanish():
    for r, s in ((0, 0), (1, 1), (2, 2)):
        for n in range(6):
            assert sum(abc_sum(k, n, PT, r, s) for k in range(n + 1)) == 0


def test_six_term_pair_cancellation():
    for r, s in ((1, 1), (2, 1)):
        for n in range(6):
            for k in range(n + 2):
                assert abc_sum(k, n, PT, r, s) + abc_sum(n - k + 1, n, PT, r, s) == 0


def test_six_term_certificate_zero():
    # A_k - B_k + C_k - (q^(n-k+1) - q^k) G_k G_(n-k+1) Xi for 1 <= k <= n <= 5,
    # then the two Xi extractions at n = 5
    residuals = CHECKS_BY_ID["six_term_factorization"].run(PT, Sizes(n_max=5))
    assert residuals == [0] * (15 + 2)


def test_six_term_certificate_antisymmetry():
    # prefactor (q^(n-k+1) - q^k) flips sign under k -> n-k+1 while G G Xi stays
    q = PT["q"]
    n = 5
    for k in range(1, n + 1):
        j = n - k + 1
        assert (q ** (n - k + 1) - q**k) == -(q ** (n - j + 1) - q**j)
        lhs_k = abc_sum(k, n, PT, 1, 1)
        lhs_j = abc_sum(j, n, PT, 1, 1)
        assert lhs_k == -lhs_j


def test_xi_extraction_agrees():
    # the runner's last two residuals: Xi extracted at two admissible k at
    # n = n_max agree with each other and with six_term_xi
    run = CHECKS_BY_ID["six_term_factorization"].run
    for n in (2, 4, 5):
        assert run(PT, Sizes(n_max=n))[-2:] == [0, 0]


def six_term_parts_per_index(k, n, pt, r, s):
    """A_k, B_k, C_k with every product formed afresh by qpoch_multi."""
    if k == n + 1:
        return (F(0), F(0), F(0))
    a, b, c, d, q = pt["a"], pt["b"], pt["c"], pt["d"], pt["q"]
    es = tuple(pt[f"e{i}"] for i in range(1, r + 1))
    fs = tuple(pt[f"f{i}"] for i in range(1, s + 1))
    esq = tuple(x * q for x in es)
    fsq = tuple(x * q for x in fs)
    bc = b * c
    m = n - k
    e = s - r
    al = (-1) ** ((k * e) % 2) * q ** (k * (k - 1) // 2 * e)
    al *= (-1) ** (((m + 1) * e) % 2) * q ** ((m + 1) * m // 2 * e)

    def ratio(nums_k, nums_m, dens_k, dens_m):
        num = qpoch_multi(nums_k, q, k) * qpoch_multi(nums_m, q, m)
        den = qpoch_multi(dens_k, q, k) * qpoch_multi(dens_m, q, m)
        if den == 0:
            raise PoleError("coefficient denominator vanishes")
        return num / den

    A = (a - b) * (a - c) * (bc - d) * (1 - d) * al * ratio(
        (bc / a, bc / q**2, c, d / q) + es,
        (bc / a, bc, c, d * q) + esq,
        (q, a / q, b / q, bc / d) + fs,
        (q, a * q, b * q, bc / d) + fsq,
    )
    B = (a - d) * (1 - b) * (1 - c) * (bc - a * d) * al * ratio(
        (bc / a, bc / q**2, c / q, d) + es,
        (bc / a, bc, c * q, d) + esq,
        (q, a / q, b, bc / (d * q)) + fs,
        (q, a * q, b, bc * q / d) + fsq,
    )
    C = (1 - a) * (b - d) * (c - d) * (a - bc) * al * ratio(
        (bc / (a * q), bc / q**2, c, d) + es,
        (bc * q / a, bc, c, d) + esq,
        (q, a, b / q, bc / (d * q)) + fs,
        (q, a, b * q, bc * q / d) + fsq,
    )
    return (A, B, C)


def six_term_excess_per_index(k, n, pt, r, s):
    A, B, C = six_term_parts_per_index(k, n, pt, r, s)
    return A - B + C


def six_term_sums_per_index(pt, sizes):
    return [
        sum((six_term_excess_per_index(k, n, pt, r, s) for k in range(n + 1)), F(0))
        for r, s in ((0, 0), (1, 1), (2, 1))
        for n in range(sizes.n_max + 1)
    ]


def six_term_pairs_per_index(pt, sizes):
    return [
        six_term_excess_per_index(k, n, pt, r, s)
        + six_term_excess_per_index(n - k + 1, n, pt, r, s)
        for r, s in ((0, 0), (1, 1), (2, 1))
        for n in range(sizes.n_max + 1)
        for k in range(n + 2)
    ]


def six_term_factorization_per_index(pt, sizes):
    q = pt["q"]

    def split(k, n):
        total = six_term_excess_per_index(k, n, pt, 1, 1)
        g = six_term_g(k, pt, 1, 1) * six_term_g(n - k + 1, pt, 1, 1)
        return total, (q ** (n - k + 1) - q**k) * g

    out = []
    for n in range(1, sizes.n_max + 1):
        for k in range(1, n + 1):
            total, pre = split(k, n)
            out.append(total - pre * six_term_xi(n, pt, 1, 1))
    top = max(2, sizes.n_max)
    xis = []
    for k in [k for k in range(1, top + 1) if 2 * k != top + 1][:2]:
        total, pre = split(k, top)
        if pre == 0:
            raise PoleError("prefactor vanishes")
        xis.append(total / pre)
    return out + [xis[0] - xis[1], xis[0] - six_term_xi(top, pt, 1, 1)]


SIX_TERM_PER_INDEX = {
    "six_term_sums": six_term_sums_per_index,
    "six_term_pairs": six_term_pairs_per_index,
    "six_term_factorization": six_term_factorization_per_index,
}


def test_six_term_excesses_pole_from_order_three():
    # a = q^-3 puts (aq;q)_3 = 0 in the m-side series of A: the excesses up to
    # order 3 raise, those up to order 2 have values
    pt = ParamPoint({"a": F(1, 8), "b": F(3), "c": F(5), "d": F(7), "q": F(2)})
    assert qpoch(pt["a"] * pt["q"], pt["q"], 3) == 0
    with pytest.raises(PoleError):
        _six_term_excesses(pt, 3, 0, 0)
    with pytest.raises(PoleError):
        six_term_excess_per_index(0, 3, pt, 0, 0)
    excesses = _six_term_excesses(pt, 2, 0, 0)
    assert excesses == [
        [six_term_excess_per_index(k, n, pt, 0, 0) for k in range(n + 2)] for n in range(3)
    ]
    assert any(v != 0 for row in excesses for v in row)


def test_six_term_factorization_reads_its_whole_series():
    # f1 = q^-4 zeroes (f1 q;q)_4 in every m-side series at n_max = 4, which
    # no residual reads (m <= n_max - 1): the per-index route has values, the
    # series route raises
    q = PT["q"]
    pt = ParamPoint({**PT.assignments, "f1": q**-4})
    sizes = Sizes(n_max=4)
    assert six_term_factorization_per_index(pt, sizes) == [0] * (10 + 2)
    with pytest.raises(PoleError):
        CHECKS_BY_ID["six_term_factorization"].run(pt, sizes)
    assert CHECKS_BY_ID["six_term_factorization"].run(pt, Sizes(n_max=3)) == [0] * (6 + 2)


def test_six_term_parts_match_per_index_products():
    names = ("a", "b", "c", "d", "q", "e1", "e2", "f1")
    for seed in range(12):
        pt = sample_point(names, seed, height=3)
        for r, s in ((0, 0), (2, 1), (0, 1)):
            for n in range(5):
                for k in range(n + 2):
                    # the series read every denominator up to n, the
                    # per-index products only those of this (k, n)
                    try:
                        got = six_term_parts(k, n, pt, r, s)
                    except PoleError:
                        assert any(
                            qpoch_multi(dens, pt["q"], n) == 0
                            for _, _, _, dens_k, dens_m in _six_term_specs(pt, r, s)
                            for dens in (dens_k, dens_m)
                        )
                        continue
                    assert got == six_term_parts_per_index(k, n, pt, r, s)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_six_term_residual_lists_match_per_index_runs(seed):
    # every sampled attempt, poles included, at a height low enough to hit poles
    sizes = Sizes(n_max=4, height=3)
    for check_id, per_index in SIX_TERM_PER_INDEX.items():
        check = CHECKS_BY_ID[check_id]
        for attempt in range(8):
            pt = sample_point(check.param_names, seed * 1000 + attempt, sizes.height)
            try:
                expected = per_index(pt, sizes)
            except (PoleError, ZeroDivisionError) as exc:
                with pytest.raises(type(exc)):
                    check.run(pt, sizes)
                continue
            try:
                got = check.run(pt, sizes)
            except PoleError:
                # the factorization's series also read (dens_m;q)_n_max,
                # which no residual reads
                assert check_id == "six_term_factorization"
                assert any(
                    qpoch_multi(dens_m, pt["q"], sizes.n_max) == 0
                    for *_, dens_m in _six_term_specs(pt, 1, 1)
                )
                continue
            assert got == expected


def test_three_term_kernel_random_and_special_points():
    rng = random.Random(11)
    for _ in range(50):
        pt = ParamPoint({k: rand_fraction(rng) for k in "abcdxyz"})
        assert check_three_term_kernel(pt) == 0
    base = dict(PT.assignments)
    base["y"] = base["x"]
    assert check_three_term_kernel(ParamPoint(base)) == 0
    base = dict(PT.assignments)
    base["b"] = base["a"]
    assert check_three_term_kernel(ParamPoint(base)) == 0


GZ_PT = ParamPoint(
    {
        "q": F(2, 7),
        "a0": F(1, 3),
        "a1": F(2, 5),
        "a2": F(3, 4),
        "a3": F(5, 6),
        "b1": F(4, 7),
        "b2": F(1, 6),
        "b3": F(7, 9),
    }
)


def test_quadratic_specialization_z0():
    a0, a1, b1 = GZ_PT["a0"], GZ_PT["a1"], GZ_PT["b1"]
    assert (a0 - 1) * (a1 - b1) == (a0 - a1) * (1 - b1) - (1 - a1) * (a0 - b1)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_quadratic_specialization_zero(r):
    for prime in (None, trial_prime(0)):
        factors = next(_specialization_shapes(GZ_PT, (r,), 10, prime))
        assert series_linear_combine(factors, prime).is_zero()


def test_quadratic_specialization_degenerate_prefactor():
    # a0 = a1 and b1 = 1 zero the first right-hand prefactor, and the two
    # surviving products coincide as parameter multisets, so the identity
    # balances term by term (the series are individually singular at b1 = 1,
    # which is why the cancellation is structural rather than numeric)
    q = F(2, 7)
    a0 = a1 = F(2, 5)
    b1 = F(1)
    a2, b2 = F(3, 4), F(1, 6)
    assert (a0 - a1) * (1 - b1) == 0
    assert (a0 - 1) * (a1 - b1) == -(1 - a1) * (a0 - b1)
    lhs_first = (sorted((a0 / q, a1, a2)), sorted((b1 / q, b2)))
    rhs_first = (sorted((a0, a1 / q, a2)), sorted((b1 / q, b2)))
    assert lhs_first == rhs_first
    lhs_second = (sorted((a0 * q, a1, a2 * q)), sorted((b1 * q, b2 * q)))
    rhs_second = (sorted((a0, a1 * q, a2 * q)), sorted((b1 * q, b2 * q)))
    assert lhs_second == rhs_second


def test_quadratic_specialization_embeds_in_main():
    # substituting (a,b,c,d) = (b1, 0, a1, a0) with zero padding in the vector
    # slots maps the three products of the general formula onto the
    # specialised ones, with every prefactor scaled by -a0*b1
    r = 2
    q = GZ_PT["q"]
    a0, a1, a2 = GZ_PT["a0"], GZ_PT["a1"], GZ_PT["a2"]
    b1, b2 = GZ_PT["b1"], GZ_PT["b2"]
    order = 6
    main_pt = ParamPoint(
        {
            "a": b1, "b": F(0), "c": a1, "d": a0, "q": q,
            "e1": F(0), "e2": a2, "f1": F(0), "f2": b2,
        }
    )
    factors = next(_quadratic_shapes(main_pt, ((r, r),), order))
    products = [series_linear_combine([(1, f, g)]) for _, f, g in factors]
    prefactors = [pref for pref, _, _ in factors]

    def gz(nums, dens):
        return phi_series(HypergeometricSpec(nums, dens, q), F(1), order)

    t1 = gz((a0 / q, a1, a2), (b1 / q, b2))
    t2 = gz((a0 * q, a1, a2 * q), (b1 * q, b2 * q))
    t3 = gz((a0, a1, a2), (b1, b2))
    t4 = gz((a0, a1, a2 * q), (b1, b2 * q))
    t5 = gz((a0, a1 / q, a2), (b1 / q, b2))
    t6 = gz((a0, a1 * q, a2 * q), (b1 * q, b2 * q))
    scale = -a0 * b1
    for product, (u, v) in zip(products, ((t1, t2), (t5, t6), (t3, t4))):
        assert product.coeffs == series_linear_combine([(1, u, v)]).coeffs
    assert prefactors[0] == scale * (a0 - 1) * (a1 - b1)
    assert prefactors[1] == scale * -((1 - a1) * (a0 - b1))
    assert prefactors[2] == scale * -((a0 - a1) * (1 - b1))


# ---------------------------------------------------------------------------
# determinant families
# ---------------------------------------------------------------------------


def test_bordered_matrix_order_one():
    a, b, c, d, q = AW.a, AW.b, AW.c, AW.d, AW.q
    x = X.x
    M = build_bordered_matrix(1, AW, X)
    bracket = c + d - 2 * x + (1 - c * d) * (a + b) - a * b * (c + d - 2 * c * d * x)
    assert M[0, 0] == -b / (1 - AW.abcd) * bracket
    # D_1 = b/(1-abcd)
    d_1 = next(_det_prefactors((1,), AW, 1, (), None))
    assert d_1 == b / (1 - AW.abcd)
    assert det_fraction_free(M) == d_1 * aw_poly(1, AW, X)


def test_det_prefactor_ratios():
    # displayed single-step ratios and the combined two-step quotient
    a, b, q = AW.a, AW.b, AW.q
    cd = AW.c * AW.d
    abcd = AW.abcd
    p_shift = replace(AW, a=a * q)
    p_ab = replace(AW, a=a * q, b=b * q)
    D, D_shift, D_ab = (
        list(_det_prefactors(range(6), x, 1, (), None)) for x in (AW, p_shift, p_ab)
    )
    for n in range(2, 6):
        lhs = D[n] / D[n - 1]
        rhs = (
            a ** (n - 1) * b**n * q ** ((n - 1) ** 2)
            * qpoch_multi((a * b, cd), q, n - 1) * qpoch(q, q, n - 1)
            / (qpoch(abcd * q ** (n - 1), q, n) * qpoch(abcd, q, 2 * n - 2))
        )
        assert lhs == rhs
        lhs2 = D_shift[n] / D[n]
        rhs2 = (
            q ** (n * (n - 1) // 2)
            * qpoch(a * b * q, q, n - 1)
            / qpoch(abcd * q**n, q, n)
            * (1 - abcd) ** n / (1 - a * b) ** (n - 1)
        )
        assert lhs2 == rhs2
    # the two-step quotient that drives the induction
    for n in range(3, 6):
        lhs = (D[n] / D[n - 1]) / (D_ab[n - 1] / D_ab[n - 2])
        rhs = (
            a * b * qpoch(a * b, q, 2)
            * (1 - cd * q ** (n - 2)) * (1 - q ** (n - 1))
            / ((1 - a * b * q ** (n - 1)) * (1 - abcd * q ** (n - 1)) * qpoch(abcd, q, 2))
        )
        assert lhs == rhs


def test_bordered_det_matches_formula():
    orders = range(1, 6)
    for n, d_n in zip(orders, _det_prefactors(orders, AW, 1, (), None)):
        M = build_bordered_matrix(n, AW, X)
        assert det_fraction_free(M) == d_n * aw_poly(n, AW, X)


def test_gram_matrix_order_one():
    a, b, c, d, q = AW.a, AW.b, AW.c, AW.d, AW.q
    z = X.z
    G = build_gram_matrix(1, AW, X)
    assert G[0, 0] == 1
    assert G[0, 1] == qpoch_multi((b * c, b * d), q, 1) * qpoch(a * b, q, 1) / qpoch(
        AW.abcd, q, 1
    )
    assert G[1, 0] == 1
    assert G[1, 1] == qpoch_multi((b * z, b / z), q, 1)


def gram_prefactors(orders, p):
    """The Gram prefactor C at each order of `orders`, from one _det_prefactors pass."""
    return list(_det_prefactors(orders, p, -1, _decoration_bases(p), None))


def test_gram_prefactor_relates_to_det_prefactor():
    a, b, c, d, q = AW.a, AW.b, AW.c, AW.d, AW.q
    orders = range(1, 5)
    D = _det_prefactors(orders, AW, 1, (), None)
    for n, c_n, d_n in zip(orders, gram_prefactors(orders, AW), D):
        prod = F(1)
        for i in range(n):
            prod *= qpoch_multi((a * c, a * d, b * c, b * d), q, i)
        assert c_n == F(-1) ** n * d_n * prod


def test_gram_det_matches_formula():
    orders = range(1, 5)
    for n, c_n in zip(orders, gram_prefactors(orders, AW)):
        G = build_gram_matrix(n, AW, X)
        assert det_fraction_free(G) == c_n * aw_poly(n, AW, X)


def test_gram_prefactor_order_one():
    # C_1 = -b/(1-abcd): a enters as a^(n(n-1)/2) = a^0, and the determinant
    # itself confirms the normalization
    b = AW.b
    assert gram_prefactors((1,), AW) == [-b / (1 - AW.abcd)]
    G = build_gram_matrix(1, AW, X)
    assert det_cofactor(G) == -b / (1 - AW.abcd) * aw_poly(1, AW, X)


def test_hankel_little_qjacobi():
    assert det_fraction_free(build_hankel_little_qjacobi(1, AW)) == 1 == rhs_hankel(1, AW)
    M2 = build_hankel_little_qjacobi(2, AW)
    assert det_cofactor(M2) == rhs_hankel(2, AW)
    for n in range(3, 6):
        assert det_fraction_free(build_hankel_little_qjacobi(n, AW)) == rhs_hankel(n, AW)


def test_hankel_decorated_scaling():
    a, b, c, d, q = AW.a, AW.b, AW.c, AW.d, AW.q
    orders = range(1, 6)
    for n, decorated in zip(orders, _hankel_forms(orders, AW, _decoration_bases(AW), None)):
        scale = F(1)
        for j in range(1, n):
            scale *= qpoch_multi((a * c, a * d, b * c, b * d), q, j)
        assert decorated == rhs_hankel(n, AW) * scale
        assert det_fraction_free(build_hankel_decorated(n, AW)) == decorated


MW_PT = ParamPoint({"a": F(2, 3), "u": F(1, 5), "v": F(3, 7), "q": F(2, 7)})


def test_mehta_wang_order_one():
    a, b, c, u, v, q = mehta_wang_params(MW_PT)
    M = build_mehta_wang_matrix(1, MW_PT)
    assert M[0, 0] == 1 - c
    assert next(_mehta_wang_forms((1,), MW_PT, None)) == 1 - c


def test_mehta_wang_det():
    orders = range(1, 6)
    for n, rhs in zip(orders, _mehta_wang_forms(orders, MW_PT, None)):
        M = build_mehta_wang_matrix(n, MW_PT)
        assert det_fraction_free(M) == rhs


def test_mehta_wang_square_root_parametrization():
    a, b, c, u, v, q = mehta_wang_params(MW_PT)
    assert a * c * q == u**2
    assert a * b * c * q == (u * v) ** 2


def test_mehta_wang_c_equal_one_reduces_to_even_det():
    # u^2 = aq makes c = 1, turning the matrix into the even-order skew family
    a, q, v = F(8, 7), F(2, 7), F(3, 5)
    u = F(4, 7)  # aq = 16/49
    pt = ParamPoint({"a": a, "u": u, "v": v, "q": q})
    _, b, c, _, _, _ = mehta_wang_params(pt)
    assert c == 1
    for m, rhs in zip((1, 2), _mehta_wang_forms((2, 4), pt, None)):
        M_mw = build_mehta_wang_matrix(2 * m, pt)
        M_even = build_even_det(m, a, b, q)
        assert M_mw.entries == M_even.entries
        assert rhs == rhs_pfaffian(m, a, b, q) ** 2
        assert det_fraction_free(M_mw) == rhs


def test_even_det_order_two():
    a, b, q = F(2, 3), F(1, 5), F(2, 7)
    M = build_even_det(1, a, b, q)
    expected = (
        qpoch_multi((q, a * q), q, 1) * qpoch(b * q, q, 0) / qpoch(a * b * q**2, q, 1)
    ) ** 2
    assert det_cofactor(M) == expected
    # entries are skew-symmetric by construction
    assert M[0, 1] == -M[1, 0]


def test_pfaffian_order_one_entry():
    a, b, q = F(2, 3), F(1, 5), F(2, 7)
    M = build_even_det(1, a, b, q)
    assert pfaffian_matchings(M) == M[0, 1] == rhs_pfaffian(1, a, b, q)


def test_pfaffian_random_orders():
    rng = random.Random(13)
    for m in (1, 2, 3):
        for _ in range(5):
            a, b, q = rand_fraction(rng), rand_fraction(rng), rand_q(rng)
            if qpoch(a * b * q**2, q, 4 * m - 2) == 0:
                continue
            pt = ParamPoint({"a": a, "b": b, "q": q})
            # per order: pf - closed form by the oracle, by elimination, pf^2 - det
            residuals = CHECKS_BY_ID["pfaffian_eval"].run(pt, Sizes(m_max=m))
            assert residuals == [0] * (3 * m)
            M = build_even_det(m, a, b, q)
            assert pfaffian_matchings(M) ** 2 == det_fraction_free(M)


def test_integer_exponent_reduction():
    # b = 0, a = q^(alpha-1) turns the two-parameter matrix into the
    # integer-exponent one (indices shifted down by one)
    q = F(2, 7)
    for m in (1, 2):
        for alpha in (1, 2, 3):
            M1 = build_even_det(m, q ** (alpha - 1), F(0), q)
            M2 = build_integer_exp_pfaffian(m, alpha, q)
            assert M1.entries == M2.entries
            assert rhs_pfaffian(m, q ** (alpha - 1), F(0), q) == pfaffian_matchings(M2)


def test_gamma_pfaffian_hand_values():
    # m = 1, a = 1: pf = (1-0) Gamma(2) = 1 and rhs = 1! Gamma(1) = 1
    assert check_gamma_pfaffian(1, 1) == [[0, 0]]
    M = build_integer_exp_pfaffian  # noqa: F841  (kept for symmetry of imports)
    from qident.linalg import SkewMatrix

    M1 = SkewMatrix.from_upper(2, lambda i, j: F(j - i) * math.factorial(i + j))
    assert pfaffian_matchings(M1) == 1
    # m = 1, a = 4: pf = Gamma(6)... entry (0,1) = (1-0) Gamma(4+0+1) = 24 = 1! Gamma(4+1)
    M4 = SkewMatrix.from_upper(2, lambda i, j: F(j - i) * math.factorial(3 + i + j))
    assert pfaffian_matchings(M4) == 24
    for m in (1, 2, 3):
        for a in (1, 2, 3, 4):
            assert check_gamma_pfaffian(m, a) == [[0, 0]] * m
    # beyond the matchings cap only the elimination engine runs
    assert check_gamma_pfaffian(5, 2) == [[0, 0]] * 4 + [[0]]


def test_andrews_watson_small_orders():
    a, b, q = F(2, 3), F(1, 5), F(2, 7)
    # n = 0: single term 1 minus closed form 1
    assert check_andrews_watson(0, a, b, q) == 0
    # n = 1: the two-term sum cancels to 0 by itself
    spec = HypergeometricSpec(
        (q**-1, a**2 * q**2, b, -b), (a * q, -a * q, b**2), q
    )
    assert phi_terminating(spec, q, 1) == 0
    for n in (2, 4, 6):
        assert check_andrews_watson(n, a, b, q) == 0


def test_contiguous_relation():
    pt = ParamPoint({"a": F(2, 3), "b": F(1, 5), "q": F(2, 7), "A1": F(3, 4), "B1": F(5, 9)})
    shapes = ((1, 1), (2, 1), (2, 2))
    for series in _contiguous_shapes(pt, shapes, 10):
        res = _contiguous_residual(*series, None)
        assert res[0] == 0  # z^0 coefficient: 1 - 1
        assert res.is_zero()
    prime = trial_prime(0)
    for series in _contiguous_shapes(pt, shapes, 10, prime):
        assert _contiguous_residual(*series, prime).is_zero()
    # a = b: both sides vanish identically
    pt_eq = ParamPoint({"a": F(2, 3), "b": F(2, 3), "q": F(2, 7), "A1": F(3, 4), "B1": F(5, 9)})
    assert _contiguous_residual(*next(_contiguous_shapes(pt_eq, ((2, 2),), 8)), None).is_zero()


def test_orthogonality_residuals():
    pt = ParamPoint({k: getattr(AW, k) for k in "abcdq"})
    residuals = CHECKS_BY_ID["orthogonality"].run(pt, Sizes(n_max=4))
    assert len(residuals) == 15  # every pair m <= n <= 4
    assert all(r == 0 for r in residuals)


# ---------------------------------------------------------------------------
# the check driver
# ---------------------------------------------------------------------------


def test_registry_size_and_ids():
    assert len(REGISTRY) >= 18
    assert "main_quadratic" in CHECKS_BY_ID
    assert "gram_det" in CHECKS_BY_ID
    assert "desnanot_jacobi" in CHECKS_BY_ID
    assert len({c.id for c in REGISTRY}) == len(REGISTRY)


def test_run_check_zero_trials():
    # zero trials compare nothing, so they are refused rather than passed
    for trials in (0, -1):
        with pytest.raises(DomainError, match="trials must be at least 1"):
            run_check(CHECKS_BY_ID["three_term_kernel"], trials=trials, seed=0)


@pytest.mark.parametrize(
    "sizes, message",
    [
        (Sizes(order=-5), "order must be at least 0, got -5"),
        (Sizes(n_max=-1), "n_max must be at least 0, got -1"),
        (Sizes(m_max=-2), "m_max must be at least 0, got -2"),
        (Sizes(height=1), "height must be at least 2, got 1"),
        (Sizes(height=0), "height must be at least 2, got 0"),
    ],
)
def test_run_check_rejects_sizes_before_the_first_trial(sizes, message):
    # with a negative order, main_quadratic would compare its z^0 coefficient alone
    def never(pt, sizes):
        raise AssertionError("a trial ran")

    for check in (CHECKS_BY_ID["main_quadratic"], IdentityCheck("x", "t", ("q",), sizes, never)):
        with pytest.raises(DomainError, match=message):
            run_check(check, trials=2, seed=0, sizes=sizes)


def test_run_check_rejects_empty_residual_lists():
    check = IdentityCheck("checks_nothing", "test", ("q",), Sizes(), lambda pt, sizes: [])
    with pytest.raises(EmptyResiduals, match="checks_nothing compared nothing in 3 of 3"):
        run_check(check, trials=3)


def test_run_check_deterministic():
    check = CHECKS_BY_ID["desnanot_jacobi"]
    r1 = run_check(check, trials=4, seed=9)
    r2 = run_check(check, trials=4, seed=9)
    assert (r1.id, r1.trials, r1.failures, r1.witness_seeds) == (
        r2.id,
        r2.trials,
        r2.failures,
        r2.witness_seeds,
    )


def test_every_registered_check_passes_one_trial():
    for check in REGISTRY:
        report = run_check(check, trials=1, seed=5)
        assert report.failures == 0, check.id


def _mutated_run(pt, sizes):
    # one q-exponent off in the closed form
    a, b, q = pt["a"], pt["b"], pt["q"]
    out = []
    for m in range(1, sizes.m_max + 1):
        M = build_even_det(m, a, b, q)
        out.append(pfaffian_matchings(M) - q * rhs_pfaffian(m, a, b, q))
    return out


MUTATED = IdentityCheck(
    "mutated_pfaffian",
    "mutation control",
    ("a", "b", "q"),
    Sizes(m_max=2),
    _mutated_run,
)


def test_mutated_identity_is_detected():
    # at the default height and at a --height override
    for sizes in (MUTATED.defaults, replace(MUTATED.defaults, height=7)):
        report = run_check(MUTATED, trials=10, seed=0, sizes=sizes)
        assert report.failures == report.trials == 10
        assert len(report.witness_seeds) == 10
        # the README's replay regenerates the point of the trial, at the run's height
        _, trial_pt = run_trial(MUTATED, _trial_seed(MUTATED.id, 0, 0), sizes)
        assert trial_pt.seed == report.witness_seeds[0]
        pt = sample_point(MUTATED.param_names, report.witness_seeds[0], sizes.height)
        assert pt.assignments == trial_pt.assignments
        # and the replayed point reproduces the failing residual
        assert any(r != 0 for r in MUTATED.run(pt, sizes))


def test_witness_seed_replays_the_modular_residuals(monkeypatch):
    # a modular closed form off by one fails every trial; at height 3 some
    # trials resample, and each witness seed, resampled or not, rebuilds the
    # point of its trial, whose prime is the modulus its residues were taken mod
    check = CHECKS_BY_ID["bordered_det"]
    sizes = replace(check.defaults, height=3)
    real = identities._det_prefactors
    monkeypatch.setattr(
        identities, "_det_prefactors", lambda *args: (d + 1 for d in real(*args))
    )
    report = run_check(check, trials=5, seed=0, sizes=sizes)
    assert report.failures == report.trials == 5
    trial_seeds = [_trial_seed(check.id, 0, trial) for trial in range(5)]
    assert set(report.witness_seeds) & set(trial_seeds)
    assert set(report.witness_seeds) - set(trial_seeds)
    for trial_seed, seed in zip(trial_seeds, report.witness_seeds):
        residuals, trial_pt = run_trial(check, trial_seed, sizes)
        assert trial_pt.seed == seed
        pt = sample_point(check.param_names, seed, sizes.height)
        assert pt.prime == trial_prime(seed)
        replayed = check.run(pt, sizes)
        assert all(isinstance(r, Residue) and r.p == pt.prime for r in replayed)
        assert [(r.num, r.den, r.p) for r in replayed] == [
            (r.num, r.den, r.p) for r in residuals
        ]
        assert any(not r.is_zero() for r in replayed)


@pytest.mark.parametrize(
    "check_id, prefactor", [("bordered_det", "det_prefactor"), ("gram_det", "gram_prefactor")]
)
def test_runners_hand_each_closed_form_aw_polys_p_n(monkeypatch, check_id, prefactor):
    # each runner reads p_0..p_n mod the trial prime from one _aw_polys pass
    # and multiplies p_n into its one-pass prefactor: the pass must be at the
    # trial's point, and at every order its value must be aw_poly's p_n, which
    # gives the prefactor times p_n its exact value
    check = CHECKS_BY_ID[check_id]
    real, seen = identities._aw_polys, []

    def recording(p, x, n, **kwargs):
        values = list(real(p, x, n, **kwargs))
        seen.append((p, x, kwargs, values))
        return iter(values)

    monkeypatch.setattr(identities, "_aw_polys", recording)
    for trial in range(5):
        sizes = replace(check.defaults, height=3 if trial % 2 else 40)
        _, pt = run_trial(check, trial, sizes)
        seen.clear()
        check.run(pt, sizes)
        [(p, x, kwargs, values)] = seen
        assert p == identities._aw_from(pt) and x == XPoint(pt["z"])
        assert kwargs == {"prime": pt.prime} and len(values) == sizes.n_max + 1
        # D_n, or the Gram prefactor C: -1 and the decoration bases
        sign, extra = (1, ()) if prefactor == "det_prefactor" else (-1, _decoration_bases(p))
        orders = range(len(values))
        exact, modular = (
            list(_det_prefactors(orders, p, sign, extra, prime)) for prime in (None, pt.prime)
        )
        for n, p_n in enumerate(values):
            assert isinstance(p_n, Residue) and p_n.p == pt.prime
            assert p_n == aw_poly(n, p, x)
            assert modular[n] * p_n == exact[n] * aw_poly(n, p, x)


# each check whose matrix is built mod the trial prime, with its builders
RESIDUE_BUILT = (
    ("gram_det", "build_gram_matrix"),
    ("gram_to_bordered", "build_gram_matrix"),
    ("gram_to_bordered", "build_bordered_matrix"),
    ("little_qjacobi_hankel", "build_hankel_little_qjacobi"),
    ("little_qjacobi_hankel", "build_hankel_decorated"),
    ("mehta_wang_det", "build_mehta_wang_matrix"),
    ("even_order_det", "build_even_det"),
    ("pfaffian_integer_exp", "build_integer_exp_pfaffian"),
)


@pytest.mark.parametrize("check_id, name", RESIDUE_BUILT)
def test_a_residue_builder_off_by_one_entry_fails_every_trial(monkeypatch, check_id, name):
    # entry (0, 1) of the matrix built mod p gets 1 added to its numerator's
    # residue (and (1, 0) its negative, for a skew matrix); every order from
    # 2 up reads it, so every trial of the check must fail
    real = getattr(identities, name)

    def bumped(*args):
        M = real(*args)
        entries = list(M.entries)
        e = entries[1]
        assert isinstance(e, Residue)  # the check builds this matrix mod p
        entries[1] = Residue(e.num + 1, e.den, e.p)
        if isinstance(M, SkewMatrix):
            entries[M.cols] = -entries[1]
        return type(M)._trusted(M.rows, M.cols, tuple(entries))

    monkeypatch.setattr(identities, name, bumped)
    report = run_check(CHECKS_BY_ID[check_id], trials=5, seed=0)
    assert report.failures == report.trials == 5


@pytest.mark.parametrize("check_id, seed", [("det_engines", 3), ("bordered_det", 4)])
def test_a_zero_interior_minor_keeps_the_point_and_its_engine_comparisons(
    monkeypatch, check_id, seed
):
    # at these height-2 points the condensation oracle meets a zero interior
    # minor and a leading minor vanishes.  The trial keeps the point and drops
    # only the condensation residuals it could not form, so the swap-free
    # pass falls back to the pivoting one there, and an error in that
    # fallback fails the trial
    check = CHECKS_BY_ID[check_id]
    sizes = replace(check.defaults, height=2)
    condensed, fallbacks = [], []
    real_condensation, real_det = identities.det_condensation, linalg.det_fraction_free

    def condensation(M, p=None):
        condensed.append((M.rows, len(real_condensation(M, p))))
        return real_condensation(M, p)

    def fallback(M, p=None):  # linalg's own calls: leading_minors past a zero pivot
        fallbacks.append(M.rows)
        return real_det(M, p)

    with monkeypatch.context() as m:
        m.setattr(identities, "det_condensation", condensation)
        m.setattr(linalg, "det_fraction_free", fallback)
        residuals, pt = run_trial(check, seed, sizes)
    assert pt.seed == seed  # not resampled
    assert all(identities._is_zero(r) for r in residuals)
    [(order, reached)] = condensed
    assert reached < order
    assert fallbacks

    real_minors = identities.leading_minors

    def mutated(M, p=None):  # off by one on every order past the first zero pivot
        out = real_minors(M, p)
        first = next((k for k, d in enumerate(out) if d == 0), len(out))
        return out[: first + 1] + [d + 1 for d in out[first + 1 :]]

    monkeypatch.setattr(identities, "leading_minors", mutated)
    assert not all(identities._is_zero(r) for r in check.run(pt, sizes))


@pytest.mark.parametrize("check_id", ("moment_double_sum", "basis_moments"))
def test_moment_double_sum_catches_a_lattice_kernel_error(monkeypatch, check_id):
    # the double sum and the basis moments read the lattice weights of the one
    # double-sum loop, and the basis route and the closed form do not, so
    # weights perturbed there fail every trial
    real = askey_wilson._weight_orders
    primes = []

    def perturbed(p, n, prime=None):
        primes.append(prime)
        for weights in real(p, n, prime):  # each w_j = cn sn / (cd sd) becomes w_j + 1
            yield [(cn * sn + cd * sd, cd * sd, 1, 1) for cn, cd, sn, sd in weights]

    monkeypatch.setattr(askey_wilson, "_weight_orders", perturbed)
    report = run_check(CHECKS_BY_ID[check_id], trials=5, seed=0)
    assert report.failures == report.trials == 5
    assert primes and None not in primes  # the weights are taken mod the trial prime


@pytest.mark.parametrize(
    "check_id, engine",
    [
        ("bordered_det", "leading_minors"),
        ("mehta_wang_det", "leading_minors"),
        ("gram_det", "leading_minors"),
        ("gram_to_bordered", "leading_minors"),
        ("little_qjacobi_hankel", "leading_minors"),
        ("even_order_det", "leading_minors"),
        ("pfaffian_eval", "pfaffian_expansion"),
        ("pfaffian_eval", "leading_minors"),
        ("pfaffian_integer_exp", "leading_pfaffians"),
        ("det_engines", "leading_minors"),
        ("det_engines", "det_fraction_free"),
        ("pfaffian_engines", "pfaffian_expansion"),
        ("pfaffian_engines", "leading_pfaffians"),
    ],
)
def test_modular_engine_off_by_one_fails_every_trial(monkeypatch, check_id, engine):
    # the residue the engine returns mod the trial's prime, plus 1: only the
    # modular route is perturbed, so these failures show it is compared
    real = getattr(identities, engine)
    primes = []

    def perturbed(M, p=None):
        value = real(M, p)
        if p is None:
            return value
        primes.append(p)
        return [d + 1 for d in value] if isinstance(value, list) else value + 1

    monkeypatch.setattr(identities, engine, perturbed)
    report = run_check(CHECKS_BY_ID[check_id], trials=5, seed=0)
    assert report.failures == report.trials == 5
    assert primes


@pytest.mark.parametrize(
    "check_id, closed_form",
    [
        ("bordered_det", "_closed_form"),
        ("mehta_wang_det", "_closed_form"),
        ("gram_det", "_closed_form"),
        ("gram_to_bordered", "_decoration_det"),
        ("little_qjacobi_hankel", "_closed_form"),
        ("even_order_det", "_closed_form"),
        ("pfaffian_eval", "_closed_form"),
        ("pfaffian_integer_exp", "_closed_form"),
    ],
)
def test_modular_closed_form_off_by_one_fails_every_trial(monkeypatch, check_id, closed_form):
    # the closed form's residue mod the trial's prime, plus 1 (for
    # gram_to_bordered, the determinant scaling's): the exact route is left
    # alone, so these failures show the modular closed forms are compared.
    # _closed_form stands for the kernel at both of its entries, one order
    # and the one-pass _closed_forms the runners read every order from.
    # little_qjacobi_hankel and pfaffian_eval compare their exact closed
    # forms at the top order only (see the tests below)
    primes = []
    for name in (closed_form, closed_form + "s"):
        real = getattr(identities, name, None)
        if real is None:
            continue
        signature = inspect.signature(real)

        def perturbed(*args, real=real, signature=signature, **kwargs):
            value = real(*args, **kwargs)
            prime = signature.bind(*args, **kwargs).arguments.get("prime")
            if prime is None:
                return value
            primes.append(prime)
            return (v + 1 for v in value) if inspect.isgenerator(value) else value + 1

        monkeypatch.setattr(identities, name, perturbed)
    report = run_check(CHECKS_BY_ID[check_id], trials=5, seed=0)
    assert report.failures == report.trials == 5
    assert primes


@pytest.mark.parametrize(
    "check_id", ("main_quadratic", "quadratic_specialization", "contiguous_relation")
)
def test_modular_series_off_by_one_fails_every_trial(monkeypatch, check_id):
    # every coefficient of each series mod the trial's prime, plus 1: the
    # exact route is left alone, so these failures show that the residual
    # series is formed and compared mod p
    real = identities.phi_series
    primes = []

    def perturbed(spec, argument_scale, order, prime=None):
        value = real(spec, argument_scale, order, prime)
        if prime is None:
            return value
        primes.append(prime)
        return SeriesResidue([n + value.den for n in value.nums], value.den, prime)

    monkeypatch.setattr(identities, "phi_series", perturbed)
    report = run_check(CHECKS_BY_ID[check_id], trials=5, seed=0)
    assert report.failures == report.trials == 5
    assert primes


@pytest.mark.parametrize(
    "check_id, name, stand_in",
    [
        ("little_qjacobi_hankel", "rhs_hankel", lambda n, p: F(1)),
        ("pfaffian_eval", "rhs_pfaffian", lambda m, a, b, q: F(1)),
    ],
)
def test_exact_arity_closed_form_stand_ins_fail_through_residuals(
    monkeypatch, check_id, name, stand_in
):
    # the benchmark's tests swap these closed forms for stand-ins that take
    # the exact arguments only; the runners must call them so, or the checks
    # would fail by a TypeError instead of by a nonzero residual
    monkeypatch.setattr(identities, name, stand_in)
    report = run_check(CHECKS_BY_ID[check_id], trials=5, seed=0)
    assert report.failures == report.trials == 5


@pytest.mark.parametrize(
    "check_id, name", [("little_qjacobi_hankel", "rhs_hankel"), ("pfaffian_eval", "rhs_pfaffian")]
)
def test_the_exact_closed_form_is_called_once_per_point_at_the_top_order(
    monkeypatch, check_id, name
):
    # every lower order is read from one pass mod p; the public exact form
    # is called once, at the top order, with the exact arguments only
    check = CHECKS_BY_ID[check_id]
    real = getattr(identities, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(identities, name, counted)
    for trial in range(5):
        _, pt = run_trial(check, trial, check.defaults)
        calls.clear()
        residuals = check.run(pt, check.defaults)
        assert len(calls) == 1
        [args] = calls
        top = check.defaults.n_max if name == "rhs_hankel" else check.defaults.m_max
        assert args[0] == top and len(args) == (2 if name == "rhs_hankel" else 4)
        assert residuals and all(identities._is_zero(r) for r in residuals)


@pytest.mark.parametrize("order", (1, 2))
@pytest.mark.parametrize(
    "check_id, name",
    [("little_qjacobi_hankel", "_hankel_forms"), ("pfaffian_eval", "_pfaffian_forms")],
)
def test_a_modular_closed_form_fault_below_the_top_order_fails_every_trial(
    monkeypatch, check_id, name, order
):
    # one order below the top, and only in the pass mod p: the plain Hankel
    # form alone (its decorated pass is left alone), the Pfaffian form of
    # the order
    real = getattr(identities, name)

    def faulty(orders, *args):
        *_, prime = args
        extra = args[1] if name == "_hankel_forms" else ()
        for n, value in zip(orders, real(orders, *args)):
            yield value + 1 if n == order and prime is not None and not extra else value

    monkeypatch.setattr(identities, name, faulty)
    report = run_check(CHECKS_BY_ID[check_id], trials=5, seed=0)
    assert report.failures == report.trials == 5


def test_gamma_pfaffian_int_entries_give_the_fraction_entries_residuals(monkeypatch):
    M = SkewMatrix.from_upper(4, lambda i, j: (j - i) * 3)
    assert type(M[0, 1]) is int and M[1, 0] == -3 and M[0, 0] == 0
    int_residuals = [check_gamma_pfaffian(5, a) for a in range(1, 5)]
    real = SkewMatrix.from_upper.__func__

    def as_fractions(cls, order, fn):
        return real(cls, order, lambda i, j: F(fn(i, j)))

    monkeypatch.setattr(SkewMatrix, "from_upper", classmethod(as_fractions))
    fraction_residuals = [check_gamma_pfaffian(5, a) for a in range(1, 5)]
    assert [[repr(r) for r in row] for rows in int_residuals for row in rows] == [
        [repr(r) for r in row] for rows in fraction_residuals for row in rows
    ]
    assert all(len(rows) == 5 for rows in int_residuals)


def test_a_row_scale_fault_in_the_engines_fails_bordered_det_through_its_oracles(monkeypatch):
    # the oracles scale the whole matrix their own way, so an engine that
    # scales one row wrong disagrees with both of them at every order
    check = CHECKS_BY_ID["bordered_det"]
    real_scaled, real_condensation = linalg._row_scaled, identities.det_condensation
    reached = []

    def mis_scaled(M, p=None):
        rows, scales = real_scaled(M, p)
        return rows, [2 * s if i == 0 else s for i, s in enumerate(scales)]

    def condensation(M, p=None):
        out = real_condensation(M, p)
        reached.append(len(out))
        return out

    monkeypatch.setattr(identities, "det_condensation", condensation)
    points = [run_trial(check, trial, check.defaults)[1] for trial in range(5)]
    monkeypatch.setattr(linalg, "_row_scaled", mis_scaled)
    for pt in points:
        reached.clear()
        residuals = iter(check.run(pt, check.defaults))
        oracle_residuals = []
        for n in range(1, check.defaults.n_max + 1):
            next(residuals)  # against the closed form
            oracle_residuals += [next(residuals) for _ in range(1 + (n <= reached[0]))]
        assert next(residuals, None) is None
        assert len(oracle_residuals) > check.defaults.n_max
        assert not any(identities._is_zero(r) for r in oracle_residuals)
    report = run_check(check, trials=5, seed=0)
    assert report.failures == report.trials == 5


def _slip_term_ratios(monkeypatch):
    """Make the term-ratio generator read one term late, r_(n+1) in place of r_n."""
    real = series._term_ratios

    def slipped(spec, argument, top):
        ratios = real(spec, argument, top + 1)
        next(ratios)
        return ratios

    monkeypatch.setattr(series, "_term_ratios", slipped)


@pytest.mark.parametrize(
    "check_id",
    (
        "andrews_qwatson",
        "aw_quadratic",
        "orthogonality",
        "bordered_det",
        "gram_det",
        "quadratic_specialization",
        "contiguous_relation",
    ),
)
def test_term_ratio_index_slip_fails_every_trial(monkeypatch, check_id):
    # every terminating sum and every series, exact or mod p, goes through
    # the term ratios, and the closed forms and the phi_term oracle do not
    _slip_term_ratios(monkeypatch)
    report = run_check(CHECKS_BY_ID[check_id], trials=10, seed=0)
    assert report.failures == report.trials == 10


def test_term_ratio_index_slip_fails_main_quadratic_wherever_b_differs_from_d(monkeypatch):
    # at b = d the A and B products share their parameter multisets and
    # prefactor, and C's prefactor has the factor b - d, so Thm 1.1 holds
    # there for any series kernel; the slip fails every other trial
    _slip_term_ratios(monkeypatch)
    check = CHECKS_BY_ID["main_quadratic"]
    report = run_check(check, trials=10, seed=0)
    points = [run_trial(check, _trial_seed(check.id, 0, t), check.defaults)[1] for t in range(10)]
    assert report.witness_seeds == tuple([pt.seed for pt in points if pt["b"] != pt["d"]])
    assert report.failures >= 9


@pytest.mark.parametrize("height", (2, 3, 40))
@pytest.mark.parametrize(
    "check_id", ("main_quadratic", "quadratic_specialization", "contiguous_relation")
)
def test_modular_series_trials_match_their_exact_runs(monkeypatch, check_id, height):
    # with no prime the series run exactly: each trial must land on the same
    # point after the same resamples, with the same zero pattern
    check = CHECKS_BY_ID[check_id]
    sizes = replace(check.defaults, height=height)

    def outcomes():
        out = []
        for trial in range(8):
            try:
                residuals, pt = run_trial(check, _trial_seed(check_id, 0, trial), sizes)
            except SamplingExhausted:
                out.append("exhausted")
                continue
            out.append((pt.seed, [identities._is_zero(r) for r in residuals], type(residuals[0])))
        return out

    modular = outcomes()
    monkeypatch.setattr(scalar, "trial_prime", lambda seed: None)
    exact = outcomes()
    assert [o[:2] for o in modular] == [o[:2] for o in exact]
    if height < 40:  # some trials resampled away from poles
        seeds = [_trial_seed(check_id, 0, trial) for trial in range(8)]
        assert any(o != "exhausted" and o[0] != seed for o, seed in zip(modular, seeds))
    assert {o[2] for o in modular if o != "exhausted"} == {SeriesResidue}
    assert {o[2] for o in exact if o != "exhausted"} == {series.TruncatedSeries}


def test_gamma_pfaffian_runs_the_elimination_engine(monkeypatch):
    real = identities.leading_pfaffians
    monkeypatch.setattr(identities, "leading_pfaffians", lambda M: [pf + 1 for pf in real(M)])
    report = run_check(CHECKS_BY_ID["gamma_pfaffian"], trials=2, seed=0)
    assert report.failures == report.trials == 2


def test_sampling_exhaustion_surfaces_per_trial():
    from qident.scalar import PoleError, SamplingExhausted

    def always_pole(pt, sizes):
        raise PoleError("synthetic")

    check = IdentityCheck("pole_farm", "synthetic", ("a",), Sizes(), always_pole)
    with pytest.raises(SamplingExhausted):
        run_check(check, trials=1, seed=0)


def test_run_trial_resamples_at_poles():
    # a check whose first sampled point is always rejected as a pole
    calls = []

    def picky_run(pt, sizes):
        calls.append(pt.seed)
        if len(calls) == 1:
            from qident.scalar import PoleError

            raise PoleError("synthetic pole")
        return [F(0)]

    check = IdentityCheck("picky", "synthetic", ("a",), Sizes(), picky_run)
    residuals, pt = run_trial(check, trial_seed=77, sizes=Sizes())
    assert residuals == [F(0)]
    assert len(calls) == 2
    assert calls[0] != calls[1]
    assert pt.seed == calls[1]
