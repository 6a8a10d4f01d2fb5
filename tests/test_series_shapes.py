"""The (r, s) shapes of the series checks, read from one base per point.

main_quadratic, six_term_sums, six_term_pairs, quadratic_specialization and
contiguous_relation read their shapes from identities._extended_shapes: the
series of their first shape come from phi_series, and every later shape's
from those by termwise products with extension multipliers.  Here each
shape is built again directly, with one phi_series per series in the order
the checks once used, and the two routes must give equal series, equal
prefactors and the same first PoleError.
"""

from fractions import Fraction as F

import pytest

from qident import identities
from qident.identities import (
    CHECKS_BY_ID,
    RS_PAIRS,
    SIX_TERM_SHAPES,
    _closed_form,
    _contiguous_shapes,
    _quadratic_shapes,
    _six_term_specs,
    _specialization_shapes,
    _trial_seed,
    run_check,
    run_trial,
)
from qident.scalar import PoleError, qpoch_multi, sample_point
from qident.series import (
    HypergeometricSpec,
    SeriesResidue,
    TruncatedSeries,
    phi_series,
    term_multiplier,
    termwise_product,
)

ORDERS = (0, 1, 10, 12)
SPECIALIZATION_RS = (1, 2, 3)
CONTIGUOUS_SHAPES = ((1, 1), (2, 1), (2, 2))


def _direct_quadratic(pt, r, s, order, prime):
    q = pt["q"]
    out = []
    for pref, nums_k, nums_m, dens_k, dens_m in _six_term_specs(pt, r, s):
        f = phi_series(HypergeometricSpec(nums_k, dens_k[1:], q), F(1), order, prime)
        g = phi_series(HypergeometricSpec(nums_m, dens_m[1:], q), q ** (s - r), order, prime)
        out.append((pref, f, g))
    return out


def _direct_specialization(pt, r, order, prime):
    q = pt["q"]
    a0, a1, b1 = pt["a0"], pt["a1"], pt["b1"]
    ta = tuple([pt[f"a{i}"] for i in range(2, r + 1)])
    tb = tuple([pt[f"b{i}"] for i in range(2, r + 1)])
    taq, tbq = tuple([x * q for x in ta]), tuple([x * q for x in tb])

    def f(nums, dens):
        return phi_series(HypergeometricSpec(nums, dens, q), F(1), order, prime)

    t1 = f((a0 / q, a1) + ta, (b1 / q,) + tb)
    t2 = f((a0 * q, a1) + taq, (b1 * q,) + tbq)
    t3 = f((a0, a1) + ta, (b1,) + tb)
    t4 = f((a0, a1) + taq, (b1,) + tbq)
    t5 = f((a0, a1 / q) + ta, (b1 / q,) + tb)
    t6 = f((a0, a1 * q) + taq, (b1 * q,) + tbq)
    return [
        ((a0 - 1) * (a1 - b1), t1, t2),
        (-(a0 - a1) * (1 - b1), t3, t4),
        ((1 - a1) * (a0 - b1), t5, t6),
    ]


def _direct_contiguous(pt, r, s, order, prime):
    q, a, b = pt["q"], pt["a"], pt["b"]
    A = tuple([pt[f"A{i}"] for i in range(1, r)])
    B = tuple([pt[f"B{i}"] for i in range(1, s)])
    t1 = phi_series(HypergeometricSpec((a * q,) + A, (b * q,) + B, q), F(1), order, prime)
    t2 = phi_series(HypergeometricSpec((a,) + A, (b,) + B, q), F(1), order, prime)
    pref = _closed_form(
        ((-1, 1 + s - r), (a - b, 1)), ((A, q, (1,)),), (((b, b * q) + B, q, (1,)),),
        "prefactor denominator",
    )
    t3 = phi_series(
        HypergeometricSpec(
            (a * q,) + tuple([x * q for x in A]), (b * q**2,) + tuple([x * q for x in B]), q
        ),
        q ** (1 + s - r),
        order,
        prime,
    )
    return [t1, t2, pref, t3]


FAMILIES = {
    "quadratic": (
        CHECKS_BY_ID["main_quadratic"].param_names,
        # main_quadratic's shapes, those of the six-term sums and pairs, and
        # a base with s0 != r0, where Y's argument is not q^(s-r)
        [RS_PAIRS, SIX_TERM_SHAPES, ((1, 0), (1, 1), (2, 1), (2, 2))],
        lambda pt, shapes, order, prime: _quadratic_shapes(pt, shapes, order, prime),
        lambda pt, shape, order, prime: _direct_quadratic(pt, *shape, order, prime),
    ),
    "specialization": (
        CHECKS_BY_ID["quadratic_specialization"].param_names,
        [SPECIALIZATION_RS],
        lambda pt, shapes, order, prime: _specialization_shapes(pt, shapes, order, prime),
        lambda pt, r, order, prime: _direct_specialization(pt, r, order, prime),
    ),
    "contiguous": (
        CHECKS_BY_ID["contiguous_relation"].param_names,
        # the check's shapes, and a base of vector lengths (1, 0)
        [CONTIGUOUS_SHAPES, ((2, 1), (2, 2))],
        lambda pt, shapes, order, prime: _contiguous_shapes(pt, shapes, order, prime),
        lambda pt, shape, order, prime: _direct_contiguous(pt, *shape, order, prime),
    ),
}


def _outcome(shape_lists):
    """The items of each shape in turn, flattened, then the first PoleError
    message, if any: ("raised", message) as the last entry."""
    out = []
    try:
        for items in shape_lists:
            out.append([x for item in items for x in (item if type(item) is tuple else [item])])
    except PoleError as exc:
        out.append(("raised", str(exc)))
    return out


def _direct_shapes(direct, pt, shapes, order, prime):
    for shape in shapes:
        yield direct(pt, shape, order, prime)


def _assert_equal(got, want, prime):
    if isinstance(want, TruncatedSeries) and prime is None:
        assert isinstance(got, TruncatedSeries) and got == want
    elif isinstance(want, SeriesResidue):
        assert isinstance(got, SeriesResidue) and got.p == want.p == prime
        assert got.order == want.order
        for a, b in zip(got.nums, want.nums):
            assert (a * want.den - b * got.den) % prime == 0
    else:  # a prefactor
        assert got == want and type(got) is type(want)


@pytest.mark.parametrize("height", (2, 3, 40))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_shapes_from_one_base_match_the_direct_series(family, height):
    # every shape a check reads, exact and mod the point's prime, at orders
    # 0, 1, 10 and 12: equal series, equal prefactors, and the same first
    # PoleError as the shapes' own phi_series built in turn
    names, shape_lists, shared, direct = FAMILIES[family]
    seen = {"values": 0, "base pole": 0, "later pole": 0}
    for seed in range(10):
        pt = sample_point(names, seed, height)
        for shapes in shape_lists:
            for order in ORDERS:
                for prime in (None, pt.prime):
                    got = _outcome(shared(pt, shapes, order, prime))
                    want = _outcome(_direct_shapes(direct, pt, shapes, order, prime))
                    assert len(got) == len(want)
                    if want and want[-1][0] == "raised":
                        assert got[-1] == want[-1]
                        seen["base pole" if len(want) == 1 else "later pole"] += 1
                        got, want = got[:-1], want[:-1]
                    for got_items, want_items in zip(got, want):
                        assert len(got_items) == len(want_items)
                        for g, w in zip(got_items, want_items):
                            _assert_equal(g, w, prime)
                        seen["values"] += 1
    assert seen["values"]
    if height == 2:  # poles of the base and of the multipliers are both met
        assert seen["base pole"] and seen["later pole"]


@pytest.mark.parametrize("height", (2, 3))
def test_one_shape_raises_the_pole_of_its_own_series(height):
    # a shape read alone is its own base: its first PoleError, where a
    # six-term base series and an e/f denominator both vanish, is the one
    # of its own series in order
    names = CHECKS_BY_ID["main_quadratic"].param_names
    raised = 0
    for seed in range(40):
        pt = sample_point(names, seed, height)
        for r, s in RS_PAIRS:
            want = _outcome(_direct_shapes(
                lambda pt, shape, order, prime: _direct_quadratic(pt, *shape, order, prime),
                pt, ((r, s),), 10, pt.prime,
            ))
            got = _outcome(_quadratic_shapes(pt, ((r, s),), 10, pt.prime))
            assert [x for x in got if x[0] == "raised"] == [x for x in want if x[0] == "raised"]
            raised += want[-1][0] == "raised"
    assert raised


@pytest.mark.parametrize(
    "family, name, shapes",
    [
        ("quadratic", "f1", ((0, 0), (0, 1))),
        ("specialization", "b2", (1, 2)),
        ("contiguous", "B1", ((1, 1), (1, 2))),
    ],
)
def test_x_raises_before_y(family, name, shapes):
    # with the new denominator parameter q^(-2), X vanishes at term 3 and Y,
    # the same parameter times q, at term 2: the first series of the shape
    # takes X, so the check raises at term 3, as its own series do
    names, _, shared, direct = FAMILIES[family]
    pt = sample_point(names, 0, 40)
    pt = type(pt)({**pt.assignments, name: pt["q"] ** -2}, pt.seed)
    for prime in (None, pt.prime):
        want = _outcome(_direct_shapes(direct, pt, shapes, 10, prime))
        assert want[-1] == ("raised", "denominator Pochhammer vanishes at term 3")
        assert _outcome(shared(pt, shapes, 10, prime))[-1] == want[-1]


def test_term_multiplier_matches_its_pochhammer_products():
    q = F(2, 7)
    es, fs, w = (F(1, 3), F(-4, 5)), (F(3, 2),), F(-5, 4)
    for e_count in range(3):
        for f_count in range(2):
            E, Fs = es[:e_count], fs[:f_count]
            for prime in (None, 1_000_003):
                m = term_multiplier(E, Fs, q, w, 6, prime)
                for k in range(7):
                    sign_power = (F(-1) ** k * q ** (k * (k - 1) // 2)) ** (f_count - e_count)
                    want = qpoch_multi(E, q, k) / qpoch_multi(Fs, q, k) * sign_power * w**k
                    if prime is None:
                        assert m[k] == want
                    else:
                        assert (m.nums[k] * want.denominator - want.numerator * m.den) % prime == 0


def test_term_multiplier_raises_at_the_first_vanishing_denominator():
    q = F(1, 2)
    with pytest.raises(PoleError, match="denominator Pochhammer vanishes at term 3"):
        term_multiplier((), (q**-2,), q, F(1), 5)
    with pytest.raises(PoleError, match="denominator Pochhammer vanishes at term 3"):
        term_multiplier((), (q**-2,), q, F(1), 5, 1_000_003)
    assert term_multiplier((), (q**-2,), q, F(1), 2).order == 2


def test_termwise_product_extends_a_series():
    # (N; D; z) times the multiplier of (E; F; w) is (N + E; D + F; z w)
    q = F(3, 5)
    base = HypergeometricSpec((F(1, 2), F(2, 3)), (F(-1, 4),), q)
    extended = HypergeometricSpec((F(1, 2), F(2, 3), F(5, 7)), (F(-1, 4), F(2, 9), F(7, 2)), q)
    z, w = F(2, 3), F(-3, 4)
    for prime in (None, 1_000_003):
        multiplier = term_multiplier((F(5, 7),), (F(2, 9), F(7, 2)), q, w, 8, prime)
        got = termwise_product(phi_series(base, z, 8, prime), multiplier, prime)
        want = phi_series(extended, z * w, 8, prime)
        _assert_equal(got, want, prime)


def _mutant_fails(monkeypatch, mutate, check_id, trials=10):
    """Patch identities.term_multiplier with `mutate(real, previous, *args)`,
    `previous` being the arguments of the call before, and return the
    check's report and the points of its trials."""
    real = identities.term_multiplier
    calls = [None]

    def mutated(*args):
        calls.append(args)
        return mutate(real, calls[-2], *args)

    monkeypatch.setattr(identities, "term_multiplier", mutated)
    check = CHECKS_BY_ID[check_id]
    report = run_check(check, trials=trials, seed=0)
    points = [
        run_trial(check, _trial_seed(check.id, 0, t), check.defaults)[1] for t in range(trials)
    ]
    assert len(calls) > 1
    return report, points


def _sign_exponent_off_by_one(real, previous, nums, dens, q, argument, order, prime=None):
    # a numerator 0 adds the factor (0;q)_k = 1 and lowers |F| - |E| by one
    return real(tuple(nums) + (F(0),), dens, q, argument, order, prime)


def _y_argument_one_power_high(real, previous, nums, dens, q, argument, order, prime=None):
    # Y follows the X of its shape, with X's parameters times q; its
    # argument q^(s-r) becomes q^(s-r+1)
    is_y = previous is not None and (list(nums), list(dens)) == (
        [x * q for x in previous[0]], [x * q for x in previous[1]]
    )
    return real(nums, dens, q, argument * q if is_y else argument, order, prime)


@pytest.mark.parametrize("mutate", (_sign_exponent_off_by_one, _y_argument_one_power_high))
@pytest.mark.parametrize(
    "check_id",
    ("main_quadratic", "six_term_pairs", "quadratic_specialization", "contiguous_relation"),
)
def test_multiplier_mutants_fail_away_from_the_blind_points(monkeypatch, check_id, mutate):
    # at b = d the A and B products of the quadratic formula share their
    # parameter multisets and prefactor, and C's prefactor has the factor
    # b - d; at a = c the same holds for B and C, and A's prefactor has the
    # factor a - c.  Those checks hold there for any series.  The
    # specialization and the contiguous relation have no such points, and
    # each mutant fails every trial that is not blind
    report, points = _mutant_fails(monkeypatch, mutate, check_id)
    if "c" in CHECKS_BY_ID[check_id].param_names:
        blind = [pt["b"] == pt["d"] or pt["a"] == pt["c"] for pt in points]
        assert report.failures >= 8
    else:
        blind = [False] * len(points)
        assert report.failures == len(points)
    assert report.witness_seeds == tuple([pt.seed for pt, b in zip(points, blind) if not b])
