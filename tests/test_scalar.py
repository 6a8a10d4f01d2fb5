from fractions import Fraction as F

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from qident.scalar import (
    PoleError,
    DomainError,
    SamplingExhausted,
    gamma_int,
    qpoch,
    qpoch_multi,
    qpoch_table,
    sample_point,
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
    table = qpoch_table(a, q, 6)
    assert table == [qpoch(a, q, k) for k in range(7)]
    assert qpoch_table(a, q, 0) == [1]
    with pytest.raises(DomainError):
        qpoch_table(a, q, -1)


def test_qpoch_table_holds_zero_without_raising():
    # a = q^-2: the factor 1 - a q^2 vanishes, so (a;q)_k = 0 from k = 3 on
    q = F(2, 3)
    table = qpoch_table(q**-2, q, 5)
    assert table[:3] == [qpoch(q**-2, q, k) for k in range(3)]
    assert all(v != 0 for v in table[:3])
    assert table[3:] == [0, 0, 0]


def test_qpoch_multi():
    q = F(1, 5)
    assert qpoch_multi([], q, 5) == 1
    a = F(3, 4)
    assert qpoch_multi([a], q, 3) == qpoch(a, q, 3)
    assert qpoch_multi([F(1, 2), F(1, 3)], F(1, 5), 1) == F(1, 3)


def test_gamma_int():
    assert gamma_int(1) == 1
    assert gamma_int(2) == 1
    assert gamma_int(5) == 24
    with pytest.raises(DomainError):
        gamma_int(0)


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
