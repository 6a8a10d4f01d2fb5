import random
from fractions import Fraction as F

import pytest

from helpers import from_rows, matching_sign, perfect_matchings, rand_fraction, to_lists
from qident.linalg import (
    Matrix,
    NonSquare,
    OddOrder,
    OrderTooLarge,
    SkewMatrix,
    desnanot_jacobi_residual,
    det_cofactor,
    det_condensation,
    det_fraction_free,
    leading_minors,
    leading_pfaffians,
    minor,
    pair_swapped,
    pfaffian_expansion,
    pfaffian_matchings,
)
from qident import linalg
from qident.scalar import PoleError, Residue, _common_denominator, trial_prime


def rand_matrix(rng, n, height=12):
    return Matrix.build(n, n, lambda i, j: rand_fraction(rng, height))


def rand_skew(rng, n, height=12):
    return SkewMatrix.from_upper(n, lambda i, j: rand_fraction(rng, height))


def test_minor_trivial():
    M = from_rows(Matrix, [[1, 2], [3, 4]])
    assert minor(M, (), ()) == M
    assert minor(M, (0,), (0,)).entries == (F(4),)
    empty = minor(M, (0, 1), ())
    assert empty.rows == 0 and empty.cols == 2
    assert det_fraction_free(minor(M, (0, 1), (0, 1))) == 1


def test_minor_errors():
    M = from_rows(Matrix, [[1, 2], [3, 4]])
    with pytest.raises(IndexError):
        minor(M, (2,), ())
    with pytest.raises(IndexError):
        minor(M, (0, 0), ())


def test_det_cofactor_base_cases():
    assert det_cofactor(Matrix(0, 0, ())) == 1
    eye = Matrix.build(3, 3, lambda i, j: F(int(i == j)))
    assert det_cofactor(eye) == 1
    assert det_cofactor(from_rows(Matrix, [[1, 2], [3, 4]])) == -2


def test_det_cofactor_caps():
    with pytest.raises(OrderTooLarge):
        det_cofactor(Matrix.build(9, 9, lambda i, j: F(1)))
    with pytest.raises(NonSquare):
        det_cofactor(Matrix.build(2, 3, lambda i, j: F(1)))


def test_det_fraction_free_against_cofactor():
    rng = random.Random(0)
    for n in range(8):
        M = rand_matrix(rng, n)
        assert det_fraction_free(M) == det_cofactor(M)


def test_det_fraction_free_singular():
    M = from_rows(Matrix, [[1, 2, 3], [4, 5, 6], [1, 2, 3]])
    assert det_fraction_free(M) == 0
    assert det_fraction_free(from_rows(Matrix, [[F(5, 7)]])) == F(5, 7)


def test_det_fraction_free_needs_pivoting():
    M = from_rows(Matrix, [[0, 1, 2], [1, 0, 3], [4, 5, 0]])
    assert det_fraction_free(M) == det_cofactor(M)


P = trial_prime(0)


def leading_block(M, k):
    return minor(M, range(k, M.rows), range(k, M.rows))


def canon(values):
    """(type, numerator, denominator) of each value: equal only if canonical."""
    return [(type(x), x.numerator, x.denominator) for x in values]


@pytest.mark.parametrize("seed", range(20))
def test_leading_minors_match_det_of_each_leading_block(seed):
    rng = random.Random(seed)
    for n in range(9):
        # zeros and small ints make vanishing leading minors, so the fallback, common
        M = Matrix.build(
            n, n, lambda i, j: rng.choice((rand_fraction(rng, 20), F(0), rng.randint(-2, 2)))
        )
        expected = [det_fraction_free(leading_block(M, k)) for k in range(1, n + 1)]
        assert canon(leading_minors(M)) == canon(expected)
        assert leading_minors(M, trial_prime(seed)) == expected


@pytest.mark.parametrize(
    "rows, zero_orders",
    [
        ([[0, 1, 2], [1, 0, 3], [2, 5, 1]], {1}),
        ([[1, 2, 1, 0], [2, 4, 0, 1], [F(1, 3), 1, 2, 5], [3, 0, 1, 1]], {2}),
        ([[F(1, 2), 2, 3], [4, F(5, 3), 6], [F(9, 2), F(11, 3), 9]], {3}),
        ([[F(1, 2), 1, 3], [0, 0, 0], [2, F(5, 7), 1]], {2, 3}),  # singular
    ],
    ids=["first", "middle", "last", "singular"],
)
def test_leading_minors_where_a_leading_minor_vanishes(rows, zero_orders):
    M = from_rows(Matrix, rows)
    got = leading_minors(M)
    expected = [det_cofactor(leading_block(M, k)) for k in range(1, M.rows + 1)]
    assert canon(got) == canon(expected)
    assert {k for k, d in enumerate(got, 1) if d == 0} == zero_orders
    residues = leading_minors(M, P)
    assert residues == expected
    assert {k for k, d in enumerate(residues, 1) if d == 0} == zero_orders


def test_leading_minors_order_zero_and_non_square():
    assert leading_minors(Matrix(0, 0, ())) == leading_minors(Matrix(0, 0, ()), P) == []
    assert canon(leading_minors(Matrix(1, 1, (F(-6, 4),)))) == canon([F(-3, 2)])
    assert leading_minors(Matrix(1, 1, (F(-6, 4),)), P) == [F(-3, 2)]
    for p in (None, P):
        with pytest.raises(NonSquare):
            leading_minors(Matrix.build(2, 3, lambda i, j: F(1)), p)


def test_det_condensation_agrees():
    rng = random.Random(1)
    for n in range(1, 8):
        M = rand_matrix(rng, n)
        assert det_condensation(M)[-1] == det_fraction_free(M)
    assert det_condensation(from_rows(Matrix, [[1, 2], [3, 4]])) == [1, -2]


def ref_condensation(M):
    """Dodgson condensation of one matrix on Fractions: its determinant, or
    PoleError at a zero interior entry.  The reference for one order."""
    cur, prev = to_lists(M), None
    while len(cur) > 1:
        m = len(cur) - 1
        nxt = []
        for i in range(m):
            top, bottom = cur[i], cur[i + 1]
            row = [top[j] * bottom[j + 1] - top[j + 1] * bottom[j] for j in range(m)]
            if prev is not None:
                interior = prev[i + 1][1:-1]
                if 0 in interior:
                    raise PoleError("zero interior entry")
                row = [v / d for v, d in zip(row, interior)]
            nxt.append(row)
        prev, cur = cur, nxt
    return cur[0][0] if cur else F(1)


@pytest.mark.parametrize("height", [2, 3, 40])
@pytest.mark.parametrize("seed", range(15))
def test_det_condensation_reads_every_leading_minor_in_one_pass(seed, height):
    rng = random.Random(1000 * height + seed)
    for n in range(9):
        M = Matrix.build(n, n, lambda i, j: rand_fraction(rng, height))
        # every order up to the first block whose own condensation divides by 0
        expected = []
        for k in range(1, n + 1):
            try:
                ref_condensation(M.leading(k))
            except PoleError:
                break
            expected.append(det_fraction_free(M.leading(k)))
        assert canon(det_condensation(M)) == canon(expected)


def test_det_condensation_zero_interior_fallback():
    # a zero interior entry leaves condensation nothing to divide by, so the
    # orders whose blocks have it inside are left out, and only those
    M = from_rows(Matrix, [[1, 2, 3], [4, 0, 6], [7, 8, 10]])
    assert det_condensation(M) == [1, -8]
    rng = random.Random(2)
    for _ in range(10):
        rows = [[rand_fraction(rng) for _ in range(5)] for _ in range(5)]
        rows[2][2] = F(0)
        M = from_rows(Matrix, rows)
        # M[2][2] is interior to the blocks of order 4 and 5, not to that of 3
        assert det_condensation(M) == [det_fraction_free(M.leading(k)) for k in (1, 2, 3)]
        rows[1][1] = F(0)
        assert det_condensation(from_rows(Matrix, rows)) == [rows[0][0], -rows[0][1] * rows[1][0]]


def test_row_swap_negates_duplicate_row_kills():
    rng = random.Random(3)
    M = rand_matrix(rng, 5)
    rows = to_lists(M)
    rows[0], rows[3] = rows[3], rows[0]
    swapped = from_rows(Matrix, rows)
    assert det_fraction_free(swapped) == -det_fraction_free(M)
    rows[0] = rows[3]
    assert det_fraction_free(from_rows(Matrix, rows)) == 0


def test_desnanot_jacobi_residual_zero():
    rng = random.Random(4)
    for trial in range(200):
        n = 2 + trial % 5
        assert desnanot_jacobi_residual(rand_matrix(rng, n, height=8)) == 0


def test_desnanot_jacobi_singular_matrix():
    rng = random.Random(5)
    rows = [[rand_fraction(rng) for _ in range(5)] for _ in range(5)]
    rows[4] = rows[0]
    assert desnanot_jacobi_residual(from_rows(Matrix, rows)) == 0


def test_skew_matrix_validation():
    with pytest.raises(ValueError):
        from_rows(SkewMatrix, [[0, 1], [1, 0]])
    M = SkewMatrix.from_upper(4, lambda i, j: F(i + j))
    assert M[1, 3] == -M[3, 1] == 4
    assert all(M[i, i] == 0 for i in range(4))


def test_skew_matrix_constructor_still_validates():
    with pytest.raises(ValueError):
        SkewMatrix(2, 2, (0, 1, 1, 0))
    with pytest.raises(NonSquare):
        SkewMatrix(1, 2, (0, 0))
    with pytest.raises(ValueError):
        SkewMatrix.from_upper(-2, lambda i, j: F(1))


def test_leading_block_keeps_the_class_and_entries():
    S = rand_skew(random.Random(5), 6)
    for k in range(7):
        block = S.leading(k)
        assert type(block) is SkewMatrix
        assert to_lists(block) == to_lists(leading_block(S, k))
    M = Matrix.build(2, 3, lambda i, j: F(i + j))
    assert type(M.leading(2)) is Matrix and M.leading(2).entries == (0, 1, 1, 2)
    for k in (-1, 3):
        with pytest.raises(IndexError):
            M.leading(k)


def test_pfaffian_2x2():
    a = F(5, 3)
    M = from_rows(SkewMatrix, [[0, a], [-a, 0]])
    assert pfaffian_matchings(M) == a
    assert pfaffian_expansion(M) == a


def test_pfaffian_4x4_formula():
    rng = random.Random(6)
    M = rand_skew(rng, 4)
    expected = M[0, 1] * M[2, 3] - M[0, 2] * M[1, 3] + M[0, 3] * M[1, 2]
    assert pfaffian_matchings(M) == expected
    assert pfaffian_expansion(M) == expected


def test_pfaffian_zero_matrix_and_blocks():
    zero = SkewMatrix.from_upper(6, lambda i, j: F(0))
    assert pfaffian_expansion(zero) == 0
    # block-diagonal of 2x2 blocks: only one matching survives
    vals = [F(2, 3), F(-7, 5), F(9, 4)]

    def block(i, j):
        return vals[i // 2] if (j == i + 1 and i % 2 == 0) else F(0)

    M = SkewMatrix.from_upper(6, block)
    assert pfaffian_matchings(M) == vals[0] * vals[1] * vals[2]


def test_pfaffian_engines_agree_and_square_is_det():
    rng = random.Random(7)
    for n in (2, 4, 6):
        M = rand_skew(rng, n)
        pf = pfaffian_matchings(M)
        assert pfaffian_expansion(M) == pf
        assert pf**2 == det_fraction_free(M)


def test_pfaffian_odd_order():
    M = SkewMatrix.from_upper(3, lambda i, j: F(1))
    with pytest.raises(OddOrder):
        pfaffian_matchings(M)
    with pytest.raises(OddOrder):
        pfaffian_expansion(M)


def test_pfaffian_matchings_cap():
    M = SkewMatrix.from_upper(10, lambda i, j: F(1))
    with pytest.raises(OrderTooLarge):
        pfaffian_matchings(M)


def test_perfect_matchings_count_and_signs():
    ms = list(perfect_matchings(range(6)))
    assert len(ms) == 15  # (2m-1)!! = 5*3*1
    assert matching_sign([(0, 1), (2, 3)]) == 1
    assert matching_sign([(0, 2), (1, 3)]) == -1
    assert matching_sign([(0, 3), (1, 2)]) == 1


def test_pfaffian_elimination_large_orders_square_to_det():
    rng = random.Random(8)
    for n in (10, 12):
        M = rand_skew(rng, n)
        assert pfaffian_expansion(M) ** 2 == det_fraction_free(M)


def test_pfaffian_elimination_zero_pivot_swaps():
    rng = random.Random(9)
    for n in (4, 6, 8):
        rows = to_lists(rand_skew(rng, n))
        rows[0][1] = rows[1][0] = F(0)
        M = from_rows(SkewMatrix, rows)
        assert pfaffian_expansion(M) == pfaffian_matchings(M)


def test_pfaffian_elimination_zero_first_row():
    rng = random.Random(10)
    rows = to_lists(rand_skew(rng, 6))
    for j in range(6):
        rows[0][j] = rows[j][0] = F(0)
    assert pfaffian_expansion(from_rows(SkewMatrix, rows)) == 0


def test_bareiss_mixed_denominators():
    M = from_rows(
        Matrix,
        [[F(1, 2), F(2, 3), F(-5, 7)], [F(3, 4), F(1, 6), F(2)], [F(-7, 9), F(4, 5), F(1, 10)]]
    )
    assert det_fraction_free(M) == det_cofactor(M)
    rng = random.Random(11)
    M = Matrix.build(6, 6, lambda i, j: F(rng.randint(-30, 30), rng.randint(1, 40)))
    assert det_fraction_free(M) == det_cofactor(M)


def test_bareiss_zero_leading_pivot():
    M = from_rows(Matrix, [[0, F(1, 3), 2], [F(5, 2), 0, 1], [1, F(2, 7), 0]])
    assert det_fraction_free(M) == det_cofactor(M)


def test_bareiss_singular_with_fractions():
    M = from_rows(Matrix, [[F(1, 2), F(1, 3)], [F(3, 2), 1]])
    assert det_fraction_free(M) == 0


def test_bareiss_on_int_entries():
    M = Matrix(3, 3, (2, -1, 0, 4, 3, 1, 0, 5, 7))
    d = det_fraction_free(M)
    assert d == det_cofactor(from_rows(Matrix, to_lists(M)))
    assert isinstance(d, F)


# The engines mod a prime: each value must be the exact one reduced mod p.


def degenerate_entry(rng, height):
    # zeros and small ints make vanishing minors and pivots common
    return rng.choice((rand_fraction(rng, height), F(0), F(rng.randint(-2, 2))))


@pytest.mark.parametrize("height", [2, 3, 40])
@pytest.mark.parametrize("seed", range(4))
def test_modular_engines_are_the_exact_values_mod_p(height, seed):
    rng = random.Random(100 * height + seed)
    p = trial_prime(seed)
    for n in range(11):
        M = Matrix.build(n, n, lambda i, j: degenerate_entry(rng, height))
        minors = leading_minors(M, p)
        assert all(isinstance(d, Residue) and d.p == p for d in minors)
        assert minors == leading_minors(M)
        det = det_fraction_free(M, p)
        assert isinstance(det, Residue) and det == det_fraction_free(M)
        if n % 2 == 0:
            S = SkewMatrix.from_upper(n, lambda i, j: degenerate_entry(rng, height))
            pf = pfaffian_expansion(S, p)
            assert isinstance(pf, Residue) and pf == pfaffian_expansion(S)
            assert pf**2 == det_fraction_free(S, p)


def test_pivot_divisible_by_p_falls_back_to_the_pivoting_pass():
    # pivots that are nonzero multiples of p vanish mod p, though no exact one does
    p = P
    rng = random.Random(12)
    rows = [[rand_fraction(rng) for _ in range(5)] for _ in range(5)]
    rows[0][0] = F(3 * p, 7)
    M = from_rows(Matrix, rows)
    exact = leading_minors(M)
    assert all(d != 0 for d in exact)
    got = leading_minors(M, p)
    assert got[0].num == 0 and got == exact
    assert det_fraction_free(M, p) == det_fraction_free(M)
    # here the order-2 leading minor is p and the order-3 one p + 1
    M = from_rows(Matrix, [[1, 1, 1], [1, 1 + p, 0], [0, 1, 1]])
    got = leading_minors(M, p)
    assert leading_minors(M) == [1, p, p + 1] == got
    assert [d.num for d in got] == [1, 0, 1]
    S_rows = to_lists(rand_skew(rng, 6))
    S_rows[0][1], S_rows[1][0] = F(p, 5), F(-p, 5)
    S = from_rows(SkewMatrix, S_rows)
    assert pfaffian_expansion(S, p) == pfaffian_expansion(S) != 0


def test_modular_engines_on_singular_matrices_and_zero_rows():
    p = P
    rng = random.Random(13)
    rows = [[rand_fraction(rng) for _ in range(6)] for _ in range(6)]
    rows[2] = [F(0)] * 6
    M = from_rows(Matrix, rows)
    assert leading_minors(M, p) == leading_minors(M)
    assert [d == 0 for d in leading_minors(M, p)] == [False, False, True, True, True, True]
    rows[2] = [2 * x for x in rows[4]]  # singular, with no zero row
    M = from_rows(Matrix, rows)
    assert det_fraction_free(M) == 0 and det_fraction_free(M, p) == 0
    assert det_fraction_free(Matrix(0, 0, ()), p) == 1
    zero = SkewMatrix.from_upper(6, lambda i, j: F(0))
    assert pfaffian_expansion(zero, p) == 0
    S_rows = to_lists(rand_skew(rng, 6))
    for j in range(6):
        S_rows[3][j] = S_rows[j][3] = F(0)
    assert pfaffian_expansion(from_rows(SkewMatrix, S_rows), p) == 0
    assert pfaffian_expansion(SkewMatrix(0, 0, ()), p) == 1


def test_modular_engines_with_denominators_divisible_by_p():
    # the row scales vanish mod p, so every value's residue denominator is 0;
    # the residues are still the images of the exact values
    p = P
    rng = random.Random(14)
    M = Matrix.build(4, 4, lambda i, j: F(rng.randint(1, 9), p) if i == j else rand_fraction(rng))
    assert all(d.den == 0 for d in leading_minors(M, p))
    assert leading_minors(M, p) == leading_minors(M)
    assert det_fraction_free(M, p) == det_fraction_free(M)
    S = SkewMatrix.from_upper(4, lambda i, j: F(rng.randint(1, 9), p * (j - i)))
    assert pfaffian_expansion(S, p) == pfaffian_expansion(S)
    assert pfaffian_expansion(S, p) - pfaffian_expansion(S) == 0


# Every order of a nested skew family from one elimination.


@pytest.mark.parametrize("height", [2, 3, 40])
@pytest.mark.parametrize("seed", range(4))
def test_leading_pfaffians_match_pfaffian_expansion_of_each_leading_block(height, seed):
    rng = random.Random(200 * height + seed)
    p = trial_prime(seed)
    for n in range(0, 11, 2):
        S = SkewMatrix.from_upper(n, lambda i, j: degenerate_entry(rng, height))
        expected = [pfaffian_expansion(leading_block(S, k)) for k in range(2, n + 1, 2)]
        assert canon(leading_pfaffians(S)) == canon(expected)
        residues = leading_pfaffians(S, p)
        assert all(isinstance(pf, Residue) and pf.p == p for pf in residues)
        assert residues == expected


def counting(monkeypatch, name):
    """Count the calls a linalg routine makes to linalg.<name> (the fallbacks)."""
    real, calls = getattr(linalg, name), []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(linalg, name, counted)
    return calls


def test_leading_pfaffians_fall_back_after_an_exact_zero_pivot(monkeypatch):
    rng = random.Random(21)
    rows = to_lists(rand_skew(rng, 8))
    # the second pair's pivot, the Schur complement's (2, 3) entry, vanishes
    # exactly, and with it pf of the leading 4 block
    rows[2][3] = (rows[0][2] * rows[1][3] - rows[0][3] * rows[1][2]) / rows[0][1]
    rows[3][2] = -rows[2][3]
    S = from_rows(SkewMatrix, rows)
    expected = [pfaffian_matchings(leading_block(S, k)) for k in (2, 4, 6, 8)]
    assert expected[1] == 0 and all(pf != 0 for pf in expected[2:])
    calls = counting(monkeypatch, "pfaffian_expansion")
    assert canon(leading_pfaffians(S)) == canon(expected)
    assert [args[0].rows for args in calls] == [6, 8]
    calls.clear()
    assert leading_pfaffians(S, P) == expected
    assert [args[0].rows for args in calls] == [6, 8]


def test_leading_pfaffians_fall_back_after_a_pivot_divisible_by_p(monkeypatch):
    rng = random.Random(22)
    rows = to_lists(rand_skew(rng, 6))
    rows[0][1], rows[1][0] = F(P, 5), F(-P, 5)
    S = from_rows(SkewMatrix, rows)
    exact = [pfaffian_matchings(leading_block(S, k)) for k in (2, 4, 6)]
    assert all(pf != 0 for pf in exact)
    calls = counting(monkeypatch, "pfaffian_expansion")
    assert canon(leading_pfaffians(S)) == canon(exact)
    assert calls == []
    got = leading_pfaffians(S, P)
    assert got[0].num == 0 and got == exact
    assert [args[0].rows for args in calls] == [4, 6]


def test_leading_pfaffians_order_zero_and_odd_order():
    for p in (None, P):
        assert leading_pfaffians(SkewMatrix(0, 0, ()), p) == []
        with pytest.raises(OddOrder):
            leading_pfaffians(SkewMatrix.from_upper(3, lambda i, j: F(1)), p)
        with pytest.raises(NonSquare):
            leading_pfaffians(Matrix.build(2, 4, lambda i, j: F(1)), p)


def even_minors(S, p=None):
    minors = leading_minors(pair_swapped(S), p)
    return [-d if k % 2 else d for k, d in enumerate(minors[1::2], 1)]


@pytest.mark.parametrize("height", [2, 3, 40])
@pytest.mark.parametrize("seed", range(4))
def test_pair_swapped_even_minors_match_det_of_each_leading_block(height, seed):
    rng = random.Random(300 * height + seed)
    p = trial_prime(seed)
    for n in range(0, 11, 2):
        S = SkewMatrix.from_upper(n, lambda i, j: degenerate_entry(rng, height))
        expected = [det_fraction_free(leading_block(S, k)) for k in range(2, n + 1, 2)]
        assert canon(even_minors(S)) == canon(expected)
        assert even_minors(S, p) == expected


def test_pair_swapped_even_minors_past_a_vanishing_odd_minor(monkeypatch):
    rng = random.Random(23)
    rows = to_lists(rand_skew(rng, 8))
    # makes pf of the leading 4 block vanish, and with it the order-3 leading
    # minor of the pair-swapped matrix
    rows[2][3] = (rows[0][2] * rows[1][3] - rows[0][3] * rows[1][2]) / rows[0][1]
    rows[3][2] = -rows[2][3]
    S = from_rows(SkewMatrix, rows)
    swapped = leading_minors(pair_swapped(S))
    assert swapped[1] != 0 and swapped[2] == 0
    expected = [det_fraction_free(leading_block(S, k)) for k in (2, 4, 6, 8)]
    assert expected[1] == 0 and all(d != 0 for d in expected[2:])
    calls = counting(monkeypatch, "det_fraction_free")
    assert canon(even_minors(S)) == canon(expected)
    assert [args[0].rows for args in calls] == [4, 5, 6, 7, 8]
    assert even_minors(S, P) == expected


def test_pair_swapped_rows_and_errors():
    M = Matrix.build(4, 3, lambda i, j: F(10 * i + j))
    assert to_lists(pair_swapped(M)) == [list(M.row(i ^ 1)) for i in range(4)]
    assert pair_swapped(Matrix(0, 0, ())).entries == ()
    with pytest.raises(OddOrder):
        pair_swapped(Matrix.build(3, 3, lambda i, j: F(1)))


# Row scales mod p: the product of a row's denominators, from prefix and
# suffix products, against rows scaled by the lcm of their denominators.


def lcm_scaled_minors(M, p):
    """The swap-free pass on rows scaled by the lcm of their denominators and
    reduced mod p: the leading minors up to its first zero pivot."""
    rows, scales = [], []
    for i in range(M.rows):
        row, s = _common_denominator(M.row(i))
        rows.append([v % p for v in row])
        scales.append(s)
    out, scale = [], 1
    for s, (pivot, unit) in zip(scales, linalg._bareiss(rows, pivoting=False, p=p)):
        scale *= s
        out.append(Residue(pivot, scale * unit, p))
    return out


def test_product_row_scales_match_lcm_scales_mod_a_small_prime():
    # mod 7 many pivots vanish though the exact minors do not, so the
    # swap-free passes fall back; with every denominator prime to 7 no scale
    # vanishes, and each value must equal the exact one as a rational
    p = 7
    rng = random.Random(7)

    def entry():
        return F(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 5, 6, 8, 9)))

    def as_residue(x):
        k = rng.choice((1, 2, 3, 5, 11))  # an unreduced pair
        return Residue(x.numerator * k, x.denominator * k, p)

    fell_back = 0
    for n in range(9):
        for _ in range(8):
            M = Matrix.build(n, n, lambda i, j: entry())
            exact = leading_minors(M)
            got = leading_minors(M, p)
            assert got == exact
            assert got[: len(lcm_scaled_minors(M, p))] == lcm_scaled_minors(M, p)
            assert det_fraction_free(M, p) == det_fraction_free(M)
            fell_back += any(d.num == 0 and e != 0 for d, e in zip(got, exact))
            # Residue entries, and rows mixing both kinds, read the same pairs
            R = Matrix(n, n, tuple([as_residue(x) if rng.random() < 0.7 else x for x in M.entries]))
            assert leading_minors(R, p) == exact
            if n % 2 == 0:
                S = SkewMatrix.from_upper(n, lambda i, j: entry())
                T = SkewMatrix.from_upper(n, lambda i, j: as_residue(S[i, j]))
                for skew in (S, T):
                    assert pfaffian_expansion(skew, p) == pfaffian_expansion(S)
                    assert leading_pfaffians(skew, p) == leading_pfaffians(S)
    assert fell_back > 10


# The oracles mod p: each keeps its own algorithm and its whole-matrix
# scaling, now the product of all entry denominators, and returns the
# residue of its exact value.


@pytest.mark.parametrize("height", [2, 3, 40])
@pytest.mark.parametrize("seed", range(4))
def test_modular_oracles_are_the_exact_values_mod_p(height, seed):
    rng = random.Random(300 * height + seed)
    p = trial_prime(seed)
    for n in range(1, 9):
        M = Matrix.build(n, n, lambda i, j: degenerate_entry(rng, height))
        cofactor = det_cofactor(M, p)
        assert isinstance(cofactor, Residue) and cofactor.p == p
        assert cofactor == det_cofactor(M)
        exact, modular = det_condensation(M), det_condensation(M, p)
        # an interior entry that vanishes exactly vanishes mod p too, so every
        # order the exact pass leaves out is left out
        assert len(modular) <= len(exact)
        assert all(isinstance(d, Residue) and d.p == p for d in modular)
        assert modular == exact[: len(modular)]
        if n % 2 == 0:
            S = SkewMatrix.from_upper(n, lambda i, j: degenerate_entry(rng, height))
            pf = pfaffian_matchings(S, p)
            assert isinstance(pf, Residue) and pf.p == p
            assert pf == pfaffian_matchings(S)


def test_modular_condensation_leaves_out_orders_past_an_interior_entry_divisible_by_p():
    # mod 7 interior minors vanish where the exact ones do not: those orders
    # are left out as at an exact zero, and every order kept is the residue
    # of the exact minor; no denominator is divisible by 7, so no scale
    # vanishes
    p = 7
    rng = random.Random(8)
    fewer = 0
    for n in range(1, 9):
        for _ in range(10):
            M = Matrix.build(
                n, n, lambda i, j: F(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 5, 6, 8, 9)))
            )
            exact, modular = det_condensation(M), det_condensation(M, p)
            assert len(modular) <= len(exact)
            assert modular == exact[: len(modular)]
            fewer += len(modular) < len(exact)
            assert det_cofactor(M, p) == det_cofactor(M)
    assert fewer > 10
