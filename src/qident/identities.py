"""Identity builders and the exact-verification check registry.

Every identity is packaged as an IdentityCheck: parameter names, per-check
default sizes, and a procedure returning residuals (Scalar, Residue,
TruncatedSeries or SeriesResidue) that must all be exactly zero; run_check
reads is_zero() of each residual that has one and compares the rest with
0.  run_check samples one random rational point per trial, resampling
deterministically when a point hits a pole of the identity under test; a
nonzero residual is a failure and its seed is the reproduction witness.

The six-term coefficients of the quadratic formula are the terms of the
Cauchy products it compares: main_quadratic_factors returns the two
basic hypergeometric series of each product, and the six-term checks read
every coefficient from them.  The series checks read all their (r, s)
shapes at a point from one base, by one generator, _extended_shapes: the
first shape's series by phi_series, each later one's by termwise products
with two extension multipliers.  Each family (_quadratic_shapes,
_specialization_shapes, _contiguous_shapes) only lists its base and
assembles its output; a one-shape call is its own base.  main_quadratic,
quadratic_specialization and contiguous_relation build their series, and
each residual series, mod the trial point's prime pt.prime
(scalar.ParamPoint.prime), as SeriesResidues: at order 60 the exact
numerators reach 51,000 bits, and mod p none reaches p^2.  Poles are still
decided on the exact term ratios.  The six-term checks stay exact:
six_term_factorization divides by its prefactors, which a residue cannot
do without an inverse, and the sums and pairs, which read one coefficient
at a time, gained nothing mod p at n_max 5.  Every closed form here (the six-term factors
G_k and Xi, D_n and the Gram, Hankel, Mehta-Wang and Pfaffian products, the
q-Watson sum and the contiguous prefactor) comes from the kernel
scalar._closed_forms.  The matrix checks read the closed forms of every
order at a point from one pass of it (_det_prefactors, _hankel_forms,
_mehta_wang_forms, _pfaffian_forms, _integer_exp_pfaffians), and each
public rhs_* or prefactor of order n reads entry n of the same pass; the
six-term factors, the q-Watson sum and the contiguous prefactor are
one-order calls, scalar._closed_form.  The matrix builders read their
Pochhammer products from integer prefix tables
(scalar._qpoch_multi_prefix), their ratios from
scalar._ratio_table and other integer pairs from scalar._pair, and form each
entry from unreduced integer products as one scalar._ratio: a canonical
Fraction, or, given a `prime`, its Residue with no gcd, from tables taken
mod p whose entries are still formed exactly.  Builders and closed
forms divide only by the table entries they read, so a zero elsewhere in a
table is no pole, and poles are decided on the exact entries either way: a
Residue is built only from an exact denominator that is nonzero.  The
Mehta-Wang matrix and the skew matrices share one entry, (q^i - c q^j)
h_(i+j), with c = 1 for the skew ones.

The determinant and Pfaffian checks run their engines mod the same prime
pt.prime, drawn from the trial point's seed.  They take the closed forms
they compare mod the same prime (every rhs_* and prefactor takes an
optional `prime`), and bordered_det and gram_det read p_1, ..., p_n mod it
from one askey_wilson._aw_polys pass and multiply each into its prefactor.
Seven build their matrices mod it too: bordered_det, gram_det,
gram_to_bordered, little_qjacobi_hankel, mehta_wang_det, even_order_det and
pfaffian_integer_exp.  bordered_det runs all three determinant engines on
its matrix mod p: Bareiss elimination, and the condensation and cofactor
oracles, each with its own algorithm and whole-matrix scaling, so a fault
in the engine's row scaling still shows.  pfaffian_eval runs its engines
and its matchings oracle mod p on an exact matrix.  Its exact
build_even_det stays for one reason only: the benchmark's traced-counts
test needs the build group's max_bits above 0 on its small plan, and
pfaffian_eval is the only exact builder there.  The engine cross-checks
keep exact matrices and compare each modular engine with the exact one.
gram_to_bordered forms its entry residuals and determinant scaling from the
residues of its entries.  Their residuals are then scalar.Residues, which
read 0 exactly when the prime divides the exact residual's numerator; a
builder or closed form still raises PoleError only where its exact value
would.  Two public closed forms are still called exactly, once per point,
at the top order only: rhs_hankel in little_qjacobi_hankel and rhs_pfaffian
in pfaffian_eval; their lower orders come from one pass mod p of
_hankel_forms and _pfaffian_forms.  The benchmark's tests replace
rhs_hankel and rhs_pfaffian with stand-ins that take the exact arguments
only, and those must fail on a residual, not on a TypeError.  The matrix
families are nested, entry (i, j) independent of the order, so each builds
its matrix once at the top order and reads every order from one
elimination: leading_minors for the determinants, leading_pfaffians for the
Pfaffians, and leading_minors of the pair-swapped skew matrix for the
even-order determinants.  gamma_pfaffian's matrix has int entries
(j - i) (a+i+j-1)!, which its engines and oracle read with no Fraction.

The four moment checks, moment_double_sum, moment_symmetry, basis_moments
and orthogonality, take their values mod the same pt.prime: the lattice
weights of Thm 4.3, the basis moments, the double sums, the peel of
moment_double_sum, the weighted sums and the norm ratios are Residues, and
orthogonality reads its node values p_m(b_j) from _aw_polys mod p, with one
prefactor table for every node.  The lattice nodes, the basis polynomials
and (t + x)^n stay exact, so every node collision and every pole is decided
on exact integers, as on the exact route.  basis_moments' first residual,
L((az, a/z; q)_1) against its product formula, stays a Fraction.
"""

from __future__ import annotations

import math
import time
import zlib
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import islice
from typing import Callable, Iterator, Sequence

from .askey_wilson import (
    AWParams,
    DegenerateLattice,
    DuplicateNodes,
    PolynomialInX,
    XPoint,
    _aw_norm_ratios,
    _aw_polys,
    _aw_prefactors,
    _basis_moments,
    _connection_table,
    _peel_functional,
    _weighted_sum,
    aw_leading_coeff,
    aw_moment,
    aw_moments,
    basis_moment,
    moment_weights,
    newton_coeffs,
    newton_lattice_coeffs,
    newton_to_monomial,
    pochhammer_basis_polys,
    poly_x_plus,
)
from .linalg import (
    COFACTOR_CAP,
    MATCHINGS_CAP,
    Matrix,
    SkewMatrix,
    desnanot_jacobi_residual,
    det_cofactor,
    det_condensation,
    det_fraction_free,
    leading_minors,
    leading_pfaffians,
    pair_swapped,
    pfaffian_expansion,
    pfaffian_matchings,
)
from .scalar import (
    DEFAULT_HEIGHT,
    DomainError,
    ParamPoint,
    PoleError,
    Residue,
    SamplingExhausted,
    Scalar,
    _closed_form,
    _closed_forms,
    _common_denominator,
    _over_one_denominator,
    _pair,
    _qpoch_multi_prefix,
    _quotient,
    _ratio,
    _ratio_table,
    qpoch,
    sample_point,
)
from .series import (
    HypergeometricSpec,
    SeriesResidue,
    TruncatedSeries,
    _sum_of_products,
    _terminating_sum,
    phi_series,
    phi_term,
    phi_terminating,
    series_linear_combine,
    term_multiplier,
    termwise_product,
)

# (r, s) parameter-vector shapes exercised for the main quadratic formula;
# covers both signs of s - r and the empty case.
RS_PAIRS = ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (2, 2))
# the shapes of the section 2 sums and pairs
SIX_TERM_SHAPES = ((0, 0), (1, 1), (2, 1))


@dataclass(frozen=True)
class Sizes:
    """Size knobs shared by all checks; each check reads the ones it needs."""

    n_max: int = 5
    m_max: int = 3
    order: int = 10
    height: int = DEFAULT_HEIGHT


@dataclass(frozen=True)
class IdentityCheck:
    id: str
    anchor: str
    param_names: tuple[str, ...]
    defaults: Sizes
    run: Callable[[ParamPoint, Sizes], list]
    note: str = ""


class EmptyResiduals(ValueError):
    """A trial returned no residual, so its pass could not have caught an error."""


@dataclass(frozen=True)
class CheckReport:
    id: str
    anchor: str
    trials: int
    failures: int
    witness_seeds: tuple[int, ...]
    millis: int


def _vector(pt: ParamPoint, prefix: str, count: int) -> tuple[Scalar, ...]:
    return tuple([pt[f"{prefix}{i}"] for i in range(1, count + 1)])


def _powers(x: Scalar, top: int) -> tuple[list[int], list[int]]:
    """Numerators and denominators of x^0, x^1, ..., x^top, as integer pairs."""
    xn, xd = _pair(x)
    return [xn**i for i in range(top + 1)], [xd**i for i in range(top + 1)]


# ---------------------------------------------------------------------------
# quadratic formula for products of basic hypergeometric series
# ---------------------------------------------------------------------------


def _six_term_specs(pt: ParamPoint, r: int, s: int) -> list[tuple]:
    """(prefactor, nums_k, nums_m, dens_k, dens_m) of A, B and C, in order.

    This is the one table of the three 4+4 parameter lists of the formula.
    The z^n coefficient of each prefactored product is
    prefactor * alpha * (nums_k;q)_k (nums_m;q)_m / ((dens_k;q)_k (dens_m;q)_m)
    with m = n - k.
    """
    a, b, c, d, q = pt.values("abcdq")
    bc = b * c
    table = (
        (
            (a - b) * (a - c) * (bc - d) * (1 - d),
            (bc / a, bc / q**2, c, d / q),
            (bc / a, bc, c, d * q),
            (q, a / q, b / q, bc / d),
            (q, a * q, b * q, bc / d),
        ),
        (
            (a - d) * (1 - b) * (1 - c) * (bc - a * d),
            (bc / a, bc / q**2, c / q, d),
            (bc / a, bc, c * q, d),
            (q, a / q, b, bc / (d * q)),
            (q, a * q, b, bc * q / d),
        ),
        (
            (1 - a) * (b - d) * (c - d) * (a - bc),
            (bc / (a * q), bc / q**2, c, d),
            (bc * q / a, bc, c, d),
            (q, a, b / q, bc / (d * q)),
            (q, a, b * q, bc * q / d),
        ),
    )
    es, fs = _vector(pt, "e", r), _vector(pt, "f", s)
    esq, fsq = _times(es, q), _times(fs, q)
    return [
        (pref, nums_k + es, nums_m + esq, dens_k + fs, dens_m + fsq)
        for pref, nums_k, nums_m, dens_k, dens_m in table
    ]


def _extended_shapes(
    pt: ParamPoint,
    names: tuple[str, str],
    shapes: Sequence[tuple[int, int]],
    base: Sequence[tuple[HypergeometricSpec, Scalar, bool]],
    order: int,
    prime: int | None = None,
) -> Iterator[list[TruncatedSeries | SeriesResidue]]:
    """The series of each (r, s) of `shapes` in turn, read from one base.

    `base` holds a (spec, argument, shifted) triple per series of the first
    shape (r0, s0), built by phi_series in that order.  A later shape, with
    r >= r0 and s >= s0, multiplies each base series termwise by Y if it is
    shifted and by X otherwise (series.term_multiplier), X built first: X
    from names[0]_(r0+1..r) over names[1]_(s0+1..s) at argument 1, and Y
    from the same parameters times q at argument q^((s-r) - (s0-r0)).

    Once the base has no pole, a shape's series has one exactly where its
    multiplier has, at the same term, and every caller's first series is not
    shifted, so the PoleError raised is the one the shape's own series, built
    in order, would raise first.  _contiguous_shapes forms its prefactor after
    a shape's series; at order >= 1 that cannot raise first, since its factor
    1 - B_i is X's first-term factor and its factors 1 - b and 1 - bq are read
    by the base's t2 and t1, and at order 0 it is the only value that can.
    """
    q = pt["q"]
    (r0, s0), *rest = shapes
    series = [phi_series(spec, argument, order, prime) for spec, argument, _ in base]
    yield series
    for r, s in rest:
        es, fs = _vector(pt, names[0], r)[r0:], _vector(pt, names[1], s)[s0:]
        x = term_multiplier(es, fs, q, Fraction(1), order, prime)
        y = term_multiplier(_times(es, q), _times(fs, q), q, q ** (s - r - s0 + r0), order, prime)
        yield [
            termwise_product(f, y if shifted else x, prime)
            for f, (*_, shifted) in zip(series, base)
        ]


def _quadratic_shapes(
    pt: ParamPoint, shapes: Sequence[tuple[int, int]], order: int, prime: int | None = None
) -> Iterator[list[tuple]]:
    """The (prefactor, F, G) of A, B and C, as main_quadratic_factors gives
    them, for each (r, s) of `shapes` in turn: the _extended_shapes of the
    e and f parameters, with base A's F, A's G, B's F, ... at the first
    shape (r0, s0), each G shifted, at argument q^(s0-r0)."""
    q = pt["q"]
    r0, s0 = shapes[0]
    specs = _six_term_specs(pt, r0, s0)
    base = []
    for _, nums_k, nums_m, dens_k, dens_m in specs:
        base.append((HypergeometricSpec(nums_k, dens_k[1:], q), Fraction(1), False))
        base.append((HypergeometricSpec(nums_m, dens_m[1:], q), q ** (s0 - r0), True))
    prefactors = [spec[0] for spec in specs]
    for series in _extended_shapes(pt, ("e", "f"), shapes, base, order, prime):
        yield list(zip(prefactors, series[::2], series[1::2]))


def _times(values: Sequence[Scalar], x: Scalar) -> tuple[Scalar, ...]:
    return tuple([v * x for v in values])


def main_quadratic_factors(
    pt: ParamPoint, r: int, s: int, order: int, prime: int | None = None
) -> list[tuple[Scalar, TruncatedSeries | SeriesResidue, TruncatedSeries | SeriesResidue]]:
    """(prefactor, F, G) of A, B and C: the two series (in z) of each
    prefactored product of the formula, not yet multiplied; F and G are
    SeriesResidues mod `prime` when one is given.

    The series denominators are the six-term ones without their leading q,
    because phi_series divides by (q;q)_k itself; G has argument q^(s-r) z.
    The (k, n) six-term coefficient of a product is
    (-1)^(s-r) prefactor F[k] G[n-k], the k-th term of its Cauchy product.
    This is the one-shape entry of _quadratic_shapes, whose base it is.
    """
    return next(_quadratic_shapes(pt, ((r, s),), order, prime))


def _quadratic_residual(factors: list[tuple], prime: int | None) -> TruncatedSeries | SeriesResidue:
    """LHS product - first RHS product + second RHS product of one shape."""
    return series_linear_combine(
        [(sign * pref, f, g) for sign, (pref, f, g) in zip((1, -1, 1), factors)], prime
    )


def check_main_quadratic(
    r: int, s: int, pt: ParamPoint, order: int, prime: int | None = None
) -> TruncatedSeries | SeriesResidue:
    """Residual series: LHS product - first RHS product + second RHS product,
    exact or mod `prime`."""
    return _quadratic_residual(main_quadratic_factors(pt, r, s, order, prime), prime)


def _six_term_numerators(factors: list[tuple], r: int, s: int) -> tuple[list[list[int]], int]:
    """Integers e_nk and L with A_k - B_k + C_k = e_nk / L, for k = 0..n+1 and
    n = 0..top, from the (prefactor, F, G) of shape (r, s) truncated at top.

    Each six-term coefficient is (-1)^(s-r) prefactor F[k] G[n-k], read from
    the integer numerators of F and G, so each excess is one integer sum over
    the three products' one denominator L; A_(n+1), B_(n+1), C_(n+1) are
    zero.  The series read every denominator up to `top`, so a zero one has
    raised PoleError when they were built.
    """
    sign = -1 if (s - r) % 2 else 1
    top = factors[0][1].order
    prefs = [(_pair(pref), f.den * g.den) for pref, f, g in factors]
    scales, lcm = _over_one_denominator([(sign * pn, pd * den) for (pn, pd), den in prefs])
    rows = [(scale, f.nums, g.nums) for scale, (_, f, g) in zip(scales, factors)]

    def excess(k: int, n: int) -> int:
        a, b, c = (scale * fn[k] * gn[n - k] for scale, fn, gn in rows)
        return a - b + c

    return [[excess(k, n) for k in range(n + 1)] + [0] for n in range(top + 1)], lcm


def _six_term_rows(pt: ParamPoint, top: int) -> Iterator[tuple[list[list[int]], int]]:
    """_six_term_numerators of each shape of SIX_TERM_SHAPES, up to `top`,
    from one _quadratic_shapes base."""
    for (r, s), factors in zip(SIX_TERM_SHAPES, _quadratic_shapes(pt, SIX_TERM_SHAPES, top)):
        yield _six_term_numerators(factors, r, s)


def _six_term_excesses(pt: ParamPoint, top: int, r: int, s: int) -> list[list[Scalar]]:
    """[[A_k - B_k + C_k for k = 0..n+1] for n = 0..top], one canonical
    Fraction each, from _six_term_numerators."""
    rows, lcm = _six_term_numerators(main_quadratic_factors(pt, r, s, top), r, s)
    return [[Fraction(e, lcm) for e in row] for row in rows]


def six_term_g(k: int, pt: ParamPoint, r: int, s: int) -> Scalar:
    """The k-dependent factor G_k of the six-term factorization."""
    a, b, c, d, q = pt["a"], pt["b"], pt["c"], pt["d"], pt["q"]
    es, fs = _vector(pt, "e", r), _vector(pt, "f", s)
    bc = b * c
    # (bc;q)_(k-2) is (bc;q)_(-1) = 1/(1 - bc/q) at k = 1, with a pole of its own
    return _closed_form(
        ((-1, k * (s - r)), (q, k * (k - 1) // 2 * (s - r)), (qpoch(bc, q, k - 2), 1)),
        (((q**k, bc * q ** (k - 2)), q, (1,)), ((bc / a, c, d), q, (k - 1,)), (es, q, (k,))),
        (((a, b, bc / d, q) + fs, q, (k,)),),
        "G_k denominator",
    )


def six_term_xi(n: int, pt: ParamPoint, r: int, s: int) -> Scalar:
    """The k-independent factor of the six-term factorization."""
    a, b, c, d, q = pt["a"], pt["b"], pt["c"], pt["d"], pt["q"]
    es, fs = _vector(pt, "e", r), _vector(pt, "f", s)
    bc = b * c
    return _closed_form(
        [(x, 1) for x in ((a - b), (a - c), (a - d), (b - d), (c - d), (a * d - bc))]
        + [(a * d * q**2, -1)],
        (((bc * q ** (n - 1), a, b, bc / d, bc / q**2, bc / q) + fs, q, (1,)),),
        (((a / q, b / q, bc / (d * q)) + es, q, (1,)),),
        "Xi denominator",
    )


def check_three_term_kernel(pt: ParamPoint) -> Scalar:
    """Residual of the ten-factor three-term polynomial identity behind the
    six-term cancellation; zero for all values of a,b,c,d,x,y,z."""
    a, b, c, d = pt["a"], pt["b"], pt["c"], pt["d"]
    x, y, z = pt["x"], pt["y"], pt["z"]
    bc = b * c
    t1 = (
        (a - b) * (a - c) * (d - x) * (bc - d * x)
        * (x - a * y) * (x - b * y) * (x - c * y)
        * (y - d * z) * (a * x - bc * y) * (d * y - bc * z)
    )
    t2 = (
        (a - d) * (b - x) * (c - x) * (a * d - bc)
        * (x - a * y) * (y - b * z) * (y - c * z)
        * (x - d * y) * (a * x - bc * y) * (d * x - bc * y)
    )
    t3 = (
        (b - d) * (c - d) * (a - x) * (a * x - bc)
        * (y - a * z) * (x - b * y) * (x - c * y)
        * (x - d * y) * (a * y - bc * z) * (d * x - bc * y)
    )
    rhs = (
        x * y
        * (a - b) * (a - c) * (a - d) * (b - d) * (c - d)
        * (1 - y) * (a * d - bc)
        * (x - bc * z) * (x**2 - bc * y) * (y**2 - x * z)
    )
    return t1 - t2 + t3 - rhs


def _specialization_shapes(
    pt: ParamPoint, rs: Sequence[int], order: int, prime: int | None = None
) -> Iterator[list[tuple]]:
    """The (signed prefactor, F, G) of the three products of the (r+1)phi(r)
    quadratic specialization, for each r of `rs` in turn: the
    _extended_shapes of the a and b parameters at shapes (r, r), with base
    t1, ..., t6 of check_quadratic_specialization at the first r, the
    second factor of each product shifted."""
    q = pt["q"]
    a0, a1, b1 = pt["a0"], pt["a1"], pt["b1"]
    r0 = rs[0]
    ta, tb = _vector(pt, "a", r0)[1:], _vector(pt, "b", r0)[1:]
    taq, tbq = _times(ta, q), _times(tb, q)
    lists = [
        ((a0 / q, a1) + ta, (b1 / q,) + tb), ((a0 * q, a1) + taq, (b1 * q,) + tbq),
        ((a0, a1) + ta, (b1,) + tb), ((a0, a1) + taq, (b1,) + tbq),
        ((a0, a1 / q) + ta, (b1 / q,) + tb), ((a0, a1 * q) + taq, (b1 * q,) + tbq),
    ]
    base = [
        (HypergeometricSpec(n, d, q), Fraction(1), i % 2 == 1) for i, (n, d) in enumerate(lists)
    ]
    prefactors = ((a0 - 1) * (a1 - b1), -(a0 - a1) * (1 - b1), (1 - a1) * (a0 - b1))
    for series in _extended_shapes(pt, ("a", "b"), [(r, r) for r in rs], base, order, prime):
        yield list(zip(prefactors, series[::2], series[1::2]))


def check_quadratic_specialization(
    r: int, pt: ParamPoint, order: int, prime: int | None = None
) -> TruncatedSeries | SeriesResidue:
    """Residual of the (r+1)phi(r) quadratic specialization, exact or mod `prime`.

    (a0-1)(a1-b1) F[a0/q, a1; b1/q] F[a0 q, a1, ^q; b1 q, ^q]
      = (a0-a1)(1-b1) F[a0, a1; b1] F[a0, a1, ^q; b1, ^q]
      - (1-a1)(a0-b1) F[a0, a1/q; b1/q] F[a0, a1 q, ^q; b1 q, ^q],

    where ^q marks the trailing parameters a2..ar / b2..br scaled by q in the
    second factor of each product, and every series has argument z.  Call
    the six series t1, ..., t6 in this order.  This is the one-r entry of
    _specialization_shapes.
    """
    return series_linear_combine(next(_specialization_shapes(pt, (r,), order, prime)), prime)


def aw_quadratic_residuals(n_max: int, p: AWParams, pt: XPoint) -> list[Scalar]:
    """Residuals of the degree-lowering quadratic relation for p_n under
    (a,b) -> (aq,bq) parameter promotion, n = 2..n_max.

    The four parameter sets' p_k come from one _aw_polys pass each.  At order
    n the relation first reads p_n of (a,b), then p_(n-1) of (aq,bq), (aq,b)
    and (a,bq); each pass is advanced to that degree in that order, so a
    pole raises what evaluating the relation term by term with aw_poly, n by
    n, raises first.
    """
    a, b, c, d, q = p.a, p.b, p.c, p.d, p.q
    abcd = p.abcd
    params = (p, replace(p, a=a * q, b=b * q), replace(p, a=a * q), replace(p, b=b * q))
    passes = [_aw_polys(x, pt, n_max) for x in params]
    values: list[list[Scalar]] = [[] for _ in params]
    out = []
    for n in range(2, n_max + 1):
        for top, got, more in zip((n, n - 1, n - 1, n - 1), values, passes):
            got.extend(islice(more, top + 1 - len(got)))
        v, v_ab, v_a, v_b = values
        lhs = a * b * (1 - q ** (n - 1)) * (1 - c * d * q ** (n - 2)) * v[n] * v_ab[n - 2]
        rhs1 = (1 - a * b * q ** (n - 1)) * (1 - abcd * q ** (n - 1)) * v[n - 1] * v_ab[n - 1]
        rhs2 = (1 - a * b) * (1 - abcd * q ** (2 * n - 2)) * v_a[n - 1] * v_b[n - 1]
        out.append(lhs - rhs1 + rhs2)
    return out


# ---------------------------------------------------------------------------
# determinant and Pfaffian families
# ---------------------------------------------------------------------------


def build_bordered_matrix(n: int, p: AWParams, pt: XPoint, prime: int | None = None) -> Matrix:
    """The n x n matrix whose determinant evaluates to D_n * p_n.

    Entry (row i = 0..n-1, column j = 1..n):
        (ab;q)_(i+j-1) (-b q^(j-1)) / (abcd;q)_(i+j)
        * [ c + d - 2x + (1-cd)(a q^i + b q^(j-1)) - ab(c + d - 2cd x) q^(i+j-1) ].

    The bracket's four coefficients share one denominator L, so with k = i+j-1
    its numerator over L q_d^k is an integer sum, and each entry is one
    scalar._ratio of integer products: a Fraction, or a Residue mod `prime`.
    """
    a, b, c, d, q = p.a, p.b, p.c, p.d, p.q
    x = pt.x
    # ratio k = (ab;q)_k / (abcd;q)_(k+1), read at every k = i+j-1 in 0..2n-2
    rn, rd = _ratio_table((a * b,), p.abcd, q, 2 * n - 2, "(abcd;q)_(i+j)", 1, prime)
    (k0, k1, k2, k3), L = _common_denominator(
        (c + d - 2 * x, (1 - c * d) * a, (1 - c * d) * b, a * b * (c + d - 2 * c * d * x))
    )
    qn, qd = _powers(q, 2 * n)
    bn, bd = _pair(b)
    entries = []
    for i in range(n):
        for j in range(n):  # column j+1: q^(j-1) above is q^j here
            k = i + j
            bracket = k0 * qd[k] + k1 * qn[i] * qd[j] + k2 * qn[j] * qd[i] - k3 * qn[k]
            entries.append(
                _ratio([-bn, qn[j], rn[k], bracket], [bd, qd[j], rd[k], L, qd[k]], prime)
            )
    return Matrix(n, n, tuple(entries))


def det_prefactor(n: int, p: AWParams, prime: int | None = None) -> Scalar | Residue:
    """D_n = a^(n(n-1)/2) b^(n(n+1)/2) q^(n(n-1)(2n-1)/6)
             prod_i (ab,cd,q;q)_i / (abcd;q)_(n+i)."""
    return next(_det_prefactors((n,), p, 1, (), prime))


def _det_prefactors(
    orders: Sequence[int], p: AWParams, sign: int, extra: tuple[Scalar, ...], prime: int | None
) -> Iterator[Scalar | Residue]:
    """sign^n D_n prod_i (extra;q)_i, D_n with more bases in its numerator,
    at each order n of `orders`, from one _closed_forms pass."""
    a, b, q = p.a, p.b, p.q
    bases, abcd = (a * b, p.c * p.d, q) + extra, (p.abcd,)
    return _closed_forms(
        orders,
        lambda n: (
            ((sign, n), (a, n * (n - 1) // 2), (b, n * (n + 1) // 2),
             (q, n * (n - 1) * (2 * n - 1) // 6)),
            ((bases, q, range(n)),),
            ((abcd, q, range(n, 2 * n)),),
        ),
        "(abcd;q)_(n+i)",
        prime,
    )


def rhs_det_formula(
    n: int, p: AWParams, p_n: Scalar | Residue, prime: int | None = None
) -> Scalar | Residue:
    """Closed form D_n(a,b) * p_n(x; a,b,c,d; q), given the value p_n."""
    return det_prefactor(n, p, prime) * p_n


def _decoration_bases(p: AWParams) -> tuple[Scalar, ...]:
    """(ac, ad, bc, bd): the bases of the row and column decorations."""
    a, b, c, d = p.a, p.b, p.c, p.d
    return a * c, a * d, b * c, b * d


def _decorations(
    n: int, p: AWParams, prime: int | None = None
) -> tuple[tuple[list[int], list[int]], ...]:
    """Row factors (ac,ad;q)_i and column factors (bc,bd;q)_j, for i, j = 0..n,
    as integer pairs, taken mod `prime` when one is given.

    They turn the plain Hankel entries into the Gram and decorated Hankel ones.
    """
    a, b, c, d, q = p.a, p.b, p.c, p.d, p.q
    return (
        _qpoch_multi_prefix((a * c, a * d), q, n, prime),
        _qpoch_multi_prefix((b * c, b * d), q, n, prime),
    )


def _decoration_det(n: int, row: tuple, col: tuple, prime: int | None = None) -> Scalar | Residue:
    """prod_(i<n) (ac,ad,bc,bd;q)_i, the factor the decorations put on an order-n det."""
    return _ratio(row[0][:n] + col[0][:n], row[1][:n] + col[1][:n], prime)


def _decorated_hankel(
    rows: int, cols: int, p: AWParams, prime: int | None
) -> list[Scalar | Residue]:
    """(ac,ad;q)_i (bc,bd;q)_j (ab;q)_(i+j) / (abcd;q)_(i+j), i < rows, j < cols,
    row-major; Residues mod `prime` when one is given."""
    hn, hd = _ratio_table(
        (p.a * p.b,), p.abcd, p.q, rows + cols - 2, "(abcd;q)_(i+j)", prime=prime
    )
    (rn, rd), (cn, cd) = _decorations(max(rows, cols), p, prime)
    return [
        _ratio([rn[i], cn[j], hn[i + j]], [rd[i], cd[j], hd[i + j]], prime)
        for i in range(rows)
        for j in range(cols)
    ]


def build_gram_matrix(n: int, p: AWParams, pt: XPoint, prime: int | None = None) -> Matrix:
    """(n+1) x (n+1) moment matrix bordered by the polynomial row, with
    Residue entries mod `prime` when one is given.

    Rows i = 0..n-1: entry (ac,ad;q)_i (bc,bd;q)_j (ab;q)_(i+j) / (abcd;q)_(i+j);
    last row: (bz, b/z; q)_j.
    """
    b, z = p.b, pt.z
    last = [
        _ratio([x], [y], prime) for x, y in zip(*_qpoch_multi_prefix((b * z, b / z), p.q, n, prime))
    ]
    return Matrix(n + 1, n + 1, tuple(_decorated_hankel(n, n + 1, p, prime) + last))


def _gram_dets(G: Matrix, prime: int | None = None) -> list:
    """det build_gram_matrix(n) for n = 1..N, read from G = build_gram_matrix(N),
    as Residues mod `prime` when one is given.

    Moved to the top, the polynomial row makes the Gram matrices nested: the
    order-n one is the leading (n+1) x (n+1) block, and moving its last row
    to the top multiplies its determinant by (-1)^n.
    """
    cut = (G.rows - 1) * G.cols
    lifted = Matrix(G.rows, G.cols, G.entries[cut:] + G.entries[:cut])
    return [-d if n % 2 else d for n, d in enumerate(leading_minors(lifted, prime)) if n]


def gram_prefactor(n: int, p: AWParams, prime: int | None = None) -> Scalar | Residue:
    """C = (-1)^n a^(n(n-1)/2) b^(n(n+1)/2) q^(n(n-1)(2n-1)/6)
           prod_i (ab,ac,ad,bc,bd,cd,q;q)_i / (abcd;q)_(n+i),
    that is (-1)^n D_n prod_i (ac,ad,bc,bd;q)_i."""
    return next(_det_prefactors((n,), p, -1, _decoration_bases(p), prime))


def rhs_gram_formula(
    n: int, p: AWParams, p_n: Scalar | Residue, prime: int | None = None
) -> Scalar | Residue:
    """Closed form C * p_n(x; a,b,c,d; q), given the value p_n."""
    return gram_prefactor(n, p, prime) * p_n


def gram_elimination_residuals(
    n_max: int, p: AWParams, pt: XPoint, prime: int | None = None
) -> list:
    """Column elimination turning the moment matrix into the bordered one,
    at each order n = 1..n_max in turn.

    At order n, subtracting (1 - 2bx q^(j-1) + b^2 q^(2j-2)) times column j-1
    from column j (j = n..1) must zero the last row except its first entry
    and produce (ac,ad;q)_i (bc,bd;q)_(j-1) B[i,j] elsewhere; the determinant
    consequence det A = (-1)^n prod_i (ac,ad,bc,bd;q)_i * det B is checked as
    well.  No entry residual depends on n, so each is computed once from the
    order-n_max matrices and listed again at every order that contains it;
    the determinants of all orders come from one elimination per matrix.
    When `prime` is given, every residual is a Residue mod `prime`: both
    matrices are built mod p, the eliminations run mod p, and the entry
    residuals and the determinant scaling are formed from those residues.
    """
    b, q, x = p.b, p.q, pt.x
    top = max(n_max, 0)
    A = build_gram_matrix(top, p, pt, prime)
    B = build_bordered_matrix(top, p, pt, prime)
    row, col = _decorations(top, p, prime)
    (rn, rd), (cn, cd) = row, col
    ea, eb = A.entries, B.entries  # row-major: A is (top+1) x (top+1), B is top x top
    w = top + 1
    columns = []  # column j's residuals: moment rows i < top, then the polynomial row
    for j in range(1, w):
        mult = 1 - 2 * b * x * q ** (j - 1) + b**2 * q ** (2 * j - 2)
        combined = [ea[i * w + j] - mult * ea[i * w + j - 1] for i in range(w)]
        moments = [
            combined[i]
            - _ratio([rn[i], cn[j - 1]], [rd[i], cd[j - 1]], prime) * eb[i * top + j - 1]
            for i in range(top)
        ]
        columns.append((moments, combined[top]))
    out: list[Scalar] = []
    for n, (det_a, det_b) in enumerate(zip(_gram_dets(A, prime), leading_minors(B, prime)), 1):
        for moments, last in columns[:n]:
            out += moments[:n]
            out.append(last)
        scaling = _decoration_det(n, row, col, prime)
        out.append(det_a - (-scaling if n % 2 else scaling) * det_b)
    return out


def build_hankel_little_qjacobi(n: int, p: AWParams, prime: int | None = None) -> Matrix:
    """n x n Hankel matrix of little q-Jacobi type: (ab;q)_(i+j)/(abcd;q)_(i+j),
    with Residue entries mod `prime` when one is given."""
    table = _ratio_table((p.a * p.b,), p.abcd, p.q, 2 * n - 2, "(abcd;q)_(i+j)", prime=prime)
    hankel = [_ratio([x], [y], prime) for x, y in zip(*table)]
    return Matrix(n, n, tuple([hankel[i + j] for i in range(n) for j in range(n)]))


def rhs_hankel(n: int, p: AWParams, prime: int | None = None) -> Scalar | Residue:
    """(ab)^(n(n-1)/2) q^(n(n-1)(n-2)/3) prod_k (q,ab,cd;q)_k / (abcd;q)_(k+n-1)."""
    return next(_hankel_forms((n,), p, (), prime))


def _hankel_forms(
    orders: Sequence[int], p: AWParams, extra: tuple[Scalar, ...], prime: int | None
) -> Iterator[Scalar | Residue]:
    """rhs_hankel prod_k (extra;q)_k, the Hankel closed form with more bases
    in its numerator, at each order n of `orders`, from one _closed_forms pass."""
    q = p.q
    ab = p.a * p.b
    bases, abcd = (q, ab, p.c * p.d) + extra, (p.abcd,)
    return _closed_forms(
        orders,
        lambda n: (
            ((ab, n * (n - 1) // 2), (q, n * (n - 1) * (n - 2) // 3)),
            ((bases, q, range(n)),),
            ((abcd, q, range(n - 1, 2 * n - 1)),),
        ),
        "(abcd;q)_(k+n-1)",
        prime,
    )


def build_hankel_decorated(n: int, p: AWParams, prime: int | None = None) -> Matrix:
    """Hankel matrix with row factors (ac,ad;q)_i and column factors (bc,bd;q)_j,
    with Residue entries mod `prime` when one is given."""
    return Matrix(n, n, tuple(_decorated_hankel(n, n, p, prime)))


def rhs_hankel_decorated(n: int, p: AWParams, prime: int | None = None) -> Scalar | Residue:
    """Decorated closed form: plain closed form times prod_j (ac,ad,bc,bd;q)_j."""
    return next(_hankel_forms((n,), p, _decoration_bases(p), prime))


def mehta_wang_params(pt: ParamPoint) -> tuple[Scalar, Scalar, Scalar, Scalar, Scalar, Scalar]:
    """(a, b, c, u, v, q) with b = v^2 and c = u^2/(aq).

    u, v are free rationals standing for the square roots (acq)^(1/2) and
    (abcq)^(1/2)/u, which rationalises the closed form.
    """
    a, u, v, q = pt["a"], pt["u"], pt["v"], pt["q"]
    return a, v**2, u**2 / (a * q), u, v, q


def build_mehta_wang_matrix(n: int, pt: ParamPoint, prime: int | None = None) -> Matrix:
    """n x n matrix (q^(i-1) - c q^(j-1)) (aq;q)_(i+j-2) / (abq^2;q)_(i+j-2),
    with Residue entries mod `prime` when one is given."""
    a, b, c, _, _, q = mehta_wang_params(pt)
    table = _ratio_table((a * q,), a * b * q**2, q, 2 * n - 2, "(abq^2;q)_(i+j-2)", prime=prime)
    entry = _q_difference_hankel(c, q, *table, prime)
    return Matrix(n, n, tuple([entry(i, j) for i in range(n) for j in range(n)]))


def _q_difference_hankel(
    c: Scalar, q: Scalar, hn: list[int], hd: list[int], prime: int | None
) -> Callable[[int, int], Scalar | Residue]:
    """Entry (i, j) -> (q^i - c q^j) h_(i+j), 0-based, for h_k = hn[k]/hd[k],
    as a Residue mod `prime` when one is given.

    The Mehta-Wang matrix and, with c = 1, the skew matrices share this
    entry; each caller reads its ratio table h over its own range, and
    i + j stays inside it.
    """
    qn, qd = _powers(q, len(hn))
    cn, cd = _pair(c)
    return lambda i, j: _ratio(
        [qn[i] * qd[j] * cd - cn * qn[j] * qd[i], hn[i + j]], [qd[i + j], cd, hd[i + j]], prime
    )


def rhs_mehta_wang(n: int, pt: ParamPoint, prime: int | None = None) -> Scalar | Residue:
    """Closed form: prefactor times a terminating balanced 4phi3.

    (-1)^n a^(n(n-3)/2) q^(n(n+1)(2n-5)/6) (u^2 v^2; q^2)_n
    prod_k (q;q)_(k-1) (aq;q)_k (bq;q)_(k-2) / (abq^2;q)_(k+n-2)
    * 4phi3[ q^-n, ab q^n, u, -u ; aq, uv, -uv ; q, q ].
    """
    return next(_mehta_wang_forms((n,), pt, prime))


def _mehta_wang_forms(
    orders: Sequence[int], pt: ParamPoint, prime: int | None
) -> Iterator[Scalar | Residue]:
    """rhs_mehta_wang at each order n of `orders` in turn: the prefactors from
    one _closed_forms pass, each 4phi3 one series._terminating_sum over the
    integer pairs of a, b, u, v and q, made one scalar._ratio."""
    a, b, _, u, v, q = mehta_wang_params(pt)
    squares, aq, bq, abq2 = (u**2 * v**2,), (a * q,), (b * q,), (a * b * q**2,)
    # (bq;q)_(k-2) at k = 1 is (bq;q)_(-1) = 1/(1-b), with a pole of its own
    # at b = 1, raised before any (abq^2;q) pole: formed once, before the
    # first order, when some order n >= 1 reads it
    lift = [(qpoch(b * q, q, -1), 1)] if any(orders) else []

    def form(n: int):
        powers = [(-1, n), (a, n * (n - 3) // 2), (q, n * (n + 1) * (2 * n - 5) // 6)]
        ks = range(1, n + 1)
        nums = (
            (squares, q**2, (n,)),
            ((q,), q, [k - 1 for k in ks]),
            (aq, q, ks),
            (bq, q, [k - 2 for k in ks[1:]]),
        )
        return powers + lift if n else powers, nums, ((abq2, q, [k + n - 2 for k in ks]),)

    (an, ad), (bn, bd), (un, ud), (vn, vd), (qn, qd) = map(_pair, (a, b, u, v, q))
    uv = (un * vn, ud * vd)
    # the 4phi3[q^-n, ab q^n, u, -u; aq, uv, -uv; q, q], q the first denominator
    dens = ((qn, qd), (an * qn, ad * qd), uv, (-uv[0], uv[1]))
    prefactors = _closed_forms(orders, form, "(abq^2;q)_(k+n-2)", prime)
    for n, pref in zip(orders, prefactors):
        nums = ((qd**n, qn**n), (an * bn * qn**n, ad * bd * qd**n), (un, ud), (-un, ud))
        num, den = _terminating_sum((nums, dens, (qn, qd)), (qn, qd), n, prime)
        yield pref * _ratio([num], [den], prime)


def build_even_det(
    m: int, a: Scalar, b: Scalar, q: Scalar, prime: int | None = None
) -> SkewMatrix:
    """2m x 2m skew matrix (q^(i-1) - q^(j-1)) (aq;q)_(i+j-2) / (abq^2;q)_(i+j-2),
    with Residue entries mod `prime` when one is given."""

    # the strict upper triangle reads i+j-2 = 1..4m-3 only, so a vanishing
    # (abq^2;q)_(4m-2) is no pole of this matrix
    hn, hd = _ratio_table((a * q,), a * b * q**2, q, 4 * m - 3, "(abq^2;q)_(i+j-2)", prime=prime)
    return SkewMatrix.from_upper(2 * m, _q_difference_hankel(1, q, hn, hd, prime))


def rhs_pfaffian(
    m: int, a: Scalar, b: Scalar, q: Scalar, prime: int | None = None
) -> Scalar | Residue:
    """a^(m(m-1)) q^(m(m-1)(4m+1)/3) prod_k (q,aq;q)_(2k-1)(bq;q)_(2k-2)
       / (abq^2;q)_(2(k+m)-3); the even-order determinant is its square."""
    return next(_pfaffian_forms((m,), a, b, q, prime))


def _pfaffian_forms(
    orders: Sequence[int], a: Scalar, b: Scalar, q: Scalar, prime: int | None
) -> Iterator[Scalar | Residue]:
    """rhs_pfaffian at each order m of `orders`, from one _closed_forms pass."""
    qaq, bq, abq2 = (q, a * q), (b * q,), (a * b * q**2,)
    return _closed_forms(
        orders,
        lambda m: (
            ((a, m * (m - 1)), (q, m * (m - 1) * (4 * m + 1) // 3)),
            ((qaq, q, range(1, 2 * m, 2)), (bq, q, range(0, 2 * m - 1, 2))),
            ((abq2, q, range(2 * m - 1, 4 * m - 2, 2)),),
        ),
        "(abq^2;q)_(2(k+m)-3)",
        prime,
    )


def rhs_even_det(
    m: int, a: Scalar, b: Scalar, q: Scalar, prime: int | None = None
) -> Scalar | Residue:
    """Closed form of the even-order determinant (the Pfaffian squared)."""
    return rhs_pfaffian(m, a, b, q, prime) ** 2


def build_integer_exp_pfaffian(
    m: int, alpha: int, q: Scalar, prime: int | None = None
) -> SkewMatrix:
    """2m x 2m skew matrix (q^i - q^j)(q^alpha; q)_(i+j), 0-based indices,
    with Residue entries mod `prime` when one is given."""
    table = _qpoch_multi_prefix((q**alpha,), q, 4 * m, prime)
    return SkewMatrix.from_upper(2 * m, _q_difference_hankel(1, q, *table, prime))


def rhs_integer_exp_pfaffian(
    m: int, alpha: int, q: Scalar, prime: int | None = None
) -> Scalar | Residue:
    """q^(m(m-1)(alpha-1) + m(m-1)(4m+1)/3) prod_k (q, q^alpha; q)_(2k-1)."""
    return next(_integer_exp_pfaffians((m,), alpha, q, prime))


def _integer_exp_pfaffians(
    orders: Sequence[int], alpha: int, q: Scalar, prime: int | None
) -> Iterator[Scalar | Residue]:
    """rhs_integer_exp_pfaffian at each order m of `orders`, from one
    _closed_forms pass."""
    bases = (q, q**alpha)
    return _closed_forms(
        orders,
        lambda m: (
            ((q, m * (m - 1) * (alpha - 1) + m * (m - 1) * (4 * m + 1) // 3),),
            ((bases, q, range(1, 2 * m, 2)),),
            (),
        ),
        prime=prime,
    )


def _even_minors(M: SkewMatrix, prime: int | None) -> list:
    """det of the leading 2k x 2k block of M for k = 1..n/2, from one
    leading_minors pass over pair_swapped(M), undoing its k row swaps."""
    minors = leading_minors(pair_swapped(M), prime)
    return [-d if k % 2 else d for k, d in enumerate(minors[1::2], 1)]


def check_gamma_pfaffian(m_max: int, a_int: int) -> list[list[Scalar]]:
    """Residuals of pf((j-i) Gamma(a+i+j))_[0..2m-1] = prod_k (2k-1)! Gamma(a+2k-1)
    at positive integer a, for each m = 1..m_max: pf by one exact elimination
    of the top-order matrix, and by matchings up to their cap."""
    if a_int < 1:
        raise DomainError("needs a positive integer argument")
    # int entries (j - i) (a+i+j-1)!: from_upper keeps them as ints
    M = SkewMatrix.from_upper(2 * m_max, lambda i, j: (j - i) * math.factorial(a_int + i + j - 1))
    out = []
    rhs = 1
    for m, pf in enumerate(leading_pfaffians(M), 1):
        rhs *= math.factorial(2 * m - 1) * math.factorial(a_int + 2 * m - 2)
        residuals = [pf - rhs]
        if 2 * m <= MATCHINGS_CAP:
            residuals.append(pfaffian_matchings(M.leading(2 * m)) - rhs)
        out.append(residuals)
    return out


def _qwatson_spec(n: int, a: Scalar, b: Scalar, q: Scalar) -> HypergeometricSpec:
    return HypergeometricSpec((q**-n, a**2 * q ** (n + 1), b, -b), (a * q, -a * q, b**2), q)


def check_andrews_watson(n: int, a: Scalar, b: Scalar, q: Scalar) -> Scalar:
    """Residual of the terminating q-Watson sum:

    4phi3[ q^-n, a^2 q^(n+1), b, -b ; aq, -aq, b^2 ; q, q ]
      = 0 for odd n, and b^n (q, a^2 q^2/b^2; q^2)_(n/2)
        / (a^2 q^2, b^2 q; q^2)_(n/2) for even n.

    The right side's pole ("closed-form denominator vanishes") is never
    raised: (a^2 q^2, b^2 q; q^2)_(n/2) = 0 makes (aq;q)_j, (-aq;q)_j or
    (b^2;q)_j vanish for some j <= n, so phi_terminating on the left raises
    "denominator Pochhammer vanishes at term k" first.
    """
    lhs = phi_terminating(_qwatson_spec(n, a, b, q), q, n)
    if n % 2:
        return lhs
    h = n // 2
    a2q2 = a**2 * q**2
    return lhs - _closed_form(
        ((b, n),),
        (((q, a2q2 / b**2), q**2, (h,)),),
        (((a2q2, b**2 * q), q**2, (h,)),),
        "closed-form denominator",
    )


# ---------------------------------------------------------------------------
# moments, contiguous relation, interpolation
# ---------------------------------------------------------------------------


def _contiguous_shapes(
    pt: ParamPoint, shapes: Sequence[tuple[int, int]], order: int, prime: int | None = None
) -> Iterator[tuple]:
    """(t1, t2, prefactor, t3) of check_contiguous for each (r, s) of `shapes`
    in turn: t1 = F[aq, A; bq, B; z], t2 = F[a, A; b, B; z] and
    t3 = F[aq, Aq; bq^2, Bq; q^(1+s-r) z], the _extended_shapes of A and B at
    lengths (r-1, s-1), t3 shifted; each prefactor is formed after its series."""
    q, a, b = pt["q"], pt["a"], pt["b"]
    r0, s0 = shapes[0]
    A, B = _vector(pt, "A", r0 - 1), _vector(pt, "B", s0 - 1)
    base = [
        (HypergeometricSpec((a * q,) + A, (b * q,) + B, q), Fraction(1), False),
        (HypergeometricSpec((a,) + A, (b,) + B, q), Fraction(1), False),
        (HypergeometricSpec((a * q,) + _times(A, q), (b * q**2,) + _times(B, q), q),
         q ** (1 + s0 - r0), True),
    ]
    lengths = [(r - 1, s - 1) for r, s in shapes]
    series = _extended_shapes(pt, ("A", "B"), lengths, base, order, prime)
    for (r, s), (t1, t2, t3) in zip(shapes, series):
        pref = _closed_form(
            ((-1, 1 + s - r), (a - b, 1)),
            ((_vector(pt, "A", r - 1), q, (1,)),),
            (((b, b * q) + _vector(pt, "B", s - 1), q, (1,)),),
            "prefactor denominator",
        )
        yield t1, t2, pref, t3


def _contiguous_residual(
    t1, t2, pref: Scalar, t3, prime: int | None
) -> TruncatedSeries | SeriesResidue:
    z = TruncatedSeries.from_integers([int(n == 1) for n in range(t1.order + 1)], 1)  # the series z
    return series_linear_combine([(1, t1), (-1, t2), (-pref, z, t3)], prime)


def check_contiguous(
    r: int, s: int, pt: ParamPoint, order: int, prime: int | None = None
) -> TruncatedSeries | SeriesResidue:
    """Residual of the contiguous relation

    F[aq, A; bq, B; z] - F[a, A; b, B; z]
      = (-1)^(1+s-r) z (a-b)/((1-b)(1-bq)) prod(1-A_i)/prod(1-B_i)
        * F[aq, Aq; bq^2, Bq; q^(1+s-r) z],

    where A, B are the trailing r-1 / s-1 parameters.  The residual is
    exact, or a SeriesResidue mod `prime` when one is given.  This is the
    one-shape entry of _contiguous_shapes.
    """
    return _contiguous_residual(*next(_contiguous_shapes(pt, ((r, s),), order, prime)), prime)


# ---------------------------------------------------------------------------
# check registry
# ---------------------------------------------------------------------------

_REGISTERED: list[IdentityCheck] = []


def _check(
    id: str, anchor: str, param_names: tuple[str, ...], defaults: Sizes, note: str = ""
) -> Callable:
    """Register the decorated run function as a check; REGISTRY keeps this order."""

    def register(run: Callable[[ParamPoint, Sizes], list]) -> Callable:
        _REGISTERED.append(IdentityCheck(id, anchor, param_names, defaults, run, note))
        return run

    return register


_ABCDQZ = ("a", "b", "c", "d", "q", "z")
_MAIN_NAMES = ("a", "b", "c", "d", "q", "e1", "e2", "f1", "f2")


def _aw_from(pt: ParamPoint) -> AWParams:
    return AWParams(pt["a"], pt["b"], pt["c"], pt["d"], pt["q"])


@_check("main_quadratic", "Thm 1.1 / Eq. (main)", _MAIN_NAMES, Sizes(order=10),
        note="(r,s) in " + str(RS_PAIRS))
def _run_main_quadratic(pt: ParamPoint, sizes: Sizes) -> list:
    shapes = _quadratic_shapes(pt, RS_PAIRS, sizes.order, pt.prime)
    return [_quadratic_residual(factors, pt.prime) for factors in shapes]


@_check("six_term_sums", "§2 / Eq. (eq:sums)", _MAIN_NAMES, Sizes(n_max=5))
def _run_six_term_sums(pt: ParamPoint, sizes: Sizes) -> list:
    out = []
    for rows, lcm in _six_term_rows(pt, sizes.n_max):
        out.extend(Fraction(sum(row), lcm) for row in rows)
    return out


@_check("six_term_pairs", "§2 / Eq. (eq:6terms)", _MAIN_NAMES, Sizes(n_max=5))
def _run_six_term_pairs(pt: ParamPoint, sizes: Sizes) -> list:
    out = []
    for rows, lcm in _six_term_rows(pt, sizes.n_max):
        for n, row in enumerate(rows):
            out.extend(Fraction(row[k] + row[n - k + 1], lcm) for k in range(n + 2))
    return out


@_check("six_term_factorization", "§2 / Eq. (eqkkare)", ("a", "b", "c", "d", "q", "e1", "f1"),
        Sizes(n_max=5), note="r = s = 1; 1 <= k <= n")
def _run_six_term_factorization(pt: ParamPoint, sizes: Sizes) -> list:
    r = s = 1
    q = pt["q"]
    top = max(2, sizes.n_max)
    g = {k: six_term_g(k, pt, r, s) for k in range(1, top + 1)}
    excesses = _six_term_excesses(pt, top, r, s)

    def pre(k: int, n: int) -> Scalar:
        """(q^(n-k+1) - q^k) G_k G_(n-k+1): the factorization says A_k - B_k + C_k
        equals this times Xi."""
        return (q ** (n - k + 1) - q**k) * g[k] * g[n - k + 1]

    out = []
    for n in range(1, sizes.n_max + 1):
        xi = six_term_xi(n, pt, r, s)
        out.extend(excesses[n][k] - pre(k, n) * xi for k in range(1, n + 1))
    # the k-independent factor extracted at two admissible k values agrees
    ks = [k for k in range(1, top + 1) if 2 * k != top + 1][:2]
    xi1, xi2 = (_quotient(excesses[top][k], pre(k, top), "prefactor") for k in ks)
    out.append(xi1 - xi2)
    out.append(xi1 - six_term_xi(top, pt, r, s))
    return out


@_check("three_term_kernel", "§2 / Eq. (eqkxyz)", ("a", "b", "c", "d", "x", "y", "z"), Sizes())
def _run_three_term_kernel(pt: ParamPoint, sizes: Sizes) -> list:
    return [check_three_term_kernel(pt)]


@_check("quadratic_specialization", "Cor. 1.2 / Eq. (eq:GZ)",
        ("q", "a0", "a1", "a2", "a3", "b1", "b2", "b3"), Sizes(order=10), note="r = 1..3")
def _run_quadratic_specialization(pt: ParamPoint, sizes: Sizes) -> list:
    shapes = _specialization_shapes(pt, (1, 2, 3), sizes.order, pt.prime)
    return [series_linear_combine(factors, pt.prime) for factors in shapes]


@_check("aw_quadratic", "Cor. 1.3 / Eq. (eq:conj)", _ABCDQZ, Sizes(n_max=6), note="n = 2..6")
def _run_aw_quadratic(pt: ParamPoint, sizes: Sizes) -> list:
    return aw_quadratic_residuals(max(sizes.n_max, 2), _aw_from(pt), XPoint(pt["z"]))


@_check("bordered_det", "Thm 3.1 / Eq. (eq:det)", _ABCDQZ, Sizes(n_max=5),
        note="all three det engines")
def _run_bordered_det(pt: ParamPoint, sizes: Sizes) -> list:
    p = _aw_from(pt)
    x = XPoint(pt["z"])
    top = sizes.n_max
    M = build_bordered_matrix(top, p, x, pt.prime)
    out = []
    condensed = det_condensation(M, pt.prime)
    polys = list(_aw_polys(p, x, top, prime=pt.prime))
    orders = range(1, top + 1)
    prefactors = _det_prefactors(orders, p, 1, (), pt.prime)
    for n, d_ff, pref in zip(orders, leading_minors(M, pt.prime), prefactors):
        out.append(d_ff - pref * polys[n])
        if n <= len(condensed):  # orders past a zero interior minor are left out
            out.append(condensed[n - 1] - d_ff)
        if n <= COFACTOR_CAP:  # the cofactor oracle refuses larger orders
            out.append(det_cofactor(M.leading(n), pt.prime) - d_ff)
    return out


@_check("mehta_wang_det", "Cor. 3.2 / Eq. (eq:ITZ1)", ("a", "u", "v", "q"), Sizes(n_max=5),
        note="b = v^2, c = u^2/(aq)")
def _run_mehta_wang(pt: ParamPoint, sizes: Sizes) -> list:
    dets = leading_minors(build_mehta_wang_matrix(sizes.n_max, pt, pt.prime), pt.prime)
    rhs = _mehta_wang_forms(range(1, sizes.n_max + 1), pt, pt.prime)
    return [d - value for d, value in zip(dets, rhs)]


@_check("even_order_det", "Cor. 3.3", ("a", "b", "q"), Sizes(m_max=3))
def _run_even_det(pt: ParamPoint, sizes: Sizes) -> list:
    a, b, q = pt["a"], pt["b"], pt["q"]
    dets = _even_minors(build_even_det(sizes.m_max, a, b, q, pt.prime), pt.prime)
    pfs = _pfaffian_forms(range(1, sizes.m_max + 1), a, b, q, pt.prime)
    return [d - pf**2 for d, pf in zip(dets, pfs)]


@_check("pfaffian_eval", "Cor. 3.4 / Eq. (eq:key1)", ("a", "b", "q"), Sizes(m_max=3),
        note="sign +1; pf^2 = det")
def _run_pfaffian(pt: ParamPoint, sizes: Sizes) -> list:
    a, b, q = pt["a"], pt["b"], pt["q"]
    top = sizes.m_max
    M = build_even_det(top, a, b, q)  # exact: see the module docstring
    orders = range(1, top + 1)
    # the lower orders from one pass mod p, the top one exactly
    forms = list(_pfaffian_forms(orders[:-1], a, b, q, pt.prime))
    forms += [rhs_pfaffian(top, a, b, q)] if top else []
    out = []
    for m, det, rhs in zip(orders, _even_minors(M, pt.prime), forms):
        block = M.leading(2 * m)
        pf = pfaffian_expansion(block, pt.prime)
        out.append(pf - rhs)
        if block.rows <= MATCHINGS_CAP:
            out.append(pfaffian_matchings(block, pt.prime) - rhs)
        out.append(pf**2 - det)
    return out


@_check("pfaffian_integer_exp", "Eq. (eq:key2)", ("q",), Sizes(m_max=3),
        note="integer exponents 1..4")
def _run_integer_exp_pfaffian(pt: ParamPoint, sizes: Sizes) -> list:
    q = pt["q"]
    alphas = range(1, 5)
    orders = range(1, sizes.m_max + 1)
    pfs = [
        leading_pfaffians(build_integer_exp_pfaffian(sizes.m_max, alpha, q, pt.prime), pt.prime)
        for alpha in alphas
    ]
    rhs = [list(_integer_exp_pfaffians(orders, alpha, q, pt.prime)) for alpha in alphas]
    # the two-parameter Pfaffian at b = 0, a = q^(alpha-1), for consistency
    at_b0 = [
        list(_pfaffian_forms(orders, q ** (alpha - 1), Fraction(0), q, pt.prime))
        for alpha in alphas
    ]
    out = []
    for m in orders:
        for pf, value, other in zip(pfs, rhs, at_b0):
            out.append(pf[m - 1] - value[m - 1])
            out.append(other[m - 1] - value[m - 1])
    return out


@_check("gamma_pfaffian", "Eq. (eq:CK)", (), Sizes(m_max=3), note="integer arguments 1..4")
def _run_gamma_pfaffian(pt: ParamPoint, sizes: Sizes) -> list:
    orders = [check_gamma_pfaffian(sizes.m_max, a) for a in range(1, 5)]
    return [residual for m in range(sizes.m_max) for per_a in orders for residual in per_a[m]]


@_check("andrews_qwatson", "§3 / Andrews' q-Watson sum", ("a", "b", "q"), Sizes(n_max=8))
def _run_andrews_watson(pt: ParamPoint, sizes: Sizes) -> list:
    """The q-Watson sum at n = 0..n_max, and phi_terminating at n_max against
    the oracle phi_term, whose denominators it has read already."""
    a, b, q = pt["a"], pt["b"], pt["q"]
    out = [check_andrews_watson(n, a, b, q) for n in range(sizes.n_max + 1)]
    n = sizes.n_max
    spec = _qwatson_spec(n, a, b, q)
    oracle = sum(phi_term(spec, k) * q**k for k in range(n + 1))
    return out + [phi_terminating(spec, q, n) - oracle]


@_check("gram_det", "Thm 4.1 / Eq. (Gramdet)", _ABCDQZ, Sizes(n_max=4))
def _run_gram_det(pt: ParamPoint, sizes: Sizes) -> list:
    p = _aw_from(pt)
    x = XPoint(pt["z"])
    dets = _gram_dets(build_gram_matrix(sizes.n_max, p, x, pt.prime), pt.prime)
    polys = list(_aw_polys(p, x, sizes.n_max, prime=pt.prime))
    orders = range(1, sizes.n_max + 1)
    prefactors = _det_prefactors(orders, p, -1, _decoration_bases(p), pt.prime)
    return [d - pref * polys[n] for n, d, pref in zip(orders, dets, prefactors)]


@_check("gram_to_bordered", "Prop. 4.2", _ABCDQZ, Sizes(n_max=4),
        note="entrywise column elimination")
def _run_gram_to_bordered(pt: ParamPoint, sizes: Sizes) -> list:
    return gram_elimination_residuals(sizes.n_max, _aw_from(pt), XPoint(pt["z"]), pt.prime)


@_check("little_qjacobi_hankel", "Eq. (littlejacobi) / (littlejacobibis)",
        ("a", "b", "c", "d", "q"), Sizes(n_max=5))
def _run_hankel(pt: ParamPoint, sizes: Sizes) -> list:
    p = _aw_from(pt)
    top = sizes.n_max
    matrices = (
        build_hankel_little_qjacobi(top, p, pt.prime),
        build_hankel_decorated(top, p, pt.prime),
    )
    orders = range(1, top + 1)
    minors = [leading_minors(M, pt.prime) for M in matrices]
    # the plain form's lower orders from one pass mod p, its top one exactly
    plain = list(_hankel_forms(orders[:-1], p, (), pt.prime))
    plain += [rhs_hankel(top, p)] if top else []
    decorated = _hankel_forms(orders, p, _decoration_bases(p), pt.prime)
    out = []
    for d, e, rhs, rhs_decorated in zip(*minors, plain, decorated):
        out.append(d - rhs)
        out.append(e - rhs_decorated)
    return out


@_check("moment_double_sum", "Thm 4.3 / Eq. (eq:mom)", ("a", "b", "c", "d", "q", "t"),
        Sizes(n_max=6), note="vs L on the (az, a/z; q)_k basis")
def _run_moment_double_sum(pt: ParamPoint, sizes: Sizes) -> list:
    """aw_moment(n) against moment_functional's peel of (t+x)^n, n = 0..n_max,
    with one basis and one moment table at n_max.  A zero (abcd;q)_n stays zero
    as n grows, so that table raises exactly when some order's would."""
    p = _aw_from(pt)
    t = pt["t"]
    basis = pochhammer_basis_polys(p.a, p.q, sizes.n_max)
    moments = _basis_moments(sizes.n_max, p, pt.prime)
    f, step = PolynomialInX([1]), poly_x_plus(t)
    out = []
    for n in range(sizes.n_max + 1):
        out.append(aw_moment(n, t, p, pt.prime) - _peel_functional(f, basis, moments, pt.prime))
        f = f * step
    return out


# aw_moments reads b, c and d only through _basis_moments, which is symmetric in
# them (the basis_moments check tests that).  A permutation of (a, b, c, d) can
# therefore change the moment only through its first slot, and swapping a with
# b, c or d reaches every first slot.
_A_SWAPS = ("bacd", "cbad", "dbca")


@_check("moment_symmetry", "§4 weight symmetry of Eq. (eq:mom)", ("a", "b", "c", "d", "q", "t"),
        Sizes(n_max=6), note="a swapped with b, c and d")
def _run_moment_symmetry(pt: ParamPoint, sizes: Sizes) -> list:
    """One aw_moments pass per parameter order; it raises exactly when some
    order's aw_moment would, since poles persist as the order grows."""
    p = _aw_from(pt)
    t = pt["t"]
    orders = [p] + [p.permuted(perm) for perm in _A_SWAPS]
    base, *swapped = [aw_moments(t, order, sizes.n_max, pt.prime) for order in orders]
    return [other[n] - base[n] for n in range(sizes.n_max + 1) for other in swapped]


@_check("basis_moments", "Eq. (linfunc)", ("a", "b", "c", "d", "q"), Sizes(n_max=6))
def _run_basis_moments(pt: ParamPoint, sizes: Sizes) -> list:
    """L((az, a/z; q)_n) through the lattice weights against the closed form,
    and its symmetry in b, c and d, for n = 0..n_max.

    One moment_weights vector of order n_max is applied to every basis
    polynomial; moment_functional would expand the basis polynomial on itself
    and compare the closed form with itself.  Each parameter order reads its
    moments from one _basis_moments table.

    The one vector raises exactly when the weights of some order n <= n_max
    would.  A zero lattice Newton denominator at order n means a^2 q^e = 1
    with 1 <= e <= 2n-1, a collision of two nodes at that order; a collision
    and a zero (abcd;q)_n persist as the order grows.  Once the weights pass,
    (abcd;q)_(n_max) is nonzero, so the tables cannot raise.
    """
    p = _aw_from(pt)
    a, b, c, d, q = p.a, p.b, p.c, p.d, p.q
    out = [basis_moment(1, p) - (1 - a * b) * (1 - a * c) * (1 - a * d) / (1 - p.abcd)]
    nodes, weights = moment_weights(p, sizes.n_max, pt.prime)
    weights = _common_denominator(weights, pt.prime)
    # symmetric in b, c, d
    moments, *swapped = (
        _basis_moments(sizes.n_max, order, pt.prime)
        for order in (p, replace(p, b=c, c=d, d=b), replace(p, b=d, d=b))
    )
    for n, f in enumerate(pochhammer_basis_polys(a, q, sizes.n_max)):
        values = _common_denominator([f(x) for x in nodes], pt.prime)
        out.append(_weighted_sum(weights, values, prime=pt.prime) - moments[n])
        out += [other[n] - moments[n] for other in swapped]
    return out


@_check("orthogonality", "Eq. (orth), algebraic form", ("a", "b", "c", "d", "q"), Sizes(n_max=4),
        note="L(p_m p_n) = delta h_n/h_0")
def _run_orthogonality(pt: ParamPoint, sizes: Sizes) -> list:
    """L(p_m p_n) - delta_mn h_n/h_0 for 0 <= m <= n <= min(n_max, 4).

    L is applied through one weight vector per trial, at twice the top degree
    T, on the lattice nodes b_j = x(z_j) with z_j = a q^j, j = 0..2T.  Each
    p_m is evaluated at every node from one _aw_polys pass per node, with no
    expansion to monomials and one prefactor table for every node, and each
    value column and the weights are put over one denominator once.  Values
    are taken mod pt.prime; the poles below are decided exactly.

    The events come in a fixed order, so that every pole is raised as if
    each p_m were first expanded to monomials and each product p_m p_n were
    then expanded by newton_lattice_coeffs at its degree and dotted with the
    basis moments:
      1. the node values, whose only poles are the 4phi3 denominators
         (q,ab,ac,ad;q)_k, the same at every z;
      2. the degree drops: a p_m whose leading coefficient
         2^m (abcd q^(m-1);q)_m vanishes is a pole of the check, since then
         abcd = q^(-j) with j <= 2m-2, and the moments of degree above j
         have poles: the relation holds there only as a limit, which the
         exact value at this point need not match;
      3. the weights.  With no degree drop, abcd = q^(-j) only for j >= 2T-1,
         so a zero (abcd;q)_k is read only at k = 2T, by the last product.  A
         zero lattice Newton denominator at order d means a^2 q^e = 1 with
         1 <= e <= 2d-1, which is a node collision at the same order, and
         both routes check the nodes first;
      4. the norm ratios h_n/h_0, n = 0..T, read from one _aw_norm_ratios
         table after the weights: no residual before them can raise, so its
         first pole is the one the per-n ratios raised in the loop.
    """
    p = _aw_from(pt)
    a, q = p.a, p.q
    top = min(sizes.n_max, 4)
    prefactors = _aw_prefactors(p, top)
    rows = [
        list(_aw_polys(p, XPoint(a * q**j), top, prime=pt.prime, prefactors=prefactors))
        for j in range(2 * top + 1)
    ]
    if any(aw_leading_coeff(m, p) == 0 for m in range(top + 1)):
        raise PoleError("leading coefficient of p_m vanishes")
    _, weights = moment_weights(p, 2 * top, pt.prime)
    weights = _common_denominator(weights, pt.prime)
    values = [_common_denominator(column, pt.prime) for column in zip(*rows)]
    norms = list(_aw_norm_ratios(p, top, pt.prime))
    out = []
    for m in range(top + 1):
        for n in range(m, top + 1):
            value = _weighted_sum(weights, values[m], values[n], prime=pt.prime)
            if m == n:
                value -= norms[n]
            out.append(value)
    return out


@_check("contiguous_relation", "§4 Remark, contiguous relation", ("a", "b", "q", "A1", "B1"),
        Sizes(order=10), note="(r,s) in {(1,1),(2,1),(2,2)}")
def _run_contiguous(pt: ParamPoint, sizes: Sizes) -> list:
    shapes = _contiguous_shapes(pt, ((1, 1), (2, 1), (2, 2)), sizes.order, pt.prime)
    return [_contiguous_residual(*series, pt.prime) for series in shapes]


@_check("newton_interpolation", "Eq. (newton) / (newtonspecial)",
        tuple(f"c{i}" for i in range(9)) + tuple(f"n{i}" for i in range(9)) + ("a", "q"),
        Sizes(n_max=8))
def _run_newton_interpolation(pt: ParamPoint, sizes: Sizes) -> list:
    """Newton interpolation through free nodes, and on the q-quadratic lattice.

    The lattice variant reads (az, a/z; q)_k, k = 0..deg, as integer pairs
    from one prefix table per z, which raises nothing, and puts the sum
    over k and f(x) over one denominator: one Fraction per z.
    """
    deg = min(sizes.n_max, 8)
    f = PolynomialInX([pt[f"c{i}"] for i in range(deg + 1)])
    nodes = [pt[f"n{i}"] for i in range(deg + 1)]
    coeffs = newton_coeffs(nodes, [f(b) for b in nodes])
    rebuilt = newton_to_monomial(coeffs, nodes)
    out: list = list((rebuilt - f).coeffs)
    # q-quadratic lattice variant: reconstruct through the basis (az, a/z; q)_k
    a, q = pt["a"], pt["q"]
    u = newton_lattice_coeffs(f, a, q, deg)
    for z in (Fraction(2), Fraction(3), Fraction(5, 2)):
        fn, fd = _pair(f((z + 1 / z) / 2))
        basis = zip(map(_pair, u), *_qpoch_multi_prefix((a * z, a / z), q, deg))
        terms = [(un * bn, ud * bd) for (un, ud), bn, bd in basis]
        nums, den = _over_one_denominator(terms + [(-fn, fd)])
        out.append(Fraction(sum(nums), den))
    return out


@_check("connection_coeffs", "Cor. 4.4 / Eq. (man)",
        tuple(f"p{i}" for i in range(8)) + tuple(f"n{i}" for i in range(9)), Sizes(n_max=8))
def _run_connection_coeffs(pt: ParamPoint, sizes: Sizes) -> list:
    n_top = min(sizes.n_max, 8)
    a_nodes = [pt[f"p{i}"] for i in range(n_top)]
    b_nodes = [pt[f"n{i}"] for i in range(n_top + 1)]
    # every closed-form sum u(n, k), 0 <= k <= n <= n_top, from one table
    u = _connection_table(a_nodes, b_nodes, n_top)
    # boundary values u(n, 0) = prod_(i<n) (a_i + b_0)
    out = [u[0][0] - 1]
    prod = Fraction(1)
    for n in range(1, n_top + 1):
        prod *= a_nodes[n - 1] + b_nodes[0]
        out.append(u[n][0] - prod)
    # recurrence u(n,k) = u(n-1,k-1) + (a_(n-1) + b_k) u(n-1,k), each residual
    # on integer pairs over one denominator
    a_pairs, b_pairs = list(map(_pair, a_nodes)), list(map(_pair, b_nodes))
    for n in range(2, n_top + 1):
        an, ad = a_pairs[n - 1]
        for k in range(1, n):
            bn, bd = b_pairs[k]
            (xn, xd), (yn, yd), (zn, zd) = map(_pair, (u[n][k], u[n - 1][k - 1], u[n - 1][k]))
            terms = [(xn, xd), (-yn, yd), (-(an * bd + bn * ad) * zn, ad * bd * zd)]
            nums, den = _over_one_denominator(terms)
            out.append(Fraction(sum(nums), den))
    # basis expansion prod_(i<n) (x + a_i) = sum_k u(n,k) prod_(i<k) (x - b_i) at
    # n = n_top, compared coefficient by coefficient: n_top+1 residuals, the
    # product and the difference in one kernel call
    rhs = newton_to_monomial(u[n_top], b_nodes)
    lhs = [([1], 1)] + [([an, ad], ad) for an, ad in a_pairs]
    nums, den = _sum_of_products([(1, *lhs), (-1, (rhs.nums, rhs.den))], n_top + 1)
    out.extend([Fraction(x, den) for x in nums])
    return out


def _square_names(size: int) -> tuple[str, ...]:
    return tuple(f"m{i}_{j}" for i in range(size) for j in range(size))


def _square_from(pt: ParamPoint, k: int) -> Matrix:
    return Matrix.build(k, k, lambda i, j: pt[f"m{i}_{j}"])


@_check("desnanot_jacobi", "Eq. (eq:Desnanot-Jacobi)", _square_names(6), Sizes(n_max=6),
        note="orders 2..6")
def _run_desnanot_jacobi(pt: ParamPoint, sizes: Sizes) -> list:
    top = min(sizes.n_max, 6)
    full = _square_from(pt, top)
    return [desnanot_jacobi_residual(full.leading(k)) for k in range(2, top + 1)]


@_check("det_engines", "engine cross-check (det)", _square_names(6), Sizes(n_max=6),
        note="orders 1..6")
def _run_det_engines(pt: ParamPoint, sizes: Sizes) -> list:
    top = min(sizes.n_max, 6)
    full = _square_from(pt, top)
    minors, modular = leading_minors(full), leading_minors(full, pt.prime)
    condensed = det_condensation(full)
    out = []
    for k in range(1, top + 1):
        M = full.leading(k)
        d = det_fraction_free(M)
        out.append(det_cofactor(M) - d)
        if k <= len(condensed):  # orders past a zero interior minor are left out
            out.append(condensed[k - 1] - d)
        out.append(minors[k - 1] - d)
        out.append(modular[k - 1] - d)
        out.append(det_fraction_free(M, pt.prime) - d)
    return out


def _skew_names(size: int) -> tuple[str, ...]:
    return tuple(f"w{i}_{j}" for i in range(size) for j in range(i + 1, size))


@_check("pfaffian_engines", "engine cross-check (pf, pf^2 = det)", _skew_names(8), Sizes(m_max=4),
        note="orders 2,4,6,8")
def _run_pfaffian_engines(pt: ParamPoint, sizes: Sizes) -> list:
    top = min(sizes.m_max, 4)
    full = SkewMatrix.from_upper(2 * top, lambda i, j: pt[f"w{i}_{j}"])
    leading, modular = leading_pfaffians(full), leading_pfaffians(full, pt.prime)
    out = []
    for m in range(1, top + 1):
        M = full.leading(2 * m)
        pf = pfaffian_matchings(M)
        out.append(pfaffian_expansion(M) - pf)
        out.append(pfaffian_expansion(M, pt.prime) - pf)
        out.append(leading[m - 1] - pf)
        out.append(modular[m - 1] - pf)
        out.append(pf**2 - det_fraction_free(M))
    return out


REGISTRY: tuple[IdentityCheck, ...] = tuple(_REGISTERED)

CHECKS_BY_ID = {check.id: check for check in REGISTRY}


def _is_zero(residual) -> bool:
    """A series or a Residue answers is_zero(); a Fraction is compared with 0."""
    if hasattr(residual, "is_zero"):
        return residual.is_zero()
    return residual == 0


def _trial_seed(check_id: str, master_seed: int, trial: int) -> int:
    return zlib.crc32(check_id.encode()) ^ (master_seed * 1_000_003 + trial * 7919)


_RESAMPLE_ERRORS = (PoleError, DegenerateLattice, DuplicateNodes)
_RESAMPLE_CAP = 50


def run_trial(check: IdentityCheck, trial_seed: int, sizes: Sizes) -> tuple[list, ParamPoint]:
    """Evaluate one trial, resampling deterministically away from poles."""
    for attempt in range(_RESAMPLE_CAP):
        pt = sample_point(check.param_names, trial_seed + 1_000_003 * attempt, sizes.height)
        try:
            return check.run(pt, sizes), pt
        except _RESAMPLE_ERRORS:
            continue
    raise SamplingExhausted(
        f"{check.id}: no pole-free point found for trial seed {trial_seed}"
    )


def validate_run(trials: int, sizes: Sizes) -> None:
    """Raise DomainError for a run that no check could use: fewer than one
    trial, a negative n_max, m_max or order, or a height below 2, which
    leaves q no value but +-1."""
    if trials < 1:
        raise DomainError("trials must be at least 1")
    for name, least in (("n_max", 0), ("m_max", 0), ("order", 0), ("height", 2)):
        if getattr(sizes, name) < least:
            raise DomainError(f"{name} must be at least {least}, got {getattr(sizes, name)}")


def run_check(
    check: IdentityCheck,
    trials: int = 20,
    seed: int = 0,
    sizes: Sizes | None = None,
) -> CheckReport:
    """Run `trials` independent random-point trials of one identity.

    Raises what validate_run raises before the first trial, and
    EmptyResiduals, after the last trial, when any trial returned no
    residual: the check would compare nothing, and a pass would be vacuous.
    """
    sizes = sizes if sizes is not None else check.defaults
    validate_run(trials, sizes)
    t0 = time.perf_counter()
    empty = 0
    witnesses: list[int] = []
    for trial in range(trials):
        residuals, pt = run_trial(check, _trial_seed(check.id, seed, trial), sizes)
        empty += not residuals
        if not all(_is_zero(r) for r in residuals):
            witnesses.append(pt.seed)
    if empty:
        raise EmptyResiduals(
            f"{check.id} compared nothing in {empty} of {trials} trials at {sizes}"
        )
    millis = int((time.perf_counter() - t0) * 1000)
    return CheckReport(check.id, check.anchor, trials, len(witnesses), tuple(witnesses), millis)
