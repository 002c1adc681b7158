"""Exact q-series arithmetic and the certified coefficient/tail bounds."""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from latmorse import latcat
from latmorse import modforms as mf

# reference expansions, frozen from independent evaluation
TAU = [0, 1, -24, 252, -1472, 4830, -6048, -16744, 84480]
E4_ROW = [1, 240, 2160, 6720, 17520, 30240, 60480, 82560, 140400]
E6_ROW = [1, -504, -16632, -122976]
E4_SQ_ROW = [1, 480, 61920, 1050240, 7926240, 37500480]
E4_CUBE_ROW = [1, 720, 179280, 16954560, 396974160, 4632858720, 34413301440]
CUSP24_ROW = [0, 1, 216, -3348, 13888, 52110, -723168]
CUSP32_ROW = [0, 1, 456, 50652, -316352, -2377410]
ROOTLESS32_ROW = [
    1,
    0,
    146880,
    64757760,
    4844836800,
    137695887360,
    2121555283200,
    21421110804480,
    158757684004800,
]


def test_bernoulli_values():
    assert mf.bernoulli(2) == Fraction(1, 6)
    assert mf.bernoulli(4) == Fraction(-1, 30)
    assert mf.bernoulli(6) == Fraction(1, 42)
    assert mf.bernoulli(8) == Fraction(-1, 30)
    assert mf.bernoulli(12) == Fraction(-691, 2730)
    assert mf.bernoulli(16) == Fraction(-3617, 510)


def test_bernoulli_against_mpmath():
    # mpmath uses B_1 = -1/2; bernoulli keeps the +1/2 convention
    for k in range(61):
        p, q = mpmath.bernfrac(k)
        assert mf.bernoulli(k) == Fraction(-p if k == 1 else p, q), k
    with pytest.raises(ValueError):
        mf.bernoulli(-1)


def test_sigma_table():
    assert mf._sigma_table(1, 7)[6] == 12
    assert mf._sigma_table(3, 5)[4] == 73
    assert mf._sigma_table(11, 3)[2] == 2049
    assert mf._sigma_table(5, 2)[1] == 1
    assert mf._sigma_table(0, 13)[12] == 6
    assert mf._sigma_table(0, 13)[:2] == [0, 1]


def test_eisenstein_rows():
    e4 = mf.eisenstein(4)
    assert e4.weight == 4
    assert e4.length == mf.DEFAULT_LENGTH
    assert [int(c) for c in e4.coeffs[:9]] == E4_ROW
    e6 = mf.eisenstein(6)
    assert e6.weight == 6
    assert [int(c) for c in e6.coeffs[:4]] == E6_ROW


def test_eisenstein_first_coeff():
    assert mf.eisenstein_first_coeff(4) == 240
    assert mf.eisenstein_first_coeff(6) == -504
    assert mf.eisenstein_first_coeff(16) == Fraction(16320, 3617)


def test_discriminant_tau():
    delta = mf.discriminant()
    assert delta.weight == 12
    assert delta.is_integral()
    assert [int(c) for c in delta.coeffs[:9]] == TAU


def test_discriminant_identity():
    # 1728 Delta = E4^3 - E6^2, exactly, over the full truncation
    e4, e6 = mf.eisenstein(4), mf.eisenstein(6)
    lhs = e4 * e4 * e4 - e6 * e6
    assert lhs.weight == 12
    assert lhs.coeffs == mf.discriminant().scale(1728).coeffs


def test_qseries_weight_checks():
    e4, e6 = mf.eisenstein(4), mf.eisenstein(6)
    with pytest.raises(ValueError, match="cannot add weights 4 and 6"):
        e4 + e6
    assert (e4 * e6).weight == 10
    assert (e4 - e4).coeffs == tuple(Fraction(0) for _ in range(e4.length))
    half = e4.scale(Fraction(1, 2))
    assert half.coeffs[1] == 120
    assert not e4.scale(Fraction(1, 7)).is_integral()


def test_qseries_truncation():
    e4 = mf.eisenstein(4, length=10)
    with pytest.raises(ValueError, match="coefficient 10 beyond truncation order 10"):
        e4.coefficient(10)
    short = mf.eisenstein(4, length=5)
    assert (e4 * short).length == 5
    # a negative index must not wrap round to the last stored coefficient
    with pytest.raises(ValueError, match="no coefficient"):
        e4.coefficient(-1)


def test_qseries_product_rows():
    e4 = mf.eisenstein(4)
    sq = e4 * e4
    assert [int(c) for c in sq.coeffs[:6]] == E4_SQ_ROW
    cube = sq * e4
    assert [int(c) for c in cube.coeffs[:7]] == E4_CUBE_ROW


def test_qseries_json_round_trip():
    e4 = mf.eisenstein(4, length=4)
    third = e4.scale(Fraction(1, 3))
    assert third.weight == 4
    assert third.coeffs[:2] == (Fraction(1, 3), Fraction(80))
    assert all(type(c) is Fraction for c in third.coeffs)


def test_cusp_normalized():
    for n, weight in ((16, 12), (24, 16), (32, 20)):
        form = mf.cusp_normalized(n)
        assert form.weight == weight
        assert form.coeffs[0] == 0
        assert form.coeffs[1] == 1
    assert mf.cusp_normalized(16).coeffs == mf.discriminant().coeffs
    assert [int(c) for c in mf.cusp_normalized(24).coeffs[:7]] == CUSP24_ROW
    assert [int(c) for c in mf.cusp_normalized(32).coeffs[:6]] == CUSP32_ROW
    # S_8 = 0: the only form of weight 8 pairing with degree-4 harmonics is 0
    zero = mf.cusp_normalized(8, 10)
    assert (zero.weight, zero.coeffs) == (8, (0,) * 10)
    with pytest.raises(ValueError, match="S_24 is not a line"):
        mf.cusp_normalized(40)


def test_theta_dimension_eight_square():
    t8 = mf.theta_even_unimodular(8, 240)
    t16 = mf.theta_even_unimodular(16, 480)
    assert (t8 * t8).coeffs == t16.coeffs


def test_theta_root_count_pinning():
    with pytest.raises(ValueError, match="dimension 8 forces 240 roots"):
        mf.theta_even_unimodular(8, 239)
    with pytest.raises(ValueError, match="dimension 16 forces 480 roots"):
        mf.theta_even_unimodular(16, 482)
    with pytest.raises(ValueError, match="positive multiple of 8, got 20"):
        mf.theta_even_unimodular(20, 0)

    t24 = mf.theta_even_unimodular(24, 720)
    assert [int(c) for c in t24.coeffs[:7]] == E4_CUBE_ROW

    leech = mf.theta_even_unimodular(24, 0)
    assert int(leech.coefficient(1)) == 0
    assert int(leech.coefficient(2)) == 196560
    assert int(leech.coefficient(3)) == 16773120


def test_theta_dimension_32_integrality():
    # E16 alone has denominator 3617; the forced cusp multiple must clear it
    theta = mf.theta_even_unimodular(32, 0)
    assert theta.is_integral()
    assert all(c >= 0 for c in theta.coeffs)
    assert [int(c) for c in theta.coeffs[:9]] == ROOTLESS32_ROW


def _fraction_basis(length):
    """E4^i E6^j Delta^l keyed (i, j, l), from Fraction QSeries products alone."""
    e4, e6 = mf.eisenstein(4, length), mf.eisenstein(6, length)
    delta = (e4 * e4 * e4 - e6 * e6).scale(Fraction(1, 1728))
    return {
        (1, 0, 0): e4,
        (2, 0, 0): e4 * e4,
        (3, 0, 0): e4 * e4 * e4,
        (4, 0, 0): e4 * e4 * e4 * e4,
        (0, 0, 1): delta,
        (1, 0, 1): delta * e4,
        (2, 0, 1): delta * e4 * e4,
        (0, 1, 1): delta * e6,
    }


@pytest.mark.parametrize("length", [2, 17, 64, 129])
def test_integer_basis_matches_fraction_products(length):
    # every row the weight rule gives at the weights the package reads: theta
    # (4, 8, 12, 16), cusp forms (12, 16, 20) and Delta E6 (18)
    reference = _fraction_basis(length)
    rows = {key for w in (4, 8, 12, 16) for key in mf._weight_rows(w)}
    rows |= {mf._weight_rows(w)[1] for w in (12, 16, 18, 20)}
    assert rows == set(reference)
    for key, form in reference.items():
        row = mf._monomial(*key, length)
        assert all(type(c) is int for c in row), key
        assert row == form.coeffs, key


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([24, 32]),
    rc=st.integers(0, 2000),
)
def test_theta_combination_matches_fraction_products(n, rc):
    # independent routes: E4^3 + (rc - 720) Delta, and E16 + (rc - 16320/3617) E4 Delta,
    # integral for any integer rc (Ramanujan's congruence mod 3617), and every
    # coefficient is an int
    reference = _fraction_basis(17)
    if n == 24:
        expected = reference[3, 0, 0] + reference[0, 0, 1].scale(rc - 720)
    else:
        expected = mf.eisenstein(16, 17) + reference[1, 0, 1].scale(rc - mf.eisenstein_first_coeff(16))
    theta = mf.theta_even_unimodular(n, rc, 17)
    assert theta.weight == expected.weight
    assert theta.coeffs == expected.coeffs
    assert theta.is_integral()
    assert all(type(c) is int for c in theta.coeffs)
    assert theta.floats() == expected.floats()


def test_theta_root_count_must_be_a_count():
    with pytest.raises(ValueError, match="root count must be nonnegative, got -1"):
        mf.theta_even_unimodular(24, -1)
    for rc in (Fraction(1, 2), 2.5):
        with pytest.raises(TypeError):
            mf.theta_even_unimodular(24, rc)


def test_theta_coeff_bound_takes_only_root_counts_that_fix_theta():
    # the checks of theta_even_unimodular, on the bound of a theta that does not exist
    for n, rc, match in ((24, -5, "root count must be nonnegative, got -5"),
                         (8, 239, "dimension 8 forces 240 roots"),
                         (16, 481, "dimension 16 forces 480 roots"),
                         (48, 0, "the root count does not fix theta in dimension 48")):
        with pytest.raises(ValueError, match=match):
            mf.theta_coeff_bound(n, rc)
    with pytest.raises(TypeError):
        mf.theta_coeff_bound(24, 2.5)
    # E8's 240 roots are no count a 16-dimensional theta can have
    with pytest.raises(ValueError, match="dimension 16 forces 480 roots"):
        mf.theta_duality_residual(latcat.get("E8").theta, 16, 1.2)


def test_theta_first_coefficient_is_root_count():
    for n, rc in ((8, 240), (16, 480), (24, 48), (24, 0), (32, 112), (32, 0)):
        assert mf.theta_even_unimodular(n, rc).coefficient(1) == rc


def test_zeta_upper():
    exact = math.pi**2 / 6
    z2 = mf.zeta_upper(2)
    assert z2 >= exact
    assert z2 <= exact * (1 + 1e-5)
    assert mf.zeta_upper(3) >= 1.2020569031595942
    with pytest.raises(ValueError):
        mf.zeta_upper(1)


def test_zeta_upper_against_mpmath():
    for s in range(2, 20):
        exact = mpmath.zeta(s)
        bound = mf.zeta_upper(s)
        assert bound >= exact
        assert bound <= exact * (1 + mpmath.mpf("1e-8"))


def test_round_up_significant():
    assert mf.round_up_significant(0.0123, 2) == 0.013
    assert mf.round_up_significant(4.555, 2) == 4.6
    assert mf.round_up_significant(287.0, 2) == 290.0
    assert mf.round_up_significant(1.0, 3) == 1.0
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = float(10.0 ** rng.uniform(-8, 8)) * float(rng.uniform(0.1, 9.9))
        up = mf.round_up_significant(x, 2)
        assert up >= x * (1 - 1e-12)
        assert up <= x * 1.12


def test_eisenstein_coeff_bound_constants():
    expected = {8: (290.0, 3), 16: (490.0, 7), 24: (95.0, 11), 32: (4.6, 15)}
    for n, term in expected.items():
        bound = mf.eisenstein_coeff_bound(n)
        assert bound.terms == (term,)
    with pytest.raises(ValueError, match="positive multiple of 8, got 12"):
        mf.eisenstein_coeff_bound(12)


def test_eisenstein_coeff_bound_dominates():
    cases = {n: mf.eisenstein(n // 2) for n in (8, 16, 24, 32, 40, 48)}
    for n, series in cases.items():
        bound = mf.eisenstein_coeff_bound(n)
        for m in range(1, 25):
            assert abs(float(series.coefficient(m))) <= bound.eval(m)


def test_jenkins_rouse_reference_constant():
    # weight-16 cusp component of a rootless 32-dimensional theta series
    c1 = -mf.eisenstein_first_coeff(16)
    two_c = 2.0 * mf.jenkins_rouse_constant(16, (c1,))
    assert 1.0e10 < two_c <= 1.2e10
    assert mf.round_up_significant(two_c, 2) == 1.2e10
    with pytest.raises(ValueError, match="cusp weight must be even and >= 12, got 10"):
        mf.jenkins_rouse_constant(10, (1,))
    with pytest.raises(ValueError, match="cusp weight must be even and >= 12, got 13"):
        mf.jenkins_rouse_constant(13, (1,))
    with pytest.raises(ValueError):
        mf.jenkins_rouse_constant(16, ())
    # S_24 is spanned by E4^3 Delta and Delta^2 = q^2 + ...: a_1 alone cannot bound it
    assert mf.jenkins_rouse_constant(24, (0, 1)) == pytest.approx(383380.88183625, rel=1e-12)
    for short in ((0,), (1,), (0, 1, 0)):
        with pytest.raises(ValueError, match="exactly 2"):
            mf.jenkins_rouse_constant(24, short)


@settings(max_examples=40, deadline=None)
@given(k=st.sampled_from([24, 28, 36, 40]),
       weights=st.lists(st.integers(-1000, 1000), min_size=3, max_size=3))
@example(k=24, weights=[0, 1, 0])
@example(k=40, weights=[0, 0, 1])
@example(k=36, weights=[0, -7, 3])
def test_jenkins_rouse_bounds_cusp_forms_of_dimension_two_and_three(k, weights):
    # S_k (dim 2 for k = 24, 28; 3 for 36, 40) is spanned by rows 1.. of the weight
    # rule; the bound reads the first dim S_k coefficients of any integer combination
    keys = mf._weight_rows(k)[1:]
    weights = weights[: len(keys)]
    assume(any(weights))
    rows = [mf._monomial(*key, 201) for key in keys]
    form = [sum(x * row[m] for x, row in zip(weights, rows)) for m in range(201)]
    bound = mf.cusp_coeff_bound(k, form[1 : len(keys) + 1])
    for m in range(1, 201):
        assert abs(float(form[m])) <= bound.eval(m), m


def test_cusp_coeff_bound_dominates_tau():
    bound = mf.cusp_coeff_bound(12, (1,))
    ((coef, expo),) = bound.terms
    assert expo == 6
    delta = mf.discriminant(40)
    for m in range(1, 40):
        assert abs(float(delta.coefficient(m))) <= coef * m**expo


def test_incomplete_gamma_exact_points():
    assert mf.incomplete_gamma(5, 0.0) == 24.0
    val = mf.incomplete_gamma(1, 2.5)
    assert val >= math.exp(-2.5)
    assert val <= math.exp(-2.5) * (1 + 1e-8)
    with pytest.raises(ValueError):
        mf.incomplete_gamma(0, 1.0)
    with pytest.raises(ValueError):
        mf.incomplete_gamma(2, -1.0)
    # Gamma(s, inf) = 0 gets the floor every x past about 700 returns; NaN is no x >= 0
    floor = math.exp(mf._LOG_FLOOR) * mf._UP
    assert mf.incomplete_gamma(4, math.inf) == floor == mf.incomplete_gamma(4, 800.0)
    with pytest.raises(ValueError, match="x >= 0"):
        mf.incomplete_gamma(4, math.nan)
    tail = mf.tail_bound(17, 3, 1e307)  # 2 alpha j overflows to inf
    assert math.isfinite(tail) and tail > 0


def test_incomplete_gamma_recurrence():
    # Gamma(s+1, x) = s Gamma(s, x) + x^s e^-x
    rng = np.random.default_rng(11)
    for _ in range(25):
        s = int(rng.integers(1, 11))
        x = float(rng.uniform(0.1, 30.0))
        lhs = mf.incomplete_gamma(s + 1, x)
        rhs = s * mf.incomplete_gamma(s, x) + x**s * math.exp(-x)
        assert abs(lhs - rhs) <= 1e-7 * rhs


def test_tail_bound_monotonicity_guard():
    with pytest.raises(ValueError, match="tail start j=1 below"):
        mf.tail_bound(1, 10, 0.5)
    assert mf.tail_bound(10, 10, 0.5) > 0
    with pytest.raises(ValueError):
        mf.tail_bound(0, 2, 1.0)
    with pytest.raises(ValueError):
        mf.tail_bound(2, 2, 0.0)


def test_tail_bound_reference_values():
    assert 0 < mf.tail_bound(2, 16, 14.0) <= 3.3e-20
    assert 0 < mf.tail_bound(9, 17, math.pi) <= 5.8e-9
    assert 0 < mf.tail_bound(9, 10, math.pi) <= 1.2e-15


def test_tail_bound_stays_positive_from_the_first_term():
    # e^(-2 alpha) underflows here; the first term is floored like every other
    assert mf.tail_bound(1, 19, 1000.0) > 0
    assert mf.tail_bound(1, 0, 400.0) > 0


def test_tail_bound_dominates_partial_sums():
    rng = np.random.default_rng(23)
    for _ in range(20):
        k = int(rng.integers(0, 13))
        alpha = float(rng.uniform(0.3, 3.0))
        j = max(1, math.ceil(k / (2.0 * alpha))) + int(rng.integers(0, 4))
        partial = math.fsum(
            m**k * math.exp(-2.0 * alpha * m) for m in range(j + 500, j - 1, -1)
        )
        assert partial <= mf.tail_bound(j, k, alpha)


def test_theta_duality_residual():
    theta = mf.theta_even_unimodular(8, 240)
    for y in (0.9, 1.2):
        assert mf.theta_duality_residual(theta, 8, y) < 1e-10
    with pytest.raises(ValueError):
        mf.theta_duality_residual(theta, 8, 0.4)
    short = mf.theta_even_unimodular(8, 240, length=6)
    with pytest.raises(ValueError, match="certified tail .* exceeds 1e-12"):
        mf.theta_duality_residual(short, 8, 0.9)


def test_coeff_bound_series_tail_consistency():
    bound = mf.CoeffBound(((2.0, 3), (5.0, 1)))
    alpha = 1.3
    j = 4
    direct = 2.0 * mf.tail_bound(j, 3, alpha) + 5.0 * mf.tail_bound(j, 1, alpha)
    assert bound.series_tail(j, alpha) == pytest.approx(direct, rel=1e-15)
    shifted = bound.series_tail(j, alpha, extra_exponent=2)
    direct2 = 2.0 * mf.tail_bound(j, 5, alpha) + 5.0 * mf.tail_bound(j, 3, alpha)
    assert shifted == pytest.approx(direct2, rel=1e-15)


def test_series_spellings_of_the_default_length_agree():
    n = mf.DEFAULT_LENGTH
    leech = mf.theta_even_unimodular(24, 0).coeffs
    assert leech == mf.theta_even_unimodular(24, 0, n).coeffs
    assert leech == mf.theta_even_unimodular(24, 0, length=n).coeffs
    cusp = mf.cusp_normalized(32).coeffs
    assert cusp == mf.cusp_normalized(32, n).coeffs == mf.cusp_normalized(32, length=n).coeffs
    delta = mf.discriminant().coeffs
    assert delta == mf.discriminant(n).coeffs == mf.discriminant(length=n).coeffs
    assert mf.discriminant(12).coeffs == mf.discriminant(length=12).coeffs == delta[:12]
    assert (mf.theta_even_unimodular(n=8, root_count=240).coeffs
            == mf.theta_even_unimodular(8, 240).coeffs)
