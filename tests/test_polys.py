import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from primegaps import PolynomialSpec, RationalPoly
from primegaps.errors import PreconditionError
from primegaps.polys import weighted_square_integral

coeff_lists = st.lists(st.integers(min_value=-6, max_value=6), min_size=0, max_size=6)


def test_eval_and_degree():
    p = RationalPoly([1, 2, 3])  # 1 + 2y + 3y^2
    assert p(Fraction(2)) == 17
    assert RationalPoly([0, 0]).is_zero


def test_trailing_zeros_trimmed():
    assert RationalPoly([1, 0, 0]).coeffs == (Fraction(1),)


def test_deriv():
    p = RationalPoly([5, 1, 0, 2])  # 5 + y + 2y^3
    assert p.deriv().coeffs == (Fraction(1), Fraction(0), Fraction(6))
    assert p.deriv(3).coeffs == (Fraction(12),)
    assert p.deriv(4).is_zero


@given(coeff_lists, coeff_lists, st.integers(min_value=-3, max_value=3))
def test_mul_pointwise(a, b, y):
    pa, pb = RationalPoly(a), RationalPoly(b)
    assert (pa * pb)(Fraction(y)) == pa(Fraction(y)) * pb(Fraction(y))


def test_weighted_square_integral_monomial():
    # int_0^1 y/1! * (1-y)^2 dy = B(2,3) = 1/12
    assert weighted_square_integral(RationalPoly([0, 1]), 1) == Fraction(1, 12)


def _compose_one_minus(coeffs):
    """Coefficients of Q(1-y), expanding each (1-y)^j binomially."""
    comp = [Fraction(0)] * max(len(coeffs), 1)
    for j, c in enumerate(coeffs):
        for i in range(j + 1):
            comp[i] += c * math.comb(j, i) * (-1) ** i
    return comp


def _integrate01(coeffs):
    """Exact integral over [0, 1], term by term."""
    return sum((c / (j + 1) for j, c in enumerate(coeffs)), Fraction(0))


def test_compose_one_minus():
    assert _compose_one_minus([0, 0, 1]) == [1, -2, 1]  # y^2 -> (1-y)^2
    # int_0^1 (1-y)^4 dy = 1/5
    assert weighted_square_integral(RationalPoly([0, 0, 1]), 0) == Fraction(1, 5)


@given(coeff_lists, st.integers(min_value=-3, max_value=3))
def test_compose_one_minus_pointwise(coeffs, y):
    assert RationalPoly(_compose_one_minus(coeffs))(Fraction(y)) == RationalPoly(coeffs)(
        Fraction(1 - y)
    )


def test_integrate01():
    # int_0^1 (1 + 2y + 3y^2) = 1 + 1 + 1 = 3
    assert _integrate01([1, 2, 3]) == 3
    # Q = 1: int_0^1 y^a/a! dy = 1/(a+1)!
    for a in range(9):
        assert weighted_square_integral(RationalPoly([1]), a) == Fraction(1, math.factorial(a + 1))


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@given(st.lists(rationals, max_size=7), st.integers(min_value=0, max_value=8))
def test_weighted_square_integral_matches_definition(coeffs, a):
    # expand Q(1-y) binomially, square, multiply by y^a/a! and integrate
    # term by term over [0, 1]
    comp = _compose_one_minus(coeffs)
    square = [Fraction(0)] * (2 * len(comp) - 1)
    for i, u in enumerate(comp):
        for j, v in enumerate(comp):
            square[i + j] += u * v
    expected = _integrate01([Fraction(0)] * a + square) / math.factorial(a)
    assert weighted_square_integral(RationalPoly(coeffs), a) == expected


def test_vanishing_order():
    assert RationalPoly([0, 0, 5, 1]).vanishing_order() == 2
    assert RationalPoly([]).vanishing_order() is None


def test_polynomial_spec_validation():
    PolynomialSpec.power(3, 2)
    with pytest.raises(PreconditionError):
        PolynomialSpec([0, 1], 2)        # vanishing order 1 < k
    with pytest.raises(PreconditionError):
        PolynomialSpec([0, 0, 2], 2)     # P(1) = 2
    spec = PolynomialSpec([0, 0, Fraction(1, 2), Fraction(1, 2)], 2)
    assert spec.poly(Fraction(1)) == 1


def test_power_spec_shape():
    spec = PolynomialSpec.power(2, 1)
    assert spec.coeffs == (Fraction(0),) * 3 + (Fraction(1),)
    assert spec.k == 2
