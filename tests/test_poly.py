from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from millsratio.poly import IntPolynomial, ONE, X, ZERO


def P(*coeffs):
    """Polynomial from descending coefficients, e.g. P(1, 0, 3) = x^2 + 3."""
    return IntPolynomial(list(reversed(coeffs)))


polys = st.lists(st.integers(-50, 50), max_size=8).map(IntPolynomial)
rationals = st.fractions(min_value=-10, max_value=10, max_denominator=20)
wide_polys = st.lists(st.integers(-(10**30), 10**30), max_size=40).map(IntPolynomial)
wide_rationals = st.fractions(max_denominator=10**9)


def fraction_horner(p, x):
    """Reference evaluation: plain Horner on Fractions."""
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


class TestArithmetic:
    def test_add(self):
        assert P(1, 0, 1) + P(1, 0, 3, 0) == P(1, 1, 3, 1)

    def test_add_zero_identity(self):
        p = P(2, 0, -5)
        assert p + ZERO == p

    def test_add_cancellation_is_canonical(self):
        result = X + (-X)
        assert result == ZERO
        assert result.degree == -1
        assert result.coeffs == ()

    def test_mul(self):
        assert P(1, 0, 1) * P(1, 0, 6, 0, 3) == P(1, 0, 7, 0, 9, 0, 3)

    def test_mul_one_identity(self):
        p = P(3, -1, 4)
        assert p * ONE == p

    def test_mul_zero_absorbs(self):
        assert P(3, -1, 4) * ZERO == ZERO

    def test_mul_degree_additive(self):
        a, b = P(2, 1), P(5, 0, 0)
        assert (a * b).degree == a.degree + b.degree

    def test_derivative(self):
        assert P(1, 0, 3, 0).derivative() == P(3, 0, 3)
        assert P(7).derivative() == ZERO
        assert P(1, 0, 6, 0, 3).derivative() == P(4, 0, 12, 0)


class TestEvaluation:
    def test_eval_rational(self):
        assert P(1, 0, 1).eval_rational(Fraction(1, 2)) == Fraction(5, 4)

    def test_eval_rational_at_zero_is_constant(self):
        assert P(9, -2, 7).eval_rational(Fraction(0)) == 7

    def test_eval_rational_beta_bracketing_poly(self):
        assert P(1, 0, 3, 0, 9, 0, -9).eval_rational(Fraction(1)) == 4

    def test_eval_rational_zero_polynomial(self):
        value = ZERO.eval_rational(Fraction(-7, 3))
        assert value == 0
        assert isinstance(value, Fraction)

    def test_eval_rational_returns_lowest_terms(self):
        value = P(2, 0).eval_rational(Fraction(3, 4))
        assert (value.numerator, value.denominator) == (3, 2)

    def test_eval_real(self):
        assert P(1, 0, 1).eval_real(1, 128) == 2
        assert P(1, 0, 0, 0, 3).eval_real(0, 128) == 3
        assert P(1, 0, 3, 0).eval_real(2, 128) == 14


class TestProperties:
    @given(polys, polys, polys)
    def test_add_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(polys, polys, polys)
    def test_mul_distributes(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(polys, polys, rationals)
    def test_eval_is_ring_homomorphism(self, a, b, x):
        assert (a * b).eval_rational(x) == a.eval_rational(x) * b.eval_rational(x)
        assert (a + b).eval_rational(x) == a.eval_rational(x) + b.eval_rational(x)

    @given(wide_polys, wide_rationals)
    def test_eval_rational_matches_fraction_horner(self, p, x):
        assert p.eval_rational(x) == fraction_horner(p, x)

    @given(polys, polys)
    def test_derivative_product_rule(self, a, b):
        assert (a * b).derivative() == a.derivative() * b + a * b.derivative()

    @given(polys, polys)
    def test_derivative_linear(self, a, b):
        assert (a + b).derivative() == a.derivative() + b.derivative()


class TestRendering:
    def test_fixed_format(self):
        assert str(P(1, 0, 10, 0, 15, 0)) == "x^5 + 10*x^3 + 15*x"

    def test_zero(self):
        assert str(ZERO) == "0"

    def test_constant(self):
        assert str(P(3)) == "3"

    def test_negative_leading(self):
        assert str(-X) == "-x"

    def test_negative_constant_term(self):
        assert str(P(1, 0, 3, 0, 9, 0, -9)) == "x^6 + 3*x^4 + 9*x^2 - 9"

    def test_scaled(self):
        assert str(P(4, 0, 48)) == "4*x^2 + 48"
