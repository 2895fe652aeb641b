from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st
from mpmath import mpf

from millsratio.numutil import to_fraction
from millsratio.poly import IntPolynomial, ONE, X, ZERO, x_step


def P(*coeffs):
    """Polynomial from descending coefficients, e.g. P(1, 0, 3) = x^2 + 3."""
    return IntPolynomial(list(reversed(coeffs)))


polys = st.lists(st.integers(-50, 50), max_size=8).map(IntPolynomial)
rationals = st.fractions(min_value=-10, max_value=10, max_denominator=20)
wide_polys = st.lists(st.integers(-(10**30), 10**30), max_size=40).map(IntPolynomial)
wide_rationals = st.fractions(max_denominator=10**9)
wide_coeffs = st.lists(st.integers(-(2**600), 2**600), max_size=40)
# every polynomial of the families has a definite parity: half its terms are 0
parity_polys = st.tuples(wide_coeffs, st.integers(0, 1)).map(
    lambda t: IntPolynomial([c if k % 2 == t[1] else 0 for k, c in enumerate(t[0])])
)
mul_operands = st.one_of(wide_coeffs.map(IntPolynomial), parity_polys, polys)
scalars = st.integers(-(2**600), 2**600)


def schoolbook(a, b):
    """Reference product: every pair of terms, zero or not."""
    if not a.coeffs or not b.coeffs:
        return IntPolynomial()
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return IntPolynomial(out)


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

    @pytest.mark.parametrize("coeffs,bad", [([2.5, 0.9], 2.5), (["7", 1.0], "7"), ([1, 2.0], 2.0), ([True], True),
                                            ([3, Fraction(1, 2)], Fraction(1, 2)), ([0, mpf(1)], mpf(1))])
    def test_non_int_coefficient_refused(self, coeffs, bad):
        # a coefficient is never truncated or parsed into an int
        with pytest.raises(TypeError) as exc:
            IntPolynomial(coeffs)
        assert str(exc.value) == f"IntPolynomial coefficients must be int, got {bad!r}"

    def test_int_scalars_combine(self):
        # an int scalar, a bool too, is a constant polynomial, not a coefficient list
        assert X + True == P(1, 1) and X * True == X and P(1) == True
        assert all(type(c) is int for c in (X + True).coeffs)

    def test_other_scalars_do_not_combine(self):
        # a float is refused, not truncated; a string is no polynomial
        for combine in (lambda: X + 1.5, lambda: 1.5 * X):
            with pytest.raises(TypeError, match="with float"):
                combine()
        assert (X == "x") is False and (X != "x") is True

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

    @given(mul_operands, mul_operands)
    def test_mul_matches_schoolbook(self, a, b):
        assert (a * b).coeffs == schoolbook(a, b).coeffs

    @given(mul_operands)
    @example(ZERO)
    @example(IntPolynomial([-7]))
    @example(IntPolynomial([0, 0, 5]))
    @example(IntPolynomial([0, -3, 0, 2]))
    @example(IntPolynomial([1, -2, 3, -4, 5]))
    def test_square_matches_schoolbook(self, a):
        # a * a is a square (the same object twice); a * IntPolynomial(a.coeffs)
        # is an equal copy and takes the general product
        expected = schoolbook(a, a).coeffs
        assert (a * a).coeffs == expected
        assert (a * IntPolynomial(a.coeffs)).coeffs == expected

    @given(mul_operands, scalars)
    @example(IntPolynomial([3, 0, -4]), 0)
    @example(IntPolynomial([3, 0, -4]), -1)
    @example(IntPolynomial(), -5)
    def test_mul_by_int_on_either_side(self, a, c):
        expected = schoolbook(a, IntPolynomial([c])).coeffs
        assert (a * c).coeffs == expected
        assert (c * a).coeffs == expected
        if c == 0:
            assert a * c == ZERO and (a * c).degree == -1 and (c * a).coeffs == ()

    @given(wide_polys, wide_rationals)
    def test_eval_rational_matches_fraction_horner(self, p, x):
        assert p.eval_rational(x) == fraction_horner(p, x)
        # an mpf or a float is read with every bit, a string as the rational it spells
        for value in (mpf(x.numerator) / x.denominator, float(x), str(x)):
            assert p.eval_rational(value) == fraction_horner(p, to_fraction(value))

    @given(polys, polys)
    def test_derivative_product_rule(self, a, b):
        assert (a * b).derivative() == a.derivative() * b + a * b.derivative()

    @given(polys, polys)
    def test_derivative_linear(self, a, b):
        assert (a + b).derivative() == a.derivative() + b.derivative()


# every shape the arithmetic meets: zero, constants, dense and parity polynomials
arith_polys = st.one_of(st.just(ZERO), st.integers(-(2**70), 2**70).map(lambda c: IntPolynomial([c])),
                        polys, wide_coeffs.map(IntPolynomial), parity_polys)


@st.composite
def operand_pairs(draw):
    """(a, b), b free, the same object as a, or agreeing with a or -a above
    a cut, so that a - b or a + b cancels its top terms."""
    a = draw(arith_polys)
    kind = draw(st.sampled_from(["free", "same", "cancel"]))
    if kind == "free":
        return a, draw(arith_polys)
    if kind == "same":
        return a, a
    cut = draw(st.integers(0, len(a.coeffs)))
    sign = draw(st.sampled_from([1, -1]))
    low = draw(st.lists(st.integers(-50, 50), min_size=cut, max_size=cut))
    return a, IntPolynomial(low + [sign * c for c in a.coeffs[cut:]])


@st.composite
def step_operands(draw):
    """(p, k, q) with k of any sign, zero included, and q free or agreeing
    with -X p / k above a cut for k = +-1, so that X p + k q cancels its top
    terms."""
    p = draw(arith_polys)
    if draw(st.booleans()):
        return p, draw(st.one_of(st.integers(-3, 3), scalars)), draw(arith_polys)
    k = draw(st.sampled_from([1, -1]))
    shifted = [0, *p.coeffs]
    cut = draw(st.integers(0, len(shifted)))
    low = draw(st.lists(st.integers(-50, 50), min_size=cut, max_size=cut))
    return p, k, IntPolynomial(low + [-k * c for c in shifted[cut:]])


def reference(coeffs):
    """The result the public constructor builds from coefficients formed one by one."""
    return IntPolynomial(list(coeffs))


def coefficient(p, k):
    """The coefficient of X^k in p, 0 above its degree."""
    return p.coeffs[k] if k < len(p.coeffs) else 0


def assert_canonical(result, expected):
    assert result.coeffs == expected.coeffs
    assert not result.coeffs or result.coeffs[-1] != 0
    assert all(type(c) is int for c in result.coeffs)


class TestOwnResults:
    """Results of the arithmetic skip the public constructor's type check;
    each must still be what that constructor builds coefficientwise."""

    @given(operand_pairs())
    @example((X, -X))
    @example((P(1, 0, 2), P(1, 0, 0)))
    @example((ZERO, ZERO))
    @example((P(7), P(7)))
    def test_add_sub_neg_mul(self, pair):
        a, b = pair
        width = max(len(a.coeffs), len(b.coeffs))
        assert_canonical(a + b, reference(coefficient(a, k) + coefficient(b, k) for k in range(width)))
        assert_canonical(a - b, reference(coefficient(a, k) - coefficient(b, k) for k in range(width)))
        assert_canonical(-a, reference(-c for c in a.coeffs))
        assert_canonical(a * b, schoolbook(a, b))
        assert_canonical(a * a, schoolbook(a, a))

    @given(arith_polys, st.one_of(scalars, st.integers(-3, 3), st.booleans()))
    @example(ZERO, 5)
    @example(P(3, 0, -1), 0)
    @example(P(3, 0, -1), True)
    def test_shift_scale_derivative(self, a, k):
        shifted = reference([0, *a.coeffs])
        assert_canonical(X * a, shifted)
        assert_canonical(a * X, shifted)
        assert_canonical(k * a, reference(int(k) * c for c in a.coeffs))
        assert_canonical(a * k, reference(int(k) * c for c in a.coeffs))
        assert_canonical(a.derivative(), reference([j * c for j, c in enumerate(a.coeffs)][1:]))
        assert_canonical(a + k, reference([coefficient(a, 0) + int(k), *a.coeffs[1:]]))
        assert_canonical(k - a, reference([int(k) - coefficient(a, 0), *(-c for c in a.coeffs[1:])]))

    @given(step_operands())
    @example((ZERO, 5, ZERO))
    @example((ZERO, -2, P(1, 0, 0, 0, 0)))  # deg q > deg p + 1
    @example((P(3, 0, -1), 0, P(1, 0, 0, 0, 0, 0, 9)))  # k = 0: q is ignored, however long
    @example((X, -1, P(1, 0, 0)))  # X * X - X^2: cancels to ZERO
    @example((P(2, 0, 1), 1, P(-2, 0, 0, 5)))  # cancels its top term
    @example((P(7), -3, ZERO))
    def test_x_step_is_x_times_p_plus_k_times_q(self, operands):
        # one pass over both operands, padded to the longer of X * p and q
        p, k, q = operands
        width = max(len(p.coeffs) + 1, len(q.coeffs))
        expected = reference((coefficient(p, i - 1) if i else 0) + k * coefficient(q, i) for i in range(width))
        assert_canonical(x_step(p, k, q), expected)
        assert x_step(p, k, q) == X * p + k * q


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
