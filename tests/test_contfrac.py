from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from millsratio.contfrac import cf_b, cf_convergent, cf_ladder_eval, expansion_str
from millsratio.errors import DomainError
from millsratio.families import pq_pair
from millsratio.oracle import phi_series


def fraction_convergent(n, x):
    """Reference: p_{k+1} = b_k x p_k + p_{k-1} (and likewise for q) with
    every intermediate value a reduced Fraction."""
    p_prev, p = Fraction(1), x
    q_prev, q = Fraction(0), Fraction(1)
    for k in range(1, n):
        bk = cf_b(k)
        p_prev, p = p, bk * x * p + p_prev
        q_prev, q = q, bk * x * q + q_prev
    return q / p


@st.composite
def positive_rationals(draw):
    """x in (0, 30] with a denominator of at most 2^20."""
    den = draw(st.integers(min_value=1, max_value=2**20))
    return Fraction(draw(st.integers(min_value=1, max_value=30 * den)), den)


class TestCoefficients:
    def test_first_values(self):
        expect = [
            Fraction(1),
            Fraction(1),
            Fraction(1, 2),
            Fraction(2, 3),
            Fraction(3, 8),
            Fraction(8, 15),
            Fraction(5, 16),
        ]
        assert [cf_b(n) for n in range(7)] == expect

    @given(st.integers(min_value=0, max_value=100))
    def test_pairing_identity(self, n):
        assert cf_b(2 * n) * cf_b(2 * n + 1) * (2 * n + 1) == 1

    def test_all_positive(self):
        assert all(cf_b(n) > 0 for n in range(50))


class TestConvergents:
    def test_first_convergent(self):
        assert cf_convergent(1, Fraction(2)) == Fraction(1, 2)

    def test_order_zero_is_zero(self):
        for x in (Fraction(1, 3), 1, "7/3", 2.5):
            assert cf_convergent(0, x) == 0

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError, match="order must be non-negative"):
            cf_convergent(-1, 1)

    @settings(deadline=None)
    @given(st.integers(min_value=0, max_value=60), positive_rationals())
    def test_step_is_the_error_bound(self, n, x):
        # the Wronskian: |C_{n+1} - C_n| = n! / (P_n P_{n+1}), P from the tables
        p_n, p_next = (pq_pair(k).p.eval_rational(x) for k in (n, n + 1))
        assert abs(cf_convergent(n + 1, x) - cf_convergent(n, x)) == Fraction(factorial(n)) / (p_n * p_next)

    def test_table_values_at_one(self):
        assert cf_convergent(4, Fraction(1)) == Fraction(3, 5)
        assert cf_convergent(5, Fraction(1)) == Fraction(9, 13)

    @pytest.mark.parametrize("x", [Fraction(1, 2), Fraction(1), Fraction(7, 3)])
    def test_equals_polynomial_quotient(self, x):
        for n in range(1, 201):
            pair = pq_pair(n)
            assert cf_convergent(n, x) == pair.q.eval_rational(x) / pair.p.eval_rational(x)

    def test_alternating_enclosure(self):
        for x in (Fraction(1, 2), Fraction(1), Fraction(3)):
            phi = phi_series(x, 192).value
            with mp.workprec(192):
                for n in range(1, 20):
                    conv = cf_convergent(n, x)
                    value = mpf(conv.numerator) / conv.denominator
                    if n % 2 == 0:
                        assert value < phi
                    else:
                        assert value > phi

    @settings(deadline=None)
    @given(
        st.integers(min_value=1, max_value=200),
        st.fractions(min_value=Fraction(1, 10**6), max_value=10**3, max_denominator=10**6),
    )
    def test_matches_fraction_recurrence(self, n, x):
        assert cf_convergent(n, x) == fraction_convergent(n, x)

    @settings(deadline=None)
    @given(st.integers(min_value=1, max_value=200), st.floats(min_value=1e-6, max_value=1e3))
    def test_float_input_matches_fraction_recurrence(self, n, x):
        assert cf_convergent(n, x) == fraction_convergent(n, Fraction(x))

    @pytest.mark.parametrize("x", [mpf("1.5"), 1.5, "3/2", "1.5"])
    def test_reads_x_like_the_bounds(self, x):
        assert cf_convergent(3, x) == cf_convergent(3, Fraction(3, 2)) == Fraction(34, 63)

    def test_decimal_string_is_exact(self):
        assert cf_convergent(4, "0.1") == cf_convergent(4, Fraction(1, 10)) != cf_convergent(4, 0.1)

    def test_rejects_nonpositive_x(self):
        with pytest.raises(DomainError):
            cf_convergent(3, Fraction(0))
        with pytest.raises(DomainError):
            cf_convergent(3, Fraction(-1))


class TestLadder:
    def test_depth_one(self):
        assert cf_ladder_eval(1, 1, 128) == mpf("0.5")

    @pytest.mark.parametrize("x", [Fraction(1), Fraction(2), Fraction(5)])
    def test_matches_next_convergent(self, x):
        # the depth-d ladder truncation is the order-(d+1) convergent
        for depth in range(1, 13):
            conv = cf_convergent(depth + 1, x)
            with mp.workprec(128):
                expected = mpf(conv.numerator) / conv.denominator
                got = cf_ladder_eval(depth, x, 128)
                assert abs(got - expected) < mpf(2) ** -100

    def test_converges_to_phi(self):
        phi = phi_series(Fraction(3), 192).value
        got = cf_ladder_eval(40, Fraction(3), 192)
        assert abs(got - phi) / phi < mpf("1e-10")

    def test_approaches_phi_at_one(self):
        phi = phi_series(Fraction(1), 192).value
        err_small = abs(cf_ladder_eval(200, Fraction(1), 192) - phi)
        err_big = abs(cf_ladder_eval(50, Fraction(1), 192) - phi)
        assert err_small < err_big / 100

    def test_rejects_nonpositive_x(self):
        with pytest.raises(DomainError):
            cf_ladder_eval(5, 0, 128)
        with pytest.raises(ValueError):
            cf_ladder_eval(0, 1, 128)


def test_expansion_rendering():
    assert expansion_str(4) == "[0; x, x, 1/2*x, 2/3*x, ...]"
