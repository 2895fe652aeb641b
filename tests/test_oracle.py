import math
import random
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from millsratio import contfrac, families, oracle
from millsratio.errors import EnvelopeError
from millsratio.numutil import to_fraction
from millsratio.oracle import phi_derivative, phi_quadrature, phi_series

GRID = [Fraction(-5), Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(0),
        Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5), Fraction(10), Fraction(20)]


class TestSeries:
    def test_value_at_zero(self):
        ov = phi_series(0, 192)
        with mp.workprec(256):
            assert abs(ov.value - mp.sqrt(mp.pi / 2)) < mpf(2) ** -160

    def test_value_at_one(self):
        ov = phi_series(1, 128)
        assert abs(ov.value - mpf("0.6556795424187985")) < mpf("1e-15")

    def test_error_bound_contract(self):
        for p in (64, 128, 192):
            assert phi_series(1, p).error_bound <= mpf(2) ** (-p + 8)

    def test_monotone_precision(self):
        assert phi_series(2, 256).error_bound <= phi_series(2, 128).error_bound

    def test_envelope(self):
        with pytest.raises(EnvelopeError):
            phi_series(31, 128)

    def test_negative_argument_growth(self):
        # phi approaches sqrt(2*pi) e^{x^2/2} as x -> -inf
        ov = phi_series(-10, 128)
        with mp.workprec(160):
            asymptote = mp.sqrt(2 * mp.pi) * mp.exp(mpf(100) / 2)
            assert abs(ov.value / asymptote - 1) < mpf("1e-2")


class TestQuadrature:
    def test_value_at_zero(self):
        ov = phi_quadrature(0, 192)
        with mp.workprec(256):
            assert abs(ov.value - mp.sqrt(mp.pi / 2)) < ov.error_bound

    def test_large_positive_argument(self):
        ov = phi_quadrature(10, 128)
        assert abs(ov.value - mpf("0.0990285964717319214")) < mpf("1e-15")
        assert ov.value < mpf("0.1")  # below the order-0 upper bound 1/x

    def test_envelope(self):
        with pytest.raises(EnvelopeError):
            phi_quadrature(-31, 128)


class TestAgreement:
    @pytest.mark.parametrize("x", GRID)
    def test_methods_agree(self, x):
        s = phi_series(x, 192)
        q = phi_quadrature(x, 192)
        assert abs(s.value - q.value) <= s.error_bound + q.error_bound


class TestDerivatives:
    def test_first_derivative_at_zero(self):
        assert abs(phi_derivative(1, 0, 128) + 1) < mpf(2) ** -120

    def test_second_derivative_at_zero(self):
        with mp.workprec(192):
            assert abs(phi_derivative(2, 0, 128) - mp.sqrt(mp.pi / 2)) < mpf(2) ** -120

    def test_zeroth_derivative_is_phi(self):
        assert abs(phi_derivative(0, 1, 128) - phi_series(1, 128).value) < mpf(2) ** -120

    def test_ode_residual(self):
        # phi' = x*phi - 1, checked by a central finite difference
        p = 192
        with mp.workprec(p + 16):
            for x in (Fraction(-1), Fraction(0), Fraction(1), Fraction(3)):
                fd = (phi_series(x + Fraction(1, 2**64), p).value
                      - phi_series(x - Fraction(1, 2**64), p).value) / (2 * mpf(2) ** -64)
                expect = mpf(x.numerator) / x.denominator * phi_series(x, p).value - 1
                assert abs(fd - expect) < mpf(2) ** -100

    @pytest.mark.parametrize("x", [Fraction(-2), Fraction(0), Fraction(1), Fraction(4)])
    def test_sign_alternation(self, x):
        for n in range(11):
            value = phi_derivative(n, x, 128)
            assert (-1) ** n * value > 0, f"n={n}, x={x}"


def _reference(x: Fraction) -> mpf:
    """phi(x) from mpmath's erfc at >= 600 bits, plus u log2 e bits for x < 0,
    where phi grows like e^u, u = x^2/2."""
    bits = 640 + (math.ceil(float(x) ** 2 / 2 * math.log2(math.e)) if x < 0 else 0)
    with mp.workprec(bits):
        xv = mpf(x.numerator) / x.denominator
        return mp.exp(xv * xv / 2) * mp.sqrt(mp.pi / 2) * mp.erfc(xv / mp.sqrt(2))


def _series_points():
    rng = random.Random(20261018)
    xs = [Fraction(rng.randint(-30 * d, 30 * d), d) for d in (rng.randint(1, 128) for _ in range(24))]
    xs += [Fraction(-30), Fraction(0), Fraction(30), Fraction(-3839, 128), Fraction(3839, 128)]
    xs += [rng.uniform(-30, 30) for _ in range(3)]  # floats
    with mp.workprec(160):  # mpfs longer than a double
        xs += [mpf(rng.uniform(-30, 30)) * (1 + mpf(2) ** -90) for _ in range(2)]
    return xs


class TestSeriesErrorBound:
    @pytest.mark.parametrize("p", [64, 128, 256])
    def test_value_within_derived_bound(self, p):
        for x in _series_points():
            ov = phi_series(x, p)
            ref = _reference(to_fraction(x))
            with mp.workprec(2048):
                assert abs(ov.value - ref) <= ov.error_bound, f"x={x}, p={p}"
            assert 0 < ov.error_bound <= mpf(2) ** -(p + 32), f"x={x}, p={p}"

    @pytest.mark.parametrize("x", [Fraction(0), Fraction(1, 3), Fraction(-5, 2), Fraction(79, 10), Fraction(3839, 128), Fraction(-30)])
    def test_terms_exceed_u(self, x):
        # above u = x^2/2 the terms (-u)^k / (k! (2k+1)) alternate and shrink,
        # so the omitted tail lies between 0 and the first omitted term
        ov = phi_series(x, 128)
        u = x * x / 2
        assert ov.terms > u
        k = ov.terms
        assert u * (2 * k + 1) < (k + 1) * (2 * k + 3)  # |t_{k+1}| < |t_k|, and likewise for every larger k

    def test_records_work(self):
        ov = phi_series(Fraction(10), 128)
        assert ov.working_bits == 128 + 48 + math.ceil(50 * math.log2(math.e))
        q = phi_quadrature(Fraction(10), 128)
        assert q.working_bits == 160 and q.terms is None

    def test_independent_of_polynomial_and_continued_fraction_code(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the series route must not use this")

        monkeypatch.setattr(families, "pq_pair", refuse)
        monkeypatch.setattr(families, "quadratic_triple", refuse)
        monkeypatch.setattr(oracle, "pq_pair", refuse)
        monkeypatch.setattr(contfrac, "cf_convergent", refuse)
        for x in (Fraction(-7, 3), Fraction(0), Fraction(25, 2)):
            ov = phi_series(x, 128)
            with mp.workprec(1024):
                assert abs(ov.value - _reference(x)) <= ov.error_bound
