import ast
import functools
import hashlib
import inspect
import itertools
import math
import pathlib
import random
import subprocess
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import iv, mp, mpf
from mpmath.libmp import (fzero, mpf_add, mpf_exp, mpf_lt, mpf_pi, mpf_shift, mpf_sub, normalize, round_ceiling,
                          round_floor, round_nearest, to_int)

from millsratio import contfrac, families, oracle
from millsratio.errors import EnvelopeError
from millsratio.numutil import round_quotient, to_fraction
from millsratio.bounds import phi_derivative
from millsratio.oracle import phi_quadrature, phi_series

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


@pytest.mark.parametrize("route", [phi_series, phi_quadrature])
@pytest.mark.parametrize("x", [Fraction(30 * 10**20 + 1, 10**20), "30.00000000000000000001"])
def test_envelope_is_decided_exactly(route, x):
    # a float reading of this x is 30.0, inside the envelope
    with pytest.raises(EnvelopeError, match=rf"\|x\| must be <= 30, got x = {x}"):
        route(x, 64)
    assert route(Fraction(30), 64).value > 0  # the envelope's edge is inside


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


def _reference(x: Fraction, bits: int = 640) -> mpf:
    """phi(x) from mpmath's erfc at >= bits bits, plus u log2 e bits for x < 0,
    where phi grows like e^u, u = x^2/2."""
    bits += math.ceil(float(x) ** 2 / 2 * math.log2(math.e)) if x < 0 else 0
    with mp.workprec(bits):
        xv = mpf(x.numerator) / x.denominator
        return mp.exp(xv * xv / 2) * mp.sqrt(mp.pi / 2) * mp.erfc(xv / mp.sqrt(2))


# the regime switch on the grid k/128 at p = 64, 128 and 256: the
# convergent regime at 1642/128, 2036/128 and 2654/128, the asymptotic one
# from the next grid point on
_SWITCH = {64: Fraction(1643, 128), 128: Fraction(2037, 128), 256: Fraction(2655, 128)}
_SWITCH_EDGES = [s * (edge - step) for edge in _SWITCH.values() for step in (Fraction(1, 128), 0) for s in (1, -1)]


def _series_points():
    rng = random.Random(20261018)
    xs = [Fraction(rng.randint(-30 * d, 30 * d), d) for d in (rng.randint(1, 128) for _ in range(24))]
    xs += [Fraction(-30), Fraction(0), Fraction(30), Fraction(-3839, 128), Fraction(3839, 128)]
    xs += _SWITCH_EDGES
    xs += [rng.uniform(-30, 30) for _ in range(3)]  # floats
    with mp.workprec(160):  # mpfs longer than a double
        xs += [mpf(rng.uniform(-30, 30)) * (1 + mpf(2) ** -90) for _ in range(2)]
    with mp.workprec(300):  # a 300-bit mantissa
        xs.append(mpf(rng.uniform(-30, 30)) * (1 + mpf(2) ** -290))
    # the least x > 0, whose sum stops at its first allowed term, k = 1; and
    # x^2 = 2u = 64, where the stop rule's k >= x^2 first holds with equality
    # and the tail's first ratio x^2 / (2k+3) = 64/131 is nearest to 1/2
    return xs + [Fraction(1, 2**60), Fraction(8), Fraction(-8)]


class TestSeriesErrorBound:
    @pytest.mark.parametrize("p", [64, 128, 256])
    def test_value_within_derived_bound(self, p):
        for x in _series_points():
            ov = phi_series(x, p)
            ref = _reference(to_fraction(x))
            with mp.workprec(2048):
                assert abs(ov.value - ref) <= ov.error_bound, f"x={x}, p={p}"
            assert 0 < ov.error_bound <= mpf(2) ** -(p + 32), f"x={x}, p={p}"

    def test_value_within_derived_bound_at_1024_bits(self):
        for x in _series_points()[-9:] + [Fraction(0), Fraction(30), Fraction(-30), Fraction(3839, 128)]:
            ov = phi_series(x, 1024)
            ref = _reference(to_fraction(x), 1200)
            with mp.workprec(4096):
                assert abs(ov.value - ref) <= ov.error_bound, f"x={x}"
            assert 0 < ov.error_bound <= mpf(2) ** -(1024 + 32), f"x={x}"

    @pytest.mark.parametrize("x", [Fraction(0), Fraction(1, 3), Fraction(-5, 2), Fraction(79, 10), Fraction(3839, 128), Fraction(-30)])
    def test_terms_exceed_u(self, x):
        ov = phi_series(x, 128)
        k = ov.terms
        if abs(x) >= _SWITCH[128]:
            # the asymptotic regime: the first omitted term t_n = (2n-1)!! /
            # |x|^{2n+1} is at most 2^-(p+58), and the terms still decrease
            # at n, t_n < t_{n-1}
            assert _term(x, k) <= Fraction(1, 2 ** (128 + 58))
            assert 2 * k - 1 < x * x
            return
        # the convergent regime sums the positive terms t_0 .. t_{k-1}, t_i =
        # |x|^{2i+1} / (2i+1)!!, and stops past 2u = x^2: from t_{k-1} on each
        # ratio t_{i+1} / t_i = x^2 / (2i+3) is below 1/2, so the omitted tail
        # is below t_{k-1}, which the error bound covers
        if x == 0:  # D(0) = 0 sums no term
            assert k == 0
            return
        assert k - 1 >= x * x
        assert 2 * x * x < 2 * k + 1  # t_k < t_{k-1} / 2, and likewise for every larger k
        assert _positive_term(x, k - 1) <= to_fraction(ov.error_bound)

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
        monkeypatch.setattr(contfrac, "cf_convergent", refuse)
        for x in (Fraction(-7, 3), Fraction(0), Fraction(25, 2), Fraction(-3839, 128)):
            ov = phi_series(x, 128)
            with mp.workprec(1024):
                assert abs(ov.value - _reference(x)) <= ov.error_bound


def _round_at(q: Fraction, bits: int, direction=math.floor) -> Fraction:
    """q > 0 rounded to `bits` significant bits by direction, math.floor
    (the greatest such number at most q) or math.ceil (the least at least q)."""
    e = q.numerator.bit_length() - q.denominator.bit_length()
    e -= q < Fraction(2) ** e  # 2^e <= q < 2^(e+1)
    scale = Fraction(2) ** (bits - 1 - e)
    return direction(q * scale) / scale


def _ends(monkeypatch, route, x, p):
    """route(x, p), and the ends lo and hi, as Fractions, and the precision w
    of the one enclosure it passed to oracle._enclosed."""
    seen, enclosed = [], oracle._enclosed
    monkeypatch.setattr(oracle, "_enclosed", lambda lo, hi, w, *rest: seen.append((lo, hi, w)) or enclosed(lo, hi, w, *rest))
    try:
        ov = route(x, p)
    finally:
        monkeypatch.setattr(oracle, "_enclosed", enclosed)
    ((lo, hi, w),) = seen
    return ov, to_fraction(mp.make_mpf(lo)), to_fraction(mp.make_mpf(hi)), w


def _finishes(monkeypatch, x, p, route=phi_series):
    """route(x, p) and its ends as _ends reads them, with the one call of
    oracle._finish as c and [R_lo, R_hi], R_end = r 2^t / q the exact
    rational that end adds to c K, and the exact rational each end is
    rounded from, with its rounding."""
    calls, rounded, finish, quotient = [], [], oracle._finish, oracle.round_quotient

    def recording(c, u, ends, t, w):
        calls.append((c, [Fraction(r, q) * Fraction(2) ** t for r, q in ends]))
        return finish(c, u, ends, t, w)

    def rounding(num, den, prec, rnd, exp=0):
        rounded.append((Fraction(num, den) * Fraction(2) ** exp, rnd))
        return quotient(num, den, prec, rnd, exp)

    monkeypatch.setattr(oracle, "_finish", recording)
    monkeypatch.setattr(oracle, "round_quotient", rounding)
    try:
        ov, lo, hi, w = _ends(monkeypatch, route, x, p)
    finally:
        monkeypatch.setattr(oracle, "_finish", finish)
        monkeypatch.setattr(oracle, "round_quotient", quotient)
    ((c, r_ends),) = calls
    return ov, lo, hi, w, c, r_ends, rounded


@functools.cache
def _pi_enclosure(bits: int) -> tuple[int, int]:
    """lo <= pi 2^bits <= hi, by Machin's formula pi = 16 atan(1/5) - 4
    atan(1/239) at N = bits + 32: each term floor(2^N / (n^(2k+1) (2k+1)))
    is one exact floor, so each alternating sum of k terms lies within k of
    the exact one, and the tail past it within 1."""
    n_bits = bits + 32
    ends = []
    for n in (5, 239):
        total, power, k = 0, (1 << n_bits) // n, 0  # power = floor(2^N / n^(2k+1))
        while power:
            total += (-1) ** k * (power // (2 * k + 1))
            power //= n * n
            k += 1
        ends.append((total - k - 1, total + k + 1))
    (a_lo, a_hi), (b_lo, b_hi) = ends
    return (16 * a_lo - 4 * b_hi) >> 32, -(-(16 * a_hi - 4 * b_lo) >> 32)


@functools.cache
def _exp_enclosure(v: Fraction, bits: int) -> tuple[int, int]:
    """lo <= e^v 2^bits <= hi for v >= 0, from the exact Taylor sum S_K of
    v^k / k! over k <= K, by Horner in integers: S_K <= e^v <= S_K + 2
    t_{K+1} for K + 2 >= 2v, as every later term is at most half the one
    before it.  K is chosen in floats, so that t_{K+1} 2^bits < 1/16."""
    a, b = v.numerator, v.denominator
    if a == 0:
        return 1 << bits, 1 << bits
    top = math.ceil(2 * v)
    while (top + 1) * math.log(v) - math.lgamma(top + 2) > -(bits + 4) * math.log(2):
        top += 1
    num = den = 1
    for k in range(top, 0, -1):  # S = 1 + (v / k) S, num / den with den = b^K K!
        num, den = den * b * k + a * num, den * b * k
    last = den * b * (top + 1)  # 2 t_{K+1} = 2 a^(K+1) / last
    return (num << bits) // den, -(-((num * b * (top + 1) + 2 * a ** (top + 1)) << bits) // last)


def _k_enclosure(u: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """lo <= sqrt(pi/2) e^u <= hi, exactly: Machin's pi and the Taylor
    enclosure of e^u at the given bits, and sqrt(pi/2) from pi's ends."""
    pi_lo, pi_hi = _pi_enclosure(bits)
    e_lo, e_hi = _exp_enclosure(u, bits)
    root_lo, root_hi = math.isqrt(pi_lo << (bits - 1)), math.isqrt((pi_hi << (bits - 1)) - 1) + 1
    return Fraction(root_lo * e_lo, 4**bits), Fraction(root_hi * e_hi, 4**bits)


def _term(x: Fraction, k: int) -> Fraction:
    """t_k = (2k-1)!! / |x|^{2k+1}, the k-th term of phi's asymptotic expansion."""
    return math.prod(range(1, 2 * k, 2)) / abs(x) ** (2 * k + 1)


def _asymptotic_terms(x: Fraction, p: int) -> int | None:
    """The least n with t_n <= 2^-(p+58), or None if the terms stop
    decreasing first."""
    n, t = 0, _term(x, 0)
    while t > Fraction(1, 2 ** (p + 58)):
        following = _term(x, n + 1)
        if following >= t:
            return None
        n, t = n + 1, following
    return n


def _asymptotic_reference(x: Fraction, p: int):
    """(n, S_n, S_{n+1}) of phi's asymptotic expansion at |x|, each term
    formed by math.prod, n as _asymptotic_terms; None where that is."""
    n = _asymptotic_terms(x, p)
    if n is None:
        return None
    s = sum((-1) ** k * _term(x, k) for k in range(n))
    return n, s, s + (-1) ** n * _term(x, n)


# grid points about each switch edge, and points far beyond them
_ASYMPTOTIC_POINTS = sorted({s * (edge + Fraction(k, 128)) for edge in _SWITCH.values() for k in (-2, -1, 0, 1, 2)
                             for s in (1, -1)} | {Fraction(20), Fraction(-25), Fraction(-2001, 97), Fraction(29.99),
                                                  Fraction(3839, 128), Fraction(-3839, 128), Fraction(30), Fraction(-30)})


def _convergent(monkeypatch, x, p):
    """phi_series(x, p) in the convergent regime, wherever the switch falls."""
    sums = oracle._asymptotic_sums
    monkeypatch.setattr(oracle, "_asymptotic_sums", lambda *args: None)
    try:
        return phi_series(x, p)
    finally:
        monkeypatch.setattr(oracle, "_asymptotic_sums", sums)


def _asymptotic(ov, x: Fraction, p: int) -> bool:
    """Whether ov = phi_series(x, p) took the asymptotic regime, read from
    its working precision: p + 64 (x > 0) or p + 52 + lu (x < 0) there, and
    p + 48 + lu in the convergent regime, with lu = ceil(u log2 e)."""
    lu = oracle._log2_exp(x * x / 2)
    asymptotic = p + 64 if x > 0 else p + 52 + lu
    assert ov.working_bits in (asymptotic, p + 48 + lu), f"x={x}, p={p}"
    return ov.working_bits == asymptotic


class TestSeriesAsymptotic:
    @pytest.mark.parametrize("p", [64, 128, 256])
    def test_partial_sums_rounded_outward_once(self, monkeypatch, p):
        # the regime is taken exactly where the Fraction rule says, and its
        # ends are c K + R rounded outward once: for x > 0, S_n and S_{n+1}
        # at p + 64 bits; for x < 0, twice sqrt(pi/2) e^u's lower and upper
        # ends less the exact S_n and S_{n+1}, each on its side of the exact
        # 2 K - S and within twice K's width 3 2^-(w-lu) of it.  R's ends are
        # checked before the rounding too: at x < 0 the finer of them is far
        # below an ulp of w.  Elsewhere phi_series is the convergent regime
        for x in _ASYMPTOTIC_POINTS:
            ref = _asymptotic_reference(x, p)
            ov, lo, hi, w, c, r_ends, rounded = _finishes(monkeypatch, x, p)
            conv = _convergent(monkeypatch, x, p)
            assert _asymptotic(ov, x, p) == (ref is not None), f"x={x}, p={p}"
            if ref is None:
                assert (ov.value, ov.error_bound, ov.terms, ov.working_bits) == \
                       (conv.value, conv.error_bound, conv.terms, conv.working_bits), f"x={x}, p={p}"
                continue
            n, s0, s1 = ref
            low, high = min(s0, s1), max(s0, s1)
            (x_lo, rnd_lo), (x_hi, rnd_hi) = rounded
            assert (rnd_lo, rnd_hi) == ("f", "c"), f"x={x}, p={p}"
            if x > 0:
                assert (c, r_ends, [x_lo, x_hi]) == (0, [low, high], [low, high]), f"x={x}, p={p}"
                ends = _round_at(low, p + 64), _round_at(high, p + 64, math.ceil), p + 64
                assert (lo, hi, w) == ends, f"x={x}, p={p}"
            else:
                u = x * x / 2
                lu = math.ceil(float(u) * math.log2(math.e))
                assert (c, r_ends, w) == (2, [-high, -low], p + 52 + lu), f"x={x}, p={p}"
                k_lo, k_hi = _k_enclosure(u, 2 * w)
                width = Fraction(3, 2 ** (w - lu))
                assert 2 * (k_lo - width) - high <= x_lo <= 2 * k_lo - high, f"x={x}, p={p}"
                assert 2 * k_hi - low <= x_hi <= 2 * (k_hi + width) - low, f"x={x}, p={p}"
                assert (lo, hi) == (_round_at(x_lo, w), _round_at(x_hi, w, math.ceil)), f"x={x}, p={p}"
            assert (ov.terms, ov.working_bits) == (n, w)
            assert 0 < ov.error_bound <= mpf(2) ** -(p + 32), f"x={x}, p={p}"
            assert ov.error_bound <= conv.error_bound, f"x={x}, p={p}"

    @pytest.mark.parametrize("p", [64, 128, 256])
    def test_switch_edges_agree_with_the_convergent_regime(self, monkeypatch, p):
        # on both sides of the switch the two regimes' enclosures intersect,
        # and past it the asymptotic error bound is no larger
        for x in _SWITCH_EDGES:
            ov, conv = phi_series(x, p), _convergent(monkeypatch, x, p)
            if abs(x) < _SWITCH[p]:
                assert not _asymptotic(ov, x, p) and ov == conv, f"x={x}, p={p}"
                continue
            assert _asymptotic(ov, x, p), f"x={x}, p={p}"
            assert abs(ov.value - conv.value) <= ov.error_bound + conv.error_bound, f"x={x}, p={p}"
            assert ov.error_bound <= conv.error_bound, f"x={x}, p={p}"

    def test_pre_test_leaves_out_no_point_the_rule_takes(self):
        # the O(1) pre-test from the smallest term never refuses a point the
        # exact rule would take: on a 1/512 grid about each switch edge,
        # the regime is taken exactly where the Fraction rule takes it
        for p, edge in _SWITCH.items():
            for k in range(-24, 25):
                x = edge + Fraction(k, 512)
                taken = _asymptotic(phi_series(x, p), x, p)
                assert taken == (_asymptotic_terms(x, p) is not None), f"x={x}, p={p}"


@pytest.mark.parametrize("p", [64, 128, 256])
def test_convergent_ends_are_k_less_d_rounded_once(monkeypatch, p):
    # each end of the convergent regime is K_end - sgn(x) D_end / 2^g rounded
    # once at w bits, down for the lower end and up for the upper, exactly:
    # K's end lies on its side of the exact K = sqrt(pi/2) e^u and within
    # K's width 3 2^-(w-lu) of it, and D in [acc, acc + ulps] / 2^g comes
    # from _positive_series, the lower end of R = -sgn(x) D taking D's upper
    # end for x > 0.  R's ends are checked before the rounding too: D's ulps
    # are about 2^-7 of an ulp of w.  Past the switch the convergent regime
    # is forced
    for x in (Fraction(0), Fraction(1, 3), Fraction(-1, 3), Fraction(1), Fraction(-5, 2), Fraction(79, 10),
              Fraction(-79, 10), Fraction(12), Fraction(-2001, 97), Fraction(3839, 128), Fraction(-30)):
        monkeypatch.setattr(oracle, "_asymptotic_sums", lambda *args: None)
        ov, lo, hi, w, c, r_ends, rounded = _finishes(monkeypatch, x, p)
        monkeypatch.undo()
        u = x * x / 2
        lu = oracle._log2_exp(u)
        n, acc, ulps, g = oracle._positive_series(abs(x.numerator), x.denominator, p + 56, lu)
        r_lo, r_hi = (Fraction(-acc - ulps, 2**g), Fraction(-acc, 2**g)) if x > 0 else \
                     (Fraction(acc, 2**g), Fraction(acc + ulps, 2**g))
        assert (w, ov.terms, c, r_ends) == (p + 48 + lu, n, 1, [r_lo, r_hi]), f"x={x}, p={p}"
        (x_lo, rnd_lo), (x_hi, rnd_hi) = rounded
        k_lo, k_hi = _k_enclosure(u, 2 * w)
        width = Fraction(3, 2 ** (w - lu))
        assert (rnd_lo, rnd_hi) == ("f", "c"), f"x={x}, p={p}"
        assert k_lo - width + r_lo <= x_lo <= k_lo + r_lo and k_hi + r_hi <= x_hi <= k_hi + width + r_hi, f"x={x}, p={p}"
        assert (lo, hi) == (_round_at(x_lo, w), _round_at(x_hi, w, math.ceil)), f"x={x}, p={p}"


@pytest.mark.parametrize("route", [phi_series, phi_quadrature], ids=lambda route: route.__name__)
def test_error_bound_is_the_distance_to_the_farther_end_rounded_up(monkeypatch, route):
    # the value lies in the enclosure, and error_bound is the least 53-bit
    # number at or above its distance to the farther end, as Fractions.  The
    # distance has more than 53 bits only where the ends are much finer than
    # it: in the quadrature near x = 0, whose working precision grows there
    for p in (64, 128):
        for x in (Fraction(-29), Fraction(-77, 8), Fraction(-1, 3), Fraction(1, 2**40), Fraction(-1, 2**40),
                  Fraction(0), Fraction(5, 2), Fraction(12), Fraction(3839, 128), Fraction(-3839, 128)):
            ov, lo, hi, w = _ends(monkeypatch, route, x, p)
            v = to_fraction(ov.value)
            assert lo <= v <= hi and ov.working_bits == w, f"x={x}, p={p}"
            assert to_fraction(ov.error_bound) == _round_at(max(hi - v, v - lo), 53, math.ceil), f"x={x}, p={p}"


def _enclosed_reference(lo: tuple, hi: tuple, w: int) -> tuple[tuple, tuple]:
    """(value, error_bound), raw, from libmp's rounded mpf arithmetic: the
    ends' sum rounded to nearest at w bits and halved, and the larger of the
    two distances to it, each rounded up at 53 bits by mpf_sub."""
    value = mpf_shift(mpf_add(lo, hi, w, round_nearest), -1)
    return value, max((mpf_sub(*pair, 53, round_ceiling) for pair in ((hi, value), (value, lo))), key=mp.make_mpf)


def _subtracts_exactly(a: tuple, b: tuple) -> bool:
    """Whether mpf_sub(a, b, 53, rnd) rounds the exact difference: where both
    are nonzero, their exponents lie more than 100 apart and their leading
    bits more than 57, it moves the larger by one unit 57 bits below its last
    bit in place of the smaller, which can round to the next 53-bit number."""
    (_, man_a, exp_a, bc_a), (_, man_b, exp_b, bc_b) = a, b
    return not (man_a and man_b and abs(exp_a - exp_b) > 100 and abs(exp_a + bc_a - exp_b - bc_b) > 57)


@st.composite
def _raw_ends(draw):
    """(lo, hi, w): raw mpfs lo <= hi of at most w bits, 53 <= w <= 9000,
    each zero or of either sign on exponents up to 12000 apart, the upper
    one drawn alone, equal to the lower or a few units of its last bit from it."""
    w = draw(st.integers(53, 9000))

    def end():
        if not draw(st.integers(0, 5)):
            return fzero
        bits = draw(st.integers(1, w))
        man = draw(st.integers(1 << bits - 1, (1 << bits) - 1))
        return normalize(draw(st.integers(0, 1)), man, draw(st.integers(-6000, 6000)), bits, w, round_floor)

    lo = end()
    kind = draw(st.sampled_from(["alone", "equal", "near"]))
    if kind == "equal":
        hi = lo
    elif kind == "near" and lo[1]:
        sign, man, exp, _ = lo
        man = (-man if sign else man) + draw(st.integers(-8, 8))
        hi = normalize(int(man < 0), abs(man), exp, abs(man).bit_length(), w, round_floor)
    else:
        hi = end()
    return (hi, lo, w) if mpf_lt(hi, lo) else (lo, hi, w)


@settings(max_examples=300, deadline=None)
@given(_raw_ends())
@example((fzero, fzero, 53))
@example((fzero, (0, 3, -5000, 2), 9000))
@example(((1, 3, 7000, 2), (0, 5, -7000, 3), 128))
# the value, 2^1081 plus about 2^662, and the lower end, about 2^664, lie 662
# exponents and 417 leading bits apart: mpf_sub moves the value one unit 57
# bits below its last bit and rounds that up to 2^1081 (1 + 2^-52), while the
# exact distance, below 2^1081, rounds up to 2^1081
@example(((0, 2**663 + 1, 1, 664), (0, 1, 1082, 1), 871))
def test_enclosure_is_finished_on_integers(ends):
    # the value is libmp's: the ends' sum rounded to nearest at w bits and
    # halved, bit for bit.  error_bound is the larger exact distance from it
    # to an end rounded up at 53 bits, and libmp's larger rounded distance
    # wherever mpf_sub subtracts exactly, as it does on every enclosure the
    # routes form, whose ends lie within 2^-(p+32) of each other
    lo, hi, w = ends
    ov = oracle._enclosed(lo, hi, w, "series", 7)
    value, bound = _enclosed_reference(lo, hi, w)
    assert (ov.value._mpf_, ov.working_bits, ov.method, ov.terms) == (value, w, "series", 7)
    v, low, high = (to_fraction(mp.make_mpf(raw)) for raw in (value, lo, hi))
    distance = max(high - v, v - low)
    assert to_fraction(ov.error_bound) == (_round_at(distance, 53, math.ceil) if distance else 0)
    if _subtracts_exactly(hi, value) and _subtracts_exactly(value, lo):
        assert ov.error_bound._mpf_ == bound


@pytest.mark.parametrize("p", [64, 128])
def test_quadrature_ends_enclose_the_exact_rule(monkeypatch, p):
    # the exact rational that each end is rounded from, the rule with its
    # floors (and their count of J + 4m^2 units for the upper end), its pole
    # term and sqrt(2 pi) at that end's sides, less or plus the remainder,
    # lies on its side of the rule with exact weights, pi, e^u and e^z,
    # widened by the remainder
    m, f, weights, remainder = oracle._weights(p)
    rem = Fraction(remainder, 2**f)
    for x in (Fraction(1, 3), Fraction(5, 2), Fraction(79, 10), Fraction(20)):
        _, _, _, _, c, r_ends, rounded = _finishes(monkeypatch, x, p, phi_quadrature)
        (low, _), (high, _) = rounded
        assert c == 0 and r_ends == [low, high], f"x={x}, p={p}"
        with mp.workprec(4 * p + 256):
            xv = mpf(x.numerator) / x.denominator
            total = sum(mp.exp(-mpf(j * j) / (2 * m * m)) / (xv * xv + mpf(j * j) / (m * m))
                        for j in range(1, len(weights) + 1))
            root = mp.sqrt(2 * mp.pi)
            rule = (1 / (m * xv) + 2 * xv / m * total) / root - root * mp.exp(xv * xv / 2) / mp.expm1(2 * mp.pi * m * xv)
            exact = to_fraction(rule)
        assert low <= exact - rem and exact + rem <= high, f"x={x}, p={p}"


def _side(value: Fraction, enclosure) -> int:
    """+1 if value lies above the interval enclosure, -1 if below it, 0 if
    inside it, all read exactly."""
    a, b = (to_fraction(mp.make_mpf(raw)) for raw in enclosure._mpi_)
    return (value > b) - (value < a)


@pytest.mark.parametrize("p", [64, 128])
def test_quadrature_ends_are_outward_before_the_remainder(monkeypatch, p):
    # before the remainder is added, the lower end, the exact rational it is
    # rounded from plus the remainder, lands below (L - 2 pi e^u / (e^z -
    # 1)) / sqrt(2 pi) for L = d/(m a) + (2a/(d m)) S 2^-F and S the sum of
    # the floors; the upper end, less the remainder, lands above it with S +
    # J + 4m^2.  Each is decided against a 2w-bit interval enclosure, with no
    # slack: the remainder, about 2^-(p+20), would hide an inward ulp at w bits
    m, f, weights, remainder = oracle._weights(p)
    rem = Fraction(remainder, 2**f)
    old = iv.prec
    try:
        for x in (Fraction(1, 3), Fraction(5, 2), Fraction(79, 10), Fraction(20)):
            _, _, _, w, _, _, rounded = _finishes(monkeypatch, x, p, phi_quadrature)
            (low, _), (high, _) = rounded
            a, d = x.numerator, x.denominator
            total = sum(wj * (d * m) ** 2 // ((a * m) ** 2 + j * j * d * d) for j, wj in enumerate(weights, 1))
            ls = [Fraction(2 * a * a * (total + ulps) + (d * d << f), a * d * m << f) for ulps in (0, len(weights) + 4 * m * m)]
            iv.prec = 2 * w
            xv = iv.mpf(a) / d
            pole = 2 * iv.pi * iv.exp(xv * xv / 2) / (iv.exp(2 * iv.pi * m * xv) - 1)
            ends = [(iv.mpf(q.numerator) / q.denominator - pole) / iv.sqrt(2 * iv.pi) for q in ls]
            assert (_side(low + rem, ends[0]), _side(high - rem, ends[1])) == (-1, 1), x
    finally:
        iv.prec = old


def _positive_term(x: Fraction, k: int) -> Fraction:
    """t_k = |x|^{2k+1} / (2k+1)!!, the k-th term of the convergent regime's D."""
    return abs(x) ** (2 * k + 1) / math.prod(range(1, 2 * k + 2, 2))


def _floors(y: Fraction, g: int):
    """T_0, T_1, ... of the module docstring at y > 0 and g fractional bits:
    T_0 = floor(y 2^g) and T_k = floor(T_{k-1} y^2 / (2k+1))."""
    term = math.floor(y * 2**g)
    for k in itertools.count(1):
        yield term
        term = math.floor(term * y * y / (2 * k + 1))


def _series_count(a: int, b: int, f: int) -> tuple[int, int, int, int]:
    """(N, acc, ulps, g) of oracle._positive_series re-derived in Fraction
    from the module docstring: y = a/b, lu as phi_series reads it, g
    from f and lu, and the floors summed up to the first k >= y^2 with T_k <
    2^(g-f), N = k + 1 of them."""
    if a == 0:
        return 0, 0, 0, f
    y = Fraction(a, b)
    lu = oracle._log2_exp(y * y / 2)
    g = f + lu + 2 + (3 * lu + f + 255).bit_length()
    acc = 0
    for k, term in enumerate(_floors(y, g)):
        acc += term
        if k >= y * y and term < 2 ** (g - f):
            return k + 1, acc, (k + 1) * (2 ** (lu + 2) + k + 2) + term, g


def _sum(x: Fraction, f: int) -> tuple[int, int, int, int]:
    """oracle._positive_series at |x| and width f, with lu as phi_series passes it."""
    return oracle._positive_series(abs(x.numerator), x.denominator, f, oracle._log2_exp(x * x / 2))


@pytest.mark.parametrize("x", [Fraction(1, 3), Fraction(5, 2), Fraction(3), Fraction(5)])
def test_stop_rule_bounds_the_exact_tail(x):
    # the sum stops at the first k >= x^2 with T_k < 2^(g-f): past x^2 every
    # ratio x^2 / (2i+1) is below 1/2, so the exact tail past t_k is below
    # t_k.  f is the least width at which T_k0 >= 2^(g-f) at the first k0 >=
    # x^2: the sum must go on past k0
    k0 = math.ceil(x * x)

    def goes_on(f):
        g = _sum(x, f)[3]
        return next(itertools.islice(_floors(x, g), k0, None)) >= 2 ** (g - f)

    f = next(f for f in itertools.count(1) if goes_on(f))
    n, _, _, g = _sum(x, f)
    k = n - 1
    assert k > k0 and next(itertools.islice(_floors(x, g), k, None)) < 2 ** (g - f)
    last = k + 20
    tail = sum(_positive_term(x, i) for i in range(k + 1, last + 1)) + _positive_term(x, last)
    assert tail < _positive_term(x, k)


class TestSeriesCount:
    """The series' count, checked exactly: at the widths phi_series uses, a
    miscount would stay below the slack of its error bound."""

    @pytest.mark.parametrize("x", [Fraction(1, 3), Fraction(5, 2), Fraction(8), Fraction(79, 10), Fraction(12)])
    @pytest.mark.parametrize("f", [8, 24, 40, 64, 200])
    def test_fixed_counts_match_a_fraction_rederivation(self, x, f):
        assert _sum(x, f) == _series_count(x.numerator, x.denominator, f)

    @given(st.integers(0, 12 * 64), st.integers(1, 64), st.integers(4, 96))
    @settings(max_examples=40, deadline=None)
    def test_counts_match_a_fraction_rederivation(self, a, b, f):
        a = min(a, 12 * b)  # |x| <= 12 keeps N below 300 terms
        assert oracle._positive_series(a, b, f, oracle._log2_exp(Fraction(a * a, 2 * b * b))) == _series_count(a, b, f)

    # Fractions, floats and a 90-bit dyadic, |x| <= 13
    @pytest.mark.parametrize("x", [Fraction(1, 2**60), Fraction(1, 3), Fraction(1), Fraction(-5, 2), Fraction(3),
                                   Fraction(5), Fraction(-8), Fraction(79, 10), Fraction(12), Fraction(-13),
                                   Fraction(1001, 97), Fraction(-7, 64), Fraction(12.3), Fraction(-0.7),
                                   Fraction(2**90 + 1, 2**87)])
    def test_sum_encloses_d_at_narrow_widths(self, x):
        # acc <= D 2^g <= acc + ulps, exactly, for f = 2 .. 64.  D lies in
        # [S_K, S_K + t_{K-1}] for S_K the exact sum of its first K terms and
        # K - 1 >= x^2: past x^2 each ratio is below 1/2, so the tail past
        # t_{K-1} is below it.  K is carried until t_{K-1} < 2^-400
        terms = [abs(x)]
        while len(terms) - 1 < x * x or terms[-1] >= Fraction(1, 2**400):
            terms.append(terms[-1] * x * x / (2 * len(terms) + 1))
        low = sum(terms)
        high = low + terms[-1]
        for f in range(2, 65):
            n, acc, ulps, g = _sum(x, f)
            assert n < len(terms) and acc <= low * 2**g and high * 2**g <= acc + ulps, f"x={x}, f={f}"


def _exp_rederived(a: int, b: int, g: int) -> tuple[int, int, int]:
    """oracle._exp re-derived in Fraction from the module docstring: v =
    a/b reduced to r = v 2^-s, the floored Taylor terms summed at w
    fractional bits up to the first T_k <= 1, the count 2k + 1 added to the
    upper end, and s squarings rounded outward."""
    v = Fraction(a, b)
    lv = math.floor(Fraction(3, 2) * v) + 1
    s = math.floor(v).bit_length() + 4
    w0 = g + lv + s
    w = w0 + w0.bit_length() + 4
    terms = [2**w]
    while terms[-1] > 1:
        terms.append(math.floor(terms[-1] * v / 2**s / len(terms)))
    lo, hi = sum(terms), sum(terms) + 2 * (len(terms) - 1) + 1
    for _ in range(s):
        lo, hi = math.floor(Fraction(lo * lo, 2**w)), math.ceil(Fraction(hi * hi, 2**w))
    return lo, hi, w


def _z_at_the_envelope(m: int) -> Fraction:
    """z = 2 pi m 30 as the quadrature passes it to the kernel at p = 64:
    pi's lower end at 96 bits, over 2^96."""
    return Fraction(2 * m * 30 * oracle._pi(96)[0], 2**96)


# v = 4289041/32768 (x = 2071/128), where mpf_exp rounded up lands below
# e^v at 144 bits; u = 450 (x = 30); z = 2 pi m 30 at m = 3 and 4; the
# weights' 1/(2m^2); and small and dyadic v
_KERNEL_ARGUMENTS = [Fraction(0), Fraction(1, 18), Fraction(1, 3), Fraction(1), Fraction(4289041, 32768),
                     Fraction(3839**2, 2 * 128**2), Fraction(450), _z_at_the_envelope(3), _z_at_the_envelope(4),
                     Fraction(2001**2, 2 * 97**2), Fraction(5, 2**40)]


def _gaussian_rederived(q: int, g: int, n: int) -> list[int]:
    """oracle._gaussian re-derived in Fraction from the module docstring:
    V_j = floor(V_{j-1} C_j / 2^g) and C_{j+1} = floor(C_j Q2 / 2^g), from
    V_0 = 2^g, C_1 = q and Q2 = floor(q^2 / 2^g)."""
    q2, c, v, powers = math.floor(Fraction(q * q, 2**g)), q, 2**g, []
    for _ in range(n):
        v, c = math.floor(Fraction(v * c, 2**g)), math.floor(Fraction(c * q2, 2**g))
        powers.append(v)
    return powers


class TestExpKernel:
    """The exponential kernel's ends, checked exactly: at the widths the
    routes use, a miscount would stay below the slack of their error bounds."""

    @pytest.mark.parametrize("v", _KERNEL_ARGUMENTS, ids=str)
    @pytest.mark.parametrize("g", [0, 1, 2, 7, 30, 64, 144])
    def test_ends_match_a_fraction_rederivation(self, v, g):
        assert oracle._exp(v.numerator, v.denominator, g) == _exp_rederived(v.numerator, v.denominator, g)

    @pytest.mark.parametrize("v", _KERNEL_ARGUMENTS, ids=str)
    def test_ends_enclose_e_at_narrow_widths(self, v):
        # lo <= e^v 2^w <= hi <= lo + 2^(w-g-1) at the kernel's working
        # width w, for g = 0 .. 64 and 144, decided against the exact Taylor
        # enclosure 64 bits finer
        ends = [oracle._exp(v.numerator, v.denominator, g) for g in [*range(65), 144]]
        top = max(w for _, _, w in ends) + 64
        ref_lo, ref_hi = _exp_enclosure(v, top)
        for g, (lo, hi, w) in zip([*range(65), 144], ends):
            assert lo << top - w <= ref_lo and ref_hi <= hi << top - w, f"v={v}, g={g}"
            assert hi - lo <= 2 ** (w - g - 1), f"v={v}, g={g}"

    def test_pi_rounds_both_ways_at_every_precision_asked(self, monkeypatch):
        # the oracle's pi, read with no floor kept, rounded down and up at g
        # fractional bits lies below and above the tests' own Machin pi, one
        # ulp apart, at every g the oracle can ask for p up to the largest
        # the tests draw: g at most p + 52 + lu, lu for |x| = 30
        monkeypatch.setattr(oracle, "_PI", (0, 0))
        top = _ANY_PRECISION[1] + 52 + oracle._log2_exp(Fraction(450))
        bits = top + 64
        pi_lo, pi_hi = _pi_enclosure(bits)
        for g in range(1, top + 1):
            down, up, _, _ = oracle._pi(g)
            assert down << bits - g <= pi_lo and pi_hi <= up << bits - g and up - down == 1, g


def _race_with_precision_noise(workers, timeout: float) -> None:
    """Run each of workers in a thread of its own at a 1 us switch interval,
    while one more thread keeps changing mpmath's process-wide precision;
    every thread must have ended within timeout seconds of its join."""
    done = threading.Event()

    def disturber():
        while not done.is_set():
            with mp.workprec(24):
                mp.exp(1)

    threads = [threading.Thread(target=worker) for worker in workers]
    noise = threading.Thread(target=disturber)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        noise.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=timeout)
    finally:
        done.set()
        noise.join(timeout=60)
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads + [noise])


def _pi_reference(g: int) -> tuple[int, int, int, int]:
    """oracle._pi with no floor kept: mpf_pi rounded down and up at g + 2
    bits, and sqrt(pi 2^(2g-1))'s ends from those ends by isqrt."""
    lo, hi = (man << e + g for _, man, e, _ in (mpf_pi(g + 2, rnd) for rnd in (round_floor, round_ceiling)))
    return lo, hi, math.isqrt(lo << g - 1), math.isqrt((hi << g - 1) - 1) + 1


# every g up to 260, and a few up to w = 8241 of p = 8192 at |x| = 1
_PI_ASKED = [*range(1, 261), 511, 1024, 4099, 8241]


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_pi_read_from_the_kept_floor_in_any_order(order):
    # a fresh interpreter keeps no floor of pi, and asks for every g in
    # _PI_ASKED in the given order: each read equals mpf_pi's two ends at g +
    # 2 bits, and the floor is kept at a G at least the largest g asked,
    # mpf_pi's floor there
    gs = sorted(_PI_ASKED, reverse=order == "descending")
    if order == "shuffled":
        random.Random(20261020).shuffle(gs)
    script = (
        "import math\n"
        "from mpmath.libmp import mpf_pi, round_ceiling, round_floor\n"
        "from millsratio import oracle\n"
        + inspect.getsource(_pi_reference) +
        "assert oracle._PI == (0, 0), oracle._PI\n"
        f"for g in {gs!r}:\n"
        "    assert oracle._pi(g) == _pi_reference(g), g\n"
        "assert oracle._PI[1] == _pi_reference(oracle._PI[0])[0]\n"
        "print(oracle._PI[0])\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) >= max(_PI_ASKED)


@pytest.mark.parametrize("w", [*range(0, 80), 193, 265, 878, 1024, 4099, 9000])
def test_machin_sum_encloses_pi_strictly(w):
    # s - c < pi 2^w < s + c, against mpf_pi's floor 64 bits finer: pi 2^w
    # is irrational, so an enclosure with no count (c = 0) cannot hold; the
    # count is under 4w + 40 (about w / 4.6 terms for 1/5, w / 15.8 for 1/239)
    s, c = oracle._machin(w)
    _, man, e, _ = mpf_pi(w + 66, round_floor)
    fine = man << e + w + 64  # floor(pi 2^(w+64))
    assert (s - c) << 64 <= fine and fine + 1 <= (s + c) << 64, w
    assert 0 < c < 4 * w + 40, w


def test_pi_floor_is_mpf_pis():
    assert oracle._pi_floor(0) == 3
    for g in [*range(1, 300), 511, 1024, 4099, 8241]:
        assert oracle._pi_floor(g) == _pi_reference(g)[0], g


def test_default_verify_computes_pi_at_most_twice(capsys, monkeypatch):
    # the kept floor grows to max(g, 2G): a default `mills verify` asks for
    # g = 193..265 and computes pi once or twice, where a floor kept at the
    # largest g asked grew 66 times
    from millsratio import cli

    widths = []

    def counting(g):
        widths.append(g)
        return floor(g)

    floor = oracle._pi_floor
    monkeypatch.setattr(oracle, "_PI", (0, 0))
    monkeypatch.setattr(oracle, "_pi_floor", counting)
    monkeypatch.delenv("MILLS_PRECISION_BITS", raising=False)
    assert cli.main(["verify"]) == 0
    capsys.readouterr()
    assert 1 <= len(widths) <= 2, widths
    assert oracle._PI[0] >= 265 and oracle._PI[1] == _pi_reference(oracle._PI[0])[0]


def test_concurrent_first_reads_of_pi_agree(monkeypatch):
    # four threads read pi with no floor kept, ascending, descending and in
    # two shuffled orders, while a fifth keeps changing mpmath's process-wide
    # precision: every read equals mpf_pi's two ends, and the floor kept at
    # the end is mpf_pi's at a G at least the largest g asked
    monkeypatch.setattr(oracle, "_PI", (0, 0))
    expected = {g: _pi_reference(g) for g in _PI_ASKED}
    orders = [sorted(_PI_ASKED), sorted(_PI_ASKED, reverse=True)]
    orders += [random.Random(k).sample(_PI_ASKED, len(_PI_ASKED)) for k in range(2)]
    results = [[] for _ in orders]

    def race(k):
        results[k] = [(g, oracle._pi(g)) for g in orders[k]]

    _race_with_precision_noise([functools.partial(race, k) for k in range(len(orders))], timeout=60)
    for order, got in zip(orders, results):
        assert [g for g, _ in got] == order
        assert all(read == expected[g] for g, read in got)
    assert oracle._PI[0] >= max(_PI_ASKED) and oracle._PI[1] == _pi_reference(oracle._PI[0])[0]


def _quadrature_points():
    rng = random.Random(20261019)
    xs = [Fraction(rng.randint(-30 * d, 30 * d), d) for d in (rng.randint(1, 128) for _ in range(24))]
    return xs + [Fraction(-30), Fraction(0), Fraction(30), Fraction(-1, 128), Fraction(3839, 128)]


class TestQuadratureErrorBound:
    @pytest.mark.parametrize("p", [64, 128, 256])
    def test_value_within_derived_bound(self, p):
        # the derived bound holds, and is no looser than 2^-(p+8) (1 + |phi|)
        for x in _quadrature_points():
            ov = phi_quadrature(x, p)
            ref = _reference(x)
            with mp.workprec(2048):
                assert abs(ov.value - ref) <= ov.error_bound, f"x={x}, p={p}"
                assert 0 < ov.error_bound <= mpf(2) ** -(p + 8) * (1 + abs(ref)), f"x={x}, p={p}"

    def test_no_adaptive_integrator(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the quadrature route must not call mp.quad")

        monkeypatch.setattr(mp, "quad", refuse)
        for x in (Fraction(-10), Fraction(0), Fraction(7, 2)):
            ov = phi_quadrature(x, 128)
            with mp.workprec(1024):
                assert abs(ov.value - _reference(x)) <= ov.error_bound

    def test_independent_of_series_polynomial_and_continued_fraction_code(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the quadrature route must not use this")

        monkeypatch.setattr(oracle, "phi_series", refuse)
        monkeypatch.setattr(families, "pq_pair", refuse)
        monkeypatch.setattr(families, "quadratic_triple", refuse)
        monkeypatch.setattr(contfrac, "cf_convergent", refuse)
        for x in (Fraction(-7, 3), Fraction(-20)):
            ov = phi_quadrature(x, 128)
            with mp.workprec(1024):
                assert abs(ov.value - _reference(x)) <= ov.error_bound

    def test_rules_are_built_on_first_use_once_per_precision(self):
        # a fresh interpreter: importing builds no weight table, and each
        # precision builds one, whatever x and however often it is called
        script = (
            "import millsratio\n"
            "from millsratio import oracle\n"
            "assert not oracle._WEIGHTS, oracle._WEIGHTS.keys()\n"
            "built = []\n"
            "build = oracle._build_weights\n"
            "oracle._build_weights = lambda p: built.append(p) or build(p)\n"
            "for p, x in ((64, -2), (128, 0), (256, 5), (64, 1), (97, -7), (256, 0), (128, 29), (97, 1/3)):\n"
            "    millsratio.phi_quadrature(x, p)\n"
            "print(sorted(oracle._WEIGHTS), built)\n"
        )
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[64, 97, 128, 256] [64, 128, 256, 97]"

    def test_concurrent_first_builds_agree(self, monkeypatch):
        # odd precisions no other call builds, raced by four threads while a fifth keeps
        # changing mpmath's process-wide precision; every raced table is kept
        keys = list(range(65, 97, 2))
        monkeypatch.setattr(oracle, "_WEIGHTS_KEPT", len(keys))
        results = [[] for _ in range(4)]

        def race(k):
            for key in keys[k % 2 :: 2] + keys[1 - k % 2 :: 2]:
                results[k].append((key, oracle._weights(key)))

        _race_with_precision_noise([functools.partial(race, k) for k in range(len(results))], timeout=60)
        for got in results:
            assert len(got) == len(keys)
            for key, table in got:
                assert table is oracle._WEIGHTS[key]
        for key in keys:
            assert oracle._WEIGHTS[key] == oracle._build_weights(key)

    def test_weight_tables_kept_are_bounded(self):
        # a fresh interpreter asks for 12 precisions, cycling through them
        # twice: the 4 most recently built tables are kept, an older one is
        # built again when it is asked for again, and every value and table
        # equals a fresh build's
        script = (
            "from fractions import Fraction\n"
            "from millsratio import oracle\n"
            "assert oracle._WEIGHTS_KEPT == 4\n"
            "ps = list(range(64, 112, 4))\n"
            "first = [oracle.phi_quadrature(Fraction(7, 3), p) for p in ps]\n"
            "sizes, built = [], []\n"
            "build = oracle._build_weights\n"
            "oracle._build_weights = lambda p: built.append(p) or build(p)\n"
            "for p, ov in zip(ps, first):\n"
            "    assert oracle.phi_quadrature(Fraction(7, 3), p) == ov, p\n"
            "    sizes.append(len(oracle._WEIGHTS))\n"
            "assert all(table == build(p) for p, table in oracle._WEIGHTS.items())\n"
            "print(max(sizes), list(oracle._WEIGHTS), built == ps)\n"
        )
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "4 [96, 100, 104, 108] True"

    @pytest.mark.parametrize("p", [64, 97, 128, 256, 1024, 2048])
    def test_weight_table_is_as_counted(self, p):
        # W_j <= e^{-j^2/(2m^2)} 2^F < W_j + 2, as the rounding term counts,
        # and the contour and tail remainders together are below 2^-(p+19)
        m, f, weights, remainder = oracle._weights(p)
        assert f == p + 48 and 0 < remainder <= 2 ** (f - p - 19)
        with mp.workprec(f + 64):
            for j, w in enumerate(weights, 1):
                exact = mp.exp(-mpf(j * j) / (2 * m * m)) * mpf(2) ** f
                assert w <= exact < w + 2, (p, j)

    @pytest.mark.parametrize("p", [64, 128, 1024, 2048])
    def test_weights_match_the_mpf_exp_table(self, p):
        # the recurrence from one kernel call finds the weights that flooring
        # mpf_exp rounded down at F + 16 bits found, one call per node
        m, f, weights, _ = oracle._weights(p)
        g = p + 64
        exps = (mpf_exp(round_quotient(-k * k, 2 * m * m, g, round_floor), g, round_floor)
                for k in range(1, len(weights) + 1))
        assert weights == [to_int(mpf_shift(e, f), round_floor) for e in exps]

    @pytest.mark.parametrize("p", [64, 97, 256, 1024])
    def test_weights_are_the_floored_recurrence(self, p):
        # re-derived in Fraction from the module docstring: Q = floor(2^(G+w) /
        # hi) for the kernel's upper end hi of e^{1/(2m^2)} 2^w at g = G, the
        # floored products V_j of _gaussian at G bits, and W_j = floor(V_j
        # 2^(F-G)).  V_j is compared before that floor: at the table's
        # 2 bitlength(J) + 16 guard bits a product rounded up would change no W_j
        m, f, weights, _ = oracle._weights(p)
        g = f + 2 * len(weights).bit_length() + 16
        _, hi, w = oracle._exp(1, 2 * m * m, g)
        q = math.floor(Fraction(2 ** (g + w), hi))
        powers = oracle._gaussian(q, g, len(weights))
        assert powers == _gaussian_rederived(q, g, len(weights))
        assert weights == [math.floor(Fraction(v, 2 ** (g - f))) for v in powers]

    @pytest.mark.parametrize("x", [7, Fraction(-7, 2)])
    def test_no_exponential_per_node(self, monkeypatch, x):
        # a warm call asks the kernel for the same few exponentials at every
        # precision, however many nodes the rule has there
        counts = []
        exp = oracle._exp

        def counting(*args):
            counts[-1] += 1
            return exp(*args)

        for p in (64, 256, 1024):
            phi_quadrature(x, p)  # builds the weights
            monkeypatch.setattr(oracle, "_exp", counting)
            counts.append(0)
            phi_quadrature(x, p)
            monkeypatch.setattr(oracle, "_exp", exp)
        assert counts[0] == counts[1] == counts[2] <= 4, counts

    @pytest.mark.parametrize("p", [64, 2048])
    def test_edge_cases(self, p):
        with mp.workprec(300):  # a 300-bit mantissa
            tiny = mpf(2) ** -200 * (1 + mpf(2) ** -299)
        for x in (Fraction(0), Fraction(1, 2**200), tiny, 29.99, Fraction(-29)):
            for route in (phi_quadrature, phi_series):
                ov = route(x, p)
                ref = _reference(to_fraction(x), p + 800)
                with mp.workprec(2 * p + 1600):
                    assert abs(ov.value - ref) <= ov.error_bound, f"{route.__name__}, x={x}, p={p}"
                    assert ov.error_bound <= mpf(2) ** -(p + 8) * (1 + abs(ref)), f"{route.__name__}, x={x}, p={p}"
                assert ov.working_bits >= p + 32
        with mp.workprec(p + 64):
            assert abs(phi_quadrature(0, p).value - mp.sqrt(mp.pi / 2)) <= phi_quadrature(0, p).error_bound


# points within 1/128 of the b the contour bound can use inside the
# envelope (2 pi m for m = 3, 4), and the envelope's edge, where the bound is
# evaluated, next to b = ENVELOPE + 1/4
_NEAR_B = sorted({s * min(Fraction(round(b * 128) + t, 128), Fraction(oracle.ENVELOPE))
                  for b in (6 * math.pi, 8 * math.pi, oracle.ENVELOPE + 0.25) for t in (-1, 0, 1) for s in (1, -1)})


@st.composite
def _any_point(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from(_NEAR_B))
    den = draw(st.integers(1, 128))
    return Fraction(draw(st.integers(-30 * den, 30 * den)), den)


_ANY_PRECISION = (64, 4096)


@settings(max_examples=150, deadline=None)
@given(st.integers(*_ANY_PRECISION), _any_point())
@example(64, Fraction(0))
@example(1024, Fraction(30))
@example(97, Fraction(-30))
@example(1000, Fraction(1, 128))
@example(333, Fraction(-1, 128))
def test_both_routes_are_sound_at_any_precision(p, x):
    # the derived bound holds, and is no looser than 2^-(p+8) (1 + |phi|),
    # at precisions that need not be multiples of 32
    ref = _reference(x, p + 800)
    for route in (phi_series, phi_quadrature):
        ov = route(x, p)
        with mp.workprec(2 * p + 1600):
            assert abs(ov.value - ref) <= ov.error_bound, f"{route.__name__}, x={x}, p={p}"
            assert ov.error_bound <= mpf(2) ** -(p + 8) * (1 + abs(ref)), f"{route.__name__}, x={x}, p={p}"


def test_routes_agree_with_themselves_across_threads():
    # four threads call both routes at p = 64..256, x in the bands |x| < 2,
    # 2..10 and 10..30 and x < 0, while a fifth keeps changing mpmath's
    # process-wide precision: no result may differ from a single-threaded call
    cases = [(route, x, p) for route in (phi_series, phi_quadrature)
             for x in (Fraction(1, 3), Fraction(-5, 3), Fraction(7, 2), Fraction(-77, 8), Fraction(25, 2), -12.3)
             for p in (64, 96, 160, 256)]

    def call(route, x, p):
        ov = route(x, p)
        return ov.value._mpf_, ov.error_bound._mpf_, ov.working_bits, ov.terms

    expected = [call(*case) for case in cases]
    results = [[] for _ in range(4)]

    def worker(k):
        order = list(range(len(cases)))
        random.Random(k).shuffle(order)
        results[k] = sorted((i, call(*cases[i])) for i in order)

    _race_with_precision_noise([functools.partial(worker, k) for k in range(len(results))], timeout=120)
    for got in results:
        assert got == list(enumerate(expected))


# x = k/64 on [-30, 30] in steps of 7/64 and a few points off that grid,
# for the series route; x = +-5j/64 for j = 0, 14, .., 140 for the quadrature
_PINNED_SERIES = [Fraction(k, 64) for k in range(-1920, 1921, 7)] + [
    Fraction(3839, 128), Fraction(-3839, 128), Fraction(30), Fraction(-30), Fraction(0), Fraction(1, 10), Fraction(-2)]
_PINNED_QUADRATURE = [s * Fraction(5 * j, 64) for j in range(0, 154, 14) for s in (1, -1)]
_PINNED_BITS = {
    "phi_series": (_PINNED_SERIES, (64, 80, 128, 144, 256, 272, 1024),
                   "930ebdef386902e2bf2ec10619185d5b113310c4e785153c6ad2a07943dfedf6"),
    "phi_quadrature": (_PINNED_QUADRATURE, (64, 80, 128, 144, 256, 272),
                       "3e8d3c2e375956fc63b80905c46b26a758d7309fb4e01987f31ab2f171372011"),
}


@pytest.mark.parametrize("route", [phi_series, phi_quadrature], ids=lambda route: route.__name__)
def test_oracle_bits_are_pinned(route):
    # every bit each route returns on a scan of x and p, hashed: (value,
    # error_bound) as raw mpfs, working_bits and terms.  A sound change can
    # move a midpoint inside its enclosure; this test names the route that
    # moved, where a report's hash would only show that some digit did
    points, precisions, pinned = _PINNED_BITS[route.__name__]
    digest = hashlib.sha256()
    for p in precisions:
        for x in points:
            ov = route(x, p)
            raws = [(sign, int(man), exp, bc) for sign, man, exp, bc in (ov.value._mpf_, ov.error_bound._mpf_)]
            digest.update(repr(raws + [ov.working_bits, ov.terms]).encode())
    assert digest.hexdigest() == pinned


@pytest.mark.parametrize("path", sorted(pathlib.Path(oracle.__file__).parent.glob("*.py")), ids=lambda path: path.stem)
def test_module_is_context_free(path):
    # no workprec block, no iv context and no assignment to a precision: each
    # reads or sets mpmath's process-wide precision
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not names & {"workprec", "iv_workprec", "iv"}
    targets = [node.targets if isinstance(node, ast.Assign) else [node.target]
               for node in ast.walk(tree) if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))]
    assigned = {sub.attr for group in targets for target in group for sub in ast.walk(target) if isinstance(sub, ast.Attribute)}
    assert not assigned & {"prec", "dps"}


def test_oracle_takes_no_rounded_arithmetic_from_mpmath():
    # every exponential comes from the kernel and every end is one exact
    # quotient: the oracle imports no libmp exponential, product, quotient,
    # square root or one
    tree = ast.parse(pathlib.Path(oracle.__file__).read_text(encoding="utf-8"))
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not names & {"mpf_exp", "mpf_div", "mpf_mul", "mpf_sqrt", "fone"}


def test_oracle_imports_only_errors_and_numutil():
    # the oracle shares no code with families, contfrac, poly or bounds
    tree = ast.parse(pathlib.Path(oracle.__file__).read_text(encoding="utf-8"))
    relative = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level > 0}
    assert relative <= {"errors", "numutil"}
