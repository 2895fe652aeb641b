"""Two independent high-precision evaluators for phi(x).

phi(x) = e^{x^2/2} integral_x^inf e^{-t^2/2} dt
       = e^{x^2/2} sqrt(pi/2) erfc(x/sqrt(2))
       = integral_0^inf e^{-x t - t^2/2} dt.

Route 1 (series) sums erf's Maclaurin series exactly; route 2 (quadrature)
integrates the Laplace-type integral on a truncated interval.  The two
routes share no machinery with each other or with the bound and
continued-fraction code, so certificates never test that machinery against
itself.

Series route and its error bound: with u = x^2/2,

    phi(x) = e^u (sqrt(pi/2) - x S(u)),   S(u) = sum_k (-u)^k / (k! (2k+1)),

which is erf(z) = (2z/sqrt(pi)) S(z^2) at z = x/sqrt(2).  x is read
exactly, so u is rational and the partial sum S_N is an exact rational,
computed by integer binary splitting.  N is taken above u, where the terms
alternate and decrease, so S lies between S_N and S_{N+1}.  That enclosure
is the one step done in interval arithmetic (mpmath.iv), at
w = p + 48 + ceil(u log2 e) bits: sqrt(pi/2) - x S, times e^u.  Only this
subtraction cancels (by about u log2 e bits for x > 0), and for x < 0 the
value itself is about e^u; at w bits the absolute error stays near
2^-(p+40) either way.  The returned value is the interval's midpoint and
error_bound is the distance from it to the farther endpoint, rounded up: a
derived bound, below the 2^-(p+32) the verdict thresholds assume.

The quadrature route's error bound is an estimate (the integrator's own,
padded), not a proof; it serves as the independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import iv, mp, mpf

from .errors import EnvelopeError
from .families import pq_pair
from .numutil import check_precision, to_fraction, to_mpf

ENVELOPE = 30  # |x| beyond this is refused; the guard-bit budget assumes it

LOG2_E = math.log2(math.e)


@dataclass(frozen=True)
class OracleValue:
    value: mpf
    error_bound: mpf
    method: str
    working_bits: int | None = None  # working precision of the evaluation
    terms: int | None = None  # series terms summed (N); None for quadrature


def _split(a: int, b: int, lo: int, hi: int) -> tuple[int, int, int]:
    """Binary splitting of the terms k = lo .. hi-1 of S(a/b), whose ratio
    t_k / t_{k-1} is p(k) / q(k) = -a (2k-1) / (b k (2k+1)).

    Returns (P, Q, T) with P = prod p(k), Q = prod q(k) and
    T / Q = sum over j of t_j / t_{lo-1}."""
    if hi - lo == 1:
        p = -a * (2 * lo - 1)
        return p, b * lo * (2 * lo + 1), p
    mid = (lo + hi) // 2
    p1, q1, t1 = _split(a, b, lo, mid)
    p2, q2, t2 = _split(a, b, mid, hi)
    return p1 * p2, q1 * q2, t1 * q2 + p1 * t2


def _term_count(u: Fraction, w: int) -> int:
    """An N > u whose first omitted term |x| u^N / (N! (2N+1)) is about
    2^-w or less, from a float estimate; a poor estimate costs time only,
    since the omitted tail is part of the enclosure."""
    n = math.floor(u) + 1  # above u the terms alternate and decrease
    if u == 0:
        return n
    log2_u = math.log2(u.numerator) - math.log2(u.denominator)

    def above(n: int) -> bool:  # log2 of the term exceeds -w
        log2_term = (1 + log2_u) / 2 + n * log2_u - math.lgamma(n + 1) / math.log(2) - math.log2(2 * n + 1)
        return log2_term > -w

    if not above(n):
        return n
    lo, hi = n, 2 * n
    while above(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:  # above(lo), not above(hi)
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if above(mid) else (lo, mid)
    return hi


def _interval(num1: int, num2: int, den: int, w: int):
    """An iv interval holding num1/den and num2/den (den > 0), with endpoints
    of about w bits.  The quotients are rounded by integer division: mpf
    division of operands this long is several times slower."""
    lo, hi = min(num1, num2), max(num1, num2)
    k = max(0, w - 1 + den.bit_length() - max(abs(lo), abs(hi)).bit_length())
    # floor of lo/den and ceiling of hi/den on the grid 2^-k
    return iv.mpf([mp.ldexp((lo << k) // den, -k), mp.ldexp(-((-hi << k) // den), -k)])


def phi_series(x, precision_bits: int = 128) -> OracleValue:
    """phi from an exact partial sum of erf's Maclaurin series, finished in
    interval arithmetic; error_bound is derived from the interval."""
    check_precision(precision_bits)
    xq = to_fraction(x)
    if abs(xq) > ENVELOPE:
        raise EnvelopeError(f"|x| must be <= {ENVELOPE}")
    u = xq * xq / 2
    w = precision_bits + 48 + math.ceil(float(u) * LOG2_E)
    n = _term_count(u, w)
    p, q, t = _split(u.numerator, u.denominator, 1, n + 1)
    # S_{N+1} = (Q + T) / Q and t_N = P / Q; S lies between S_N and S_{N+1}
    saved = iv.prec
    try:
        iv.prec = w
        xs = _interval(xq.numerator * (q + t - p), xq.numerator * (q + t), xq.denominator * q, w)
        uv = _interval(u.numerator, u.numerator, u.denominator, w)
        enclosure = iv.exp(uv) * (iv.sqrt(iv.pi / 2) - xs)
    finally:
        iv.prec = saved
    with mp.workprec(w):
        lo, hi = mp.mpf(enclosure.a), mp.mpf(enclosure.b)  # exact: both have w bits
        value = (lo + hi) / 2
        error_bound = max(mp.fsub(hi, value, prec=53, rounding="c"), mp.fsub(value, lo, prec=53, rounding="c"))
    return OracleValue(value, error_bound, "series", w, n)


def phi_quadrature(x, precision_bits: int = 128) -> OracleValue:
    """phi via tanh-sinh quadrature of integral_0^T e^{-xt-t^2/2} dt.

    T solves xT + T^2/2 = (p+16) ln 2, so the discarded tail is below
    2^-(p+16) * max(1, 1/(x+T)).  error_bound is an estimate, not a proof:
    the tail plus the integrator's own error estimate, padded by a factor
    2^8.
    """
    check_precision(precision_bits)
    xf = float(to_mpf(x))
    if abs(xf) > ENVELOPE:
        raise EnvelopeError(f"|x| must be <= {ENVELOPE}")
    wp = precision_bits + 32
    with mp.workprec(wp):
        xv = to_mpf(x)
        big = (precision_bits + 16) * mp.ln(2)
        t_cut = -xv + mp.sqrt(xv * xv + 2 * big)
        tail = mp.exp(-xv * t_cut - t_cut * t_cut / 2) * max(mpf(1), 1 / (xv + t_cut))

        def integrand(t):
            return mp.exp(-xv * t - t * t / 2)

        # split at the integrand's peak when it lies inside the interval
        points = [mpf(0), t_cut]
        if xv < 0 and -xv < t_cut:
            points = [mpf(0), -xv, t_cut]
        value, est = mp.quad(integrand, points, error=True, maxdegree=10)
        error_bound = tail + est * 256 + (1 + abs(value)) * mpf(2) ** (-(precision_bits + 8))
    return OracleValue(value, error_bound, "quadrature", wp)


def phi_derivative(n: int, x, precision_bits: int = 128) -> mpf:
    """phi^(n)(x) = P_n(x) phi(x) - Q_n(x), with phi from the series route."""
    if n < 0:
        raise ValueError("order must be non-negative")
    pair = pq_pair(n)
    ov = phi_series(x, precision_bits + 32)
    with mp.workprec(precision_bits + 32):
        return pair.p.eval_real(x, precision_bits + 32) * ov.value - pair.q.eval_real(
            x, precision_bits + 32
        )
