"""Two independent high-precision evaluators for phi(x).

phi(x) = e^{x^2/2} integral_x^inf e^{-t^2/2} dt
       = e^{x^2/2} sqrt(pi/2) erfc(x/sqrt(2))
       = integral_0^inf e^{-x t - t^2/2} dt.

Route 1 (series) sums a positive series of erf; route 2 (quadrature)
integrates the Laplace-type integral on a truncated interval.  They share
no machinery with each other or with the bound and continued-fraction
code, so certificates never test that machinery against itself: this
module imports nothing of the package but its errors and numeric helpers.
Evaluations name the precision and rounding of every mpmath call, on raw
mpmath.libmp values, and never read or set mpmath's process-wide precision.

Series route (Abramowitz and Stegun 7.1.6): with u = x^2/2, y = |x| and
positive terms t_k = y^{2k+1} / (2k+1)!!,

    phi(x) = sqrt(pi/2) e^u - sgn(x) D(y),   D(y) = sum_k t_k,

so only the last subtraction, for x > 0, cancels (about u log2 e bits).
x is read exactly and D is summed in fixed point, acc <= D 2^F <= acc +
ulps, every floor rounding down and counted in the integer ulps:

  * a term is an integer mantissa m and an exponent; each new m floors an
    exact quotient scaled to at least 2^M, losing a relative 2^-M at most:
    after c floors, c 2^-M < 1/2, the exact mantissa is below m (1 + 2c 2^-M);
  * a block of L terms from t_k on sums to t_k num/den, the exact Horner
    sum of their ratios y^2/(2k+1); one floor puts it on the 2^-F grid and
    adds 2 + floor(c (s+1) / 2^(M-1)) ulps, s its value in ulps.  t_{k+L}
    is t_k times the exact product of L ratios, one floor more;
  * summing stops at the first block boundary N >= 2u where 2 t_N is at
    most one ulp: past 2u each ratio y^2/(2k+3) is at most 1/2, so the
    omitted tail is below 2 t_N, which is counted too.

F = p + 48 + ceil(log2 N) + 8, N bounded before summing; the count is
about two ulps per block, so D errs by about 2^-(p+56).  Terms reach e^u,
so M = F + ceil(u log2 e) + 8 keeps the relative errors of all blocks
together near one ulp.  The finish is one directed step at w = p + 48 +
ceil(u log2 e) bits: sqrt(pi/2) e^u rounded down and up by the libmp
primitives mpmath.iv itself calls, and D's enclosure subtracted (x >= 0)
or added (x < 0) outward.  The value is the enclosure's midpoint, and
error_bound, the distance to its farther end rounded up, is below the
2^-(p+32) the verdict thresholds assume.

Quadrature route: for x >= 0, a fixed (N+1)-point Clenshaw-Curtis rule at
wp = p + 32 bits on integral_0^T f, f(t) = e^{-xt-t^2/2}, with nodes
T (1 + cos(j pi/N)) / 2 and T = -x + sqrt(x^2 + 2(p+16) ln 2), so that
xT + T^2/2 = (p+16) ln 2.  N, even, depends on p and is sized at the lower
edge of x's band, x < 5 or x >= 5, where T is largest (_node_count); the
rule is built once per (N, wp) on first use, its weights in integer fixed
point.  For x < 0 it reflects, phi(x) = sqrt(2 pi) e^{x^2/2} - phi(|x|),
so the rule never sees the integrand's peak at t = -x.  error_bound sums:

  * the tail, integral_T^inf f = e^{-xT-T^2/2} phi(x+T) < e^{-xT-T^2/2}/(x+T),
    since phi(y) < 1/y for y > 0;
  * the discretisation: f is entire, and on the Bernstein ellipse E_rho
    mapped onto [0, T] it is bounded by a closed-form M (_log_ellipse_factor),
    so the rule errs by at most (T/2) (64/15) M rho^{1-N} / (rho^2 - 1)
    (Trefethen, Approximation Theory and Approximation Practice,
    Thm 19.3); the least of this over a few fixed rho is taken;
  * the rounding, every step rounded to nearest, with exp, cos, sqrt and
    pi within two units in the last place.  Nodes and weights are within
    2^-(wp-2) of the exact ones; each exponent -t(x + t/2), x rounded once
    to wp bits, is then within 6K 2^-wp of the exact one, K = T (x + T),
    so each f(t_j) is within a relative (6K + 4) 2^-wp; the weighted sum
    is exact in fixed point apart from one truncation per term, and one
    rounding finishes it: at most 2^-wp ((6K + 5) |value| + 2T (N + 4))
    in all.  The reflection adds 2^-wp (sqrt(2 pi) e^{x^2/2} (x^2/2 + 10)
    + |value|) for its exponential and subtraction.

Bounds evaluated in floats carry a margin far above their own rounding.
The tail is below 2^-(p+19), and the discretisation below 2^-(p+20) in a band.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf
from mpmath.libmp import (from_float, from_man_exp, mpf_abs, mpf_add, mpf_exp, mpf_ln2, mpf_mul, mpf_mul_int,
                          mpf_neg, mpf_pi, mpf_shift, mpf_sqrt, mpf_sub, round_ceiling, round_floor, round_nearest,
                          to_float, to_int)

from .errors import EnvelopeError
from .numutil import check_precision, round_quotient, to_fraction

ENVELOPE = 30  # |x| beyond this is refused; the guard-bit budget assumes it

_BLOCK = 32  # series terms summed exactly per block (L)
_GUARD = 8  # guard bits of the series' fixed point F and mantissas M

_RHOS = (2.0, 2.5, 3.0, 3.5, 4.0, 5.0, 6.0, 8.0)  # Bernstein-ellipse parameters the bound tries
_LOG_SLACK = 1e-6  # added to each log evaluated in floats; far above their rounding
_ONE_PLUS = from_man_exp((1 << 20) + 1, -20)  # 1 + 2^-20, the quadrature bound's safety factor
_lock = threading.Lock()
_RULES: dict[tuple[int, int], tuple[list[mpf], list[int]]] = {}  # (N, wp) -> (nodes, weights)


@dataclass(frozen=True)
class OracleValue:
    value: mpf
    error_bound: mpf
    method: str
    working_bits: int | None = None  # working precision of the evaluation
    terms: int | None = None  # series terms summed (N); None for quadrature


def _normalised(num: int, den: int, m_bits: int) -> tuple[int, int]:
    """(q, s), q = floor(num 2^s / den) >= 2^m_bits for num, den > 0: q loses a relative 2^-m_bits at most."""
    s = m_bits + 1 + den.bit_length() - num.bit_length()
    return ((num << s) // den if s >= 0 else num // (den << -s)), s


def _positive_series(a: int, b: int, f: int, m_bits: int) -> tuple[int, int, int]:
    """(N, acc, ulps): D(a/b) summed over its first N terms, for a >= 0 and
    b > 0, with acc <= D(a/b) 2^f <= acc + ulps (see the module docstring)."""
    if a == 0:
        return 0, 0, 0
    aa, bb = a * a, b * b  # t_k / t_{k-1} = aa / (bb (2k+1))
    ratios = aa**_BLOCK
    man, s = _normalised(a, b, m_bits)  # t_0 = a/b = man 2^e
    e, floors = -s, 1
    k = acc = ulps = 0
    while True:
        num = den = 1
        for i in range(k + _BLOCK - 1, k, -1):  # num/den = 1 + r_{k+1} (1 + ... (1 + r_{k+L-1}))
            den *= bb * (2 * i + 1)
            num = den + aa * num
        shift = e + f
        block = (man * num << shift) // den if shift >= 0 else man * num // (den << -shift)
        acc += block
        ulps += 2 + (floors * (block + 1) >> (m_bits - 1))
        k += _BLOCK
        man, s = _normalised(man * ratios, den * bb * (2 * k + 1), m_bits)
        e, floors = e - s, floors + 1
        if k * bb >= aa:  # k >= 2u: the tail is below 2 t_k
            tail = 2 * (man + (floors * man >> (m_bits - 1)) + 1)
            shift = e + f
            tail = tail << shift if shift >= 0 else -(-tail >> -shift)
            if tail <= 1:
                return k, acc, ulps + tail


def _in_envelope(x) -> Fraction:
    """x read exactly, refused unless |x| <= ENVELOPE; both routes read x here."""
    xq = to_fraction(x)
    if abs(xq) > ENVELOPE:
        raise EnvelopeError(f"|x| must be <= {ENVELOPE}, got x = {x}")
    return xq


def _root_half_pi_exp(u: Fraction, w: int, rnd: str) -> tuple:
    """sqrt(pi/2) e^u as a raw mpf at w bits, every step rounded rnd."""
    root = mpf_sqrt(mpf_shift(mpf_pi(w, rnd), -1), w, rnd)
    return mpf_mul(root, mpf_exp(round_quotient(u.numerator, u.denominator, w, rnd), w, rnd), w, rnd)


def phi_series(x, precision_bits: int = 128) -> OracleValue:
    """phi from the positive series D summed in counted fixed point and
    finished in one directed step; error_bound is derived from the count."""
    check_precision(precision_bits)
    xq = _in_envelope(x)
    u = xq * xq / 2
    lu = math.ceil(float(u) * math.log2(math.e))
    w = precision_bits + 48 + lu
    # N < 2u + lu + F + L + 4 < 3 lu + p + 256: ceil(log2 N) is read from that
    f = precision_bits + 48 + (3 * lu + precision_bits + 255).bit_length() + _GUARD
    n, acc, ulps = _positive_series(abs(xq.numerator), xq.denominator, f, f + lu + _GUARD)
    d_lo, d_hi = (acc, acc + ulps) if xq < 0 else (-acc - ulps, -acc)  # -sgn(x) D, over 2^f
    lo = mpf_add(_root_half_pi_exp(u, w, round_floor), from_man_exp(d_lo, -f), w, round_floor)
    hi = mpf_add(_root_half_pi_exp(u, w, round_ceiling), from_man_exp(d_hi, -f), w, round_ceiling)
    value = mpf_shift(mpf_add(lo, hi, w, round_nearest), -1)
    error_bound = max(mp.make_mpf(mpf_sub(*pair, 53, round_ceiling)) for pair in ((hi, value), (value, lo)))
    return OracleValue(mp.make_mpf(value), error_bound, "series", w, n)


def _log_ellipse_factor(x: float, h: float, rho: float) -> float:
    """ln of (T/2) (64/15) M / (rho^2 - 1) for f(t) = e^{-xt-t^2/2} on
    [0, T = 2h]: the Clenshaw-Curtis bound without its factor rho^{1-N}.

    M bounds |f| on the image t = h (1 + z) of the Bernstein ellipse E_rho,
    by the maximum of ln|f| = -x Re t - (Re t)^2/2 + (Im t)^2/2 over the
    ellipse's bounding box |Re z| <= a, |Im z| <= b.  That maximum takes
    |Im t| = h b, and Re t at the vertex -x clipped to the box."""
    a, b = (rho + 1 / rho) / 2, (rho - 1 / rho) / 2
    r = max(-x, h * (1 - a))
    log_m = -x * r - r * r / 2 + (h * b) ** 2 / 2
    return math.log(h * 64 / 15) + log_m - math.log(rho * rho - 1)


def _node_count(precision_bits: int, edge: float) -> int:
    """The smallest even N whose bound at the band edge x = edge, where the
    cut-off T is largest within the band, is below 2^-(p+20); the bound
    falls with x (N = 78, 136, 252 at edge 0 and 66, 116, 222 at edge 5,
    at p = 64, 128, 256)."""
    h = (-edge + math.sqrt(edge * edge + 2 * (precision_bits + 16) * math.log(2))) / 2
    target = -(precision_bits + 20) * math.log(2)
    # for each rho the bound falls with N: the least N that meets the target
    return min(2 * math.ceil((1 + (_log_ellipse_factor(edge, h, rho) - target) / math.log(rho)) / 2) for rho in _RHOS)


def _rule(n: int, wp: int) -> tuple[list[mpf], list[int]]:
    """The (n+1)-point Clenshaw-Curtis rule on [-1, 1] for even n: nodes
    1 + cos(j pi / n) as mpfs on the grid 2^-f and weights as integers over
    2^f, f = wp - 2, each within 2^-f of the exact one; built once per (n, wp)."""
    rule = _RULES.get((n, wp))
    if rule is None:
        rule = _build_rule(n, wp)
        with _lock:
            rule = _RULES.setdefault((n, wp), rule)
    return rule


def _build_rule(n: int, wp: int) -> tuple[list[mpf], list[int]]:
    # Weights from Waldvogel's cosine sums, w_0 = w_n = 1/(n^2-1) and
    # w_j = (2/n) (1 - sum_{k<n/2} 2 cos(2kj pi/n) / (4k^2-1) - (-1)^j / (n^2-1)),
    # summed in fixed point at g bits: each cosine is within one unit and
    # each quotient floors by under one, so the sum is within n/2 + 1 units
    # and the weight, rounded to f bits, within one unit of 2^-f.
    # Every mpmath call names its precision, so a build reads nothing of
    # mpmath's process-wide context, which another thread may be changing.
    f, g = wp - 2, wp + 2
    prec = g + 10
    cos = [int(mp.nint(mp.ldexp(mp.cospi(mp.fdiv(m, n, prec=prec), prec=prec), g), prec=prec)) for m in range(n + 1)]

    def cos_g(m: int) -> int:  # cos(m pi / n) at g bits, any m >= 0
        m %= 2 * n
        return cos[2 * n - m if m > n else m]

    scale, ends = n << (g - f), (1 << g) // (n * n - 1)
    weights = [((1 << f) + (n * n - 1) // 2) // (n * n - 1)]
    for j in range(1, n // 2 + 1):
        v = (1 << g) - (-1) ** j * ends - sum(2 * cos_g(2 * k * j) // (4 * k * k - 1) for k in range(1, n // 2))
        weights.append((2 * v + scale // 2) // scale)
    weights += weights[-2::-1]  # w_{n-j} = w_j
    nodes = [mp.ldexp((1 << f) + ((c + (1 << (g - f - 1))) >> (g - f)), -f) for c in cos]
    return nodes, weights


def phi_quadrature(x, precision_bits: int = 128) -> OracleValue:
    """phi by an (N+1)-point Clenshaw-Curtis rule for integral_0^T e^{-xt-t^2/2} dt,
    with no adaptive integrator; the module docstring derives N, the cut-off
    T, the reflection used for x < 0 and the three terms of error_bound."""
    check_precision(precision_bits)
    xq = _in_envelope(x)
    y, wp, rn = abs(xq), precision_bits + 32, round_nearest
    n = _node_count(precision_bits, 5 if y >= 5 else 0)  # the lower edge of |x|'s band
    (nodes, weights), f = _rule(n, wp), wp - 2  # weights over 2^f
    yv = round_quotient(y.numerator, y.denominator, wp, rn)
    radicand = mpf_add(mpf_mul(yv, yv, wp, rn), mpf_mul_int(mpf_ln2(wp, rn), 2 * (precision_bits + 16), wp, rn), wp, rn)
    h = mpf_shift(mpf_sub(mpf_sqrt(radicand, wp, rn), yv, wp, rn), -1)  # T/2; T is exact by definition
    total = 0  # sum of w_j f(t_j), exact, over 2^(2f)
    for s, w in zip(nodes, weights):
        t = mpf_mul(h, s._mpf_, wp, rn)
        exponent = mpf_neg(mpf_mul(t, mpf_add(yv, mpf_shift(t, -1), wp, rn), wp, rn))
        total += w * to_int(mpf_shift(mpf_exp(exponent, wp, rn), f))
    value = mpf_mul(h, from_man_exp(total, -2 * f), wp, rn)  # one rounding: the sum is exact
    yf, tf = to_float(yv, rnd=rn), 2 * to_float(h, rnd=rn)
    log_discretisation = min(_log_ellipse_factor(yf, tf / 2, rho) + (1 - n) * math.log(rho) for rho in _RHOS)
    discretisation = mpf_exp(from_float(log_discretisation + _LOG_SLACK), 53, rn)
    tail = mpf_exp(from_float(-yf * tf - tf * tf / 2 - math.log(yf + tf) + _LOG_SLACK), 53, rn)
    rounding = mpf_add(mpf_mul(from_float(6 * tf * (yf + tf) + 5), value, 53, rn), from_float(2 * tf * (n + 4)), 53, rn)
    error_bound = mpf_add(mpf_add(discretisation, tail, 53, rn), mpf_shift(rounding, -wp), 53, rn)
    error_bound = mpf_mul(error_bound, _ONE_PLUS, 53, rn)
    if xq < 0:  # phi(x) = sqrt(2 pi) e^{x^2/2} - phi(|x|)
        u = xq * xq / 2
        root = mpf_sqrt(mpf_shift(mpf_pi(wp, rn), 1), wp, rn)  # sqrt(2 pi)
        e = mpf_mul(root, mpf_exp(round_quotient(u.numerator, u.denominator, wp, rn), wp, rn), wp, rn)
        value = mpf_sub(e, value, wp, rn)
        rounding = mpf_add(mpf_mul(e, from_float(float(u) + 10), 53, rn), mpf_abs(value, 53, rn), 53, rn)
        error_bound = mpf_mul(mpf_add(error_bound, mpf_shift(rounding, -wp), 53, rn), _ONE_PLUS, 53, rn)
    return OracleValue(mp.make_mpf(value), mp.make_mpf(error_bound), "quadrature", wp)
