"""Two independent high-precision evaluators for phi(x).

phi(x) = e^{x^2/2} integral_x^inf e^{-t^2/2} dt
       = e^{x^2/2} sqrt(pi/2) erfc(x/sqrt(2))
       = integral_0^inf e^{-x t - t^2/2} dt.

Route 1 (series) sums erf's Maclaurin series exactly; route 2 (quadrature)
integrates the Laplace-type integral on a truncated interval.  The two
routes share no machinery with each other or with the bound and
continued-fraction code, so certificates never test that machinery against
itself: this module imports nothing of the package but its errors and
numeric helpers.

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

Quadrature route and its error bound: for x >= 0 it applies a fixed
(N+1)-point Clenshaw-Curtis rule to integral_0^T f, f(t) = e^{-xt-t^2/2},
with T = -x + sqrt(x^2 + 2(p+16) ln 2), so that xT + T^2/2 = (p+16) ln 2.
The nodes are T (1 + cos(j pi/N)) / 2 and N, even, depends on p only
(_node_count).  Nodes and weights are built once per (N, wp) on first use,
the weights in integer fixed point, and wp = p + 32.  For x < 0 the route
reflects, phi(x) = sqrt(2 pi) e^{x^2/2} - phi(|x|), so the rule never sees
the integrand's peak at t = -x.  error_bound is the sum of three derived
terms:

  * the tail, integral_T^inf f = e^{-xT-T^2/2} phi(x+T) < e^{-xT-T^2/2}/(x+T),
    since phi(y) < 1/y for y > 0;
  * the discretisation: f is entire, and on the Bernstein ellipse E_rho
    mapped onto [0, T] it is bounded by a closed-form M (_log_ellipse_factor),
    so the rule errs by at most (T/2) (64/15) M rho^{1-N} / (rho^2 - 1)
    (Trefethen, Approximation Theory and Approximation Practice,
    Thm 19.3); the least of this over a few fixed rho is taken;
  * the rounding, under this model: mpmath's +, -, * and / round to
    nearest, and its exp, cos, sqrt and pi are within two units in the
    last place.  Nodes and weights are within 2^-(wp-2) of the exact ones;
    each exponent -t(x + t/2), x rounded once to wp bits, is then within
    6K 2^-wp of the exact one, K = T (x + T), so each f(t_j) is within a relative (6K + 4) 2^-wp; the
    weighted sum is exact in fixed point apart from one truncation per
    term, and one rounding finishes it.  Altogether the rounding is at most
    2^-wp ((6K + 5) |value| + 2T (N + 4)).  The reflection adds
    2^-wp (sqrt(2 pi) e^{x^2/2} (x^2/2 + 10) + |value|) for its exponential
    and subtraction.

Bounds evaluated in floats carry a margin far above their own rounding.
At x = 0, where T is largest, the discretisation term is below 2^-(p+20)
and the tail below 2^-(p+19); the bound falls with x.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction

from mpmath import iv, mp, mpf

from .errors import EnvelopeError
from .numutil import check_precision, iv_workprec, to_fraction

ENVELOPE = 30  # |x| beyond this is refused; the guard-bit budget assumes it

LOG2_E = math.log2(math.e)

_RHOS = (2.0, 2.5, 3.0, 3.5, 4.0, 5.0, 6.0, 8.0)  # Bernstein-ellipse parameters the bound tries
_LOG_SLACK = 1e-6  # added to each log evaluated in floats; far above their rounding
_lock = threading.Lock()
_RULES: dict[tuple[int, int], tuple[list[mpf], list[int]]] = {}  # (N, wp) -> (nodes, weights)


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


def _in_envelope(x) -> Fraction:
    """x read exactly, refused unless |x| <= ENVELOPE; both routes read x here."""
    xq = to_fraction(x)
    if abs(xq) > ENVELOPE:
        raise EnvelopeError(f"|x| must be <= {ENVELOPE}, got x = {x}")
    return xq


def phi_series(x, precision_bits: int = 128) -> OracleValue:
    """phi from an exact partial sum of erf's Maclaurin series, finished in
    interval arithmetic; error_bound is derived from the interval."""
    check_precision(precision_bits)
    xq = _in_envelope(x)
    u = xq * xq / 2
    w = precision_bits + 48 + math.ceil(float(u) * LOG2_E)
    n = _term_count(u, w)
    p, q, t = _split(u.numerator, u.denominator, 1, n + 1)
    # S_{N+1} = (Q + T) / Q and t_N = P / Q; S lies between S_N and S_{N+1}
    with iv_workprec(w):
        xs = _interval(xq.numerator * (q + t - p), xq.numerator * (q + t), xq.denominator * q, w)
        uv = _interval(u.numerator, u.numerator, u.denominator, w)
        enclosure = iv.exp(uv) * (iv.sqrt(iv.pi / 2) - xs)
    with mp.workprec(w):
        lo, hi = mp.mpf(enclosure.a), mp.mpf(enclosure.b)  # exact: both have w bits
        value = (lo + hi) / 2
        error_bound = max(mp.fsub(hi, value, prec=53, rounding="c"), mp.fsub(value, lo, prec=53, rounding="c"))
    return OracleValue(value, error_bound, "series", w, n)


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


def _node_count(precision_bits: int) -> int:
    """The smallest even N whose bound at x = 0, where the cut-off T is
    largest, is below 2^-(p+20); the bound falls with x (N = 78, 136, 252
    at p = 64, 128, 256)."""
    h = math.sqrt(2 * (precision_bits + 16) * math.log(2)) / 2
    target = -(precision_bits + 20) * math.log(2)
    # for each rho the bound falls with N: the least N that meets the target
    return min(2 * math.ceil((1 + (_log_ellipse_factor(0.0, h, rho) - target) / math.log(rho)) / 2) for rho in _RHOS)


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


def _clenshaw_curtis(xq: Fraction, precision_bits: int, wp: int) -> tuple[mpf, mpf]:
    """phi(x) for x >= 0 and its derived error bound (see the module docstring)."""
    n = _node_count(precision_bits)
    nodes, weights = _rule(n, wp)
    f = wp - 2
    with mp.workprec(wp):
        xv = mp.fdiv(xq.numerator, xq.denominator)
        h = (-xv + mp.sqrt(xv * xv + 2 * (precision_bits + 16) * mp.ln2)) / 2  # T/2; T is exact by definition
        total = 0  # sum of w_j f(t_j), exact, over 2^(2f)
        for s, w in zip(nodes, weights):
            t = h * s
            total += w * int(mp.ldexp(mp.exp(-t * (xv + t / 2)), f))
        value = h * mp.ldexp(total, -2 * f)  # one rounding: ldexp of an int is exact
    xf, tf = float(xv), 2 * float(h)
    with mp.workprec(53):
        log_discretisation = min(_log_ellipse_factor(xf, tf / 2, rho) + (1 - n) * math.log(rho) for rho in _RHOS)
        discretisation = mp.exp(log_discretisation + _LOG_SLACK)
        tail = mp.exp(-xf * tf - tf * tf / 2 - math.log(xf + tf) + _LOG_SLACK)
        rounding = mp.ldexp((6 * tf * (xf + tf) + 5) * value + 2 * tf * (n + 4), -wp)
        error_bound = (discretisation + tail + rounding) * (1 + mp.ldexp(1, -20))
    return value, error_bound


def phi_quadrature(x, precision_bits: int = 128) -> OracleValue:
    """phi by an (N+1)-point Clenshaw-Curtis rule for integral_0^T e^{-xt-t^2/2} dt.

    See the module docstring for the rule, the cut-off T, the reflection
    used for x < 0 and the three terms of error_bound.  No adaptive
    integrator is involved: N depends on the precision only.
    """
    check_precision(precision_bits)
    xq = _in_envelope(x)
    wp = precision_bits + 32
    value, error_bound = _clenshaw_curtis(abs(xq), precision_bits, wp)
    if xq < 0:  # phi(x) = sqrt(2 pi) e^{x^2/2} - phi(|x|)
        u = xq * xq / 2
        with mp.workprec(wp):
            e = mp.sqrt(2 * mp.pi) * mp.exp(mp.fdiv(u.numerator, u.denominator))
            value = e - value
        with mp.workprec(53):
            rounding = mp.ldexp(e * (float(u) + 10) + abs(value), -wp)
            error_bound = (error_bound + rounding) * (1 + mp.ldexp(1, -20))
    return OracleValue(value, error_bound, "quadrature", wp)
