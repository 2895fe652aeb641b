"""Two independent high-precision evaluators for phi(x).

phi(x) = e^{x^2/2} integral_x^inf e^{-t^2/2} dt
       = e^{x^2/2} sqrt(pi/2) erfc(x/sqrt(2))
       = integral_0^inf e^{-x t - t^2/2} dt.

Route 1 (series) sums a positive series of erf; route 2 (quadrature)
applies a trapezoidal rule to phi's Stieltjes form.  They share
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

Quadrature route (Chiarella and Reichel, Math. Comp. 22, 1968): for x > 0

    phi(x) = (x / sqrt(2 pi)) integral_R e^{-s^2/2} / (x^2 + s^2) ds,

and the trapezoidal rule with step h = 1/m, its poles s = +-ix corrected, is

    phi(x) = (x h / sqrt(2 pi)) sum_{|j| <= J} w_j / (x^2 + j^2 h^2)
             - sqrt(2 pi) e^{x^2/2} / (e^{2 pi m x} - 1) + E_cont + E_tail

with weights w_j = e^{-j^2/(2m^2)} that do not depend on x: they are built
once per precision p on first use, in integer fixed point (_build_weights),
and m and J depend on p alone.  At x = a/d each term j >= 1 is one floor,
floor(W_j d^2 m^2 / (a^2 m^2 + j^2 d^2)), and no exponential is evaluated
per node.  m >= 3 makes 4 pi m > ENVELOPE, so the pole term stays below the
j = 0 term; the two cancel only near x = 0, by about log2(1/z) bits with
z = 2 pi m x, and e^z - 1 loses as many, so the working precision is p + 32
plus twice that count, read from the exact x.  phi(0) = sqrt(pi/2).  For
x < 0 it reflects, phi(x) = sqrt(2 pi) e^{x^2/2} - phi(|x|), with the same
e^{x^2/2}.  error_bound has three terms:

  * the contour remainder: on the lines Im s = +-b, b > x, past the poles
    whose residues are the pole term, the rule's kernel is at most
    1/(e^{2 pi m b} - 1), |e^{-s^2/2}| = e^{(b^2 - (Re s)^2)/2} and
    |x^2 + s^2| >= b^2 - x^2, so |E_cont| <= 2x e^{b^2/2} / ((e^{2 pi m b} - 1)
    (b^2 - x^2)) (Trefethen and Weideman, SIAM Review 56, 2014, Thm 5.1).
    At small x the true remainder comes within 1% of this, so the bound
    takes twice it.  It grows with x, so its least over b = 2 pi m and
    b = ENVELOPE + 1/4 at x = ENVELOPE holds at every x (_log_contour);
  * the truncation tail: x / (x^2 + j^2 h^2) <= 1/(2jh) takes x out, and
    j^2 >= (J+1)^2 + 2k(J+1) for j = J+1+k leaves a geometric sum:
    0 <= E_tail <= e^{-(J+1)^2 h^2/2} / (sqrt(2 pi) (J+1) (1 - e^{-(J+1) h^2}));
  * the rounding: the weights are integers W_j over 2^F, F = p + 48, with
    W_j <= w_j 2^F < W_j + 2, so the sum over j >= 1 is at most J + 4m^2
    ulps above the sum of its floors (one per floor, and 2 m^2 / j^2 per
    weight, sum 1/j^2 < 2).  The rest, (d/(m a) + (2a/(d m)) sum - 2 pi
    e^{x^2/2} / (e^z - 1)) / sqrt(2 pi), is evaluated once rounded down and
    once up by the libmp primitives, as the series route's finish is.

m and J are the least whose contour and tail bounds are below 2^-(p+20)
(m = 3, 3, 4, 7 and J = 31, 41, 77, 265 at p = 64, 128, 256, 1024); both
are evaluated in floats with a margin far above their rounding, and added
to both ends of the enclosure.  The value is its midpoint, and error_bound
the distance to its farther end rounded up.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from mpmath import mp, mpf
from mpmath.libmp import (fone, from_float, from_man_exp, mpf_add, mpf_div, mpf_exp, mpf_mul, mpf_pi, mpf_shift,
                          mpf_sqrt, mpf_sub, round_ceiling, round_floor, round_nearest, to_int)

from .errors import EnvelopeError
from .numutil import DEFAULT_PRECISION_BITS, check_precision, dyadic, round_quotient, to_fraction

ENVELOPE = 30  # |x| beyond this is refused; the guard-bit budget assumes it

_BLOCK = 32  # series terms summed exactly per block (L)
_GUARD = 8  # guard bits of the series' fixed point F and mantissas M

_LOG_SLACK = 1e-6  # added to each log evaluated in floats; far above their rounding
_lock = threading.Lock()
_WEIGHTS: dict[int, tuple[int, int, list[int], tuple]] = {}  # p -> (m, F, [W_1 .. W_J], remainder)


@dataclass(frozen=True)
class OracleValue:
    value: mpf
    error_bound: mpf
    method: str
    working_bits: int | None = None  # working precision of the evaluation
    terms: int | None = None  # series terms summed (N); None for quadrature

    @cached_property
    def dyadic(self) -> tuple[int, int, int]:
        """(E, N, M) with value N 2^-E and error_bound M 2^-E, read once per
        value: the integers every certificate against it is formed from."""
        return dyadic(self.value, self.error_bound)


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


def phi_series(x, precision_bits: int = DEFAULT_PRECISION_BITS) -> OracleValue:
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


def _log_contour(m: int) -> float:
    """ln of the contour remainder's bound at x = ENVELOPE, where it is
    largest: the least over b in (2 pi m, ENVELOPE + 1/4), those above x,
    of 4x e^{b^2/2} / ((e^{2 pi m b} - 1)(b^2 - x^2))."""
    x, c = ENVELOPE, 2 * math.pi * m
    return min(math.log(4 * x / (b * b - x * x)) + b * b / 2 - c * b - math.log1p(-math.exp(-c * b))
               for b in (c, ENVELOPE + 0.25) if b > x)


def _log_tail(m: int, j: int) -> float:
    """ln of the truncation tail's bound for J = j - 1 and h = 1/m:
    e^{-j^2 h^2 / 2} / (sqrt(2 pi) j (1 - e^{-j h^2}))."""
    t = j / (m * m)
    return -j * t / 2 - math.log(math.sqrt(2 * math.pi) * j * -math.expm1(-t))


def _weights(precision_bits: int) -> tuple[int, int, list[int], tuple]:
    """The rule for precision p (see _build_weights), built once per p on first use."""
    table = _WEIGHTS.get(precision_bits)
    if table is None:
        table = _build_weights(precision_bits)
        with _lock:
            table = _WEIGHTS.setdefault(precision_bits, table)
    return table


def _build_weights(precision_bits: int) -> tuple[int, int, list[int], tuple]:
    """(m, F, [W_1 .. W_J], remainder): the least m >= 3 and J whose contour
    and tail bounds are below 2^-(p+20), the weights W_j = floor(e^{-j^2/(2m^2)} 2^F)
    with F = p + 48, and the two bounds' sum rounded up.  Each weight floors
    an exponential rounded down at F + 16 bits, so W_j <= w_j 2^F < W_j + 2.
    Every mpmath call names its precision, so a build reads nothing of
    mpmath's process-wide context, which another thread may be changing."""
    target = -(precision_bits + 20) * math.log(2)
    m = next(m for m in itertools.count(3) if _log_contour(m) < target)
    j = next(j for j in itertools.count(1) if _log_tail(m, j) < target)  # J + 1
    f, g = precision_bits + 48, precision_bits + 64
    exps = (mpf_exp(round_quotient(-k * k, 2 * m * m, g, round_floor), g, round_floor) for k in range(1, j))
    weights = [to_int(mpf_shift(e, f), round_floor) for e in exps]
    bounds = (mpf_exp(from_float(v + _LOG_SLACK), 53, round_ceiling) for v in (_log_contour(m), _log_tail(m, j)))
    return m, f, weights, mpf_add(*bounds, 53, round_ceiling)


def phi_quadrature(x, precision_bits: int = DEFAULT_PRECISION_BITS) -> OracleValue:
    """phi by the pole-corrected trapezoidal rule for its Stieltjes form,
    with no adaptive integrator; the module docstring derives the rule's m
    and J, the working precision, the reflection used for x < 0 and the
    three terms of error_bound."""
    check_precision(precision_bits)
    xq = _in_envelope(x)
    a, d = abs(xq.numerator), xq.denominator
    m, f, weights, remainder = _weights(precision_bits)
    # near x = 0 the j = 0 and pole terms cancel by about log2(1/z) bits,
    # z = 2 pi m |x| > 4 m a / d, and e^z - 1 loses as many again
    w = precision_bits + 32 + 2 * max(0, d.bit_length() - (4 * m * a).bit_length() + 1)
    two_pi = {rnd: mpf_shift(mpf_pi(w, rnd), 1) for rnd in (round_floor, round_ceiling)}
    root = {rnd: mpf_sqrt(two_pi[rnd], w, rnd) for rnd in two_pi}  # sqrt(2 pi)
    e_u = {rnd: mpf_exp(round_quotient(a * a, 2 * d * d, w, rnd), w, rnd) for rnd in two_pi}  # e^{x^2/2}
    if a == 0:  # phi(0) = sqrt(2 pi) / 2
        lo, hi = (mpf_shift(root[rnd], -1) for rnd in two_pi)
    else:
        k, c, dd = (d * m) ** 2, (a * m) ** 2, d * d
        total = sum(wj * k // (c + j * j * dd) for j, wj in enumerate(weights, 1))  # the sum over j >= 1, over 2^F
        phis = []  # the lower end, then the upper; a lower end below 0 is still below phi > 0
        for rnd, opp, ulps in ((round_floor, round_ceiling, 0), (round_ceiling, round_floor, len(weights) + 4 * m * m)):
            # phi = (d/(m a) + 2a/(d m) sum - 2 pi e^u / (e^z - 1)) / sqrt(2 pi), z = 2 pi m a/d
            e_z = mpf_exp(mpf_mul(mpf_pi(w, rnd), round_quotient(2 * m * a, d, w, rnd), w, rnd), w, rnd)
            pole = mpf_div(mpf_mul(two_pi[opp], e_u[opp], w, opp), mpf_sub(e_z, fone, w, rnd), w, opp)
            v = mpf_sub(round_quotient(2 * a * a * (total + ulps) + (dd << f), a * d * m, w, rnd, -f), pole, w, rnd)
            phis.append(mpf_div(v, root[opp], w, rnd))
        lo, hi = mpf_sub(phis[0], remainder, w, round_floor), mpf_add(phis[1], remainder, w, round_ceiling)
    if xq < 0:  # phi(x) = sqrt(2 pi) e^{x^2/2} - phi(|x|)
        ends = ((round_floor, hi), (round_ceiling, lo))
        lo, hi = (mpf_sub(mpf_mul(root[rnd], e_u[rnd], w, rnd), end, w, rnd) for rnd, end in ends)
    value = mpf_shift(mpf_add(lo, hi, w, round_nearest), -1)
    error_bound = max(mp.make_mpf(mpf_sub(*pair, 53, round_ceiling)) for pair in ((hi, value), (value, lo)))
    return OracleValue(mp.make_mpf(value), error_bound, "quadrature", w)
