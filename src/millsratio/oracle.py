"""Two independent high-precision evaluators for phi(x).

phi(x) = e^{x^2/2} integral_x^inf e^{-t^2/2} dt
       = e^{x^2/2} sqrt(pi/2) erfc(x/sqrt(2))
       = integral_0^inf e^{-x t - t^2/2} dt.

Route 1 (series) sums a positive series of erf, or at large |x| encloses
phi between two partial sums of its asymptotic expansion; route 2
(quadrature) applies a trapezoidal rule to phi's Stieltjes form.  They share
no evaluation with each other or with the bound and continued-fraction
code, only the exact reading of x and the last step from an enclosure to
a value and its error bound (_enclosed), so certificates never test that
machinery against itself: this module imports nothing of the package but
its errors and numeric helpers.
Evaluations name the precision and rounding of every mpmath call, on raw
mpmath.libmp values, and never read or set mpmath's process-wide precision.

Series route, convergent regime (Abramowitz and Stegun 7.1.6): with
u = x^2/2, y = |x| and positive terms t_k = y^{2k+1} / (2k+1)!!,

    phi(x) = sqrt(pi/2) e^u - sgn(x) D(y),   D(y) = sum_k t_k,

so only the last subtraction, for x > 0, cancels (about u log2 e bits).
x = a/b is read exactly and D is summed in fixed point at g fractional
bits, one floor per term (Brent and Zimmermann, Modern Computer
Arithmetic, 4.4): T_0 = floor(a 2^g / b), T_k = floor(T_{k-1} a^2 / (b^2
(2k+1))) and acc = T_0 + ... + T_k, which stops at the first k >= y^2 = 2u
with T_k < 2^(g-f).  With n = k + 1 terms and lu = ceil(u log2 e), read in
floats, acc <= D 2^g <= acc + ulps for ulps = n (2^(lu+2) + n + 1) + T_k:

  * floors: write tau_k = t_k 2^g for the exact term and e_k = tau_k - T_k
    >= 0 for its error.  Then e_k < r_k e_{k-1} + 1, with e_0 < 1 and r_k =
    y^2/(2k+1), so e_k < sum_{i<=k} tau_k / tau_i;
  * unimodal terms: the ratios r_k decrease, so tau_i >= min(tau_0, tau_k)
    for every i <= k, and e_k < (k+1) (tau_k / tau_0 + 1);
  * the e^u factor: D(y) <= y e^u, so sum_j tau_j / tau_0 <= e^u <=
    2^(lu+1), the extra bit covering lu read in floats;
  * tail: past k >= y^2 every ratio is below 1/2, so the omitted tail is
    below tau_k < T_k + e_k;
  * total: the error is below n (2 e^u + (n+3)/2) + T_k <= ulps, and acc <=
    D 2^g, because every floor rounds down.

f = p + 56 and g = f + lu + 2 + bitlength(3 lu + f + 255), both fixed before
the sum starts.  Past y^2 the terms halve from at most D < 2^(lu+6), so n <
y^2 + lu + f + 8 < 3 lu + f + 255 and ulps 2^-g < 2^-f (2 + (n+1) 2^-(lu+2)):
about 2^-(p+55), and 2^-(p+53) at |x| = 1 and p = 8192, where n is largest
against 2^lu.

Series route, asymptotic regime (A&S 7.1.23-7.1.24): near |x| = 30 the
convergent sum needs about 1.5 x^2 terms at about 850 bits, as e^u - D
cancels about u log2 e bits.  For x > 0, phi(x) = integral_0^inf e^{-xt}
e^{-s} dt with s = t^2/2, and Taylor's theorem with Lagrange's remainder
gives e^{-s} = sum_{k<n} (-s)^k / k! + (-s)^n e^{-z} / n! for some z in
]0, s[.  Integrating term by term, as in Watson's lemma, with
integral_0^inf e^{-xt} t^{2k} dt / (2^k k!) = (2k-1)!! / x^{2k+1}:

    phi(x) = S_n + rho_n,   S_n = sum_{k<n} (-1)^k t_k,   t_k = (2k-1)!! / x^{2k+1},

and the remainder rho_n, the integral of the alternating Taylor
remainder, has the sign (-1)^n and |rho_n| < t_n.  So phi lies strictly
between S_n and S_{n+1} = S_n + (-1)^n t_n, two exact rationals, with no
exponential and no cancellation.  At x = a/d both are integers over
a^{2n+1}, summed by Horner.  The regime is taken where the least n with
t_n <= 2^-(p+58) comes while the terms still decrease: t_{k+1} / t_k =
(2k+1) d^2 / a^2 < 1 for every k < n, and t_n <= 2^-(p+58) is (2n-1)!!
d^{2n+1} 2^(p+58) <= a^{2n+1}, both decided on integers.  By Stirling,
(2k-1)!! >= sqrt(2) (2k/e)^k e^{-1/(12k)}, so every term exceeds
sqrt(2) e^{-1/12} e^{-u} / x > 1.3 e^{-u} / x, and the rule can hold only
where u log2 e + log2 x >= p + 58.38.  An O(1) pre-test of that in floats,
with one bit of slack, leaves every x where the rule must fail to the
convergent regime without running it.  The switch falls at |x| = 13.7,
16.6 and 21.3 for p = 80, 144 and 272, and beyond the envelope for p >=
596.

Series route, the finish: phi = c K + R, K = sqrt(pi/2) e^u, with c = 1
and R = -sgn(x) D, integers over 2^g, at w = p + 48 + lu bits in the
convergent regime; past the switch R lies between S_n and S_{n+1}, with
c = 0 at w = p + 64 for x > 0, and between their negatives, with c = 2
at w = p + 52 + lu for x < 0 (phi(x) = sqrt(2 pi) e^u - phi(|x|)).  Each
end takes K rounded its own way by the libmp primitives mpmath.iv itself
calls, and c K_end + R_end, one exact integer quotient, is rounded once
at w bits the same way (round_quotient): as c >= 0, c K_lo + R_lo <= phi
<= c K_hi + R_hi.  The value is the midpoint, and error_bound the
distance to the farther end rounded up: below 2^-(p+32), and past the
switch below 2^-(p+58) plus the ends' rounding (x < 0 takes four bits
more than the convergent w, for twice K's rounding).  Certificates take
error_bound as their threshold; terms is N or n, working_bits is w.

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
from mpmath.libmp import (fone, from_float, mpf_add, mpf_div, mpf_exp, mpf_mul, mpf_pi, mpf_shift,
                          mpf_sqrt, mpf_sub, round_ceiling, round_floor, round_nearest, to_int)

from .errors import EnvelopeError
from .numutil import DEFAULT_PRECISION_BITS, check_precision, dyadic, round_quotient, to_fraction

ENVELOPE = 30  # |x| beyond this is refused; the guard-bit budget assumes it

_ASYMPTOTIC_BITS = 58  # the asymptotic regime's first omitted term is at most 2^-(p+58)

_LOG_SLACK = 1e-6  # added to each log evaluated in floats; far above their rounding
_lock = threading.Lock()
_WEIGHTS: dict[int, tuple[int, int, list[int], tuple]] = {}  # p -> (m, F, [W_1 .. W_J], remainder)


@dataclass(frozen=True)
class OracleValue:
    value: mpf
    error_bound: mpf
    method: str
    working_bits: int | None = None  # working precision of the evaluation
    # series terms summed (N), or n of the asymptotic enclosure [S_n, S_{n+1}];
    # None for quadrature
    terms: int | None = None

    @cached_property
    def dyadic(self) -> tuple[int, int, int]:
        """(E, N, M) with value N 2^-E and error_bound M 2^-E, read once per
        value: the integers every certificate against it is formed from."""
        return dyadic(self.value, self.error_bound)


def _positive_series(a: int, b: int, f: int, lu: int) -> tuple[int, int, int, int]:
    """(N, acc, ulps, g): D(a/b) summed over its first N terms at g fractional
    bits, for a >= 0, b > 0 and lu = ceil(u log2 e) read in floats, u =
    a^2/(2b^2), with acc <= D(a/b) 2^g <= acc + ulps and ulps 2^-g about
    2^-f (see the module docstring); D(0) = 0 is exact."""
    if a == 0:
        return 0, 0, 0, f
    g = f + lu + 2 + (3 * lu + f + 255).bit_length()  # N < 3 lu + f + 255
    aa, bb = a * a, b * b  # t_k / t_{k-1} = aa / (bb (2k+1))
    term = acc = (a << g) // b
    k, k0, limit = 0, -(-aa // bb), 1 << (g - f)  # k0 = ceil(y^2) = ceil(2u)
    while k < k0 or term >= limit:
        k += 1
        term = term * aa // (bb * (2 * k + 1))
        acc += term
    n = k + 1
    return n, acc, n * ((4 << lu) + n + 1) + term, g


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


def _log2_exp(u: Fraction) -> int:
    """ceil(u log2 e), read in floats: the bits of e^u above the binary point."""
    return math.ceil(float(u) * math.log2(math.e))


def _enclosed(lo: tuple, hi: tuple, w: int, method: str, terms: int | None = None) -> OracleValue:
    """phi in [lo, hi], raw mpfs: the value is the midpoint rounded to
    nearest at w bits, and error_bound the distance to the farther end
    rounded up."""
    value = mpf_shift(mpf_add(lo, hi, w, round_nearest), -1)
    error_bound = max(mp.make_mpf(mpf_sub(*pair, 53, round_ceiling)) for pair in ((hi, value), (value, lo)))
    return OracleValue(mp.make_mpf(value), error_bound, method, w, terms)


def _asymptotic_sums(a: int, d: int, target_bits: int) -> tuple[int, int, int, int] | None:
    """(n, s, s', c) with S_n = s/c and S_{n+1} = s'/c, for x = a/d > 0 and
    n the least with t_n <= 2^-target_bits, t_k = (2k-1)!!/x^{2k+1}; None
    if the terms stop decreasing first, at t_{k+1} >= t_k, (2k+1) d^2 >= a^2."""
    aa, dd = a * a, d * d
    t, c, acc, n = d, a, 0, 0  # t_n = t/c with c = a^{2n+1}; acc = S_n a^{2n-1}
    while t << target_bits > c:
        if (2 * n + 1) * dd >= aa:
            return None
        acc = acc * aa + (-t if n % 2 else t)
        n += 1
        t, c = t * (2 * n - 1) * dd, c * aa
    s = acc * aa
    return n, s, s + (-t if n % 2 else t), c


def _finish(c: int, u: Fraction, r: int, q: int, t: int, w: int, rnd: str) -> tuple:
    """c sqrt(pi/2) e^u + r 2^t / q (c >= 0, q > 0) rounded once at w bits by rnd, as is sqrt(pi/2) e^u if c > 0."""
    _, man, e, _ = _root_half_pi_exp(u, w, rnd) if c else (0, 0, t, 0)
    s = min(e, t)
    return round_quotient((c * man * q << (e - s)) + (r << (t - s)), q, w, rnd, s)


def phi_series(x, precision_bits: int = DEFAULT_PRECISION_BITS) -> OracleValue:
    """phi = c sqrt(pi/2) e^u + R from the asymptotic expansion where its
    terms reach 2^-(p+58) before they grow, else from the convergent
    series, each end rounded outward once (see the module docstring)."""
    p, xq = check_precision(precision_bits), _in_envelope(x)
    a, d, u = abs(xq.numerator), xq.denominator, Fraction(xq.numerator**2, 2 * xq.denominator**2)
    lu, y = _log2_exp(u), a / d
    # every asymptotic term is above 1.3 e^-u / |x|: a bit of slack covers the floats
    far = y >= 1 and y * y / 2 * math.log2(math.e) + math.log2(y) + 1 >= p + _ASYMPTOTIC_BITS
    sums = far and _asymptotic_sums(a, d, p + _ASYMPTOTIC_BITS)
    if not sums:  # R = -sgn(x) D, over 2^g
        n, acc, ulps, g = _positive_series(a, d, p + 56, lu)
        c, w, q, t, ends = 1, p + 48 + lu, 1, -g, (acc, acc + ulps) if xq < 0 else (-acc - ulps, -acc)
    else:  # R = +-phi(|x|), between S_n = s0/q and S_{n+1} = s1/q, negated for x < 0
        n, s0, s1, q = sums
        c, w, t, ends = (0, p + 64, 0, sorted((s0, s1))) if xq > 0 else (2, p + 52 + lu, 0, sorted((-s0, -s1)))
    lo, hi = (_finish(c, u, r, q, t, w, rnd) for r, rnd in zip(ends, (round_floor, round_ceiling)))
    return _enclosed(lo, hi, w, "series", n)


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
    return _enclosed(lo, hi, w, "quadrature")
