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
The one transcendental read from mpmath is pi, rounded down and up by
mpf_pi, a premise the tests pin at every precision the oracle asks; every
exponential comes from one integer kernel with a counted error (_exp), and
every end is one exact integer quotient rounded once (round_quotient).  No
evaluation reads or sets mpmath's process-wide precision.

The kernel (Brent and Zimmermann, Modern Computer Arithmetic, 4.3-4.4):
_exp(a, b, g) returns integers lo <= e^v 2^w <= hi <= lo + 2^(w-g-1) for v
= a/b >= 0 and g >= -lv, lv = floor(3a/(2b)) + 1, so e^v < 2^lv as log2 e
< 3/2; the enclosure is within 2^-(g+1) of e^v, at the kernel's working
width w = W0 + G, W0 = g + lv + s and G = bitlength(W0) + 4.  It reduces v
to r = v 2^-s < 1/16, s = bitlength(floor(v)) + 4:

  * Taylor: T_0 = 2^w and T_k = floor(T_{k-1} r / k), summed to acc up to
    the first k with T_k <= 1; as T_k <= 2^(w-4k), k <= w/4 + 1.  With
    tau_k = r^k 2^w / k! and e_k = tau_k - T_k >= 0, e_0 = 0 and e_k < 1 +
    e_{k-1} r / k, so e_k < 2; past the last k the tail is below tau_k r /
    (k + 1 - r) < 1, as tau_k < T_k + 2 <= 3.  So acc <= e^r 2^w < acc +
    2k + 1;
  * squaring: e^{2y} 2^w = (e^y 2^w)^2 / 2^w, so the floor of lo^2 / 2^w
    and the ceiling of hi^2 / 2^w enclose the square, and after s
    squarings the ends enclose e^v 2^w;
  * width: with X_i >= 2^w the exact value after i squarings and c_i =
    (hi_i - lo_i) / X_i + 2^(1-w), each squaring gives c_{i+1} < 2 c_i +
    c_i^2.  c_0 <= (2k + 3) 2^-w <= 2^(G-2-w), as 2k + 3 <= 2^(G-2), so 2^s
    c_0 <= 2^-(g+lv+2) <= 1/4, c_s <= 2^(s+1) c_0 and hi - lo <= 2^(s+1)
    (2k + 3) e^v <= 2^(w-g-1).

sqrt(pi/2) comes from pi's ends by isqrt (_pi): with P_lo <= pi 2^g <=
P_hi from mpf_pi at g + 2 bits, isqrt(P_lo 2^(g-1)) and one more than
isqrt(P_hi 2^(g-1) - 1) enclose sqrt(pi/2) 2^g, at most 2 apart.

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
at w = p + 52 + lu for x < 0 (phi(x) = sqrt(2 pi) e^u - phi(|x|)).  K's
ends are sqrt(pi/2)'s ends at w bits times the ends of one kernel call for
e^u at g = w - lu: within 2^(1-w) (e^u + 2^-(g+1)) + 2^-(g+1) sqrt(pi/2)
< 3 2^-g of each other.  Each end takes K's end on its side, and c K_end
+ R_end, one exact integer quotient, is rounded once at w bits the same
way (_finish): as c >= 0, c K_lo + R_lo <= phi <= c K_hi + R_hi.  The
value is the midpoint, and error_bound the distance to the farther end
rounded up: below 2^-(p+32), and past the switch below 2^-(p+58) plus the
ends' rounding (x < 0 takes four bits more than the convergent w, for
twice K's width).  Certificates take error_bound as their threshold;
terms is N or n, working_bits is w.

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
z = 2 pi m x, and e^z - 1 loses as many, so the working precision w is p +
32 plus twice that count, read from the exact x.  With S the sum of the
floors over j >= 1, each end is one exact quotient,

    L / sqrt(2 pi) - sqrt(2 pi) e^u / (e^z - 1) -+ remainder,
    L = d/(m a) + (2a/(d m)) (S + ulps) 2^-F,

with ulps = 0 at the lower end and J + 4m^2 at the upper.  It decreases in
sqrt(2 pi) = 2 sqrt(pi/2) and in e^u and increases in e^z, so the lower end
takes sqrt(2 pi)'s and e^u's upper ends and e^z's lower end, and the upper
end the others: sqrt(pi/2) at w bits, e^u from the kernel at g = w, and
e^z from it at g = w - ceil(z log2 e), about w bits relative, at z's lower
or upper end from pi's at w bits.  _finish rounds each end once with c = 0.  phi(0) = sqrt(pi/2) is _finish with c = 1 and R = 0, and
for x < 0, phi(x) = 2 sqrt(pi/2) e^u - phi(|x|) is _finish with c = 2 and R
between the negated ends, the series route's x < 0 finish.  error_bound
has three terms:

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
    weight, sum 1/j^2 < 2).

The weights come from one kernel call: with q = e^{-1/(2m^2)}, w_j = q^{j^2}
= w_{j-1} c_j and c_j = q^{2j-1} = c_{j-1} q^2.  At G = F + 2 bitlength(J)
+ 16 fractional bits, Q = floor(2^(G+w) / hi), for the kernel's ends of
e^{1/(2m^2)} 2^w at g = G, is below q 2^G by less than 2, as hi lies
within 2^(w-G-1) above e^{1/(2m^2)} 2^w, and Q2 = floor(Q^2 / 2^G) below
q^2 2^G by less than 5.  Each node takes two floored
products, V_j = floor(V_{j-1} C_j / 2^G) and C_{j+1} = floor(C_j Q2 / 2^G),
from V_0 = 2^G and C_1 = Q (_gaussian).  Every value is at most 1 and every step floors,
so the shortfalls of C_j and V_j below c_j 2^G and w_j 2^G are >= 0, the
first below 6j and the second below 3j^2 + 4j < 2^(G-F-12).  So W_j =
floor(V_j 2^(F-G)) has W_j <= w_j 2^F < W_j + 1 + 2^-12; the twelve bits
beyond the count make W_j = floor(w_j 2^F) but where w_j 2^F lies within
2^-12 above an integer.

m and J are the least whose contour and tail bounds are below 2^-(p+20)
(m = 3, 3, 4, 7 and J = 31, 41, 77, 265 at p = 64, 128, 256, 1024).  Both
are evaluated in floats as logs v, with a margin far above their rounding,
and each is read as 1/e^{-v}: -v is an exact dyadic, and the kernel's lower
end lo of e^{-v} 2^w at g = 0 gives 2^(F+w) / lo, rounded up.  Their sum in
units of 2^-F is added to both ends of the enclosure.  The value is its
midpoint, and error_bound the distance to its farther end rounded up.
"""

from __future__ import annotations

import itertools
import math
import threading
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from mpmath import mp, mpf
from mpmath.libmp import mpf_add, mpf_pi, mpf_shift, mpf_sub, round_ceiling, round_floor, round_nearest

from .errors import EnvelopeError
from .numutil import DEFAULT_PRECISION_BITS, check_precision, dyadic, round_quotient, to_fraction

ENVELOPE = 30  # |x| beyond this is refused; the guard-bit budget assumes it

_ASYMPTOTIC_BITS = 58  # the asymptotic regime's first omitted term is at most 2^-(p+58)

_LOG_SLACK = 1e-6  # added to each log evaluated in floats; far above their rounding
_lock = threading.Lock()
_WEIGHTS: dict[int, tuple[int, int, list[int], int]] = {}  # p -> (m, F, [W_1 .. W_J], remainder 2^F)


class _OracleFields(NamedTuple):
    value: mpf
    error_bound: mpf
    method: str
    working_bits: int | None = None  # working precision of the evaluation
    # series terms summed (N), or n of the asymptotic enclosure [S_n, S_{n+1}];
    # None for quadrature
    terms: int | None = None


class OracleValue(_OracleFields):  # no __slots__: the __dict__ holds dyadic
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


def _exp(a: int, b: int, g: int) -> tuple[int, int, int]:
    """(lo, hi, w) with lo <= e^{a/b} 2^w <= hi <= lo + 2^(w-g-1), for
    integers a >= 0, b > 0 and g >= -lv: a/b reduced by 2^-s, its Taylor sum
    with one floor per term and s squarings rounded outward, at w fractional
    bits (see the module docstring)."""
    s = (a // b).bit_length() + 4  # r = a / (b 2^s) < 1/16
    w = g + 3 * a // (2 * b) + 1 + s  # g + lv + s, e^{a/b} < 2^lv as log2 e < 3/2
    w += w.bit_length() + 4
    z = (b & -b).bit_length() - 1  # b's factor 2^z joins the shift
    k, term, acc = 0, 1 << w, 1 << w
    while term > 1:
        k += 1
        term = (term * a >> s + z) // ((b >> z) * k)
        acc += term
    lo, hi = acc, acc + 2 * k + 1
    for _ in range(s):
        lo, hi = lo * lo >> w, -(-hi * hi >> w)
    return lo, hi, w


def _pi(g: int) -> tuple[int, int, int, int]:
    """(lo, hi, root_lo, root_hi) with lo <= pi 2^g <= hi and root_lo <= sqrt(pi/2) 2^g
    <= root_hi, for g >= 1: mpf_pi rounded down and up at g + 2 bits, and sqrt(pi 2^(2g-1))
    from those ends by isqrt."""
    lo, hi = (man << e + g for _, man, e, _ in (mpf_pi(g + 2, rnd) for rnd in (round_floor, round_ceiling)))
    return lo, hi, math.isqrt(lo << g - 1), math.isqrt((hi << g - 1) - 1) + 1


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


def _finish(c: int, u: Fraction, ends, t: int, w: int) -> list[tuple]:
    """c sqrt(pi/2) e^u + R, for c >= 0 and R between the exact ends r 2^t / q
    of ends, lower first: each end one exact quotient rounded once at w bits,
    down for the lower and up for the upper, with K = sqrt(pi/2) e^u's end
    on its side, from one kernel call if c > 0 (see the module docstring)."""
    ks, e = (0, 0), t
    if c:  # K's ends, over 2^-e
        lo, hi, we = _exp(u.numerator, u.denominator, w - _log2_exp(u))
        ks, e = [c * root * end for root, end in zip(_pi(w)[2:], (lo, hi))], -w - we
    s = min(e, t)
    return [round_quotient((k * q << e - s) + (r << t - s), q, w, rnd, s)
            for k, (r, q), rnd in zip(ks, ends, (round_floor, round_ceiling))]


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
    return _enclosed(*_finish(c, u, [(r, q) for r in ends], t, w), w, "series", n)


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


def _weights(precision_bits: int) -> tuple[int, int, list[int], int]:
    """The rule for precision p (see _build_weights), built once per p on first use."""
    table = _WEIGHTS.get(precision_bits)
    if table is None:
        table = _build_weights(precision_bits)
        with _lock:
            table = _WEIGHTS.setdefault(precision_bits, table)
    return table


def _gaussian(q: int, g: int, n: int) -> list[int]:
    """[V_1 .. V_n], V_j <= (q 2^-g)^{j^2} 2^g for q > 0: V_j = floor(V_{j-1} C_j / 2^g)
    and C_{j+1} = floor(C_j Q2 / 2^g) from V_0 = 2^g, C_1 = q and Q2 = floor(q^2 / 2^g)."""
    q2, c, v, powers = q * q >> g, q, 1 << g, []
    for _ in range(n):
        v, c = v * c >> g, c * q2 >> g
        powers.append(v)
    return powers


def _build_weights(precision_bits: int) -> tuple[int, int, list[int], int]:
    """(m, F, [W_1 .. W_J], remainder): the least m >= 3 and J whose contour
    and tail bounds are below 2^-(p+20), the weights with W_j <= w_j 2^F <
    W_j + 2 for w_j = e^{-j^2/(2m^2)} and F = p + 48, stepped from q =
    e^{-1/(2m^2)} at G = F + 2 bitlength(J) + 16 bits, and the two bounds'
    sum in units of 2^-F, rounded up (see the module docstring).  Every
    exponential comes from the kernel, so a build reads nothing of mpmath's
    process-wide context, which another thread may be changing."""
    target = -(precision_bits + 20) * math.log(2)
    m = next(m for m in itertools.count(3) if _log_contour(m) < target)
    j = next(j for j in itertools.count(1) if _log_tail(m, j) < target)  # J + 1
    f, g = precision_bits + 48, precision_bits + 64 + 2 * (j - 1).bit_length()
    _, hi, we = _exp(1, 2 * m * m, g)
    weights = [v >> (g - f) for v in _gaussian((1 << g + we) // hi, g, j - 1)]
    # each bound e^v is 1 / e^{-v}, with -v > 0 an exact dyadic read from its float
    bounds = (_exp(*(-v - _LOG_SLACK).as_integer_ratio(), 0) for v in (_log_contour(m), _log_tail(m, j)))
    return m, f, weights, sum(-(-(1 << f + wb) // lo) for lo, _, wb in bounds)


def phi_quadrature(x, precision_bits: int = DEFAULT_PRECISION_BITS) -> OracleValue:
    """phi by the pole-corrected trapezoidal rule for its Stieltjes form,
    with no adaptive integrator; the module docstring derives the rule's m
    and J, the working precision, each end's exact quotient, the reflection
    used for x < 0 and the three terms of error_bound."""
    p, xq = check_precision(precision_bits), _in_envelope(x)
    a, d = abs(xq.numerator), xq.denominator
    m, f, weights, remainder = _weights(p)
    # near x = 0 the j = 0 and pole terms cancel by about log2(1/z) bits,
    # z = 2 pi m |x| > 4 m a / d, and e^z - 1 loses as many again
    w = p + 32 + 2 * max(0, d.bit_length() - (4 * m * a).bit_length() + 1)
    u = Fraction(a * a, 2 * d * d)
    if a == 0:  # phi(0) = sqrt(pi/2)
        return _enclosed(*_finish(1, u, [(0, 1)] * 2, 0, w), w, "quadrature")
    k, aa, dd = (d * m) ** 2, (a * m) ** 2, d * d
    total = sum(wj * k // (aa + j * j * dd) for j, wj in enumerate(weights, 1))  # the sum over j >= 1, over 2^F
    # each end is L / sqrt(2 pi) - sqrt(2 pi) e^u / (e^z - 1) -+ the remainder, L = n / (a d m 2^F), with
    # sqrt(2 pi) = 2 r 2^-w, e^u = e 2^-we and e^z = z 2^-wz from pi's ends, each factor at its side's end
    (pi_lo, pi_hi, r_lo, r_hi), (e_lo, e_hi, we), dm = _pi(w), _exp(a * a, 2 * d * d, w), a * d * m
    lz = math.ceil(2 * math.pi * m * a / d * math.log2(math.e))  # e^z at about w bits, relative
    (z_lo, _, wz_lo), (_, z_hi, wz_hi) = (_exp(2 * m * a * end, d << w, w - lz) for end in (pi_lo, pi_hi))

    def end(n, root, e, z, wz, rem):  # (r, q) of the end r 2^t / q, t = -(F + w + we)
        zm = z - (1 << wz)  # e^z - 1 = zm 2^-wz
        r = (n * zm << 2 * w + we) - (4 * dm * root * root * e << wz + f) + (2 * rem * dm * root * zm << w + we)
        return r, 2 * dm * root * zm

    n_lo, n_hi = (2 * a * a * (total + ulps) + (dd << f) for ulps in (0, len(weights) + 4 * m * m))
    ends = [end(n_lo, r_hi, e_hi, z_lo, wz_lo, -remainder), end(n_hi, r_lo, e_lo, z_hi, wz_hi, remainder)]
    c, ends = (2, [(-r, q) for r, q in reversed(ends)]) if xq < 0 else (0, ends)  # phi(x) = 2 sqrt(pi/2) e^u - phi(|x|)
    return _enclosed(*_finish(c, u, ends, -f - w - we, w), w, "quadrature")
