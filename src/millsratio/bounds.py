"""Certified upper and lower bounds for the Mills ratio.

First-order family (rational enclosures, x > 0):

    Q_{2n}(x)/P_{2n}(x) < phi(x) < Q_{2n+1}(x)/P_{2n+1}(x)
    |phi(x) - Q_n(x)/P_n(x)| < n! / (P_n(x) P_{n+1}(x))

Second-order family (square-root bounds): phi is wedged by the roots
Z_n^{+-}(x) = (B_n(x) +- n! sqrt(x^2+4n+4)) / (2 A_n(x)) of the quadratic
A_n T^2 - B_n T + C_n.  Even orders give the lower bound Z^+ on all of R;
odd orders n = 2m+1 give the upper bound (B - n! sqrt(...)) / (2A) on
]-beta_m, inf[, where beta_m is the unique root of A_{2m+1} in ]0, 1].
The n = 0 and n = 1 roots are Komatsu's (Eq18) and Szarek-Werner's (Eq19)

    2/(x + sqrt(x^2+4)) < phi(x)              (all real x)
    phi(x) < 4/(3x + sqrt(x^2+8))             (x > -1).

beta_m is bracketed by Newton steps on a dyadic grid with certain sign
evaluations at grid points: A_n(x) in doubles where a derived error bound
settles its sign (beta's filter), else the sign of d^{2n+2} A_n(x) read
from one sweep (below), so the returned bracket, bisection's own, is a
proof.  At x = +-beta_m the quadratic degenerates (A vanishes) and the
bound evaluator reports a singularity instead of inventing a continuity
value.

Every value is exact or one rounding of an exact rational, at a precision
and in a direction named in the call, never mpmath's process-wide one.
With x = a/d, the exact values are integer expressions in one sweep of
the P/Q recurrence, p_k = d^k P_k(x) and q_k = d^k Q_k(x)
(contfrac.pq_sweep): Q_n/P_n = q_n/p_n, n!/(P_n P_{n+1}) = n! d^{2n+1} /
(p_n p_{n+1}), and d^{2n+2} A_n(x) = p_n p_{n+2} - p_{n+1}^2, B_n and C_n
alike.  phi's oracle value M 2^e is an integer over a power of two, so
every margin is one integer over one integer.  One kernel rounds each
down once (numutil.round_quotient), and every bound value outward: a
square-root bound, monotone in its root, at the end of an integer isqrt
enclosure of the root that errs outward (_root, the one square-root
kernel, Eq18's and Eq19's too), so it always holds.

Inside the module those values stay raw: the (sign, man, exp, bc) tuple
round_quotient gives, with no mpf formed or read back, and no mpmath
read.  A margin puts the raw values and the oracle's integer read
(OracleValue.dyadic) on one scale by shifts, and the verdict compares the
raw margin with its raw threshold on integers (numutil.exceeds).  An mpf
is formed only at the edge, once per value (numutil.as_mpf): by
Family.bound and Family.at for the shown values, for phi_derivative's
value, and when a Certificate's margin or threshold is read as an
attribute; the record holds both raw.

The families Eq15 to Eq19 and I are the rows of one table, FAMILIES.  A
row is the one place its bound values are formed: the five public bound
functions, `mills bounds` and scripts/bounds_table.py all read them there.
One verdict rule decides every certificate: its margin is an exact value
within a derived error of the true margin (the oracle's error bound, for
Eq17 the error of the exact Taylor expansion about the oracle's value, 0
for an exact margin), rounded down once at p + GUARD_BITS bits, and it
passes iff it exceeds that error, its threshold.  Family.checked is the one
place a request is read and refused; Family.bound, Family.at and
certify_grid call it once, and the last two read phi through phi_at once
per point.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, inf, isqrt
from operator import attrgetter
from typing import Callable, NamedTuple

from .contfrac import pq_sweep
from .errors import DomainError, SingularityError
from .families import hankel, quadratic_form
from .numutil import (DEFAULT_PRECISION_BITS, as_mpf, check_index, check_precision, exceeds, fzero, mpf_field, raw,
                      round_quotient, to_fraction, to_mpf)
from .oracle import OracleValue, phi_series

GUARD_BITS = 16  # bits above the requested precision: certificates, square roots, phi_derivative
_U = 2.0**-53  # the unit roundoff of a double
_FILTER_X_MIN = 2.0**-500  # at x >= this, every nonzero value beta's filter forms is a normal double


class Enclosure(NamedTuple):
    x: mpf
    lower: mpf
    upper: mpf
    lower_source: str
    upper_source: str
    precision_bits: int


class BetaRoot(NamedTuple):
    m: int
    value: mpf
    bracket: tuple[Fraction, Fraction]


class SecondOrderBound(NamedTuple):
    n: int
    value: mpf
    role: str  # "lower" for even n, "upper" for odd n


class _CertificateFields(NamedTuple):
    family: str
    n: int
    x: Fraction
    margin: tuple  # raw, as _cert is given it; Certificate.margin reads it as an mpf
    precision_bits: int
    verdict: str
    threshold: tuple  # the margin's derived error, raw: pass iff margin > threshold


class Certificate(_CertificateFields):
    """One verdict.  margin and threshold are held raw and read as mpfs
    (numutil.mpf_field); a tuple unpacked, as the CLI reads a row, gives
    them raw."""

    __slots__ = ()
    margin, threshold = mpf_field(3), mpf_field(6)


class _Sweep(tuple):
    """pq_sweep(depth, x), the pair (ps, qs), and what the rows read from
    it, each formed on first use: the quadratic form of order n, d^{2n+2}
    (A_n, B_n, C_n)(x), and its root by _root at w bits (Eq18 and Eq19 share
    I's at orders 0 and 1)."""

    def __new__(cls, depth: int, x: Fraction):
        self = super().__new__(cls, pq_sweep(depth, x))
        self.x, self.forms, self.roots = x, {}, {}
        return self

    def form(self, n: int) -> tuple[int, int, int]:
        form = self.forms.get(n)
        if form is None:
            form = self.forms[n] = quadratic_form(*self, n)
        return form

    def root(self, n: int, w: int) -> tuple:
        z = self.roots.get((n, w))
        if z is None:
            z = self.roots[n, w] = _root(n, self.x, self.form(n), w)
        return z


def _root(n: int, x: Fraction, form: tuple[int, int, int], precision_bits: int) -> tuple:
    """The order-n root Z of A_n T^2 - B_n T + C_n at x = e/d, from form =
    (a, b, c) = d^{2n+2} (A_n, B_n, C_n)(x), rounded outward to precision_bits:
    Z^+ = (B + n! r) / (2A) down for even n, Z^- = (B - n! r) / (2A) up for
    odd n, with r = sqrt(x^2 + 4n + 4).

    Standard stable quadratic-root evaluation: q = (B +- n! r) / 2 takes the
    sign of B, so it does not cancel, and the other root is C / q via Vieta.
    That branch, taken at x = 1 for n = 1 where A_1 vanishes, never divides
    by A.  At n = 0, Z is 2/(x + r) for x > 0 and (r - x)/2 else; at n = 1,
    4/(3x + r) for x >= 0 and (r - 3x)/(2(1 - x^2)) else.  With k =
    precision_bits + GUARD_BITS, s = isqrt(R) and R = (e^2 + (4n+4) d^2) d^2
    4^k >= 4^k, s/(d^2 2^k) <= r <= (s+1)/(d^2 2^k), one point when s^2 = R;
    s >= 2^k, so the ends differ by a relative 2^-k at most.  Z is monotone
    in r between them (linear, or over a denominator of B's sign, positive
    at B = 0, for all r > 0) and an exact integer (numerator, denominator)
    at each, over one sign; the ends are compared by cross-multiplication,
    and the greater rounded up (odd n) or the lesser down by round_quotient."""
    (a, b, c), (e, d), odd, k = form, x.as_integer_ratio(), n % 2 == 1, precision_bits + GUARD_BITS
    # at r = t/u, n! r scaled as form and signed as b is scale t / u
    scale, vieta = (factorial(n) if b >= 0 else -factorial(n)) * d ** (2 * n + 2), (b >= 0) == odd
    radicand, u = (e * e + (4 * n + 4) * d * d) * d * d << 2 * k, d * d << k
    s = isqrt(radicand)
    (n0, d0), (n1, d1) = [(2 * c * u, b * u + scale * t) if vieta else (b * u + scale * t, 2 * a * u)
                          for t in (s, s + (s * s != radicand))]
    num, den = (n1, d1) if (n1 * d0 > n0 * d1) == odd else (n0, d0)
    return round_quotient(num, den, precision_bits, "c" if odd else "f")


def phi_derivative(n: int, x, precision_bits: int = DEFAULT_PRECISION_BITS) -> mpf:
    """phi^(n)(x) = P_n(x) phi(x) - Q_n(x), with an absolute error below
    2^-precision_bits.

    P_n(x) and Q_n(x) are exact from one sweep, and phi is read from the
    series route with log2 |P_n(x)| extra bits, so P_n(x) times its error
    stays below 2^-(precision_bits + 32).  P v - Q, with v the oracle's
    value, is formed exactly and rounded to nearest once, at precision_bits
    + GUARD_BITS bits plus log2 of |P_n(x) v| or |Q_n(x)|, whichever is
    larger (phi grows like e^{x^2/2} for x < 0)."""
    p, n, xf = check_precision(precision_bits), check_index(n), to_fraction(x)
    ps, qs = pq_sweep(n, xf)
    pn, qn, dn = ps[n], qs[n], xf.denominator**n  # P_n(x) = pn / dn, Q_n(x) = qn / dn
    # exp + bc of a value rounded toward 0 is floor(log2 |value|) + 1 exactly (-inf at 0)
    mag_p, mag_q = (_mag(round_quotient(value, dn, 53, "d")) for value in (pn, qn))
    ov = phi_series(xf, p + max(0, mag_p))
    (scale, v, _), w = ov.dyadic, p + GUARD_BITS + max(0, mag_p + _mag(raw(ov[0])), mag_q)
    return as_mpf(round_quotient(pn * v - (qn << scale), dn, w, "n", -scale))


def _mag(bits: tuple):
    """floor(log2 |value|) + 1 of a raw value, -inf at 0: mpmath's mag."""
    _, man, exp, bc = bits
    return exp + bc if man else -inf


def _a_and_slope(n: int, x: Fraction) -> tuple:
    """A pair with the sign of A_n(x) and the ratio A_n / A_n' there, the
    one place beta reads a sign: the float pair (A_n, A_n')(x) where the
    filter (beta's docstring) decides the sign, else the exact d^{2n+2}
    (A_n, A_n')(x) at x = a/d from one sweep to order n + 2: d^{2n+2} A_n =
    p_n p_{n+2} - p_{n+1}^2 and, with A_n' = n (P_{n-1} P_{n+2} - P_n
    P_{n+1}), d^{2n+2} A_n' = n d (p_{n-1} p_{n+2} - p_n p_{n+1}); d is the
    sweep's own, as Fraction reduces x."""
    xf = float(x)
    if xf >= _FILTER_X_MIN or not x:
        ps = [1.0, xf]
        for j in range(1, n + 2):
            ps.append(xf * ps[j] + j * ps[j - 1])
        t1, t2 = ps[n] * ps[n + 2], ps[n + 1] * ps[n + 1]
        if abs(t1 - t2) > (6 * n + 8) * _U * (t1 + t2):
            return t1 - t2, n * (ps[n - 1] * ps[n + 2] - ps[n] * ps[n + 1])
    ps = pq_sweep(n + 2, x)[0]
    return hankel(ps, n), n * x.denominator * (ps[n - 1] * ps[n + 2] - ps[n] * ps[n + 1])


def beta(m: int, tolerance=None) -> BetaRoot:
    """The unique root of A_{2m+1} in ]0, 1], bracketed by certain signs.

    The bracket is bisection's: the cell of the dyadic grid of width 2^-k,
    k the least with 2^-k <= tolerance, that holds the root, or (x -
    tolerance, x + tolerance) when a grid point x is the exact root.  Newton
    steps on that grid find it, from x = 1, with A_n' read with the sign
    (_a_and_slope), n = 2m + 1: each step is A_n / A_n' of the grid's cells
    truncated, one at least, read exactly from the pair's integer ratios;
    with no step of fewer than 2^k cells (no slope, an infinite or nan one),
    or one that would leave the bracket, it is a bisection.  The steps
    choose only which points are read, as every bracket end is a certain
    sign: the exact sweep's, or the filter's under its derived bound (below).
    A_n has one root in ]0, 1] (Descartes's rule in x^2), so one cell holds
    it, and a grid point that is the root is a midpoint bisection reads too.
    A_n is convex and increasing there, so the steps walk down to the root's
    cell from the right: 160 sign queries for m = 0..15 at the default
    tolerance, where bisection made 632, of which 3 read the exact sweep
    (m = 0's exact root at x = 1, and a grid point next to the root for m =
    5 and 12).

    The filter is Shewchuk's filtered exact predicate (Discrete Comput.
    Geom. 18, 1997) with Higham's error calculus (Accuracy and Stability of
    Numerical Algorithms, 2nd ed., 2002, 3.1): u = 2^-53, and theta_k is a
    relative error of at most gamma_k = k u / (1 - k u).  It reads the sign
    of A_n(x) = T1 - T2, T1 = P_n(x) P_{n+2}(x) and T2 = P_{n+1}(x)^2, at x
    >= 0 from doubles.  x~ = float(x) is x rounded once (exact for a grid
    numerator below 2^53), so x~^i = x^i (1 + theta_i).  The recurrence p_0
    = 1, p_1 = x~, p_{j+1} = x~ p_j + j p_{j-1} rounds each of its two
    terms twice per step (a product, then the sum), so p_j is the sum of the
    monomials of P_j, nonnegative, each with its own 1 + theta_{2j-2} in x~
    and so 1 + theta_{3j-2} in x, j >= 1: p_j = P_j(x) (1 + theta_{3j-2}).
    t1 = p_n p_{n+2} and t2 = p_{n+1}^2, one rounding each, are T1 and T2
    times 1 + theta_k, k = 6n + 3, so D = t1 - t2 is within gamma_k (T1 +
    T2) of A_n(x).  The double a~ = t1 - t2 has D's sign and |a~| <= (1 + u)
    |D|, and the bound c_n (t1 + t2), c_n = (6n + 8) u exact, two roundings,
    is at least c_n (1 - u)^2 (1 - gamma_k) (T1 + T2).  So |a~| > c_n (t1 +
    t2) gives |D| > gamma_k (T1 + T2), and A_n(x) has a~'s sign, wherever
    c_n (1 - u)^2 (1 - gamma_k) >= (1 + u) gamma_k.  c_n is k u plus a
    slack of 5u, which covers the terms of order u and k^2 u^2 for every
    n < 2^23 (a test checks the inequality on rationals).

    The derivation holds only where every value is a normal double or 0:
    at x = 0 exactly, or at x >= 2^-500, where every nonzero value formed
    is at least min(1, x^2) (p_j >= x for odd j and >= 1 for even j; t1 >=
    x^2 for odd n), above the least normal double 2^-1022; and where every
    value is finite.  A value past the double range makes a~ or the bound
    infinite or nan, and a comparison with those is false, so such a query
    reads the sweep: t2 >= P_{n+1}(0)^2 = (n!!)^2 is infinite for every x
    >= 0 at n >= 171, so m >= 85 reads the exact sweep only.  Elsewhere (x
    < 0, or 0 < x < 2^-500) the query reads the sweep.  The filter forms no
    value that is returned: the float pair it decides sets only a sign and
    a step.

    The value is the bracket's midpoint, rounded to nearest at 32 bits
    beyond the tolerance (128 at least).  When the root is exactly 1 (as
    for m = 0, where A_1 = X^2 - 1) the value is exact and the upper
    bracket endpoint carries sign zero.
    """
    m = check_index(m, "m", "index")
    tol = Fraction(1, 2**40) if tolerance is None else to_fraction(tolerance)
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got tolerance = {tol}")
    bits = max(128, -(tol.numerator.bit_length() - tol.denominator.bit_length()) + 32)
    # 2^k cells: bisection's last bracket has width 2^-k, the least k with 2^-k <= tol
    n, cells = 2 * m + 1, 1 << (-(-tol.denominator // tol.numerator) - 1).bit_length()
    if _a_and_slope(n, Fraction(0))[0] >= 0:
        raise ArithmeticError(f"A_{n}(0) must be negative")
    a, slope = _a_and_slope(n, Fraction(1))
    if a == 0:
        return BetaRoot(m=m, value=to_mpf(1, bits), bracket=(Fraction(1) - min(tol, Fraction(1, 2)), Fraction(1)))
    lo, hi, i = 0, cells, cells  # grid indices: A_n(lo / 2^k) < 0 < A_n(hi / 2^k)
    while hi - lo > 1:
        # Newton's step from i, a 2^k / slope cells truncated, one at least;
        # a step of 2^k cells or more leaves the bracket, so with no step
        # below that, or out of the bracket, bisect (i is lo or hi)
        if abs(a) < abs(slope) < inf:
            (a_num, a_den), (s_num, s_den) = a.as_integer_ratio(), slope.as_integer_ratio()
            step = max(abs(a_num * s_den * cells) // abs(a_den * s_num), 1)
            i = i - step if (a > 0) == (slope > 0) else i + step
        if not lo < i < hi:
            i = (lo + hi) // 2
        x = Fraction(i, cells)
        a, slope = _a_and_slope(n, x)
        if a == 0:  # the grid point is the exact root
            return BetaRoot(m=m, value=to_mpf(x, bits), bracket=(x - tol, x + tol))
        lo, hi = (i, hi) if a < 0 else (lo, i)
    return BetaRoot(m=m, value=to_mpf(Fraction(lo + hi, 2 * cells), bits),
                    bracket=(Fraction(lo, cells), Fraction(hi, cells)))


def log_convexity(n: int, x: Fraction, ov: OracleValue, precision_bits: int, sweep: _Sweep) -> tuple[tuple, tuple]:
    """The Eq17 row's evaluator: (margin, error) of the log-convexity
    inequality at (n, x), with ov the oracle value phi_at gives at (x,
    precision_bits) and sweep a _Sweep at x to order n + 2 at least, whose
    form of order n is read.

    m(t) = A_n(x) t^2 - B_n(x) t + C_n(x) is positive at t = phi(x) iff the
    inequality holds.  With v = ov.value, e = ov.error_bound and A, B, C =
    (a, b, c) / D exact, m(v + d) = m(v) + (2Av - B) d + A d^2 is exact, so
    for |d| <= e the true margin is within |2Av - B| e + |A| e^2 of m(v).
    margin is m(v) rounded down and error that bound rounded up, both
    at precision_bits + GUARD_BITS, each one integer over D 4^E for v = N 2^-E,
    and both raw as round_quotient gives them.
    """
    a, b, c = sweep.form(n)
    (scale, v, e), w, den = ov.dyadic, precision_bits + GUARD_BITS, x.denominator ** (2 * n + 2)
    margin = round_quotient(a * v * v - (b * v << scale) + (c << 2 * scale), den, w, "f", -2 * scale)
    return margin, round_quotient(abs(2 * a * v - (b << scale)) * e + abs(a) * e * e, den, w, "c", -2 * scale)


def phi_at(x, precision_bits: int, memo: dict | None = None) -> OracleValue:
    """The oracle value every certificate at precision_bits is measured
    against: phi_series(x, precision_bits + GUARD_BITS), with precision_bits
    checked first, read from and stored into memo if given under the exact
    x, so "7/3" and Fraction(7, 3) share one entry.  The entry under (x,
    precision_bits + GUARD_BITS) is the value every certificate at (x,
    precision_bits) reads: Family.at and certify_grid read phi here once per
    point and pass the value to the rows, which never see the memo."""
    w = check_precision(precision_bits) + GUARD_BITS
    key = (to_fraction(x), w)
    memo = {} if memo is None else memo
    ov = memo.get(key)
    if ov is None:
        ov = memo[key] = phi_series(*key)
    return ov


def _cert(family: str, n: int, x: Fraction, margin: tuple, error: tuple, precision_bits: int) -> Certificate:
    """The one verdict rule.  margin is an exact value m, within error of
    the true margin, rounded down once at precision_bits + GUARD_BITS, so
    margin <= m and m - error <= the true margin.  It passes iff margin >
    error: then m > error, and the true margin is positive.  error is the
    certificate's threshold.  Both are raw, margin as round_quotient gives
    it, decided on integers and kept raw in the certificate."""
    verdict = "pass" if exceeds(margin, error) else "fail"
    return Certificate(family, n, x, margin, precision_bits, verdict, error)


def _vs_phi(row, n: int, x: Fraction, precision_bits: int, ov: OracleValue, sweep, shown=None, family=None):
    """The rule the bounds share: the certificate, named family or the
    row's name, that every shown lower (upper) value, an exact bound, lies
    below (above) phi(x), as ov encloses it.  shown is the row's values at
    precision_bits + GUARD_BITS, formed here if not given.  With ov.value N
    2^-E (ov.dyadic) and the raw values shifted to one scale 2^-S, S >= E,
    the margin is the least exact difference, one integer over 2^S, rounded
    down once."""
    w, (top, v, _) = precision_bits + GUARD_BITS, ov.dyadic
    shown = shown or row.values(n, x, w, sweep)
    scale = max(top, *[-exp for _, _, exp, _ in shown.values()])
    v <<= scale - top
    values = [(side, (-man if sign else man) << exp + scale) for side, (sign, man, exp, _) in shown.items()]
    margin = min([b - v if side == "upper" else v - b for side, b in values])
    return [_cert(family or row.name, n, x, round_quotient(margin, 1, w, "f", -scale), raw(ov[1]), precision_bits)]


def _eq15(n: int, x: Fraction, w: int, sweep):
    (ps, qs), k = sweep, 2 * n
    return {"lower": round_quotient(qs[k], ps[k], w, "f"), "upper": round_quotient(qs[k + 1], ps[k + 1], w, "c")}


def _eq16(n: int, x: Fraction, w: int, sweep):
    """The convergent q_n/p_n rounded to nearest, and the error bound n!
    d^{2n+1} / (p_n p_{n+1}) rounded up."""
    (ps, qs), bound = sweep, factorial(n) * x.denominator ** (2 * n + 1)
    return {"convergent": round_quotient(qs[n], ps[n], w, "n"),
            "error_bound": round_quotient(bound, ps[n] * ps[n + 1], w, "c")}


def _eq16_margin(row: Family, n: int, x: Fraction, precision_bits: int, ov: OracleValue, sweep: _Sweep, shown=None):
    """With v = N 2^-E, the margin n! d^{2n+1} / (p_n p_{n+1}) - |v - q_n/p_n|
    is one integer over p_n p_{n+1} 2^E, rounded down once."""
    (ps, qs), w, (scale, v, _) = sweep, precision_bits + GUARD_BITS, ov.dyadic
    pn, pn1, qn, bound = ps[n], ps[n + 1], qs[n], factorial(n) * x.denominator ** (2 * n + 1)
    margin = round_quotient((bound << scale) - pn1 * abs(v * pn - (qn << scale)), pn * pn1, w, "f", -scale)
    return [_cert(row.name, n, x, margin, raw(ov[1]), precision_bits)]


def _eq17(row: Family, n: int, x: Fraction, precision_bits: int, ov: OracleValue, sweep: _Sweep, shown=None):
    margin, error = log_convexity(n, x, ov, precision_bits, sweep)
    return [_cert(row.name, n, x, margin, error, precision_bits)]


def _square_root(n: int, x: Fraction, w: int, sweep):
    """The order-n root by _root of the sweep's form, Z^+ for even n and Z^-
    for odd n: Eq18's at order 0, Eq19's at order 1."""
    return {"upper" if n % 2 else "lower": sweep.root(n, w)}


def _second_order(n: int, x: Fraction, w: int, sweep):
    a = sweep.form(n)[0]  # d^{2n+2} A_n(x)
    # A_n is even, so its exact sign at x decides ]-beta_m, inf[: negative
    # exactly inside the gap
    if n % 2 and x.numerator < 0 and a >= 0:
        raise DomainError(f"order {n} upper bound requires x > -beta_{(n - 1) // 2}, got x = {x}")
    if a == 0:
        raise SingularityError(f"A_{n}({x}) is exactly 0")
    return _square_root(n, x, w, sweep)


def _sharper(row: Family, n: int, x: Fraction, precision_bits: int, ov: OracleValue, sweep: _Sweep, shown=None):
    """I_n against phi, plus the companion I_n_sharper certificate of its
    sharpness against the first-order convergent: Q_{2m}/P_{2m} < Z^+ for x
    > 0 and Z^- < Q_{2m+1}/P_{2m+1} for x > beta_m.  Z's outward endpoint
    errs away from the convergent too, so that margin, with Z = N 2^-E the
    integer (q_n 2^E - N p_n) over p_n 2^E, is exact before its rounding."""
    shown = shown or row.values(n, x, precision_bits + GUARD_BITS, sweep)
    ((_, (sign, man, exp, _)),), (ps, qs), upper = shown.items(), sweep, n % 2 == 1
    certs = _vs_phi(row, n, x, precision_bits, ov, sweep, shown, f"{row.name}_{n}")
    if x.numerator > 0 and (not upper or sweep.form(n)[0] > 0):  # A_n(x) > 0, from the form the bound read
        scale = max(0, -exp)
        sharper = (qs[n] << scale) - ((-man if sign else man) << exp + scale) * ps[n]
        margin = round_quotient(sharper if upper else -sharper, ps[n], precision_bits + GUARD_BITS, "f", -scale)
        certs.append(_cert(f"{row.name}_{n}_sharper", n, x, margin, fzero, precision_bits))
    return certs


class Family(NamedTuple):
    """One bound family: what differs between families, and nothing more.

    ``values(n, x, w, sweep)`` forms the bound values shown at (n, x), by
    name, each raw (sign, man, exp, bc) as round_quotient gives it, rounded
    once at w bits, every bound outward, from sweep, a _Sweep at x to order
    depth(n) at least; it raises DomainError or SingularityError where the
    order-n bound is not stated.  ``certify(row, n, x, p, ov, sweep,
    shown=None)`` makes the certificates there against ov, the oracle value
    phi_at gives at (x, p), and raises as values does; where its margin
    compares the values (not Eq16 or Eq17), it reads shown, the values at p
    + GUARD_BITS, or forms them if not given.  checked is the one place a
    request is read and refused; bound, at and certify_grid call it once.
    bound and at wrap each shown value as an mpf once."""

    name: str
    x_above: int | None  # stated domain x > x_above; None: every x the oracle takes
    order: int | None  # the one order of a single-bound family
    depth: Callable[[int], int]  # the sweep order that order n reads up to
    values: Callable[[int, Fraction, int, tuple], dict[str, tuple]]
    certify: Callable[..., list[Certificate]] = _vs_phi  # by default, the rule the bounds share

    def checked(self, orders, xs, precision_bits) -> tuple[int, list[int], list[Fraction]]:
        """(p, orders, xs) of a request, refused in this order: the precision
        by check_precision, each order by check_index or if a single-bound
        family is asked for another order than its own, and each x read by
        to_fraction outside the family's stated domain."""
        p, orders = check_precision(precision_bits), [check_index(n) for n in orders]
        for n in orders:
            if self.order not in (None, n):
                raise ValueError(f"--family {self.name.lower()} has the fixed order {self.order}, but --n is {n}")
        xs = [to_fraction(x) for x in xs]
        for x in xs:
            if self.x_above is not None and x <= self.x_above:
                raise DomainError(f"{self.name}: x must exceed {self.x_above}, got x = {x}")
        return p, orders, xs

    def bound(self, n: int, x, precision_bits: int = DEFAULT_PRECISION_BITS) -> dict[str, mpf]:
        """values at (n, x) at precision_bits, from one sweep and no oracle value."""
        p, (n,), (x,) = self.checked([n], [x], precision_bits)
        return {key: as_mpf(bits) for key, bits in self.values(n, x, p, _Sweep(self.depth(n), x)).items()}

    def at(self, n: int, x, precision_bits: int = DEFAULT_PRECISION_BITS, memo: dict | None = None):
        """(values at precision_bits + GUARD_BITS, certificates) at one point
        from one sweep, each value formed once, memo as in certify_grid;
        refused by checked, then by phi_at (EnvelopeError), then by the row."""
        p, (n,), (x,) = self.checked([n], [x], precision_bits)
        ov, sweep = phi_at(x, p, memo), _Sweep(self.depth(n), x)
        shown = self.values(n, x, p + GUARD_BITS, sweep)
        return {key: as_mpf(bits) for key, bits in shown.items()}, self.certify(self, n, x, p, ov, sweep, shown)


# Each row holds its own evaluators, and no row calls a public function:
# the five public bound functions below read their values through
# Family.bound, so a wrapper installed on one of them sees outside calls only.
FAMILIES = {
    fam.name.lower(): fam
    for fam in (
        Family("Eq15", 0, None, lambda n: 2 * n + 1, _eq15),
        Family("Eq16", 0, None, lambda n: n + 1, _eq16, _eq16_margin),
        Family("Eq17", None, None, lambda n: n + 2, lambda *_: {}, _eq17),
        Family("Eq18", None, 0, lambda n: n + 2, _square_root),
        Family("Eq19", -1, 1, lambda n: n + 2, _square_root),
        Family("I", None, None, lambda n: n + 2, _second_order, _sharper),
    )
}


def first_order_enclosure(n: int, x, precision_bits: int = DEFAULT_PRECISION_BITS) -> Enclosure:
    """Q_{2n}/P_{2n} < phi < Q_{2n+1}/P_{2n+1}, x > 0: the Eq15 row's values."""
    shown = FAMILIES["eq15"].bound(n, x, precision_bits)
    return Enclosure(to_mpf(x, precision_bits), shown["lower"], shown["upper"], f"Eq15/order={2 * n}",
                     f"Eq15/order={2 * n + 1}", precision_bits)


def first_order_error_bound(n: int, x, precision_bits: int = DEFAULT_PRECISION_BITS) -> mpf:
    """n! / (P_n(x) P_{n+1}(x)), x > 0: the Eq16 row's error_bound."""
    return FAMILIES["eq16"].bound(n, x, precision_bits)["error_bound"]


def komatsu_lower(x, precision_bits: int = DEFAULT_PRECISION_BITS) -> mpf:
    """2 / (x + sqrt(x^2 + 4)) < phi(x) on all of R: the Eq18 row's value."""
    return FAMILIES["eq18"].bound(0, x, precision_bits)["lower"]


def szarek_werner_upper(x, precision_bits: int = DEFAULT_PRECISION_BITS) -> mpf:
    """phi(x) < 4 / (3x + sqrt(x^2 + 8)) on ]-1, inf[: the Eq19 row's value."""
    return FAMILIES["eq19"].bound(1, x, precision_bits)["upper"]


def second_order_bound(n: int, x, precision_bits: int = DEFAULT_PRECISION_BITS) -> SecondOrderBound:
    """The I row's value: the lower bound Z^+ for even n on all of R, the
    upper bound Z^- for odd n on ]-beta_m, inf[."""
    ((role, value),) = FAMILIES["i"].bound(n, x, precision_bits).items()
    return SecondOrderBound(n=n, value=value, role=role)


def log_convexity_check(n: int, x, precision_bits: int = DEFAULT_PRECISION_BITS) -> mpf:
    """A_n(x) phi(x)^2 - B_n(x) phi(x) + C_n(x), positive iff the
    log-convexity inequality holds at (n, x): the margin of the Eq17 row's
    certificate there."""
    return FAMILIES["eq17"].at(n, x, precision_bits)[1][0].margin


def log_convexity_error(n: int, x, precision_bits: int = DEFAULT_PRECISION_BITS) -> mpf:
    """The error of the same certificate's margin, its threshold: the check
    passes iff the margin exceeds it."""
    return FAMILIES["eq17"].at(n, x, precision_bits)[1][0].threshold


def find_family(name: str) -> Family:
    """The FAMILIES row for a family name, in any letter case."""
    fam = FAMILIES.get(name.strip().lower())
    if fam is None:
        raise ValueError(f"unknown bound family {name!r}; expected one of {', '.join(FAMILIES)}")
    return fam


def certify_grid(
    family: str, orders: list[int], xs: list[Fraction], precision_bits: int = DEFAULT_PRECISION_BITS,
    memo: dict | None = None,
) -> list[Certificate]:
    """Evaluate a bound family against the oracle on a grid.

    Each certificate records the margin (distance from violation) rather
    than a boolean, so near-violations remain visible in reports; the
    verdict is the module's one rule.  For the second-order family the
    sharpness claims against the first-order convergents are certified as
    companion "<id>_sharper" entries.  Family.checked refuses the request
    before any work, and an x beyond the oracle's envelope is an
    EnvelopeError for any non-empty orders: no orders is no work and no
    certificate.  (n, x) pairs outside an order's own domain (odd orders
    of I) or where A_n(x) is exactly 0 are skipped.

    The grid is sorted once and a stable sort by (family, n) follows, so
    the certificates are ordered by (family, n, x) with no Fraction
    compared per certificate.  Every order at x is measured against one
    phi_at value and reads one sweep, and each row's certify forms only the
    values its margin compares (none for Eq16 and Eq17).

    ``memo`` is the run's: a caller that certifies several families over
    one grid passes one dict to every call, so each fact of a point is
    formed once per run.  It holds the oracle value under (x, precision_bits
    + GUARD_BITS), the value every certificate at (x, precision_bits) reads,
    with its integer read (OracleValue.dyadic), and under x the deepest
    sweep read so far, with the quadratic forms and square-root bounds read
    from it (_Sweep).  Without one, each call keeps its own.
    No cache outlives the memo: there is no process-wide one.
    """
    fam = find_family(family)
    p, orders, xs = fam.checked(orders, xs, precision_bits)
    if not orders:
        return []
    memo, depth, out = {} if memo is None else memo, fam.depth(max(orders)), []
    for x in sorted(xs):
        ov, sweep = phi_at(x, p, memo), memo.get(x)
        if sweep is None or len(sweep[0]) <= depth:
            sweep = memo[x] = _Sweep(depth, x)
        for n in orders:
            try:
                out += fam.certify(fam, n, x, p, ov, sweep)
            except (DomainError, SingularityError):  # skipped, as above
                pass
    out.sort(key=attrgetter("family", "n"))
    return out
