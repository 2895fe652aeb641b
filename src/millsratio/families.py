"""The polynomial families attached to the Mills ratio.

phi(x) = e^{x^2/2} * integral_x^inf e^{-t^2/2} dt satisfies
phi^(n) = P_n * phi - Q_n for a unique pair of integer polynomials.
This module generates (P_n, Q_n) by the three-term recurrence

    P_{n+1} = X P_n + n P_{n-1},   (P_0, P_1) = (1, X)
    Q_{n+1} = X Q_n + n Q_{n-1},   (Q_0, Q_1) = (0, 1)

together with the quadratic-form coefficients

    A_n = P_n P_{n+2} - P_{n+1}^2                     (hankel of the P)
    B_n = P_n Q_{n+2} + P_{n+2} Q_n - 2 P_{n+1} Q_{n+1}
    C_n = Q_n Q_{n+2} - Q_{n+1}^2                     (hankel of the Q)

whose discriminant collapses to (n!)^2 (X^2 + 4n + 4).  That identity is
checked as W2_n^2 - 4 W_n W_{n+1}, W_n = Q_{n+1} P_n - P_{n+1} Q_n and
W2_n = Q_{n+2} P_n - P_{n+2} Q_n (_wronskian), equal to B_n^2 - 4 A_n C_n
in any commutative ring.  With the residuals rp_k = P_{k+1} - X P_k -
k P_{k-1} and rq_k (likewise; T_{-1} = 0) of the checked tables,
verify_identities steps W_k = -k W_{k-1} + rq_k P_k - rp_k Q_k (the
Casoratian; Gautschi 1967), W2_n = X W_n + rq_{n+1} P_n - rp_{n+1} Q_n and
A_n = P_n^2 - n A_{n-1} + rp_{n+1} P_n - rp_n P_{n+1} from W_0 and A_0: ring
identities too, so any tables get the same verdict.  On true tables every
residual is ZERO: no P Q product, one square P_n^2 per order.  Independent
closed forms for P_n, Q_n and A_n are checked against the recurrence output;
none of them reads the recurrence's tables.
They are computed in integers only, O(1) work per coefficient and no
factorial, every division checked: a remainder is an IdentityError naming
the order.  Each coefficient or scale of P_n and Q_n is the one before it
times an exact term ratio, and Q_n's inner binomial sums are partial row
sums by Pascal's rule.  A_n is a polynomial in x^2 whose coefficients come
down from the top one by a three-term recurrence, read off the ODE that its
generating function gives (a_closed_form).

Remark: P_n is a rescaled Hermite polynomial,
P_n(x) = (-i/sqrt(2))^n * H_n(i x / sqrt(2)).  The exponent n on the
prefactor is required for degrees and leading coefficients to match; the
relation is recorded here for orientation only, the coefficients of P_n
are already pinned by the explicit sum below.

One memo table backs the module, the (P_n, Q_n) lists: grow-only, each
entry built once and never replaced, growth guarded by a lock, so the
module is safe under concurrent readers.  quadratic_form, applied to these
tables or to one sweep's values at a point, is the one definition of A_n,
B_n and C_n.  Nothing mutates an entry: the CLI's fault injection hands
``verify_identities`` a corrupted *copy* of the tables, and the shared
ones stay correct for the rest of the process.
"""

from __future__ import annotations

import threading
from functools import cache, partial
from fractions import Fraction
from math import factorial
from typing import NamedTuple

from mpmath import mp, mpf

from .contfrac import pq_sweep
from .errors import IdentityError
from .numutil import check_index, check_precision, to_fraction, to_mpf
from .poly import IntPolynomial, ONE, X, ZERO


class PQPair(NamedTuple):
    n: int
    p: IntPolynomial
    q: IntPolynomial


class QuadraticTriple(NamedTuple):
    n: int
    a: IntPolynomial
    b: IntPolynomial
    c: IntPolynomial


_lock = threading.Lock()
_P: list[IntPolynomial] = [ONE, X]
_Q: list[IntPolynomial] = [ZERO, ONE]


def pq_pair(n: int) -> PQPair:
    """(P_n, Q_n) via the shared memo table; order-n cost is incremental."""
    n = check_index(n)
    if n >= len(_Q):  # _Q grows second, so a long _Q implies a long _P
        with _lock:
            while n >= len(_Q):
                k = len(_Q) - 1
                _P.append(X * _P[k] + k * _P[k - 1])
                _Q.append(X * _Q[k] + k * _Q[k - 1])
    return PQPair(n, _P[n], _Q[n])


def _ratio_step(term: int, num: int, den: int, what: str, n: int, k: int) -> int:
    """term * num / den, an integer by the formula being built; a remainder
    is a transcription bug, raised as an IdentityError naming n and k."""
    quo, rem = divmod(term * num, den)
    if rem:
        raise IdentityError(f"non-integral {what} at n={n}, k={k}")
    return quo


def p_closed_form(n: int) -> IntPolynomial:
    """P_n = sum_k n! / (2^k k! (n-2k)!) X^{n-2k}: from the leading 1, the
    X^{n-2k} coefficient is the X^{n-2k+2} one times (n-2k+2)(n-2k+1) / (2k)."""
    n = check_index(n)
    coeffs = [0] * (n + 1)
    coeffs[n] = c = 1
    for k in range(1, n // 2 + 1):  # c: the X^{n-2k} coefficient
        r = n - 2 * k
        coeffs[r] = c = _ratio_step(c, (r + 2) * (r + 1), 2 * k, "P coefficient", n, k)
    return IntPolynomial(coeffs)


def q_closed_form(n: int, p_form=p_closed_form) -> IntPolynomial:
    """Q_n as the sum of (m-k)!/(m-2k)! P_{m-2k} over 0 <= 2k <= m = n-1, P_r = p_form(r):
    from 1, the k-th scale is the one before times (m-2k+2)(m-2k+1) / (m-k+1)."""
    m = check_index(n, minimum=1) - 1
    coeffs = [0] * n
    scale = 1
    for k in range(m // 2 + 1):
        if k:
            r = m - 2 * k
            scale = _ratio_step(scale, (r + 2) * (r + 1), m - k + 1, "Q scale", n, k)
        for i, c in enumerate(p_form(m - 2 * k).coeffs):
            coeffs[i] += scale * c
    return IntPolynomial(coeffs)


def q_coefficient_form(n: int) -> IntPolynomial:
    """Q_n built coefficientwise: the X^{m-2k} coefficient of Q_{m+1} is
    F_k S(m-k, k) with F_k = (m-k)!/(m-2k)! and S(a, k) = sum_{j<=k}
    C(a+j, j) / 2^j.  Pascal's rule gives 2^{k+1} S(a-1, k+1) =
    2^k S(a, k) + C(a+k+1, k+1), so 2^k S(m-k, k) = T_k, the partial row
    sum sum_{i<=k} C(m+1, i).  F_k steps by (m-2k+2)(m-2k+1) / (m-k+1),
    C(m+1, k) by (m+2-k) / k, and F_k T_k is divided by 2^k last: O(1)
    work per coefficient, every step a checked exact division."""
    m = check_index(n, minimum=1) - 1
    coeffs = [0] * (m + 1)
    scale = binom = total = 1  # F_k, C(m+1, k), T_k
    for k in range(m // 2 + 1):
        if k:
            r = m - 2 * k
            scale = _ratio_step(scale, (r + 2) * (r + 1), m - k + 1, "Q coefficient", n, k)
            binom = _ratio_step(binom, m + 2 - k, k, "Q coefficient", n, k)
            total += binom
        coeffs[m - 2 * k] = _ratio_step(scale, total, 1 << k, "Q coefficient", n, k)
    return IntPolynomial(coeffs)


def quadratic_triple(n: int) -> QuadraticTriple:
    """A_n, B_n, C_n, formed from the shared (P, Q) tables on each call."""
    n = check_index(n)
    pq_pair(n + 2)
    return QuadraticTriple(n, *quadratic_form(_P, _Q, n))


def quadratic_form(p: list, q: list, n: int) -> tuple:
    """(A_n, B_n, C_n), the defining combinations of p and q at orders n,
    n + 1 and n + 2: of the polynomial tables, or of values of P and Q at
    one point (bounds reads d^k P_k(x), d^k Q_k(x) from a sweep)."""
    p0, q0, p1, q1, p2, q2 = p[n], q[n], p[n + 1], q[n + 1], p[n + 2], q[n + 2]
    return hankel(p, n), p0 * q2 + p2 * q0 - 2 * (p1 * q1), hankel(q, n)


def hankel(v: list, n: int):
    """v_n v_{n+2} - v_{n+1}^2: A_n of the P values, C_n of the Q values."""
    return v[n] * v[n + 2] - v[n + 1] * v[n + 1]  # one object twice: a square


def _wronskian(p: list, q: list, n: int, step: int = 1):
    """W_n = Q_{n+1} P_n - P_{n+1} Q_n, or W2_n = Q_{n+2} P_n - P_{n+2} Q_n for step 2."""
    return q[n + step] * p[n] - p[n + step] * q[n]


def a_closed_form(n: int) -> IntPolynomial:
    """A_n(x) is n! times the y^n coefficient of the generating function
    G = exp(yX/(1-y)) / ((1+y) sqrt(1-y^2)), here with X = x^2.  G solves
    2X G_XXX + 3(1+X) G_XX + (X+1) G_X - y d/dy (2 G_X + G) = 0, so
    f = A_n solves 2X f''' + 3(1+X) f'' + (X+1-2n) f' - n f = 0 in X.  Its
    X^m coefficients follow from alpha_n = 1 and alpha_{n+1} = 0 down:
    alpha_m = (m+1) ((3m-2n+1) alpha_{m+1} + (m+2)(2m+3) alpha_{m+2}) / (n-m).
    Each step is one checked exact division: A_n = P_n P_{n+2} - P_{n+1}^2
    has integer coefficients, so a remainder is a transcription bug."""
    n = check_index(n)
    coeffs = [0] * (2 * n + 1)
    coeffs[2 * n] = alpha = 1
    above = 0  # alpha_{m+2}
    for m in range(n - 1, -1, -1):
        num = (3 * m - 2 * n + 1) * alpha + (m + 2) * (2 * m + 3) * above
        alpha, above = _ratio_step(m + 1, num, n - m, "A coefficient", n, m), alpha
        coeffs[2 * m] = alpha
    return IntPolynomial(coeffs)


def _closed_discriminant(n: int) -> IntPolynomial:
    """(n!)^2 (X^2 + 4n + 4), what B_n^2 - 4 A_n C_n collapses to."""
    f2 = factorial(n) ** 2
    return IntPolynomial([f2 * (4 * n + 4), 0, f2])


def _discriminant_holds(w_n, w_next, w2_n, n: int) -> bool:
    """B_n^2 - 4 A_n C_n == (n!)^2 (X^2 + 4n + 4), the left side formed as W2_n^2 - 4 W_n W_{n+1}."""
    return w2_n * w2_n - 4 * (w_n * w_next) == _closed_discriminant(n)


def discriminant(n: int) -> IntPolynomial:
    """B_n^2 - 4 A_n C_n, asserted equal to (n!)^2 (X^2 + 4n + 4)."""
    n = check_index(n)
    pq_pair(n + 2)
    if not _discriminant_holds(_wronskian(_P, _Q, n), _wronskian(_P, _Q, n + 1), _wronskian(_P, _Q, n, 2), n):
        raise IdentityError(f"discriminant identity failed at n={n}")
    return _closed_discriminant(n)


def generating_function_residual(x, y, terms: int, precision_bits: int) -> mpf:
    """|sum_{n<terms} A_n(x) y^n / n!  -  exp(y x^2/(1-y)) / ((1+y) sqrt(1-y^2))|.

    The partial sum is exact rational arithmetic, with every A_n(x) read
    from one sweep at x = a/d through hankel; x, y, every step of
    the closed form and the final subtraction are rounded to nearest at
    precision_bits.
    """
    x, y, terms = to_fraction(x), to_fraction(y), check_index(terms, "terms", "terms", 1)
    if abs(y) >= 1:
        raise ValueError(f"|y| must be < 1, got y = {y}")
    ps, d2 = pq_sweep(terms + 1, x)[0], x.denominator ** 2  # A_n(x) = d^{-2n-2} hankel(ps, n)
    partial = sum(Fraction(hankel(ps, n), d2 ** (n + 1) * factorial(n)) * y**n for n in range(terms))
    p = check_precision(precision_bits)
    rn = {"prec": p, "rounding": "n"}
    xv, yv = to_mpf(x, p), to_mpf(y, p)
    exponent = mp.fdiv(mp.fmul(mp.fmul(yv, xv, **rn), xv, **rn), mp.fsub(1, yv, **rn), **rn)
    scale = mp.fmul(mp.fadd(1, yv, **rn), mp.sqrt(mp.fsub(1, mp.fmul(yv, yv, **rn), **rn), **rn), **rn)
    residual = mp.fsub(to_mpf(partial, p), mp.fdiv(mp.exp(exponent, **rn), scale, **rn), **rn)
    return mp.fneg(residual, exact=True) if residual < 0 else residual  # abs() would round at mp.prec


def verify_identities(n_max: int, tables=None) -> list[dict]:
    """Exact check of every algebraic identity, for all n <= n_max.

    ``tables`` is an optional pair (P list, Q list) of at least n_max + 3
    entries to check instead of the shared memo; either way, the checked
    tables' residuals step W_n, W2_n and A_n: no P Q product, one square
    P_n^2 per order.  Returns a list of {"identity": ..., "n": ...,
    "status": "pass"|"fail"} entries with stable key order; failures never
    raise, and a closed form that raises IdentityError fails its entry.
    """
    n_max = check_index(n_max, "n_max", "n_max", 1)
    if tables is None:
        pq_pair(n_max + 2)  # prefill
        p_tab, q_tab = _P, _Q
    else:
        p_tab, q_tab = tables
        if min(len(p_tab), len(q_tab)) < n_max + 3:
            raise ValueError(f"tables must hold orders 0..{n_max + 2}")

    report: list[dict] = []
    rp, rq = ([t[k + 1] - (X * t[k] + k * t[k - 1] if k else X * t[0]) for k in range(n_max + 2)]
              for t in (p_tab, q_tab))
    w = [_wronskian(p_tab, q_tab, 0)]  # then W_1..W_{n_max+1} by the Casoratian step
    for k in range(1, n_max + 2):
        w.append(rq[k] * p_tab[k] - rp[k] * q_tab[k] - k * w[-1])
    p_form = cache(p_closed_form)  # each P_r built once per pass; a P_r that raises is not cached

    def entry(identity: str, n: int, ok: bool) -> None:
        report.append({"identity": identity, "n": n, "status": "pass" if ok else "fail"})

    def closed(identity: str, form, n: int, expected: IntPolynomial) -> None:
        try:
            entry(identity, n, form(n) == expected)
        except IdentityError:
            entry(identity, n, False)

    for n in range(n_max + 1):
        p, q = p_tab[n], q_tab[n]
        p1, q1, dp = p_tab[n + 1], q_tab[n + 1], p.derivative()
        a = p * p - n * a + (rp[n + 1] * p - rp[n] * p1) if n else hankel(p_tab, 0)  # A_n, stepped
        entry("P_next=X*P+P'", n, p1 == X * p + dp)
        entry("Q_next=P+Q'", n, q1 == p + q.derivative())
        if n >= 1:
            entry("P_next=X*P+n*P_prev", n, not rp[n])
            entry("Q_next=X*Q+n*Q_prev", n, not rq[n])
            entry("P'=n*P_prev", n, dp == n * p_tab[n - 1])
            closed("Q_closed_sum_P", partial(q_closed_form, p_form=p_form), n, q)
            closed("Q_closed_coeffs", q_coefficient_form, n, q)
        closed("P_closed_form", p_form, n, p)
        sign, w2 = (-1) ** n, X * w[n] + (rq[n + 1] * p - rp[n + 1] * q)
        entry("wronskian_step1", n, w[n] == IntPolynomial([sign * factorial(n)]))
        entry("wronskian_step2", n, w2 == IntPolynomial([0, sign * factorial(n)]))
        entry("discriminant", n, _discriminant_holds(w[n], w[n + 1], w2, n))
        closed("A_closed_form", a_closed_form, n, a)
    return report
