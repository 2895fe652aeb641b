"""The polynomial families attached to the Mills ratio.

phi(x) = e^{x^2/2} * integral_x^inf e^{-t^2/2} dt satisfies
phi^(n) = P_n * phi - Q_n for a unique pair of integer polynomials.
This module generates (P_n, Q_n) by the three-term recurrence

    P_{n+1} = X P_n + n P_{n-1},   (P_0, P_1) = (1, X)
    Q_{n+1} = X Q_n + n Q_{n-1},   (Q_0, Q_1) = (0, 1)

together with the quadratic-form coefficients

    A_n = P_n P_{n+2} - P_{n+1}^2
    B_n = P_n Q_{n+2} + P_{n+2} Q_n - 2 P_{n+1} Q_{n+1}
    C_n = Q_n Q_{n+2} - Q_{n+1}^2

whose discriminant collapses to (n!)^2 (X^2 + 4n + 4), and independent
closed forms for P_n, Q_n and A_n that the verification suite checks
against the recurrence output.

Remark: P_n is a rescaled Hermite polynomial,
P_n(x) = (-i/sqrt(2))^n * H_n(i x / sqrt(2)).  The exponent n on the
prefactor is required for degrees and leading coefficients to match; the
relation is recorded here for orientation only, the coefficients of P_n
are already pinned by the explicit sum below.

Two memo tables back the module: the (P_n, Q_n) lists and the
quadratic-triple table keyed by n.  Both are grow-only, each entry is built
once and never replaced, and growth is guarded by a lock, so the module is
safe under concurrent readers.  Nothing mutates an entry: the CLI's fault
injection hands ``verify_identities`` a corrupted *copy* of the tables, and
the shared ones stay correct for the rest of the process.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from mpmath import mp, mpf, sqrt as mp_sqrt, exp as mp_exp

from .errors import IdentityError
from .numutil import check_precision, to_mpf
from .poly import IntPolynomial, ONE, X, ZERO


@dataclass(frozen=True)
class PQPair:
    n: int
    p: IntPolynomial
    q: IntPolynomial


@dataclass(frozen=True)
class QuadraticTriple:
    n: int
    a: IntPolynomial
    b: IntPolynomial
    c: IntPolynomial


_lock = threading.Lock()
_P: list[IntPolynomial] = [ONE, X]
_Q: list[IntPolynomial] = [ZERO, ONE]
_TRIPLES: dict[int, QuadraticTriple] = {}


def pq_pair(n: int) -> PQPair:
    """(P_n, Q_n) via the shared memo table; order-n cost is incremental."""
    if n < 0:
        raise ValueError("order must be non-negative")
    if n >= len(_P):
        with _lock:
            while n >= len(_P):
                k = len(_P) - 1
                _P.append(X * _P[k] + k * _P[k - 1])
                _Q.append(X * _Q[k] + k * _Q[k - 1])
    return PQPair(n, _P[n], _Q[n])


def p_closed_form(n: int) -> IntPolynomial:
    """P_n = sum_k n! / (2^k k! (n-2k)!) X^{n-2k}, from exact factorials."""
    if n < 0:
        raise ValueError("order must be non-negative")
    coeffs = [0] * (n + 1)
    for k in range(n // 2 + 1):
        coeffs[n - 2 * k] = factorial(n) // (2**k * factorial(k) * factorial(n - 2 * k))
    return IntPolynomial(coeffs)


def q_closed_form(n: int) -> IntPolynomial:
    """Q_n as the sum of (n-1-k)!/(n-1-2k)! P_{n-1-2k} over 0 <= 2k <= n-1."""
    if n < 1:
        raise ValueError("order must be >= 1")
    m = n - 1
    acc = ZERO
    for k in range(m // 2 + 1):
        acc = acc + (factorial(m - k) // factorial(m - 2 * k)) * p_closed_form(m - 2 * k)
    return acc


def q_coefficient_form(n: int) -> IntPolynomial:
    """Q_n built coefficientwise: the X^{m-2k} coefficient of Q_{m+1} is
    (1/(m-2k)!) * sum_j (m-k+j)!/(2^j j!), which is an exact integer."""
    if n < 1:
        raise ValueError("order must be >= 1")
    m = n - 1
    coeffs = [0] * (m + 1)
    for k in range(m // 2 + 1):
        s = Fraction(0)
        for j in range(k + 1):
            s += Fraction(factorial(m - k + j), 2**j * factorial(j))
        val = s / factorial(m - 2 * k)
        if val.denominator != 1:
            raise IdentityError(f"non-integral Q coefficient at n={n}, k={k}")
        coeffs[m - 2 * k] = val.numerator
    return IntPolynomial(coeffs)


def quadratic_triple(n: int) -> QuadraticTriple:
    """A_n, B_n, C_n via the shared memo table; each order is built once."""
    if n < 0:
        raise ValueError("order must be non-negative")
    triple = _TRIPLES.get(n)
    if triple is None:
        pq_pair(n + 2)
        triple = _triple_from(_P, _Q, n)
        with _lock:
            triple = _TRIPLES.setdefault(n, triple)
    return triple


def _triple_from(p: list[IntPolynomial], q: list[IntPolynomial], n: int) -> QuadraticTriple:
    """A_n, B_n, C_n from the defining combinations of the tables p and q."""
    p0, q0, p1, q1, p2, q2 = p[n], q[n], p[n + 1], q[n + 1], p[n + 2], q[n + 2]
    a = p0 * p2 - p1 * p1
    b = p0 * q2 + p2 * q0 - 2 * (p1 * q1)
    c = q0 * q2 - q1 * q1
    return QuadraticTriple(n, a, b, c)


def _a_series_coefficient(n: int, m: int) -> Fraction:
    """Coefficient of x^{2m} y^n in the generating function
    exp(y x^2 / (1-y)) / ((1+y) sqrt(1-y^2)), i.e. A_n's data before the
    n!/m! normalization."""
    if m == 0:
        return Fraction((-1) ** n * (n + 1) * comb(n, n // 2), 2**n)
    if m == 1:
        return Fraction((1 - (-1) ** n) * n * comb(n - 1, n // 2), 2**n)
    s = Fraction(0)
    for k in range((n - m) // 2 + 1):
        top = n - 2 * k - 2
        if top < m - 2:
            continue
        s += Fraction(factorial(2 * k + 1), 2 ** (2 * k) * factorial(k) ** 2) * comb(top, m - 2)
    return s


def a_closed_form(n: int) -> IntPolynomial:
    """A_n assembled from the generating-function coefficients.

    A_n(x) = n! * sum_{m=0}^{n} a_{n,m} / m! * x^{2m}.  Every division is
    exact because A_n = P_n P_{n+2} - P_{n+1}^2 has integer coefficients;
    a non-integral value is reported loudly as a transcription bug.
    """
    if n < 0:
        raise ValueError("order must be non-negative")
    coeffs = [0] * (2 * n + 1)
    nfact = factorial(n)
    for m in range(n + 1):
        val = nfact * _a_series_coefficient(n, m) / factorial(m)
        if val.denominator != 1:
            raise IdentityError(f"non-integral A coefficient at n={n}, m={m}: {val}")
        coeffs[2 * m] = val.numerator
    return IntPolynomial(coeffs)


def discriminant(n: int) -> IntPolynomial:
    """B_n^2 - 4 A_n C_n, asserted equal to (n!)^2 (X^2 + 4n + 4)."""
    t = quadratic_triple(n)
    computed = t.b * t.b - 4 * (t.a * t.c)
    f2 = factorial(n) ** 2
    assembled = IntPolynomial([f2 * (4 * n + 4), 0, f2])
    if computed != assembled:
        raise IdentityError(f"discriminant identity failed at n={n}")
    return assembled


def generating_function_residual(x: Fraction, y: Fraction, terms: int, precision_bits: int) -> mpf:
    """|sum_{n<terms} A_n(x) y^n / n!  -  exp(y x^2/(1-y)) / ((1+y) sqrt(1-y^2))|.

    The partial sum is exact rational arithmetic; only the closed form and
    the final subtraction are carried out at precision_bits.
    """
    x, y = Fraction(x), Fraction(y)
    if terms < 1:
        raise ValueError("terms must be >= 1")
    if abs(y) >= 1:
        raise ValueError("|y| must be < 1")
    partial = Fraction(0)
    ypow = Fraction(1)
    for n in range(terms):
        partial += quadratic_triple(n).a.eval_rational(x) * ypow / factorial(n)
        ypow *= y
    check_precision(precision_bits)
    with mp.workprec(precision_bits):
        yv = to_mpf(y)
        xv = to_mpf(x)
        closed = mp_exp(yv * xv * xv / (1 - yv)) / ((1 + yv) * mp_sqrt(1 - yv * yv))
        return abs(to_mpf(partial) - closed)


def verify_identities(n_max: int, tables=None) -> list[dict]:
    """Exact check of every algebraic identity, for all n <= n_max.

    ``tables`` is an optional pair (P list, Q list) of at least n_max + 3
    entries to check instead of the shared memo; the quadratic triples are
    then derived from it too.  Returns a list of
    {"identity": ..., "n": ..., "status": "pass"|"fail"} entries with stable
    key order; failures never raise.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if tables is None:
        pq_pair(n_max + 2)  # prefill
        p_tab, q_tab, triple_at = _P, _Q, quadratic_triple
    else:
        p_tab, q_tab = tables
        if min(len(p_tab), len(q_tab)) < n_max + 3:
            raise ValueError(f"tables must hold orders 0..{n_max + 2}")

        def triple_at(n: int) -> QuadraticTriple:
            return _triple_from(p_tab, q_tab, n)

    report: list[dict] = []

    def entry(identity: str, n: int, ok: bool) -> None:
        report.append({"identity": identity, "n": n, "status": "pass" if ok else "fail"})

    for n in range(n_max + 1):
        p, q = p_tab[n], q_tab[n]
        p1, q1 = p_tab[n + 1], q_tab[n + 1]
        p2, q2 = p_tab[n + 2], q_tab[n + 2]
        entry("P_next=X*P+P'", n, p1 == X * p + p.derivative())
        entry("Q_next=P+Q'", n, q1 == p + q.derivative())
        if n >= 1:
            entry("P_next=X*P+n*P_prev", n, p1 == X * p + n * p_tab[n - 1])
            entry("Q_next=X*Q+n*Q_prev", n, q1 == X * q + n * q_tab[n - 1])
            entry("P'=n*P_prev", n, p.derivative() == n * p_tab[n - 1])
            entry("Q_closed_sum_P", n, q_closed_form(n) == q)
            entry("Q_closed_coeffs", n, q_coefficient_form(n) == q)
        entry("P_closed_form", n, p_closed_form(n) == p)
        sign = (-1) ** n
        entry("wronskian_step1", n, q1 * p - p1 * q == IntPolynomial([sign * factorial(n)]))
        entry("wronskian_step2", n, q2 * p - p2 * q == IntPolynomial([0, sign * factorial(n)]))
        triple = triple_at(n)
        f2 = factorial(n) ** 2
        delta = triple.b * triple.b - 4 * (triple.a * triple.c)
        entry("discriminant", n, delta == IntPolynomial([f2 * (4 * n + 4), 0, f2]))
        try:
            entry("A_closed_form", n, a_closed_form(n) == triple.a)
        except IdentityError:
            entry("A_closed_form", n, False)
    return report
