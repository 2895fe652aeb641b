"""Continued-fraction expansion of the Mills ratio for x > 0.

For x > 0,

    phi(x) = [0; b_0 x, b_1 x, b_2 x, ...]
           = 1/(x + 1/(x + 2/(x + 3/(x + ...))))

with b_{2n} = C(2n, n) / 4^n and b_{2n+1} = 1 / ((2n+1) b_{2n}).  The
n-th convergent is Q_n(x)/P_n(x), read from pq_sweep, the three-term
recurrence of P and Q run on integer values at any rational x; the b_k
serve the rendering of the expansion.  The "ladder" form above is an
equivalence transform of the same fraction, and the depth-d ladder
truncation 1/(x + 1/(x + 2/(x + ... + d/x))) equals the order-(d+1)
convergent (the offset was fixed empirically on small depths and is
asserted by the test suite).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .errors import DomainError
from .numutil import check_index, check_precision, to_fraction, to_mpf


def cf_b(n: int) -> Fraction:
    """Partial-quotient coefficient b_n, exact."""
    n = check_index(n, "n", "index")
    m, r = divmod(n, 2)
    even = Fraction(comb(2 * m, m), 4**m)
    if r == 0:
        return even
    return 1 / ((2 * m + 1) * even)


def pq_sweep(n: int, x) -> tuple[list[int], list[int]]:
    """p_k = d^k P_k(x) and q_k = d^k Q_k(x), k = 0..n, at any rational x =
    a/d in lowest terms: P_{k+1} = x P_k + k P_{k-1} scales to p_{k+1} = a p_k
    + k d^2 p_{k-1} from (p_0, p_1) = (1, a), likewise q from (0, d), a
    three-term recurrence on integers (Gautschi, SIAM Rev. 9, 1967)."""
    n = check_index(n)
    x = to_fraction(x)
    a, d = x.numerator, x.denominator
    ps, qs = [1, a][: n + 1], [0, d][: n + 1]
    p_prev, p, q_prev, q, d2 = 1, a, 0, d, d * d
    for kd2 in range(d2, n * d2, d2):  # k d^2 for k = 1..n-1
        p_prev, p = p, a * p + kd2 * p_prev
        q_prev, q = q, a * q + kd2 * q_prev
        ps.append(p)
        qs.append(q)
    return ps, qs


def cf_convergent(n: int, x) -> Fraction:
    """Exact n-th convergent Q_n(x)/P_n(x) = [0; b_0 x, ..., b_{n-1} x], 0 at
    n = 0: the last pair of pq_sweep, as one Fraction."""
    if to_fraction(x) <= 0:
        raise DomainError(f"expansion is stated for x > 0, got x = {to_fraction(x)}")
    ps, qs = pq_sweep(n, x)  # refuses n < 0
    return Fraction(qs[n], ps[n])


def cf_ladder_eval(depth: int, x, precision_bits: int) -> mpf:
    """Bottom-up evaluation of 1/(x + 1/(x + 2/(x + ... + depth/x))), x and
    every step rounded to nearest at precision_bits.

    Backward (tail-first) evaluation is numerically self-correcting for
    continued fractions, so no extra guard precision is needed.
    """
    from mpmath import mp

    depth, p = check_index(depth, "depth", "depth", 1), check_precision(precision_bits)
    xv = to_mpf(x, p)
    if xv <= 0:
        raise DomainError(f"ladder is stated for x > 0, got x = {to_fraction(x)}")
    rn = {"prec": p, "rounding": "n"}
    acc = mp.fdiv(depth, xv, **rn)
    for k in range(depth - 1, 0, -1):
        acc = mp.fdiv(k, mp.fadd(xv, acc, **rn), **rn)
    return mp.fdiv(1, mp.fadd(xv, acc, **rn), **rn)


def expansion_str(count: int) -> str:
    """Rendering "[0; b0*x, b1*x, ...]" with exact rational b_k."""
    parts = []
    for k in range(check_index(count, "count", "count", minimum=1)):
        b = cf_b(k)
        parts.append(f"{b}*x" if b.denominator > 1 or b.numerator != 1 else "x")
    return "[0; " + ", ".join(parts) + ", ...]"
