"""Continued-fraction expansion of the Mills ratio for x > 0.

For x > 0,

    phi(x) = [0; b_0 x, b_1 x, b_2 x, ...]
           = 1/(x + 1/(x + 2/(x + 3/(x + ...))))

with b_{2n} = C(2n, n) / 4^n and b_{2n+1} = 1 / ((2n+1) b_{2n}).  The
n-th convergent is Q_n(x)/P_n(x), and cf_convergent forms it from the
three-term recurrence of P and Q run on integer values; the b_k serve the
rendering of the expansion.  The "ladder" form above is an equivalence
transform of the same fraction, and the depth-d ladder truncation
1/(x + 1/(x + 2/(x + ... + d/x))) equals the order-(d+1) convergent (the
offset was fixed empirically on small depths and is asserted by the test
suite).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from mpmath import mp, mpf

from .errors import DomainError
from .numutil import check_precision, to_fraction, to_mpf


def cf_b(n: int) -> Fraction:
    """Partial-quotient coefficient b_n, exact."""
    if n < 0:
        raise ValueError("index must be non-negative")
    m, r = divmod(n, 2)
    even = Fraction(comb(2 * m, m), 4**m)
    if r == 0:
        return even
    return 1 / ((2 * m + 1) * even)


def cf_convergent(n: int, x) -> Fraction:
    """Exact n-th convergent Q_n(x)/P_n(x) = [0; b_0 x, ..., b_{n-1} x], 0 at n = 0.

    With x = a/d, p_k = d^k P_k(x) and q_k = d^k Q_k(x) are integers, and
    P_{k+1} = x P_k + k P_{k-1} becomes p_{k+1} = a p_k + k d^2 p_{k-1}
    (likewise for q, from p_0, p_1 = 1, a and q_0, q_1 = 0, d); one
    Fraction is formed at the end.
    """
    x = to_fraction(x)
    if n < 0:
        raise ValueError("order must be non-negative")
    if x <= 0:
        raise DomainError("expansion is stated for x > 0")
    if n == 0:
        return Fraction(0)
    a, d = x.numerator, x.denominator
    d2 = d * d
    p_prev, p, q_prev, q = 1, a, 0, d
    for k in range(1, n):
        p_prev, p = p, a * p + k * d2 * p_prev
        q_prev, q = q, a * q + k * d2 * q_prev
    return Fraction(q, p)


def cf_ladder_eval(depth: int, x, precision_bits: int) -> mpf:
    """Bottom-up evaluation of 1/(x + 1/(x + 2/(x + ... + depth/x))), x and
    every step rounded to nearest at precision_bits.

    Backward (tail-first) evaluation is numerically self-correcting for
    continued fractions, so no extra guard precision is needed.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    p = check_precision(precision_bits)
    xv = to_mpf(x, p)
    if xv <= 0:
        raise DomainError("ladder is stated for x > 0")
    rn = {"prec": p, "rounding": "n"}
    acc = mp.fdiv(depth, xv, **rn)
    for k in range(depth - 1, 0, -1):
        acc = mp.fdiv(k, mp.fadd(xv, acc, **rn), **rn)
    return mp.fdiv(1, mp.fadd(xv, acc, **rn), **rn)


def expansion_str(count: int) -> str:
    """Rendering "[0; b0*x, b1*x, ...]" with exact rational b_k."""
    parts = []
    for k in range(count):
        b = cf_b(k)
        parts.append(f"{b}*x" if b.denominator > 1 or b.numerator != 1 else "x")
    return "[0; " + ", ".join(parts) + ", ...]"
