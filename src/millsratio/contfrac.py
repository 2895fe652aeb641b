"""Continued-fraction expansion of the Mills ratio for x > 0.

For x > 0,

    phi(x) = [0; b_0 x, b_1 x, b_2 x, ...]
           = 1/(x + 1/(x + 2/(x + 3/(x + ...))))

with b_{2n} = C(2n, n) / 4^n and b_{2n+1} = 1 / ((2n+1) b_{2n}).  The
n-th convergent equals Q_n(x)/P_n(x) exactly; the "ladder" form above is
an equivalence transform of the same fraction, and the depth-d ladder
truncation 1/(x + 1/(x + 2/(x + ... + d/x))) equals the order-(d+1)
convergent (the offset was fixed empirically on small depths and is
asserted by the test suite).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd

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
    """Exact value of [0; b_0 x, ..., b_{n-1} x] = Q_n(x)/P_n(x).

    Computed through p_{k+1} = b_k x p_k + p_{k-1} (and likewise for q) on
    integers: with x = a/d and b_k = r_k/s_k, each step scales the state
    (p_{k-1}, p_k, q_{k-1}, q_k) by s_k d, leaving q_k/p_k unchanged.  Every
    8 steps the state is divided by its gcd, which keeps it from carrying
    the accumulated scale factors.
    """
    x = to_fraction(x)
    if n < 1:
        raise ValueError("order must be >= 1")
    if x <= 0:
        raise DomainError("expansion is stated for x > 0")
    a, d = x.numerator, x.denominator
    p_prev, p, q_prev, q = d, a, 0, d  # (1, x, 0, 1) scaled by d
    central = 1  # C(2m, m)
    for k in range(1, n):
        m = k // 2
        if k % 2:  # b_{2m+1} = 4^m / ((2m+1) C(2m, m))
            ra, sd = a << 2 * m, (2 * m + 1) * central * d
        else:  # b_{2m} = C(2m, m) / 4^m
            central = central * 2 * (2 * m - 1) // m
            ra, sd = central * a, d << 2 * m
        p_prev, p = p * sd, ra * p + sd * p_prev
        q_prev, q = q * sd, ra * q + sd * q_prev
        if k % 8 == 0:
            g = gcd(p_prev, p, q_prev, q)
            p_prev, p, q_prev, q = p_prev // g, p // g, q_prev // g, q // g
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
