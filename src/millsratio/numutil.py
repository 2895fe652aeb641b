"""Small numeric helpers: conversions between exact and mpmath values."""

from __future__ import annotations

import math
from contextlib import contextmanager
from fractions import Fraction

from mpmath import iv, mp, mpf

DEFAULT_PRECISION_BITS = 128
MIN_PRECISION_BITS = 64


def to_mpf(value) -> mpf:
    """Convert int/float/Fraction/mpf to mpf at the current working precision,
    rounded once (a Fraction's quotient is rounded, not its numerator first)."""
    if isinstance(value, Fraction):
        return mp.fdiv(value.numerator, value.denominator)
    return mpf(value)


def to_fraction(value) -> Fraction:
    """Exact value of an int, Fraction or string ("0.1" is 1/10, as the CLI
    reads it), or of a binary float or mpf with every bit at any precision."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)) or (isinstance(value, float) and math.isfinite(value)):
        return Fraction(value)
    sign, man, exp, _ = (value if isinstance(value, mpf) else mpf(value))._mpf_
    if man == 0 and exp != 0:
        raise ValueError(f"cannot convert non-finite value {value!r}")
    frac = Fraction(man) * Fraction(2) ** exp
    return -frac if sign else frac


@contextmanager
def iv_workprec(bits: int):
    """mpmath.iv at bits of working precision inside the block (iv has no workprec)."""
    saved = iv.prec
    iv.prec = bits
    try:
        yield
    finally:
        iv.prec = saved


def check_precision(precision_bits: int) -> int:
    if precision_bits < MIN_PRECISION_BITS:
        raise ValueError(f"precision_bits must be >= {MIN_PRECISION_BITS}, got {precision_bits}")
    return int(precision_bits)


def nstr_fixed(value, digits: int = 20) -> str:
    """Deterministic decimal rendering with a fixed significant-digit count."""
    with mp.workprec(max(mp.prec, 4 * digits + 16)):
        return mp.nstr(to_mpf(value), digits)
