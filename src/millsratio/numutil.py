"""Small numeric helpers: conversions between exact and mpmath values,
each rounding at a precision and in a direction named in the call.

round_quotient is the one kernel by which an exact rational becomes bits:
one integer division to at least prec + 2 bits, its remainder kept as a
sticky bit, and one rounding by libmp's normalize (Brent and Zimmermann,
Modern Computer Arithmetic, 3.1.9); no mpf is formed or divided on the way."""

from __future__ import annotations

import math
from fractions import Fraction

from mpmath import mp, mpf
from mpmath.libmp import fzero, mpf_pos, normalize, to_str

DEFAULT_PRECISION_BITS = 128
MIN_PRECISION_BITS = 64
ROUNDINGS = ("n", "f", "c", "d", "u")  # nearest, floor, ceiling, toward 0, away from 0


def round_quotient(num: int, den: int, prec: int, rounding: str, exp: int = 0) -> tuple:
    """The raw mpf of num / den * 2^exp rounded once to prec bits in one of
    ROUNDINGS, normalized (odd mantissa); 0 for num = 0.  Raises ValueError
    for any other rounding and ZeroDivisionError for den = 0."""
    _rounding(rounding)
    if not num and den:
        return fzero
    sign, num, den = int((num < 0) != (den < 0)), abs(num), abs(den)
    # num 2^shift / den >= 2^(prec+1): two bits at least below the rounding point
    shift = prec + 2 + den.bit_length() - num.bit_length()
    q, r = divmod(num << shift, den) if shift >= 0 else divmod(num, den << -shift)  # den = 0 raises here
    return normalize(sign, q | (r > 0), exp - shift, q.bit_length(), prec, rounding)


def _rounding(rounding: str) -> str:
    """rounding, refused unless it names one of ROUNDINGS."""
    if rounding not in ROUNDINGS:
        raise ValueError(f"unknown rounding {rounding!r}; expected one of {', '.join(ROUNDINGS)}")
    return rounding


def to_mpf(value, prec: int, rounding: str = "n") -> mpf:
    """The exact value of value (see to_fraction) rounded once to prec bits
    in a direction of ROUNDINGS, by round_quotient.  An mpf is rounded as
    it stands, with no detour through a Fraction."""
    if isinstance(value, mpf):
        return mp.make_mpf(mpf_pos(_finite(value), prec, _rounding(rounding)))
    x = to_fraction(value)
    return mp.make_mpf(round_quotient(x.numerator, x.denominator, prec, rounding))


def to_fraction(value) -> Fraction:
    """Exact value of an int, Fraction or string ("0.1" is 1/10, as the CLI
    reads it), or of a binary float or mpf with every bit at any precision."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)) or (isinstance(value, float) and math.isfinite(value)):
        return Fraction(value)
    sign, man, exp, _ = _finite(value if isinstance(value, mpf) else mpf(value))
    man = -man if sign else man
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def _finite(value: mpf) -> tuple:
    """The raw mpf tuple of value, refused if value is an infinity or nan."""
    raw = value._mpf_
    if raw[1] == 0 and raw[2] != 0:
        raise ValueError(f"cannot convert non-finite value {value!r}")
    return raw


def check_precision(precision_bits) -> int:
    """precision_bits, refused unless it is an int (not a bool) of at least
    MIN_PRECISION_BITS; callers go on with the value returned."""
    if not isinstance(precision_bits, int) or isinstance(precision_bits, bool):
        raise ValueError(f"precision_bits must be an integer, got {precision_bits!r}")
    if precision_bits < MIN_PRECISION_BITS:
        raise ValueError(f"precision_bits must be >= {MIN_PRECISION_BITS}, got {precision_bits}")
    return precision_bits


def check_index(value, name: str = "n", what: str = "order") -> int:
    """value, refused unless it is a non-negative int (not a bool), by a
    message that names the argument ("order must be non-negative, got n = -1")."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {name} = {value!r}")
    if value < 0:
        raise ValueError(f"{what} must be non-negative, got {name} = {value}")
    return value


def nstr_fixed(value, digits: int = 20) -> str:
    """Deterministic decimal rendering with a fixed significant-digit count:
    value rounded to nearest at 4 digits + 16 bits, and never below a
    double's 53, then printed by mpmath's to_str."""
    return to_str(to_mpf(value, max(53, 4 * digits + 16))._mpf_, digits)
