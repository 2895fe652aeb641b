"""Small numeric helpers: conversions between exact and mpmath values,
each rounding at a precision and in a direction named in the call.

round_quotient is the one kernel by which an exact rational becomes bits:
one integer division to at least prec + 2 bits, its remainder kept as a
sticky bit, and one rounding by libmp's normalize (Brent and Zimmermann,
Modern Computer Arithmetic, 3.1.9); no mpf is formed or divided on the way.
nstr_fixed turns bits back into decimal digits the same way, by one radix
conversion on integers (ibid., 1.7), with the bytes of mpmath's to_str."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

from mpmath import mp, mpf
from mpmath.libmp import fzero, mpf_pos, normalize, to_str

DEFAULT_PRECISION_BITS = 128
MIN_PRECISION_BITS = 64
ROUNDINGS = ("n", "f", "c", "d", "u")  # nearest, floor, ceiling, toward 0, away from 0
_LOG2_10 = math.log(10, 2)  # the float mpmath's to_str counts its digits with


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


def dyadic(*values: mpf) -> tuple[int, ...]:
    """(E, N_1, N_2, ...): the finite values M_i 2^e_i as N_i 2^-E, E = max(0, -e_i)."""
    pairs = [v.man_exp for v in values]
    scale = max(0, *(-exp for _, exp in pairs))
    return (scale, *(man << (exp + scale) for man, exp in pairs))


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


def check_index(value, name: str = "n", what: str = "order", minimum: int = 0) -> int:
    """value, refused unless it is an int (not a bool) of at least minimum,
    by a message that names the argument: "order must be non-negative, got
    n = -1" at minimum 0, "depth must be >= 1, got depth = 0" above it."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {name} = {value!r}")
    if value < minimum:
        bound = f">= {minimum}" if minimum else "non-negative"
        raise ValueError(f"{what} must be {bound}, got {name} = {value}")
    return value


@cache
def _layout_constants(digits: int) -> tuple[int, int, int]:
    """(prec, bitprec, min_fixed) of nstr_fixed at digits: the binary
    precision it rounds to, to_digits_exp's bitprec for digits + 3, and
    to_str's default min_fixed.  digits < 1 is refused here, where a valid
    call pays nothing: a raise is not cached."""
    if digits < 1:
        raise ValueError(f"digits must be at least 1, got digits = {digits}")
    return max(53, 4 * digits + 16), int((digits + 3) * _LOG2_10) + 10, min(-(digits // 3), -5)


@cache
def _decimal_point(fixprec: int) -> tuple[int, int]:
    """(fixdps, 10^fixdps): to_digits_exp's decimal digits for a binary
    fixed point of fixprec bits, and the power of ten that converts it."""
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    return fixdps, 10**fixdps


def nstr_fixed(value, digits: int = 20) -> str:
    """Deterministic decimal rendering with a fixed significant-digit count:
    to_str(to_mpf(value, max(53, 4 digits + 16))._mpf_, digits), computed
    from the rounded mantissa with one multiplication and one str().

    Why the bytes are to_str's.  An mpf's mantissa man (bc bits) is rounded
    to nearest, ties to even, at prec bits in place: libmp normalize's rule,
    with bc kept as the rounded mantissa's bit length, so exp + bc is the
    rounded value's; any other value is rounded by round_quotient.  For a
    positive s = man 2^exp, to_str(s, dps) reads to_digits_exp(s, dps + 3),
    which with bitprec = int((dps + 3) log2 10) + 10 takes
      fixprec = max(bitprec - (exp + bc), 0),
      fixdps = int(fixprec / log2 10 + 0.5)  (the same float log2 10),
      sf = floor(man 2^(exp + fixprec))  (to_fixed: a shift),
      sd = floor(sf 10^fixdps / 2^fixprec)  (bin_to_radix),
    and returns the digits str(sd) with exponent len(str(sd)) - fixdps - 1.
    Each step depends on the value only, so this is that computation.
    to_str then keeps dps digits and adds one to the last when the next
    is 5-9 (half up on the floored digits; a carry past the first makes
    10...0 and raises the exponent), prints fixed-point when
    min(-(dps // 3), -5) < exponent < dps and scientific otherwise, and
    strips trailing zeros down to one after the point; _layout does the
    same.  to_str itself renders zero, |exp + bc| > 3500 (where mpmath
    divides by a power of ten first) and digits >= 247 (where its
    conversion of sd is no longer one str())."""
    prec, bitprec, min_fixed = _layout_constants(digits)
    if isinstance(value, mpf):
        sign, man, exp, bc = _finite(value)
        shift = bc - prec
        if shift > 0:
            q = man >> shift
            rest, half = man - (q << shift), 1 << (shift - 1)
            if rest > half or (rest == half and q & 1):
                q += 1
            man, exp, bc = q, exp + shift, q.bit_length()
    else:
        x = to_fraction(value)
        sign, man, exp, bc = round_quotient(x.numerator, x.denominator, prec, "n")
    top = exp + bc
    if not man or digits >= 247 or not -3500 <= top <= 3500:
        return to_str((sign, man, exp, bc), digits)
    fixprec = max(bitprec - top, 0)
    fixdps, scale = _decimal_point(fixprec)
    shift = exp + fixprec
    text = str((man << shift if shift >= 0 else man >> -shift) * scale >> fixprec)
    exponent = len(text) - fixdps - 1
    if len(text) > digits and text[digits] >= "5":
        text = str(int(text[:digits]) + 1)
        if len(text) > digits:  # 99...9 carried to 10...0
            text, exponent = text[:digits], exponent + 1
    else:
        text = text[:digits]
    return _layout(sign, text, exponent, digits, min_fixed)


def nstr_ceiling(value, digits: int) -> str:
    """The exact value of value (see to_fraction) rounded up, toward +inf,
    to digits significant digits, in nstr_fixed's layout: the printed
    decimal is never below the value and less than one unit in its last
    digit above it.  For a number shown as a bound, such as an error bound,
    that a round to nearest could print too small."""
    min_fixed, x = _layout_constants(digits)[2], to_fraction(value)
    if not x:
        return "0.0"
    magnitude, ten = abs(x), Fraction(10)
    exponent = math.floor((magnitude.numerator.bit_length() - magnitude.denominator.bit_length()) * math.log10(2))
    while magnitude < ten**exponent:
        exponent -= 1
    while magnitude >= ten ** (exponent + 1):
        exponent += 1
    scaled = magnitude * ten ** (digits - 1 - exponent)  # in [10^(digits-1), 10^digits)
    head = math.ceil(scaled) if x > 0 else math.floor(scaled)
    if head == 10**digits:  # 99...9 carried to 10...0
        head, exponent = head // 10, exponent + 1
    return _layout(int(x < 0), str(head), exponent, digits, min_fixed)


def _layout(sign: int, text: str, exponent: int, digits: int, min_fixed: int) -> str:
    """to_str's layout of the number whose rounded significant digits are
    text, d.dd...d 10^exponent, negative if sign: fixed-point when
    min_fixed < exponent < digits, scientific otherwise, trailing zeros
    stripped down to one after the point."""
    if min_fixed < exponent < digits:
        if exponent < 0:
            text = "0." + "0" * (-exponent - 1) + text
        else:
            text = text[: exponent + 1] + "." + text[exponent + 1 :]
        exponent = 0
    else:
        text = text[:1] + "." + text[1:]
    text = text.rstrip("0")
    if text[-1] == ".":
        text += "0"
    if sign:
        text = "-" + text
    if exponent:
        return text + ("e" if exponent < 0 else "e+") + str(exponent)
    return text
