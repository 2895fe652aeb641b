"""Small numeric helpers: exact values, and the one rounding by which an
exact value becomes bits, at a precision and in a direction named in the
call.

round_quotient is the one kernel by which an exact rational becomes bits:
one integer division to at least prec + 2 bits, its remainder kept as a
sticky bit, and one rounding by normalize (Brent and Zimmermann, Modern
Computer Arithmetic, 3.1.9), which gives the raw (sign, man, exp, bc)
tuple of mpmath's libmp, bit for bit, with no mpf formed on the way.
No mpmath is read here, and importing the package loads none: a value
stays a raw tuple inside it, and an mpf is formed only at the edge, by
as_mpf, which imports mpmath on its first call (mpf_field reads a record's
raw field through it).  Only to_fraction's fallback, for a type that only
mpmath reads, imports mpmath besides.
nstr_fixed and nstr_ceiling turn an exact value into decimal digits the
same way (ibid., 1.7): one divmod by a power of ten gives the leading
digits and the exact rest, and the rest alone decides the last digit, so
every printed number is its exact value rounded once."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

DEFAULT_PRECISION_BITS = 128
MIN_PRECISION_BITS = 64
ROUNDINGS = ("n", "f", "c", "d", "u")  # nearest, floor, ceiling, toward 0, away from 0
fzero = (0, 0, 0, 0)  # the raw zero
_make_mpf = None  # mpmath's mp.make_mpf, bound by as_mpf's first call


def normalize(sign: int, man: int, exp: int, bc: int, prec: int, rounding: str) -> tuple:
    """The raw (-1)^sign man 2^exp, man > 0 of bc bits, rounded once to prec
    bits in one of ROUNDINGS, its trailing zero bits stripped (odd
    mantissa); 0 for man = 0.  libmp's normalize for finite values, bit for
    bit: to nearest, the bit below the last kept one decides, and the bits
    below it (sticky) or the last kept bit's parity (a tie goes to even)
    break a half; the magnitude is cut for toward 0, and for floor (ceiling)
    of a positive (negative) value, and rounded up otherwise."""
    if not man:
        return fzero
    n = bc - prec
    if n > 0:
        if rounding == "n":
            half = man >> n - 1
            man = (half >> 1) + 1 if half & 1 and (half & 2 or man & (1 << n - 1) - 1) else half >> 1
        elif rounding == "d" or rounding == ("c" if sign else "f"):
            man >>= n
        else:
            man = -(-man >> n)
        exp += n
    zeros = (man & -man).bit_length() - 1
    man >>= zeros
    return sign, man, exp + zeros, man.bit_length()


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


def exceeds(a: tuple, b: tuple) -> bool:
    """a > b for finite raw values, decided on integers on the lesser exponent."""
    (sa, ma, ea, _), (sb, mb, eb, _) = a, b
    e = min(ea, eb)
    return (-ma if sa else ma) << ea - e > (-mb if sb else mb) << eb - e


def raw(value) -> tuple | None:
    """The raw (sign, man, exp, bc) of value: value itself if it is a raw
    tuple, an mpf's own; None for any other value."""
    if type(value) is tuple:
        return value if len(value) == 4 else None
    return getattr(value, "_mpf_", None)


def as_mpf(item):
    """item as an mpf if it is a raw tuple, by mpmath's make_mpf, imported
    on the first call; any other item as it is."""
    global _make_mpf
    if type(item) is not tuple or len(item) != 4:
        return item
    if _make_mpf is None:
        from mpmath import mp

        _make_mpf = mp.make_mpf
    return _make_mpf(item)


def mpf_field(index: int) -> property:
    """A read-only property of a record: its item at index read by as_mpf,
    so a raw item reads as an mpf and any other as it is."""
    return property(lambda record: as_mpf(record[index]))


def dyadic(*values) -> tuple[int, ...]:
    """(E, N_1, N_2, ...): the finite values +-M_i 2^e_i as N_i 2^-E, E =
    max(0, -e_i), each a raw tuple or an mpf."""
    raws = [raw(v) for v in values]
    scale = max(0, *(-exp for _, _, exp, _ in raws))
    return (scale, *((-man if sign else man) << (exp + scale) for sign, man, exp, _ in raws))


def _rounding(rounding: str) -> str:
    """rounding, refused unless it names one of ROUNDINGS."""
    if rounding not in ROUNDINGS:
        raise ValueError(f"unknown rounding {rounding!r}; expected one of {', '.join(ROUNDINGS)}")
    return rounding


def to_mpf(value, prec: int, rounding: str = "n"):
    """The exact value of value (see to_fraction) rounded once to prec bits
    in a direction of ROUNDINGS, by round_quotient, as an mpf (as_mpf).  An
    mpf or a raw tuple is rounded as it stands, by normalize, with no detour
    through a Fraction."""
    bits = raw(value)
    if bits is not None:
        return as_mpf(normalize(*_finite(bits, value), prec, _rounding(rounding)))
    x = to_fraction(value)
    return as_mpf(round_quotient(x.numerator, x.denominator, prec, rounding))


def to_fraction(value) -> Fraction:
    """Exact value of an int, Fraction or string ("0.1" is 1/10, as the CLI
    reads it), or of a binary float, an mpf or a raw tuple with every bit at
    any precision; a bool is refused, not read as 0 or 1.  Any other value
    is read by mpmath's mpf, imported here."""
    if isinstance(value, bool):
        raise ValueError(f"cannot read the bool {value!r} as a number")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)) or (isinstance(value, float) and math.isfinite(value)):
        return Fraction(value)
    bits = raw(value)
    if bits is None:
        from mpmath import mpf

        value = mpf(value)
        bits = value._mpf_
    sign, man, exp, _ = _finite(bits, value)
    man = -man if sign else man
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def _finite(bits: tuple, value) -> tuple:
    """bits, the raw tuple of value, refused if value is an infinity or nan."""
    if bits[1] == 0 and bits[2] != 0:
        raise ValueError(f"cannot convert non-finite value {value!r}")
    return bits


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
def _ten(k: int) -> int:
    return 10**k


def _decimal(value, digits: int, nearest: bool) -> str:
    """The exact value of value (see to_fraction) rounded once to digits
    significant digits, in _layout: to nearest with halves away from zero,
    or, if not nearest, toward +inf.  round_quotient in radix 10 (Brent and
    Zimmermann, 1.7): for |value| = num/den and its decimal exponent e,
    10^e <= num/den < 10^(e+1), one divmod gives num 10^k = q den + r with
    k = digits - 1 - e, so q holds the leading digits and r/den < 1 the
    exact rest below the last; 2r >= den rounds to nearest (a half goes
    up), r > 0 rounds a positive value up.  e is first bounded above from
    the bit lengths and then lowered against q, a digit at a time."""
    digits = check_index(digits, "digits", "digits", minimum=1)
    bits = raw(value)
    if bits is not None:
        sign, num, exp, _ = _finite(bits, value)
        num, den = (num << exp, 1) if exp >= 0 else (num, 1 << -exp)
    else:
        x = to_fraction(value)
        sign, num, den = int(x < 0), abs(x.numerator), x.denominator
    if not num:
        return "0.0"
    # num/den < 2^t and 0.301029 < log10 2 < 0.301030: e starts at or above
    # the exponent, and at most one or two above it unless t is huge
    t = num.bit_length() - den.bit_length() + 1
    e = t * (301030 if t > 0 else 301029) // 10**6
    k, lo = digits - 1 - e, _ten(digits - 1)
    num, den = (num * _ten(k), den) if k >= 0 else (num, den * _ten(-k))
    q, r = divmod(num, den)
    while q < lo:  # e was high: one more digit from the rest
        d, r = divmod(10 * r, den)
        q, e = 10 * q + d, e - 1
    up = 2 * r >= den if nearest else r > 0 and not sign
    if up:
        q += 1
        if q == 10 * lo:  # 99...9 carried to 10...0
            q, e = lo, e + 1
    return _layout(sign, str(q), e, digits)


def nstr_fixed(value, digits: int = 20) -> str:
    """The exact value of value (see to_fraction) rounded once to nearest,
    halves away from zero, to digits significant digits, in _layout."""
    return _decimal(value, digits, True)


def nstr_ceiling(value, digits: int) -> str:
    """The exact value of value (see to_fraction) rounded up, toward +inf,
    to digits significant digits, in nstr_fixed's layout: the printed
    decimal is never below the value and less than one unit in its last
    digit above it.  For a number shown as a bound, such as an error bound,
    that a round to nearest could print too small."""
    return _decimal(value, digits, False)


def _layout(sign: int, text: str, exponent: int, digits: int) -> str:
    """mpmath's to_str layout of the number whose rounded significant digits
    are text, d.dd...d 10^exponent, negative if sign: fixed-point when
    min(-(digits // 3), -5) < exponent < digits, scientific otherwise,
    trailing zeros stripped down to one after the point."""
    if min(-(digits // 3), -5) < exponent < digits:
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
