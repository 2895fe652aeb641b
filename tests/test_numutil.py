import ast
import math
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf
from mpmath.libmp import MPZ, from_man_exp, from_rational, fzero, mpf_shift, to_str
from mpmath.libmp import normalize as libmp_normalize

from millsratio import bounds
from millsratio.numutil import ROUNDINGS, dyadic, normalize, nstr_ceiling, nstr_fixed, round_quotient, to_fraction, to_mpf
from millsratio.oracle import phi_series


def test_to_fraction_keeps_every_bit_of_a_wide_mpf():
    # converted at the default 53 bits, a 128-bit mpf must not be re-rounded
    with mp.workprec(128):
        third = mpf(1) / 3
    exact = Fraction(third.man) * Fraction(2) ** third.exp
    assert to_fraction(third) == exact
    assert abs(exact - Fraction(1, 3)) < Fraction(1, 2**128)
    assert to_mpf(to_fraction(third), 128) == third


def test_to_fraction_plain_values():
    assert to_fraction(Fraction(7, 3)) == Fraction(7, 3)
    assert to_fraction(5) == 5
    assert to_fraction(0.1) == Fraction(0.1)
    with mp.workprec(24):  # a float is read exactly, whatever mpmath's precision
        assert to_fraction(12.3) == Fraction(12.3)
    assert to_fraction(mpf(-0.75)) == Fraction(-3, 4)
    assert to_fraction(mpf(0)) == 0


def test_to_fraction_parses_strings_exactly():
    assert to_fraction("7/3") == Fraction(7, 3)
    assert to_fraction("0.1") == Fraction(1, 10)
    assert to_fraction("-5/2") == Fraction(-5, 2)


def test_to_mpf_rounds_a_fraction_once():
    # numerators wider than the precision: rounding the numerator first and
    # then the quotient is off by an ulp for about a quarter of these
    rng = random.Random(20261018)
    for _ in range(2000):
        q = Fraction(rng.choice((-1, 1)) * rng.getrandbits(90), rng.getrandbits(20) | 1)
        assert to_mpf(q, 53) == mpf(q.numerator / q.denominator) == mp.fdiv(q.numerator, q.denominator, prec=53), q
        assert to_fraction(to_mpf(q, 53, "f")) <= q <= to_fraction(to_mpf(q, 53, "c")), q


def _seeded_mpfs(seed=20261018):
    """mpfs with 20-600-bit mantissas and exponents from -700 to 100, of
    both signs, and zero."""
    rng = random.Random(seed)
    values = [mpf(0)]
    for bits in (20, 53, 54, 64, 97, 145, 272, 273, 600):
        for _ in range(12):
            man = rng.getrandbits(bits) | 1 << (bits - 1) | 1
            values.append(mp.make_mpf(from_man_exp(rng.choice((-1, 1)) * man, rng.randint(-700, 100))))
    return values


def _mantissa(kind: str, prec: int, extra: int, seed: int) -> int:
    """A mantissa of about prec + extra bits whose bits below the top prec
    are, by kind: none (exact), any nonzero (sticky), one half (a tie), or
    any with a half or more under prec ones, which carries to 2^prec."""
    rng = random.Random(seed)
    head = rng.getrandbits(prec - 1) | 1 << prec - 1
    if kind == "zero":
        return 0
    if kind == "exact":
        return head >> rng.randrange(prec)  # prec bits or fewer
    if kind == "carry":
        head = (1 << prec) - 1
    extra += 1
    tail = 1 << extra - 1 if kind == "tie" else rng.getrandbits(extra) | 1
    if kind == "carry":
        tail |= 1 << extra - 1
    return head << extra | tail


@settings(max_examples=400, deadline=None)
@given(prec=st.integers(53, 9000), extra=st.integers(0, 96), kind=st.sampled_from(["zero", "exact", "sticky", "tie", "carry"]),
       seed=st.integers(0, 2**32), sign=st.integers(0, 1), exp=st.integers(-20000, 20000))
@example(prec=53, extra=0, kind="tie", seed=0, sign=0, exp=0)
@example(prec=53, extra=0, kind="tie", seed=1, sign=1, exp=-60)
@example(prec=53, extra=5, kind="carry", seed=0, sign=1, exp=0)
@example(prec=53, extra=3, kind="sticky", seed=6, sign=0, exp=0)  # above a half, an even last bit
@example(prec=9000, extra=96, kind="sticky", seed=0, sign=0, exp=-9000)
def test_normalize_is_libmps_bit_for_bit(prec, extra, kind, seed, sign, exp):
    # the same raw tuple as mpmath's own normalize in every rounding: a
    # rounding with no bits below prec, a sticky rest, an exact half, and a
    # mantissa of prec ones rounded up to 2^prec
    man = _mantissa(kind, prec, extra, seed)
    for rounding in ROUNDINGS:
        want = libmp_normalize(sign if man else 0, MPZ(man), exp if man else 0, man.bit_length(), prec, rounding)
        got = normalize(sign, man, exp, man.bit_length(), prec, rounding)
        assert got == want and got[3] == got[1].bit_length(), (kind, rounding)


def test_mpf_paths_round_the_exact_value():
    # an mpf is rounded as it stands; the result is the exact value rounded once
    for v in _seeded_mpfs():
        sign, man, exp, _ = v._mpf_
        exact = Fraction(-man if sign else man) * Fraction(2) ** exp
        assert to_fraction(v) == exact
        for prec in (53, 64, 96, 144, 272):
            for rounding in "nfcd":
                got = to_mpf(v, prec, rounding)
                assert got._mpf_ == from_rational(exact.numerator, exact.denominator, prec, rounding), (v, prec, rounding)


def test_dyadic_reads_both_signs_on_one_scale():
    values = _seeded_mpfs()
    scale, *nums = dyadic(*values)
    assert scale == max(0, *(-v._mpf_[2] for v in values))
    assert [Fraction(num, 1 << scale) for num in nums] == [to_fraction(v) for v in values]
    assert dyadic(mpf(-3), mpf(6)) == (0, -3, 6)


@pytest.mark.parametrize("value", [mp.inf, -mp.inf, mp.nan])
def test_non_finite_mpfs_refused(value):
    with pytest.raises(ValueError, match="cannot convert non-finite value"):
        to_fraction(value)
    with pytest.raises(ValueError, match="cannot convert non-finite value"):
        to_mpf(value, 64)
    with pytest.raises(ValueError, match="cannot convert non-finite value"):
        nstr_fixed(value, 20)


@pytest.mark.parametrize("value", [True, False])
def test_bools_refused(value):
    # a bool is an int to Python, but no caller means 1 or 0 by it
    for read in (to_fraction, lambda v: phi_series(v, 64), nstr_fixed,
                 lambda v: bounds.certify_grid("eq18", [0], [v])):
        with pytest.raises(ValueError, match=f"cannot read the bool {value} as a number"):
            read(value)


def _reference(num: int, den: int, prec: int, rounding: str, exp: int = 0) -> tuple:
    return mpf_shift(from_rational(num, den, prec, rounding), exp)


def _check_kernel(num: int, den: int, prec: int, exp: int = 0) -> None:
    for rounding in "nfcdu":
        got = round_quotient(num, den, prec, rounding, exp)
        assert got == _reference(num, den, prec, rounding, exp), (num, den, prec, rounding, exp)
        sign, man, _, bc = got
        assert type(sign) is int and (man == 0 or man & 1) and bc == man.bit_length()


@st.composite
def quotients(draw):
    """(num, den, prec, exp): num and den of up to 2100 bits, either sign,
    den a power of two one time in four; prec 53-2048, exp within +-400."""
    num = draw(st.integers(0, 2100).flatmap(lambda bits: st.integers(-(2**bits), 2**bits)))
    if draw(st.integers(0, 3)) == 0:
        den = draw(st.sampled_from((1, -1))) << draw(st.integers(0, 2100))
    else:
        den = draw(st.integers(1, 2100).flatmap(lambda bits: st.integers(1, 2**bits))) * draw(st.sampled_from((1, -1)))
    if draw(st.booleans()):
        num *= den  # an exact quotient
    return num, den, draw(st.integers(53, 2048)), draw(st.integers(-400, 400))


@settings(max_examples=400, deadline=None)
@given(quotients())
def test_round_quotient_is_libmps_rational_conversion(case):
    _check_kernel(*case)


@pytest.mark.parametrize("prec", [53, 64, 97, 1025, 2048])
def test_round_quotient_fixed_examples(prec):
    rng = random.Random(prec)
    for exp in (-400, -1, 0, 3, 400):
        wide = [(rng.getrandbits(3 * prec), rng.getrandbits(prec) | 1), (rng.getrandbits(40), -rng.getrandbits(2000) | 1)]
        for num, den in [(0, 1), (0, -7), (1, 3), (-1, 3), (1, -3), (-1, -3), (5, 1 << 90), (-(3**700), 1 << 11),
                         (2**prec - 1, 1), (2**prec + 1, 1), (2 * 3**400 + 1, 3**400), (7**300, 7**299), *wide]:
            _check_kernel(num, den, prec, exp)
        assert round_quotient(0, -5, prec, "u", exp) == fzero


@pytest.mark.parametrize("prec", [53, 97, 128, 1000])
def test_round_quotient_ties_go_to_even(prec):
    # m of prec + 1 bits, m odd: m/2^5 lies halfway between two prec-bit values
    for m, even in (((1 << prec) + 1, 1 << prec), ((1 << prec) + 3, (1 << prec) + 4)):
        for g in (1, 3, 3**50):
            for sign in (1, -1):
                got = round_quotient(sign * m * g, g << 5, prec, "n", 7)
                assert got == from_man_exp(sign * even, 2) == _reference(sign * m * g, g << 5, prec, "n", 7)


def test_round_quotient_refuses_a_zero_denominator():
    for num in (0, 1, -3**90):
        with pytest.raises(ZeroDivisionError):
            from_rational(num, 0, 64, "n")
        with pytest.raises(ZeroDivisionError):
            round_quotient(num, 0, 64, "n")


@pytest.mark.parametrize("rounding", ["z", "N", "", "nearest", None])
def test_unknown_rounding_is_refused_by_name(rounding):
    for call in (lambda: round_quotient(1, 3, 64, rounding), lambda: round_quotient(0, 3, 64, rounding),
                 lambda: round_quotient(4, 2, 64, rounding), lambda: to_mpf(Fraction(1, 3), 64, rounding),
                 lambda: to_mpf(mpf(3), 64, rounding), lambda: bounds.round_quotient(1, 3, 64, rounding)):
        with pytest.raises(ValueError, match=f"unknown rounding {rounding!r}"):
            call()


def _exact_reference(value, digits: int) -> str:
    """nstr_fixed's contract as it reads: the exact value (a Fraction)
    rounded once to digits significant digits, halves away from zero; the
    layout is mpmath's to_str of that exact decimal, at a precision wide
    enough that its own rounding cannot move a digit."""
    exact = to_fraction(value)
    if not exact:
        return "0.0"
    magnitude, exponent = abs(exact), 0
    while magnitude >= Fraction(10) ** (exponent + 1):
        exponent += 1
    while magnitude < Fraction(10) ** exponent:
        exponent -= 1
    unit = Fraction(10) ** (exponent - digits + 1)
    head = math.floor(magnitude / unit)
    if magnitude / unit - head >= Fraction(1, 2):
        head += 1
    rounded = head * unit if exact > 0 else -head * unit
    return to_str(from_rational(rounded.numerator, rounded.denominator, 4 * digits + 64, "n"), digits)


def _ties_next_to_decimal_halves(digits: int) -> list:
    """mpfs halfway between the two prec-bit neighbours q 2^e < h < (q+1) 2^e
    of a decimal h = d.dd...d5 10^-j of digits + 1 significant digits, with
    q even, at prec = max(53, 4 digits + 16): a binary rounding to prec bits
    first, ties to even, lands below h, and the exact value rounded once to
    digits digits rounds its last digit up only if it lies above h."""
    prec, out = max(53, 4 * digits + 16), []
    for j in (-30, 0, 7, 40):
        for r in range(40):
            h = Fraction(10 * (10 ** (digits - 1) + 7 * r) + 5) / Fraction(10) ** j
            e = h.numerator.bit_length() - h.denominator.bit_length() - prec
            while h >= Fraction(2) ** (e + prec):
                e += 1
            while h < Fraction(2) ** (e + prec - 1):
                e -= 1
            q = math.floor(h / Fraction(2) ** e)
            if q % 2 == 0 and q * Fraction(2) ** e != h:
                out.append(mp.make_mpf(from_man_exp(2 * q + 1, e - 1)))
    return out


@st.composite
def renderable(draw):
    """mpfs of either sign with 53-300-bit mantissas and exponents from
    -4000 to 4000 (past to_str's own +-3500 switch); mpfs m 2^-s of up to
    900 bits over 2^1..2^600, below and above 10^digits; binary ties
    next to decimal halves, as mpfs; exact zero; decimals next to a power
    of ten (9.99...95 and its neighbours, as Fractions and as mpfs) and
    next to a half in their last digit (where the binary rounding decides
    the decimal one); ints, Fractions and decimal strings."""
    sign = draw(st.sampled_from((1, -1)))
    kinds = ("mpf", "mpf", "dyadic", "tie", "near_ten", "near_half", "zero", "int", "fraction", "string")
    kind = draw(st.sampled_from(kinds))
    if kind == "mpf":
        bits = draw(st.integers(53, 300))
        man = draw(st.integers(2 ** (bits - 1), 2**bits - 1))
        return mp.make_mpf(from_man_exp(sign * man, draw(st.integers(-4000, 4000))))
    if kind == "dyadic":
        return mp.make_mpf(from_man_exp(sign * draw(st.integers(1, 2**900)), -draw(st.integers(1, 600))))
    if kind == "tie":
        return sign * draw(st.sampled_from(_ties_next_to_decimal_halves(draw(st.integers(1, 40)))))
    if kind == "near_ten":  # (10^m - 5 + delta) 10^-j: 9.99...95 when j = m - 1
        m = draw(st.integers(1, 45))
        value = sign * Fraction(10**m - 5 + draw(st.integers(-3, 6))) / Fraction(10) ** draw(st.integers(-60, 60))
        return to_mpf(value, draw(st.integers(53, 300))) if draw(st.booleans()) else value
    if kind == "near_half":  # d.dd...d5 10^-j moved by a few ulps of 53-176 bits, at 300 bits
        half = Fraction(10 * draw(st.integers(1, 10**40)) + 5) / Fraction(10) ** draw(st.integers(-60, 60))
        moved = half * (1 + Fraction(draw(st.integers(-8, 8)), 2 ** draw(st.integers(53, 180))))
        return sign * to_mpf(moved, 300)
    if kind == "zero":
        return draw(st.sampled_from((0, Fraction(0), mpf(0), "0.0")))
    if kind == "int":
        return sign * draw(st.integers(0, 10**60))
    if kind == "fraction":
        return sign * Fraction(draw(st.integers(1, 10**40)), draw(st.integers(1, 10**40)))
    return f"{sign * draw(st.integers(0, 10**30))}.{draw(st.integers(0, 10**12))}e{draw(st.integers(-80, 80))}"


# m 2^-s at or above 10^digits: 2^490 + 2^-10 is near 3.2e147
_WIDE_DYADIC = mp.make_mpf(from_man_exp(2**500 + 1, -10))


@settings(max_examples=1500, deadline=None)
@given(renderable(), st.integers(1, 40))
@example(_WIDE_DYADIC, 40)
@example(-_WIDE_DYADIC, 1)
def test_nstr_fixed_is_the_exact_value_rounded_once(value, digits):
    assert nstr_fixed(value, digits) == _exact_reference(value, digits)


def test_nstr_fixed_rounds_a_value_above_a_decimal_half_up():
    # the exact value is 1.000000000000000000050000000009...e+50, above the
    # half of its 20th digit; a binary rounding to 96 bits first lands just
    # below the half (1.00000000000000000004999...e+50) and printed 1.0e+50
    for sign in (1, -1):
        value = mp.make_mpf(from_man_exp(sign * 84703294725430033911067414805, 70))
        assert nstr_fixed(value, 20) == "-1.0000000000000000001e+50"[sign > 0 :]


@pytest.mark.parametrize("digits", [1, 2, 20, 246, 247, 300])
def test_nstr_fixed_at_the_edges_of_its_integer_path(digits):
    # exponents next to to_str's +-3500 switch, digit counts next to the 247
    # where to_str's digit conversion stops being one str(), binary ties, and
    # m 2^-s on both sides of 10^digits
    values = [mpf(0), Fraction(0), *_ties_next_to_decimal_halves(digits)]
    for man, s in ((2**500 + 1, 10), (2**2000 + 1, 1000), (10**300 + 1, 1), (3, 2), (10**40 + 7, 200)):
        values += [mp.make_mpf(from_man_exp(sign * man, -s)) for sign in (1, -1)]
    for top in (-3501, -3500, -3499, 0, 1, 3499, 3500, 3501):
        for man in (1, 3, 2**53 - 1, 2**300 - 1, 10**40 + 7):
            for sign in (1, -1):
                values.append(mp.make_mpf(from_man_exp(sign * man, top - man.bit_length())))
    for value in values:
        assert nstr_fixed(value, digits) == _exact_reference(value, digits), (value, digits)


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.fractions(), renderable()), st.integers(1, 40))
@example(_WIDE_DYADIC, 40)
@example(-_WIDE_DYADIC, 1)
def test_nstr_ceiling_never_prints_below_the_value(value, digits):
    exact = to_fraction(value)
    shown = nstr_ceiling(value, digits)
    printed = Fraction(shown)
    assert printed >= exact
    if exact:
        assert shown == _exact_reference(printed, digits)  # in nstr_fixed's layout
        head, _, _ = shown.lstrip("-").replace(".", "").partition("e")
        assert len(head.lstrip("0").rstrip("0")) <= digits
        # less than one unit in the last digit of the value's magnitude
        magnitude, exponent = abs(exact), 0
        while magnitude >= Fraction(10) ** (exponent + 1):
            exponent += 1
        while magnitude < Fraction(10) ** exponent:
            exponent -= 1
        assert printed - exact < Fraction(10) ** (exponent - digits + 1)
    else:
        assert shown == "0.0"


@pytest.mark.parametrize("render,value,digits", [
    (nstr_ceiling, 12345, 0), (nstr_ceiling, Fraction(1, 3), -1), (nstr_fixed, Fraction(1, 3), 0)])
def test_fewer_than_one_digit_is_refused(render, value, digits):
    # such a call printed 0.0e+5, 1.0e-1 and .0e-1: below the value, or no number
    with pytest.raises(ValueError, match=f"digits = {digits}$"):
        render(value, digits)


def test_every_printed_number_goes_through_the_one_kernel():
    # no module of the package or of scripts/ renders a number by mpmath's
    # to_str or nstr, whose digits come from a binary rounding first
    root = pathlib.Path(__file__).resolve().parents[1]
    paths = sorted([*root.glob("src/millsratio/*.py"), *root.glob("scripts/*.py")])
    assert root / "src" / "millsratio" / "numutil.py" in paths
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Call):
                names = [getattr(node.func, "id", None) or getattr(node.func, "attr", None)]
            else:
                continue
            found += [f"{path.relative_to(root)}:{node.lineno} {name}" for name in names if name in ("to_str", "nstr")]
    assert not found
