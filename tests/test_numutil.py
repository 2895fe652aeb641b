import random
from fractions import Fraction

import pytest
from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, from_rational

from millsratio.numutil import to_fraction, to_mpf


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


@pytest.mark.parametrize("value", [mp.inf, -mp.inf, mp.nan])
def test_non_finite_mpfs_refused(value):
    with pytest.raises(ValueError, match="cannot convert non-finite value"):
        to_fraction(value)
    with pytest.raises(ValueError, match="cannot convert non-finite value"):
        to_mpf(value, 64)
