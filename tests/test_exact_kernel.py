"""The certificate path against Fraction reference evaluators.

Every exact value in bounds is an integer expression in one sweep of the
P/Q recurrence (contfrac.pq_sweep).  The references below form the same
values the direct way: P_n, Q_n, A_n, B_n and C_n evaluated with
eval_rational on the polynomial tables, every margin as a reduced
Fraction, and every square-root bound from a Fraction enclosure of its
root (ref_outward), each rounded once by libmp's from_rational, not by
numutil.round_quotient: a margin down (_floor), a bound outward.
Margins, shown values and verdicts must agree exactly, and every
threshold is its margin's error.  Every margin is at most its exact
value.  beta's Newton steps on the dyadic grid, whose signs
are read from a sweep too, must give the brackets and values of ref_beta's
bisection, which reads every sign with eval_rational on the polynomial
A_{2m+1}.
"""

import functools
import random
import re
from fractions import Fraction
from math import factorial, inf, isqrt, nan
from operator import attrgetter

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf
from mpmath.libmp import from_rational

from millsratio import bounds
from millsratio.bounds import (
    FAMILIES,
    GUARD_BITS,
    BetaRoot,
    beta,
    certify_grid,
    first_order_enclosure,
    first_order_error_bound,
    komatsu_lower,
    log_convexity,
    phi_at,
    phi_derivative,
    second_order_bound,
    szarek_werner_upper,
)
from millsratio.contfrac import pq_sweep
from millsratio.errors import DomainError, SingularityError
from millsratio.families import hankel, pq_pair, quadratic_form, quadratic_triple
from millsratio.numutil import DEFAULT_PRECISION_BITS, to_fraction
from millsratio.oracle import OracleValue, phi_series
from millsratio.poly import IntPolynomial


def _pq(n: int, x: Fraction) -> tuple[Fraction, Fraction]:
    pair = pq_pair(n)
    return pair.p.eval_rational(x), pair.q.eval_rational(x)


def _abc(n: int, x: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    t = quadratic_triple(n)
    return t.a.eval_rational(x), t.b.eval_rational(x), t.c.eval_rational(x)


def _conv(n: int, x: Fraction) -> Fraction:
    p, q = _pq(n, x)
    return q / p


def _round(value, bits: int, rounding: str = "n") -> mpf:
    """The exact value rounded once by libmp's from_rational."""
    value = to_fraction(value)
    return mp.make_mpf(from_rational(value.numerator, value.denominator, bits, rounding))


def ref_outward(bound, r: Fraction, upper: bool, bits: int) -> mpf:
    """bound(sqrt(r)), r > 0, from the enclosure s/(b 2^k) <= sqrt(r) <=
    (s+1)/(b 2^k) of bounds._root, k = bits + GUARD_BITS and s =
    isqrt(a b 4^k) for r = a/b in lowest terms, with bound evaluated as a
    Fraction at each end and the greater rounded up or the lesser down."""
    k = bits + GUARD_BITS
    scaled = r.numerator * r.denominator << 2 * k
    s = isqrt(scaled)
    ends = [bound(Fraction(t, r.denominator << k)) for t in {s, s + (s * s != scaled)}]
    return _round(max(ends), bits, "c") if upper else _round(min(ends), bits, "f")


def ref_komatsu(x: Fraction, bits: int) -> mpf:
    bound = (lambda root: (root - x) / 2) if x < 0 else (lambda root: 2 / (x + root))
    return ref_outward(bound, x * x + 4, False, bits)


def ref_szarek_werner(x: Fraction, bits: int) -> mpf:
    bound = (lambda root: (root - 3 * x) / (2 * (1 - x * x))) if x < 0 else (lambda root: 4 / (3 * x + root))
    return ref_outward(bound, x * x + 8, True, bits)


def _sub(above: mpf, below: mpf) -> Fraction:
    return to_fraction(above) - to_fraction(below)


def _floor(margin: Fraction, bits: int) -> mpf:
    """An exact margin as a certificate at bits holds it: rounded down once
    at bits + GUARD_BITS."""
    return _round(margin, bits + GUARD_BITS, "f")


def ref_second_order(n: int, x: Fraction, bits: int) -> tuple[mpf, Fraction]:
    """The square-root bound from A_n, B_n, C_n as Fractions, and A_n(x)."""
    a, b, c = _abc(n, x)
    odd = n % 2 == 1
    if odd and x < 0 and a >= 0:
        raise DomainError(f"order {n} upper bound requires x > -beta_{(n - 1) // 2}, got x = {x}")
    if a == 0:
        raise SingularityError(f"A_{n}({x}) is exactly 0")
    scale = factorial(n) if b >= 0 else -factorial(n)
    vieta = (b >= 0) == odd
    z = ref_outward(lambda root: 2 * c / (b + scale * root) if vieta else (b + scale * root) / (2 * a),
                    x * x + 4 * n + 4, odd, bits)
    return z, a


# Each reference gives (shown values, [(name, n, exact margin, error)]):
# the margin a Fraction, which a certificate holds as _floor rounds it
def ref_eq15(n, x, bits, ov):
    w = bits + GUARD_BITS
    lower, upper = _round(_conv(2 * n, x), w, "f"), _round(_conv(2 * n + 1, x), w, "c")
    margin = min(_sub(ov.value, lower), _sub(upper, ov.value))
    return {"lower": lower, "upper": upper}, [("Eq15", n, margin, ov.error_bound)]


def ref_eq16(n, x, bits, ov):
    w = bits + GUARD_BITS
    conv = _conv(n, x)
    bound = Fraction(factorial(n)) / (_pq(n, x)[0] * _pq(n + 1, x)[0])
    margin = bound - abs(to_fraction(ov.value) - conv)
    shown = {"convergent": _round(conv, w), "error_bound": _round(bound, w, "c")}
    return shown, [("Eq16", n, margin, ov.error_bound)]


def ref_log_convexity(n, x, bits, ov):
    w = bits + GUARD_BITS
    a, b, c = _abc(n, x)
    v, e = to_fraction(ov.value), to_fraction(ov.error_bound)
    return (a * v - b) * v + c, _round(abs(2 * a * v - b) * e + abs(a) * e * e, w, "c")


def ref_eq17(n, x, bits, ov):
    return {}, [("Eq17", n, *ref_log_convexity(n, x, bits, ov))]


def ref_eq18(n, x, bits, ov):
    lower = ref_komatsu(x, bits + GUARD_BITS)
    return {"lower": lower}, [("Eq18", n, _sub(ov.value, lower), ov.error_bound)]


def ref_eq19(n, x, bits, ov):
    upper = ref_szarek_werner(x, bits + GUARD_BITS)
    return {"upper": upper}, [("Eq19", n, _sub(upper, ov.value), ov.error_bound)]


def ref_i(n, x, bits, ov):
    z, a = ref_second_order(n, x, bits + GUARD_BITS)
    upper = n % 2 == 1
    certs = [(f"I_{n}", n, _sub(z, ov.value) if upper else _sub(ov.value, z), ov.error_bound)]
    if x > 0 and (not upper or a > 0):
        sharper = _conv(n, x) - to_fraction(z)
        certs.append((f"I_{n}_sharper", n, sharper if upper else -sharper, mpf(0)))
    return {"upper" if upper else "lower": z}, certs


REFERENCE = {"eq15": ref_eq15, "eq16": ref_eq16, "eq17": ref_eq17, "eq18": ref_eq18, "eq19": ref_eq19, "i": ref_i}


def _compare(monkeypatch, family: str, orders: list[int], xs: list[Fraction], bits: int, coarse: bool = False) -> int:
    """Evaluate family at every x for all orders by Family.at, compare each
    order's result with the reference, and certify_grid's certificates at x
    with Family.at's.  Returns the number of certificates compared.  coarse
    replaces the oracle value by phi rounded to 53 bits with an error bound
    of 2^20, planted in the memo under (x, bits + GUARD_BITS), where both
    read it: for phi > 2^53 both are then integers M 2^e with e > 0."""
    made = []
    cert = bounds._cert

    def recording(name, n, x, margin, error, precision_bits):
        made.append((name, n, margin, error))
        return cert(name, n, x, margin, error, precision_bits)

    monkeypatch.setattr(bounds, "_cert", recording)
    fam, memo, count = FAMILIES[family], {}, 0
    orders = orders if fam.order is None else [fam.order]
    for x in xs:
        ov = phi_at(x, bits, memo)
        if coarse:
            ov = memo[x, bits + GUARD_BITS] = OracleValue(_round(ov.value, 53), mpf(2) ** 20, "series")
        expected = []
        for n in orders:
            try:
                expected.append((n, *REFERENCE[family](n, x, bits, ov)))
            except (DomainError, SingularityError) as exc:
                with pytest.raises(type(exc)) as raised:
                    fam.at(n, x, bits, memo)
                assert str(raised.value) == str(exc), (family, n, x)
        made.clear()
        results = [fam.at(n, x, bits, memo) for n, _, _ in expected]
        assert len(results) == len(expected)
        got_certs = iter(made)
        for (n, shown, want), (got_shown, certs) in zip(expected, results):
            assert got_shown == shown, (family, n, x, bits)
            for c, (name, m, exact, error) in zip(certs, want, strict=True):
                label, margin = (family, n, x, bits, name), _floor(exact, bits)
                assert next(got_certs) == (name, m, c.margin._mpf_, error._mpf_), label  # raw margin and error, kept raw
                assert (c.margin, c.threshold) == (margin, error), label
                assert c.verdict == ("pass" if margin > error else "fail"), label
                assert (c.family, c.n, c.x, c.precision_bits) == (name, m, x, bits)
                count += 1
        assert next(got_certs, None) is None
        made_here = [c for _, certs in results for c in certs]
        assert certify_grid(family, orders, [x], bits, memo) == sorted(made_here, key=attrgetter("family", "n"))
    return count


DEFAULT_GRID = [Fraction(k, 10) for k in range(1, 101)]
# The orders `mills verify` certifies per family
DEFAULT_ORDERS = {
    "eq15": list(range(6)),
    "eq16": list(range(12)),
    "eq17": list(range(4)),
    "eq18": [0],
    "eq19": [0],
    "i": list(range(6)),
}


@pytest.mark.parametrize("bits", [64, 128, 256])
@pytest.mark.parametrize("family", sorted(DEFAULT_ORDERS))
def test_default_grid_matches_the_reference(monkeypatch, family, bits):
    count = _compare(monkeypatch, family, DEFAULT_ORDERS[family], DEFAULT_GRID, bits)
    assert count >= len(DEFAULT_GRID) * len(DEFAULT_ORDERS[family])


# x in [-29, 0], where phi grows like e^{x^2/2}
NEGATIVE_GRID = [Fraction(k, 4) for k in range(-116, 1, 3)] + [Fraction(-29), Fraction(-2901, 101)]


@pytest.mark.parametrize("bits", [64, 128, 256])
@pytest.mark.parametrize(
    "family,orders",
    [("eq17", list(range(6)) + [12]), ("eq18", [0]), ("eq19", [1]), ("i", [0, 1, 2, 3, 4, 6, 12])],
)
def test_negative_grid_matches_the_reference(monkeypatch, family, orders, bits):
    fam = FAMILIES[family]
    xs = [x for x in NEGATIVE_GRID if fam.x_above is None or x > fam.x_above]
    assert _compare(monkeypatch, family, orders, xs, bits) > 0


@pytest.mark.parametrize("family,orders", [("eq17", [0, 1, 2, 5, 12]), ("eq18", [0]), ("i", [0, 2, 4, 12])])
def test_oracle_value_with_a_positive_exponent(monkeypatch, family, orders):
    # phi_series carries p + 48 + u log2 e bits, so its value and error
    # bound have e < 0 even at x = -29; a coarse value reaches e > 0
    xs = [Fraction(-29), Fraction(-25), Fraction(-43, 2)]
    assert all(phi_at(x, 64).value._mpf_[2] < 0 < _round(phi_at(x, 64).value, 53)._mpf_[2] for x in xs)
    assert _compare(monkeypatch, family, orders, xs, 64, coarse=True) > 0


def test_certify_grid_is_the_reference(monkeypatch):
    xs = [Fraction(-7, 3), Fraction(0), Fraction(1, 3), Fraction(5, 2), Fraction(29, 2)]
    for family in sorted(FAMILIES):
        fam = FAMILIES[family]
        points = [x for x in xs if fam.x_above is None or x > fam.x_above]
        want = []
        for x in points:
            ov = phi_at(x, 96)
            for n in [0, 1, 2, 3, 7] if fam.order is None else [fam.order]:
                try:
                    certs = REFERENCE[family](n, x, 96, ov)[1]
                except (DomainError, SingularityError):
                    continue
                want += [(name, m, x, _floor(exact, 96), error, "pass" if _floor(exact, 96) > error else "fail")
                         for name, m, exact, error in certs]
        got = bounds.certify_grid(family, [0, 1, 2, 3, 7] if fam.order is None else [fam.order], points, 96)
        assert [(c.family, c.n, c.x, c.margin, c.threshold, c.verdict) for c in got] == sorted(
            want, key=lambda c: (c[0], c[1]))


@pytest.mark.parametrize("family", sorted(DEFAULT_ORDERS))
def test_default_margins_are_at_most_exact(family):
    # every margin of a default certify_grid call is rounded down: at most
    # its exact value, and below it where that is not a w-bit number
    fam, bits = FAMILIES[family], DEFAULT_PRECISION_BITS
    orders = DEFAULT_ORDERS[family] if fam.order is None else [fam.order]
    made, exact, below = certify_grid(family, orders, DEFAULT_GRID), {}, 0
    for x, n in ((x, n) for x in DEFAULT_GRID for n in orders):
        try:
            certs = REFERENCE[family](n, x, bits, phi_at(x, bits))[1]
        except (DomainError, SingularityError):
            continue
        exact.update({(name, m, x): margin for name, m, margin, _ in certs})
    assert len(made) == len(exact) >= len(DEFAULT_GRID)
    for c in made:
        assert to_fraction(c.margin) <= exact[c.family, c.n, c.x], c
        below += to_fraction(c.margin) < exact[c.family, c.n, c.x]
    assert below > len(made) // 2


LIBRARY_POINTS = [Fraction(-2901, 101), Fraction(-7, 3), Fraction(0), Fraction(1, 3), Fraction(5, 2), Fraction(29.99)]


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_library_functions_match_the_reference(bits):
    for x in LIBRARY_POINTS:
        for n in (0, 1, 2, 3, 7, 20):
            ov = phi_at(x, bits)
            margin, error = ref_log_convexity(n, x, bits, ov)
            assert log_convexity(n, x, ov, bits, bounds._Sweep(n + 2, x)) == (_floor(margin, bits)._mpf_, error._mpf_)
            try:
                want = ref_second_order(n, x, bits)[0]
            except (DomainError, SingularityError) as exc:
                with pytest.raises(type(exc), match=str(exc)):
                    second_order_bound(n, x, bits)
            else:
                assert second_order_bound(n, x, bits).value == want
            p, q = _pq(n, x)
            mag_p, mag_q = (mp.mag(_round(v, 53, "d")) for v in (p, q))
            phi = phi_series(x, bits + max(0, mag_p)).value
            want = _round(p * to_fraction(phi) - q, bits + GUARD_BITS + max(0, mag_p + mp.mag(phi), mag_q))
            assert phi_derivative(n, x, bits) == want
            if x > 0:
                enc = first_order_enclosure(n, x, bits)
                assert (enc.lower, enc.upper) == (_round(_conv(2 * n, x), bits, "f"), _round(_conv(2 * n + 1, x), bits, "c"))
                bound = Fraction(factorial(n)) / (_pq(n, x)[0] * _pq(n + 1, x)[0])
                assert first_order_error_bound(n, x, bits) == _round(bound, bits, "c")


def _sweep_points() -> list[Fraction]:
    """200 seeded rationals in [-30, 30] with denominators up to 1000, plus 0,
    +-30 and values read from binary floats (denominators near 2^48)."""
    rng = random.Random(20061018)
    xs = [Fraction(0), Fraction(30), Fraction(-30), Fraction(29.99), Fraction(-13.7), Fraction(0.1), Fraction(-2.5e-3)]
    for _ in range(200):
        den = rng.randint(1, 1000)
        xs.append(Fraction(rng.randint(-30 * den, 30 * den), den))
    return xs


def test_float_points_have_wide_denominators():
    assert Fraction(29.99).denominator.bit_length() == 49


@pytest.mark.parametrize("x", _sweep_points(), ids=str)
def test_sweep_matches_the_polynomial_tables(x):
    top = 40
    ps, qs = pq_sweep(top + 2, x)
    assert len(ps) == len(qs) == top + 3
    d = x.denominator
    for n in range(top + 1):
        scale = Fraction(1, d**n)
        assert (ps[n] * scale, qs[n] * scale) == _pq(n, x), n
        assert tuple(Fraction(v, d ** (2 * n + 2)) for v in quadratic_form(ps, qs, n)) == _abc(n, x), n


# x = 0 (Eq18, I_0), 1 (Eq19), 3/2 (Eq18, I_0) and 3 (I_3) make the
# radicand an exact square, so the root's enclosure is one point; I_1 is
# singular at x = 1
OUTWARD_POINTS = [Fraction(-29), Fraction(-2901, 101), Fraction(-7, 3), Fraction(-3, 2), Fraction(-1, 2),
                  Fraction(-1, 3), Fraction(0), Fraction(1, 3), Fraction(1), Fraction(3, 2), Fraction(3),
                  Fraction(29, 2), Fraction(29.99)]


@pytest.mark.parametrize("bits", [64, 97, 128, 256, 1024])
def test_integer_outward_matches_the_fraction_reference(bits):
    for x in OUTWARD_POINTS:
        assert komatsu_lower(x, bits) == ref_komatsu(x, bits), (x, bits)
        if x > -1:
            assert szarek_werner_upper(x, bits) == ref_szarek_werner(x, bits), (x, bits)
        for n in (0, 1, 2, 3, 4, 7):
            try:
                want = ref_second_order(n, x, bits)[0]
            except (DomainError, SingularityError) as exc:
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    second_order_bound(n, x, bits)
            else:
                assert second_order_bound(n, x, bits).value == want, (n, x, bits)


@pytest.mark.parametrize("bits", [64, 97, 128, 256, 1024])
def test_exact_square_radicands_give_the_exact_bound(bits):
    # the one-point enclosure: the bound is the exact rational rounded once
    assert komatsu_lower(0, bits) == second_order_bound(0, 0, bits).value == 1
    assert komatsu_lower(Fraction(3, 2), bits) == _round(Fraction(1, 2), bits, "f")
    assert szarek_werner_upper(1, bits) == _round(Fraction(2, 3), bits, "c")


@pytest.mark.parametrize("bits", [64, 97, 128, 1024, 241359])
def test_root_is_on_the_outward_side_of_the_exact_root(bits):
    # Komatsu's root at x = 7/2 is Z = (sqrt(65) - 7)/4, so its lower bound v
    # lies below it exactly when (4v + 7)^2 <= 65, decided on integers.  At
    # 241359 bits the next grid point above Z is nearer to it than the end s
    # of _root's enclosure s <= sqrt(R) <= s + 1: only the end s + 1 rounds
    # down to a value below Z
    for v in (komatsu_lower(Fraction(7, 2), bits), second_order_bound(0, Fraction(7, 2), bits).value):
        assert (4 * to_fraction(v) + 7) ** 2 <= 65


def ref_beta(m: int, tolerance=None, a=None) -> BetaRoot:
    """beta(m, tolerance) by bisection, every sign of A_{2m+1}, or of the
    polynomial a if given, at a dyadic point read with eval_rational."""
    tol = Fraction(1, 2**40) if tolerance is None else Fraction(tolerance)
    bits = max(128, -(tol.numerator.bit_length() - tol.denominator.bit_length()) + 32)
    a = quadratic_triple(2 * m + 1).a if a is None else a
    lo, hi = Fraction(0), Fraction(1)
    assert a.eval_rational(lo) < 0
    if a.eval_rational(hi) == 0:
        return BetaRoot(m=m, value=mpf(1), bracket=(Fraction(1) - min(tol, Fraction(1, 2)), Fraction(1)))
    while hi - lo > tol:
        mid = (lo + hi) / 2
        s = a.eval_rational(mid)
        if s == 0:
            return BetaRoot(m=m, value=_round(mid, bits), bracket=(mid - tol, mid + tol))
        lo, hi = (mid, hi) if s < 0 else (lo, mid)
    return BetaRoot(m=m, value=_round((lo + hi) / 2, bits), bracket=(lo, hi))


def _assert_same_beta(got: BetaRoot, want: BetaRoot, *context):
    assert got == want, context
    assert type(got.value) is mpf and got.value.man_exp == want.value.man_exp, context


@pytest.mark.parametrize("tolerance", [None, Fraction(1, 2**40), Fraction(1, 10**8), Fraction(1, 2**90),
                                       Fraction(1, 3), Fraction(1, 2), 1, 3])
def test_beta_matches_the_polynomial_bisection(tolerance):
    # tolerances 1 and 3 leave bisection no halving: the bracket is ]0, 1]
    for m in range(25 if tolerance is None else 16):
        _assert_same_beta(beta(m, tolerance), ref_beta(m, tolerance), m, tolerance)


@pytest.mark.parametrize("tolerance", [None, Fraction(1, 10**8), Fraction(1, 3), Fraction(1, 2), 3])
@pytest.mark.parametrize("poly", [
    IntPolynomial([-9, 0, 64]),  # root 3/8, a grid point: the exact-zero branch
    IntPolynomial([-3, 2**40]),  # root 3 / 2^40, a grid point at the default tolerance only
    IntPolynomial([-3, 2**41]),  # root 3 / 2^41, inside a cell at every tolerance
    IntPolynomial([-1, 4, -1]),  # concave: Newton's first step leaves the bracket
    IntPolynomial([-1, 4, -2]),  # A'(1) = 0: no Newton step from 1
    IntPolynomial([-1, 9, -27, 27]),  # (3x - 1)^3: A' = 0 at the root
])
def test_beta_matches_bisection_for_any_sign_source(monkeypatch, poly, tolerance):
    """Newton's steps choose only which points are read: for any sign source
    with one root in ]0, 1[, good derivative or not, beta's bracket and value
    are bisection's, an exact zero at a grid point included."""
    slope = poly.derivative()
    monkeypatch.setattr(bounds, "_a_and_slope", lambda n, x: (poly.eval_rational(x), slope.eval_rational(x)))
    _assert_same_beta(beta(3, tolerance), ref_beta(3, tolerance, poly), poly, tolerance)


def test_beta_reads_few_sweeps(monkeypatch):
    """Newton steps on bisection's grid: 160 sign queries for m = 0..15 at
    the default tolerance, where bisection made 632; the filter decides all
    but 3, which read the exact sweep: m = 0's exact root at x = 1 and a grid
    point next to the root for m = 5 and m = 12."""
    queries, sweeps, query, sweep = [], [], bounds._a_and_slope, bounds.pq_sweep
    monkeypatch.setattr(bounds, "_a_and_slope", lambda n, x: queries.append(n) or query(n, x))
    monkeypatch.setattr(bounds, "pq_sweep", lambda n, x: sweeps.append((n, x)) or sweep(n, x))
    for m in range(16):
        beta(m)
    assert len(queries) == 160
    assert [(n - 3) // 2 for n, _ in sweeps] == [0, 5, 12]  # a sweep to order n + 2 = 2m + 3
    assert sweeps[0][1] == 1


def exact_beta(m: int, tolerance=None) -> BetaRoot:
    """beta(m, tolerance) with every sign read from the exact sweep: the
    search before the filter, kept as the reference."""
    tol = Fraction(1, 2**40) if tolerance is None else to_fraction(tolerance)
    bits = max(128, -(tol.numerator.bit_length() - tol.denominator.bit_length()) + 32)
    n, cells = 2 * m + 1, 1 << (-(-tol.denominator // tol.numerator) - 1).bit_length()

    def a_and_slope(x):
        ps = pq_sweep(n + 2, x)[0]
        return ps[n] * ps[n + 2] - ps[n + 1] ** 2, n * x.denominator * (ps[n - 1] * ps[n + 2] - ps[n] * ps[n + 1])

    a, slope = a_and_slope(Fraction(1))
    if a == 0:
        return BetaRoot(m=m, value=mpf(1), bracket=(Fraction(1) - min(tol, Fraction(1, 2)), Fraction(1)))
    lo, hi, i = 0, cells, cells
    while hi - lo > 1:
        step = max(abs(a * cells) // abs(slope), 1) if slope else 0
        i = i - step if (a > 0) == (slope > 0) else i + step
        if not lo < i < hi:
            i = (lo + hi) // 2
        x = Fraction(i, cells)
        a, slope = a_and_slope(x)
        if a == 0:
            return BetaRoot(m=m, value=_round(x, bits), bracket=(x - tol, x + tol))
        lo, hi = (i, hi) if a < 0 else (lo, i)
    return BetaRoot(m=m, value=_round(Fraction(lo + hi, 2 * cells), bits),
                    bracket=(Fraction(lo, cells), Fraction(hi, cells)))


@pytest.mark.parametrize("m, tolerance", [(24, None), (40, None), (60, None), (150, None),
                                          (0, "1e-400"), (1, "1e-400"), (2, "1e-400"), (3, "1e-400")])
def test_beta_matches_the_exact_search(m, tolerance):
    # past m = 15 and at a grid of 2^1329 cells, where a float step would
    # overflow if formed as a double times the cell count
    _assert_same_beta(beta(m, tolerance), exact_beta(m, tolerance), m, tolerance)


@pytest.mark.parametrize("slope", [inf, -inf, nan, 0.0])
@pytest.mark.parametrize("tolerance", [None, "1e-400"])
def test_beta_bisects_on_a_float_pair_with_no_finite_slope(monkeypatch, slope, tolerance):
    # a float pair whose slope gives no step: every step is a bisection
    poly = IntPolynomial([-3, 2**41])
    monkeypatch.setattr(bounds, "_a_and_slope", lambda n, x: (float(poly.eval_rational(x)), slope))
    _assert_same_beta(beta(3, tolerance), ref_beta(3, tolerance, poly), slope, tolerance)


def _exact_a(n: int, x: Fraction) -> int:
    return hankel(pq_sweep(n + 2, x)[0], n)


def _sign(v) -> int:
    return (v > 0) - (v < 0)


@functools.cache
def _root_cell(m: int) -> Fraction:
    """The lower end of beta_m's cell at tolerance 2^-90."""
    return beta(m, Fraction(1, 2**90)).bracket[0]


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 60), st.sampled_from([8, 40, 60, 90]), st.booleans(), st.data())
def test_filter_decides_only_exact_signs(m, k, near_root, data):
    """Wherever the filter decides A_n(x)'s sign (a float pair), it is the
    sign of the exact sweep's d^{2n+2} A_n(x), n = 2m + 1 <= 121, at x =
    i / 2^k in [0, 1]; half the points lie within 2^e cells of the root,
    where the filter stops deciding."""
    n, top = 2 * m + 1, 1 << k
    if near_root:
        offset = data.draw(st.integers(0, 1 << data.draw(st.integers(0, k))))
        i = min(max(int(_root_cell(m) * top) + data.draw(st.sampled_from([-1, 1])) * offset, 0), top)
    else:
        i = data.draw(st.integers(0, top))
    x = Fraction(i, top)
    a, _ = bounds._a_and_slope(n, x)
    if type(a) is float:
        assert _sign(a) == _sign(_exact_a(n, x)) != 0, (n, x)


@pytest.mark.parametrize("n, x", [
    (1, Fraction(1)),  # m = 0's exact root: the float difference is 0
    (31, 0), (31, 1),  # the ends of beta_15's cell at 2^-90
    (301, Fraction(1)),  # P_n(1) past the double range
    (3, Fraction(1, 2**600)),  # below 2^-500: x^2 would not be a normal double
    (3, Fraction(-1, 2)),  # x < 0: the terms are not all nonnegative
], ids=["root-at-1", "beta15-lower", "beta15-upper", "overflow", "tiny-x", "negative-x"])
def test_filter_defers_where_it_cannot_decide(monkeypatch, n, x):
    if type(x) is int:
        x = beta(15, Fraction(1, 2**90)).bracket[x]
    sweeps, sweep = [], bounds.pq_sweep
    monkeypatch.setattr(bounds, "pq_sweep", lambda depth, x: sweeps.append((depth, x)) or sweep(depth, x))
    a, slope = bounds._a_and_slope(n, x)
    assert sweeps == [(n + 2, x)]
    assert a == _exact_a(n, x) and type(a) is int and type(slope) is int


def test_filter_constant_covers_its_derived_bound():
    # beta's docstring: c_n (1 - u)^2 (1 - gamma_k) >= (1 + u) gamma_k, k =
    # 6n + 3 and c_n = (6n + 8) u, for every n < 2^23, exactly
    u = Fraction(1, 2**53)
    for n in [*range(1, 400), 2**23 - 1]:
        k = 6 * n + 3
        gamma = k * u / (1 - k * u)
        assert (6 * n + 8) * u * (1 - u) ** 2 * (1 - gamma) >= (1 + u) * gamma, n
