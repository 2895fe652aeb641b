import hashlib
import math
import random
import sys
import threading
from argparse import ArgumentTypeError, Namespace
from fractions import Fraction
from functools import lru_cache
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import iv, mp, mpf
from mpmath.libmp import from_rational, libmpf

from millsratio import bounds, families
from millsratio.bounds import (
    FAMILIES,
    GUARD_BITS,
    beta,
    certify_grid,
    first_order_enclosure,
    first_order_error_bound,
    komatsu_lower,
    log_convexity_check,
    log_convexity_error,
    phi_derivative,
    second_order_bound,
    szarek_werner_upper,
)
from millsratio.cli import _verify_plan, build_parser, cmd_cf, grid_points, main, parse_grid
from millsratio.contfrac import cf_b, cf_convergent, cf_ladder_eval, expansion_str, pq_sweep
from millsratio.errors import DomainError, EnvelopeError, SingularityError
from millsratio.families import (
    a_closed_form,
    discriminant,
    generating_function_residual,
    p_closed_form,
    pq_pair,
    q_closed_form,
    q_coefficient_form,
    quadratic_triple,
    verify_identities,
)
from millsratio.numutil import nstr_ceiling, nstr_fixed, to_fraction
from millsratio.oracle import ENVELOPE, OracleValue, phi_quadrature, phi_series
from millsratio.poly import IntPolynomial
from test_exact_kernel import OUTWARD_POINTS


@lru_cache(maxsize=None)
def phi_reference(x: Fraction, bits: int = 640) -> mpf:
    """phi(x) = e^{x^2/2} sqrt(pi/2) erfc(x/sqrt(2)) from mpmath's erfc at
    bits, plus u log2 e bits for x < 0, where phi grows like e^u."""
    with mp.workprec(bits + (math.ceil(float(x) ** 2 / 2 * math.log2(math.e)) if x < 0 else 0)):
        xv = mpf(x.numerator) / x.denominator
        return mp.exp(xv * xv / 2) * mp.sqrt(mp.pi / 2) * mp.erfc(xv / mp.sqrt(2))


@st.composite
def positive_grid_points(draw):
    """x in (0, 30] with a denominator of at most 128."""
    den = draw(st.integers(min_value=1, max_value=128))
    return Fraction(draw(st.integers(min_value=1, max_value=30 * den)), den)


class TestFirstOrder:
    def test_order_zero(self):
        enc = first_order_enclosure(0, 2, 128)
        assert enc.lower == 0
        assert enc.upper == mpf("0.5")
        assert enc.lower_source == "Eq15/order=0"

    def test_order_one_at_one(self):
        enc = first_order_enclosure(1, 1, 128)
        assert abs(enc.lower - mpf("0.5")) < mpf(2) ** -120
        assert abs(enc.upper - mpf("0.75")) < mpf(2) ** -120

    def test_order_two_at_one(self):
        enc = first_order_enclosure(2, 1, 128)
        with mp.workprec(160):
            assert abs(enc.lower - mpf(6) / 10) < mpf(2) ** -120
            assert abs(enc.upper - mpf(18) / 26) < mpf(2) ** -120

    def test_rejects_nonpositive_x(self):
        with pytest.raises(DomainError):
            first_order_enclosure(1, 0, 128)

    def test_error_bound_values(self):
        assert first_order_error_bound(0, 2, 128) == mpf("0.5")
        assert abs(first_order_error_bound(1, 1, 128) - mpf("0.5")) < mpf(2) ** -120
        with mp.workprec(160):
            assert abs(first_order_error_bound(4, 1, 128) - mpf(6) / 65) < mpf(2) ** -120

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=20), positive_grid_points(), st.sampled_from([64, 128, 256]))
    def test_enclosure_and_error_bound_hold_at_every_precision(self, n, x, bits):
        enc = first_order_enclosure(n, x, bits)
        assert enc.lower < phi_reference(x) < enc.upper
        # the exact convergents from the polynomial tables, Q_0/P_0 = 0
        assert to_fraction(enc.lower) <= _conv(2 * n, x)
        assert to_fraction(enc.upper) >= _conv(2 * n + 1, x)
        exact = Fraction(factorial(n)) / (pq_pair(n).p.eval_rational(x) * pq_pair(n + 1).p.eval_rational(x))
        assert to_fraction(first_order_error_bound(n, x, bits)) >= exact

    def test_error_bound_strictly_decreases(self):
        # equivalent exact statement: (n+1) P_n(x) < P_{n+2}(x) for x > 0
        for x in (Fraction(1, 10), Fraction(1), Fraction(10)):
            for n in range(20):
                lhs = (n + 1) * pq_pair(n).p.eval_rational(x)
                assert lhs < pq_pair(n + 2).p.eval_rational(x)


class TestClassicalBounds:
    def test_komatsu(self):
        assert komatsu_lower(0, 128) == 1
        assert komatsu_lower(Fraction(3, 2), 128) == mpf("0.5")
        with mp.workprec(160):
            assert abs(komatsu_lower(-2, 128) - (mp.sqrt(2) + 1)) < mpf(2) ** -120

    def test_komatsu_below_phi_everywhere(self):
        for x in (-5, -2, 0, 1, 10):
            assert komatsu_lower(x, 128) < phi_series(x, 128).value

    def test_szarek_werner(self):
        with mp.workprec(160):
            assert abs(szarek_werner_upper(0, 128) - mp.sqrt(2)) < mpf(2) ** -120
            assert abs(szarek_werner_upper(1, 128) - mpf(2) / 3) < mpf(2) ** -120

    def test_szarek_werner_above_phi(self):
        for x in (Fraction(-1, 2), Fraction(0), Fraction(2), Fraction(9)):
            assert szarek_werner_upper(x, 128) > phi_series(x, 128).value

    def test_szarek_werner_domain(self):
        with pytest.raises(DomainError):
            szarek_werner_upper(-1, 128)
        with pytest.raises(DomainError):
            szarek_werner_upper(Fraction(-3, 2), 128)


class TestSecondOrder:
    def test_root_order_zero(self):
        assert second_order_bound(0, 0, 128).value == 1

    def test_root_order_one(self):
        got = second_order_bound(1, 2, 128).value
        with mp.workprec(160):
            expect = 4 / (6 + mp.sqrt(12))
            assert abs(got - expect) < mpf(2) ** -120

    def test_root_order_two(self):
        got = second_order_bound(2, 0, 128).value
        with mp.workprec(160):
            assert abs(got - mp.sqrt(12) / 3) < mpf(2) ** -120

    def test_root_singularity_at_beta(self):
        # A_1 = x^2 - 1 vanishes at x = 1
        with pytest.raises(SingularityError):
            second_order_bound(1, 1, 128)

    def test_even_orders_reproduce_komatsu(self):
        # Komatsu's bound is Z^+ of order 0, bit for bit
        for bits in (64, 97, 128, 256, 1024):
            for x in OUTWARD_POINTS:
                sb = second_order_bound(0, x, bits)
                assert sb.role == "lower"
                assert sb.value == komatsu_lower(x, bits), (x, bits)

    def test_order_one_reproduces_szarek_werner(self):
        # Szarek-Werner's bound is Z^- of order 1, bit for bit, and holds at
        # x = 1, where A_1 vanishes and I_1 is singular
        for bits in (64, 97, 128, 256, 1024):
            for x in [x for x in OUTWARD_POINTS if x > -1 and x != 1]:
                sb = second_order_bound(1, x, bits)
                assert sb.role == "upper"
                assert sb.value == szarek_werner_upper(x, bits), (x, bits)
            assert szarek_werner_upper(1, bits) == mp.make_mpf(from_rational(2, 3, bits, "c"))
            with pytest.raises(SingularityError, match=r"^A_1\(1\) is exactly 0$"):
                second_order_bound(1, 1, bits)

    def test_order_two_example(self):
        sb = second_order_bound(2, 1, 128)
        with mp.workprec(160):
            expect = (mp.sqrt(13) - 1) / 4
            assert abs(sb.value - expect) < mpf(2) ** -120

    def test_order_three_matches_published_form(self):
        # (x^4+x^2+16) / (x^5+2x^3+12x+3 sqrt(x^2+16)) is the rationalized form
        for x in (Fraction(1), Fraction(3), Fraction(1, 2)):
            sb = second_order_bound(3, x, 128)
            with mp.workprec(192):
                xv = mpf(x.numerator) / x.denominator
                expect = (xv**4 + xv**2 + 16) / (xv**5 + 2 * xv**3 + 12 * xv + 3 * mp.sqrt(xv**2 + 16))
                assert abs(sb.value - expect) < mpf(2) ** -118

    def test_odd_domain_error(self):
        with pytest.raises(DomainError):
            second_order_bound(1, -2, 128)
        with pytest.raises(DomainError):
            second_order_bound(3, -1, 128)  # beta_1 < 1


class TestBeta:
    def test_beta_zero_is_exactly_one(self):
        root = beta(0)
        assert root.value == 1

    def test_beta_one_value(self):
        root = beta(1)
        assert abs(root.value - mpf("0.871338")) < mpf("5e-6")

    def test_bracket_signs_are_exact(self):
        for m in range(1, 6):
            root = beta(m)
            a = quadratic_triple(2 * m + 1).a
            lo, hi = root.bracket
            assert a.eval_rational(lo) < 0 < a.eval_rational(hi)
            assert lo < hi
            assert 0 < root.value <= 1

    def test_tolerance_respected(self):
        root = beta(2, Fraction(1, 10**8))
        lo, hi = root.bracket
        assert hi - lo <= Fraction(1, 10**8)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            beta(1, Fraction(0))


class TestLogConvexity:
    def test_order_zero_at_zero(self):
        # phi(0)^2 - 1 = pi/2 - 1
        with mp.workprec(160):
            expect = mp.pi / 2 - 1
            assert abs(log_convexity_check(0, 0, 128) - expect) < mpf(2) ** -100

    def test_order_one_at_zero(self):
        with mp.workprec(160):
            expect = 2 - mp.pi / 2
            assert abs(log_convexity_check(1, 0, 128) - expect) < mpf(2) ** -100

    def test_order_three_positive(self):
        value = log_convexity_check(3, 1, 128)
        assert value > log_convexity_error(3, 1, 128)

    def test_positive_across_orders(self):
        for x in (Fraction(-3), Fraction(0), Fraction(2)):
            for n in range(8):
                assert log_convexity_check(n, x, 128) > 0


def _own(family: str, orders) -> list[int]:
    """orders, or a single-bound family's own order, the only one it takes."""
    order = FAMILIES[family].order
    return list(orders) if order is None else [order]


class TestCertificateProtocol:
    """Family.at and certify_grid check the requested precision, enter the
    working precision once and read phi once per point for the evaluators."""

    @pytest.mark.parametrize("bits", [8, 48, 63])
    def test_precision_below_the_floor_refused(self, bits):
        message = f"precision_bits must be >= 64, got {bits}"
        for fam in FAMILIES.values():
            with pytest.raises(ValueError) as exc:
                fam.at(2, Fraction(3, 2), bits)
            assert str(exc.value) == message
        with pytest.raises(ValueError) as exc:
            certify_grid("eq18", [0], [Fraction(1)], bits)
        assert str(exc.value) == message

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_certify_grid_reads_phi_once_per_point(self, monkeypatch, family):
        seen = []

        def counting(x, precision_bits, memo=None):
            seen.append(x)
            return phi_at(x, precision_bits, memo)

        phi_at = bounds.phi_at
        monkeypatch.setattr(bounds, "phi_at", counting)
        xs = [Fraction(k, 4) for k in range(1, 9)]
        assert certify_grid(family, _own(family, [0, 1, 2, 3]), xs, 96)
        assert seen == xs

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_certify_grid_runs_one_sweep_per_x(self, monkeypatch, family):
        # every order at a point reads one sweep of the P/Q recurrence, deep
        # enough for the highest order; Eq18 and Eq19 read it to order 2 and 3
        calls = []

        def counting(n, x):
            calls.append((n, x))
            return pq_sweep(n, x)

        pq_sweep = bounds.pq_sweep
        monkeypatch.setattr(bounds, "pq_sweep", counting)
        xs = [Fraction(k, 4) for k in range(1, 9)]
        assert certify_grid(family, _own(family, range(12)), xs, 96)
        depth = {"eq15": 23, "eq16": 12, "eq17": 13, "eq18": 2, "eq19": 3, "i": 13}
        assert calls == [(depth[family], x) for x in xs]

    def test_no_polynomial_is_evaluated(self, monkeypatch, capsys):
        # every exact value of a certificate, a bound, beta's sign queries,
        # the generating-function partial sum and `mills beta` comes from a
        # sweep, none from the polynomial tables
        def refuse(*args, **kwargs):
            raise AssertionError("values at a point must read the sweep, not the polynomial tables")

        monkeypatch.setattr(IntPolynomial, "eval_rational", refuse)
        monkeypatch.setattr(families, "quadratic_triple", refuse)
        monkeypatch.setattr(families, "pq_pair", refuse)
        for m in range(6):
            beta(m)
        for x, y in ((Fraction(2), Fraction(1, 3)), (Fraction(-7, 3), Fraction(-1, 5)), (0.5, Fraction(1, 4))):
            generating_function_residual(x, y, 30, 128)
        assert main(["beta", "--m", "3"]) == 0 and capsys.readouterr().out.startswith("m = 3\n")
        for x in (Fraction(-29), Fraction(-7, 3), Fraction(0), Fraction(1, 3), Fraction(29, 2)):
            for family, fam in FAMILIES.items():
                if fam.x_above is None or x > fam.x_above:
                    certify_grid(family, _own(family, range(8)), [x], 96)
            for n in range(8):
                log_convexity_check(n, x, 96)
                log_convexity_error(n, x, 96)
                phi_derivative(n, x, 96)
                if n % 2 == 0 or x > 0:
                    second_order_bound(n, x, 96)
                if x > 0:
                    first_order_enclosure(n, x, 96)
                    first_order_error_bound(n, x, 96)

    def test_no_mpf_division_on_the_certificate_path(self, monkeypatch):
        # every exact quotient is rounded by numutil.round_quotient, one
        # integer divmod; with phi memoized, no certificate divides mpfs
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return mpf_div(*args, **kwargs)

        xs = [Fraction(k, 4) for k in range(-116, 41, 7)] + [Fraction(0), Fraction(1, 3), Fraction(10)]
        memo = {}
        for x in xs:
            bounds.phi_at(x, 96, memo)
        mpf_div = libmpf.mpf_div
        monkeypatch.setattr(libmpf, "mpf_div", counting)
        for family, fam in FAMILIES.items():
            assert certify_grid(family, _own(family, range(8)), [x for x in xs if fam.x_above is None or x > fam.x_above], 96, memo)
        assert calls == []
        sources = sorted(Path(bounds.__file__).parent.glob("*.py"))
        assert len(sources) >= 9 and not [p.name for p in sources if "from_rational" in p.read_text()]

    def test_phi_memo_is_keyed_by_the_exact_x(self, monkeypatch):
        calls = []

        def counting(x, precision_bits):
            calls.append((x, precision_bits))
            return phi_series(x, precision_bits)

        monkeypatch.setattr(bounds, "phi_series", counting)
        memo = {}
        values = [bounds.phi_at(x, 96, memo) for x in ("7/3", Fraction(7, 3), "14/6")]
        assert calls == [(Fraction(7, 3), 96 + GUARD_BITS)]
        assert values[0] is values[1] is values[2]
        for x in (2.5, "5/2", Fraction(5, 2), mpf(2.5)):
            bounds.phi_at(x, 96, memo)
        assert calls[1:] == [(Fraction(5, 2), 96 + GUARD_BITS)]
        assert set(memo) == {(Fraction(7, 3), 96 + GUARD_BITS), (Fraction(5, 2), 96 + GUARD_BITS)}

    @pytest.mark.parametrize("family,n", [(key, 2) for key in sorted(FAMILIES)] + [("i", 3)])
    def test_phi_on_the_wrong_side_fails(self, family, n):
        """The verdict rule's fail branch, reached with an oracle value on
        the wrong side of the shown bound; I_n_sharper does not read phi."""
        x, bits, fam = Fraction(3, 2), 96, FAMILIES[family]
        (order,) = _own(family, [n])
        shown, certs = fam.at(order, x, bits)
        assert certs[0].verdict == "pass"
        with mp.workprec(bits + GUARD_BITS):
            if family == "eq16":
                phi = shown["convergent"] + 2 * shown["error_bound"]
            elif family == "eq17":
                t = quadratic_triple(order)
                a, b = t.a.eval_rational(x), t.b.eval_rational(x)
                assert a > 0  # so A phi^2 - B phi + C = -Delta / (4A) < 0 at phi = B / (2A)
                vertex = b / (2 * a)
                phi = mpf(vertex.numerator) / vertex.denominator
            elif "lower" in shown:
                phi = shown["lower"] * (1 - mpf(2) ** -30)
            else:
                phi = shown["upper"] * (1 + mpf(2) ** -30)
        # planted where phi_at reads the oracle value of every certificate at (x, bits)
        _, certs = fam.at(order, x, bits, {(x, bits + GUARD_BITS): OracleValue(phi, mpf(2) ** -200, "series")})
        assert certs[0].verdict == "fail" and certs[0].margin < 0, certs[0]


class TestCertifyGrid:
    def test_eq15_certificates(self):
        certs = certify_grid("eq15", [1], [Fraction(1)], 128)
        assert len(certs) == 1
        c = certs[0]
        assert c.verdict == "pass"
        assert c.family == "Eq15"
        assert float(c.margin) == pytest.approx(0.75 - 0.65568, abs=1e-4)

    def test_i2_at_zero(self):
        certs = certify_grid("i", [2], [Fraction(0)], 128)
        main = [c for c in certs if c.family == "I_2"]
        assert main[0].verdict == "pass"
        with mp.workprec(160):
            expect = mp.sqrt(mp.pi / 2) - mp.sqrt(12) / 3
            assert abs(main[0].margin - expect) < mpf("1e-30")

    def test_eq18_at_zero(self):
        certs = certify_grid("eq18", [0], [Fraction(0)], 128)
        assert certs[0].verdict == "pass"
        with mp.workprec(160):
            assert abs(certs[0].margin - (mp.sqrt(mp.pi / 2) - 1)) < mpf("1e-30")

    def test_sharper_companions_emitted(self):
        certs = certify_grid("i", [2, 3], [Fraction(2)], 128)
        families = {c.family for c in certs}
        assert {"I_2", "I_3", "I_2_sharper", "I_3_sharper"} <= families
        assert all(c.verdict == "pass" for c in certs)

    def test_sorted_and_serializable(self):
        certs = certify_grid("eq16", [0, 1, 2], [Fraction(1), Fraction(1, 2)], 128)
        keys = [(c.family, c.n, c.x) for c in certs]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_order_does_not_depend_on_the_grid_order(self, family):
        xs = [Fraction(k, 4) for k in range(1, 9)]
        shuffled = xs[::-1][::2] + xs[::-1][1::2]
        certs = certify_grid(family, _own(family, [0, 1, 2, 3]), shuffled, 96)
        keys = [(c.family, c.n, c.x) for c in certs]
        assert keys == sorted(keys)
        assert certs == certify_grid(family, _own(family, [0, 1, 2, 3]), xs, 96)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            certify_grid("eq99", [0], [Fraction(1)], 128)

    @pytest.mark.parametrize("family", ["eq15", "eq16"])
    @pytest.mark.parametrize("x", [Fraction(0), Fraction(-1, 2), Fraction(-3)])
    def test_first_order_refuses_nonpositive_x(self, family, x):
        with pytest.raises(DomainError, match=rf"Eq1[56]: x must exceed 0, got x = {x}"):
            certify_grid(family, [1, 2], [Fraction(1), x], 128)

    @pytest.mark.parametrize("family,n", [("eq18", 3), ("eq19", 0), ("eq19", 5)])
    def test_single_bound_family_refuses_another_order(self, family, n):
        # as `mills bounds` does, with its words
        message = f"--family {family} has the fixed order {FAMILIES[family].order}, but --n is {n}"
        with pytest.raises(ValueError) as exc:
            FAMILIES[family].at(n, Fraction(1))
        assert str(exc.value) == message
        with pytest.raises(ValueError) as exc:
            certify_grid(family, [FAMILIES[family].order, n], [Fraction(1)])
        assert str(exc.value) == message

    def test_eq19_refuses_x_at_most_minus_one(self):
        with pytest.raises(DomainError, match="Eq19: x must exceed -1, got x = -1"):
            certify_grid("eq19", [1], [Fraction(-1)], 128)

    def test_no_orders_is_no_work(self, monkeypatch):
        # the request is still checked in full, but no phi and no sweep is read
        calls = []
        monkeypatch.setattr(bounds, "phi_series", lambda *args: calls.append(("phi_series", args)))
        monkeypatch.setattr(bounds, "pq_sweep", lambda *args: calls.append(("pq_sweep", args)))
        assert certify_grid("eq17", [], [1, 2, 3], 128) == []
        assert certify_grid("i", [], [Fraction(-40)], 96) == []
        assert calls == []
        with pytest.raises(DomainError, match="Eq15: x must exceed 0, got x = 0"):
            certify_grid("eq15", [], [Fraction(1), Fraction(0)], 128)
        with pytest.raises(ValueError, match="order must be non-negative"):
            certify_grid("eq17", [-1], [1], 128)
        with pytest.raises(ValueError, match="precision"):
            certify_grid("eq17", [], [1], 0)

    def test_second_order_skips_pairs_outside_an_order_domain(self):
        certs = certify_grid("i", [0, 1, 3], [Fraction(-2), Fraction(1)], 128)
        # x = -2 is outside the odd orders' domain, and x = 1 is the root of A_1
        assert {(c.family, c.x) for c in certs} == {
            ("I_0", -2), ("I_0", 1), ("I_0_sharper", 1), ("I_3", 1), ("I_3_sharper", 1),
        }

    def test_every_family_is_in_the_table(self):
        assert [fam.name for fam in FAMILIES.values()] == ["Eq15", "Eq16", "Eq17", "Eq18", "Eq19", "I"]
        for key, fam in FAMILIES.items():
            shown, certs = fam.at(*_own(key, [2]), Fraction(3, 2), 96)
            assert certs and all(c.verdict == "pass" for c in certs), key
            assert key == "eq17" or shown

    @pytest.mark.parametrize("key", sorted(FAMILIES))
    def test_at_reads_x_like_certify_grid(self, key):
        fam = FAMILIES[key]
        for spelled, exact in (("7/3", Fraction(7, 3)), (Fraction(7, 3), Fraction(7, 3)), (2.5, Fraction(5, 2))):
            got, want = fam.at(*_own(key, [2]), spelled, 96), fam.at(*_own(key, [2]), exact, 96)
            assert got == want, (key, spelled)
            assert all(type(c.x) is Fraction for c in got[1]), (key, spelled)

    def test_first_order_bounds_do_not_evaluate_the_polynomial_tables(self, monkeypatch):
        # every first-order convergent and error bound comes from the sweep
        def refuse(*args, **kwargs):
            raise AssertionError("first-order bounds must not evaluate pq_pair")

        monkeypatch.setattr(families, "pq_pair", refuse)
        monkeypatch.setattr(IntPolynomial, "eval_rational", refuse)
        for x in (Fraction(1, 10), Fraction(7, 3), Fraction(29, 2)):
            for n in (0, 1, 7):
                first_order_enclosure(n, x, 128)
                first_order_error_bound(n, x, 128)
            for family in ("eq15", "eq16", "i"):
                assert certify_grid(family, [0, 1, 2, 7], [x], 128)


def _conv(n: int, x: Fraction) -> Fraction:
    """Q_n(x)/P_n(x) for x > 0 from the polynomial tables (Q_0/P_0 = 0),
    independent of cf_convergent, which the bounds use."""
    pair = pq_pair(n)
    return pair.q.eval_rational(x) / pair.p.eval_rational(x)


def _true_margin(cert, sb_value, x: Fraction, phi: mpf):
    """The certificate's inequality, as (left side - right side) with the
    reference phi and exact polynomial values: positive iff it is true."""
    n, family = cert.n, cert.family
    if family == "Eq16":
        bound = Fraction(factorial(n)) / (pq_pair(n).p.eval_rational(x) * pq_pair(n + 1).p.eval_rational(x))
        return bound - abs(to_fraction(phi) - _conv(n, x))
    if family == "Eq17":
        t = quadratic_triple(n)
        a, b, c = (poly.eval_rational(x) for poly in (t.a, t.b, t.c))
        phi_q = to_fraction(phi)
        return a * phi_q * phi_q - b * phi_q + c
    if family.endswith("_sharper"):
        return (to_fraction(sb_value) - _conv(n, x)) * (1 if n % 2 == 0 else -1)
    return None  # Eq15, Eq18, Eq19, I_n: the returned bound values are checked directly


def _refusal(family: str, n: int, x: Fraction):
    """The error the family raises at (n, x), or None where its bound is stated."""
    fam, a = FAMILIES[family], quadratic_triple(n).a
    if fam.x_above is not None and x <= fam.x_above:
        return DomainError
    if family == "i" and n % 2 == 1 and x < 0 and a.eval_rational(-x) >= 0:
        return DomainError
    if family == "i" and a.eval_rational(x) == 0:
        return SingularityError
    return None


def _check_point(family: str, n: int, x: Fraction, bits: int, phi: mpf | None = None):
    """Every bound value a family returns at (n, x) is a bound on phi, every
    'pass' certificate states a true inequality, and points outside the
    family's domain are refused.  phi defaults to phi_reference(x)."""
    fam, (n,) = FAMILIES[family], _own(family, [n])
    phi = phi_reference(x) if phi is None else phi
    refusal = _refusal(family, n, x)
    if refusal is not None:
        with pytest.raises(refusal):
            fam.at(n, x, bits)
        return
    shown, certs = fam.at(n, x, bits)
    _check_sides(shown, n, x, phi)
    for cert in certs:
        if cert.verdict == "pass":
            true = _true_margin(cert, shown.get("lower", shown.get("upper")), x, phi)
            assert true is None or true > 0, cert


def _check_sides(shown: dict, n: int, x: Fraction, phi: mpf):
    """Each shown lower (upper) value is below (above) phi, and Eq16's error
    bound exceeds the convergent's true error."""
    assert "lower" not in shown or shown["lower"] < phi, (n, x, shown)
    assert "upper" not in shown or shown["upper"] > phi, (n, x, shown)
    if "error_bound" in shown:
        assert to_fraction(shown["error_bound"]) > abs(to_fraction(phi) - _conv(n, x)), (n, x, shown)


def _check_values(n: int, x: Fraction, bits: int, phi: mpf):
    """Every value Family.bound and the five public bound functions return
    at (n, x) and bits is on its side of phi; both refuse where at does.
    Eq15 and Eq16 take n modulo 21."""
    for family, fam in FAMILIES.items():
        (m,) = _own(family, [n % 21 if family in ("eq15", "eq16") else n])
        public = {
            "eq15": lambda: (lambda e: {"lower": e.lower, "upper": e.upper})(first_order_enclosure(m, x, bits)),
            "eq16": lambda: {"error_bound": first_order_error_bound(m, x, bits)},
            "eq17": lambda: {},
            "eq18": lambda: {"lower": komatsu_lower(x, bits)},
            "eq19": lambda: {"upper": szarek_werner_upper(x, bits)},
            "i": lambda: (lambda sb: {sb.role: sb.value})(second_order_bound(m, x, bits)),
        }[family]
        refusal = _refusal(family, m, x)
        for read in (lambda: fam.bound(m, x, bits), public):
            if refusal is not None:
                with pytest.raises(refusal):
                    read()
            else:
                _check_sides(read(), m, x, phi)


@st.composite
def signed_grid_points(draw):
    """x in [-30, 30] with a denominator of at most 128."""
    den = draw(st.integers(min_value=1, max_value=128))
    return Fraction(draw(st.integers(min_value=-ENVELOPE * den, max_value=ENVELOPE * den)), den)


SOUNDNESS_POINTS = [Fraction(1), Fraction(-1), Fraction(2901, 101)]


class TestSoundness:
    """Bounds and verdicts checked against mpmath's erfc at >= 600 bits, at
    64, 128 and 256 bits, for orders up to 40 (20 for first-order families)."""

    @settings(max_examples=120, deadline=None)
    @given(
        st.sampled_from(sorted(FAMILIES)),
        st.integers(min_value=0, max_value=40),
        signed_grid_points(),
        st.sampled_from([64, 128, 256]),
    )
    def test_every_family_on_seeded_points(self, family, n, x, bits):
        _check_point(family, n % 21 if family in ("eq15", "eq16") else n, x, bits)

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(sorted(FAMILIES)),
        st.integers(min_value=0, max_value=40),
        signed_grid_points(),
        st.integers(min_value=64, max_value=1024),
    )
    def test_every_value_and_verdict_at_any_precision(self, family, n, x, bits):
        # any p in [64, 1024], not only multiples of 32, against a reference
        # 800 bits finer than p: every value Family.at, Family.bound and the
        # public bound functions return is on its side of phi, and every
        # pass states a true inequality
        phi = phi_reference(x, bits + 800)
        _check_point(family, n % 21 if family in ("eq15", "eq16") else n, x, bits, phi)
        _check_values(n, x, bits, phi)

    @pytest.mark.parametrize("bits", [64, 128, 256])
    @pytest.mark.parametrize("x", SOUNDNESS_POINTS, ids=str)
    def test_every_family_at_fixed_points(self, x, bits):
        for family in sorted(FAMILIES):
            for n in _own(family, (0, 1, 2, 3, 5, 12, 20) + ((24, 31, 40) if family in ("eq17", "i") else ())):
                _check_point(family, n, x, bits)

    @settings(max_examples=120, deadline=None)
    @given(st.integers(min_value=0, max_value=40), signed_grid_points(), st.sampled_from([64, 128, 256]))
    def test_library_bounds_at_requested_precision(self, n, x, bits):
        phi = phi_reference(x)
        assert komatsu_lower(x, bits) < phi
        if x > -1:
            assert szarek_werner_upper(x, bits) > phi
        a = quadratic_triple(n).a
        if n % 2 == 1 and x < 0 and a.eval_rational(-x) >= 0:
            with pytest.raises(DomainError):
                second_order_bound(n, x, bits)
        elif a.eval_rational(x) == 0:
            with pytest.raises(SingularityError):
                second_order_bound(n, x, bits)
        else:
            sb = second_order_bound(n, x, bits)
            assert sb.value < phi if sb.role == "lower" else sb.value > phi

    @pytest.mark.parametrize("bits", [64, 128, 256])
    @pytest.mark.parametrize("n", [12, 20, 24, 40])
    @pytest.mark.parametrize("x", SOUNDNESS_POINTS, ids=str)
    def test_second_order_bound_at_fixed_points(self, x, n, bits):
        phi = phi_reference(x)
        sb = second_order_bound(n, x, bits)
        assert sb.value < phi if sb.role == "lower" else sb.value > phi

    @pytest.mark.parametrize("bits", [64, 128, 256])
    def test_singularity_exactly_at_the_root_of_a1(self, bits):
        with pytest.raises(SingularityError, match="exactly 0"):
            second_order_bound(1, 1, bits)


class TestPhiDerivative:
    """phi^(n) = P_n phi - Q_n within 2^-p of its value from mpmath's erfc."""

    @staticmethod
    def _check(n, x, bits):
        pair = pq_pair(n)
        p, q = pair.p.eval_rational(x), pair.q.eval_rational(x)
        value = phi_derivative(n, x, bits)
        with mp.workprec(2048 + (1024 if x < 0 else 0)):
            ref = mpf(p.numerator) / p.denominator * phi_reference(x) - mpf(q.numerator) / q.denominator
            assert abs(value - ref) < mpf(2) ** -bits, f"n={n}, x={x}, bits={bits}"

    @settings(max_examples=120, deadline=None)
    @given(st.integers(min_value=0, max_value=40), signed_grid_points(), st.sampled_from([64, 128, 256]))
    def test_absolute_error_below_two_to_minus_p(self, n, x, bits):
        self._check(n, x, bits)

    @pytest.mark.parametrize("bits", [64, 128, 256])
    @pytest.mark.parametrize("n,x", [(40, Fraction(30)), (30, Fraction(20)), (40, Fraction(-30)), (17, Fraction(-3839, 128))])
    def test_cancelling_points(self, n, x, bits):
        # at n = 40, x = 30, P_n(x) phi(x) and Q_n(x) are near 2^192 and their
        # difference near 2^-43: about 235 bits cancel
        self._check(n, x, bits)


@pytest.mark.parametrize(
    "call,error,text",
    [
        (lambda: phi_series(31), EnvelopeError, "|x| must be <= 30, got x = 31"),
        (lambda: phi_quadrature(Fraction(-61, 2)), EnvelopeError, "|x| must be <= 30, got x = -61/2"),
        (lambda: first_order_enclosure(1, 0), DomainError, "Eq15: x must exceed 0, got x = 0"),
        (lambda: first_order_error_bound(1, Fraction(-1, 3)), DomainError, "Eq16: x must exceed 0, got x = -1/3"),
        (lambda: szarek_werner_upper(Fraction(-3, 2)), DomainError, "Eq19: x must exceed -1, got x = -3/2"),
        (lambda: second_order_bound(3, -1), DomainError, "order 3 upper bound requires x > -beta_1, got x = -1"),
        (lambda: second_order_bound(-2, 1), ValueError, "order must be non-negative, got n = -2"),
        (lambda: beta(-1), ValueError, "index must be non-negative, got m = -1"),
        (lambda: beta(1.0), ValueError, "index must be an integer, got m = 1.0"),
        (lambda: beta(False), ValueError, "index must be an integer, got m = False"),
        (lambda: phi_derivative(2.0, 1), ValueError, "order must be an integer, got n = 2.0"),
        (lambda: phi_derivative(True, 1), ValueError, "order must be an integer, got n = True"),
        (lambda: pq_sweep(3.0, 1), ValueError, "order must be an integer, got n = 3.0"),
        (lambda: beta(1, 0), ValueError, "tolerance must be positive, got tolerance = 0"),
        (lambda: cf_b(-3), ValueError, "index must be non-negative, got n = -3"),
        (lambda: cf_convergent(2, Fraction(-1, 2)), DomainError, "expansion is stated for x > 0, got x = -1/2"),
        (lambda: cf_ladder_eval(0, 1, 128), ValueError, "depth must be >= 1, got depth = 0"),
        (lambda: expansion_str(0), ValueError, "count must be >= 1, got count = 0"),
        (lambda: cf_ladder_eval(3, -2, 128), DomainError, "ladder is stated for x > 0, got x = -2"),
        (lambda: pq_pair(-1), ValueError, "order must be non-negative, got n = -1"),
        (lambda: q_closed_form(0), ValueError, "order must be >= 1, got n = 0"),
        (lambda: generating_function_residual(2, Fraction(1, 3), 0, 128), ValueError, "terms must be >= 1, got terms = 0"),
        (lambda: generating_function_residual(2, -1, 20, 128), ValueError, "|y| must be < 1, got y = -1"),
        (lambda: verify_identities(0), ValueError, "n_max must be >= 1, got n_max = 0"),
        (lambda: parse_grid("1:2"), ArgumentTypeError, "grid must be start:stop:step, got '1:2'"),
        (lambda: parse_grid("2:1:0"), ArgumentTypeError, "grid step must be positive, got step = 0"),
        (lambda: cmd_cf(Namespace(x=Fraction(0), depth=3, precision=128, digits=5)), DomainError,
         "cf requires x > 0, got x = 0"),
    ],
)
def test_errors_name_their_input(call, error, text):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == text


@pytest.mark.parametrize(
    "call",
    [
        lambda: first_order_enclosure(-1, 1),
        lambda: first_order_error_bound(-1, 1),
        lambda: second_order_bound(-1, 1),
        lambda: log_convexity_check(-1, 1),
        lambda: phi_derivative(-1, 1),
        *(lambda key=key: FAMILIES[key].bound(-1, 1) for key in FAMILIES if FAMILIES[key].order is None),
    ],
)
def test_negative_order_refused(call):
    # every order check is numutil.check_index's
    with pytest.raises(ValueError, match="order must be non-negative"):
        call()


# every public function that takes an order, index or count, with the name
# its refusal gives that argument; hankel, quadratic_form and log_convexity
# take n as a place in tables the caller formed, and are not listed
COUNTED = [
    pytest.param(call, name, id=ident)
    for ident, call, name in [
        ("pq_pair", pq_pair, "n"),
        ("p_closed_form", p_closed_form, "n"),
        ("q_closed_form", q_closed_form, "n"),
        ("q_coefficient_form", q_coefficient_form, "n"),
        ("quadratic_triple", quadratic_triple, "n"),
        ("a_closed_form", a_closed_form, "n"),
        ("discriminant", discriminant, "n"),
        ("generating_function_residual", lambda v: generating_function_residual(2, Fraction(1, 3), v, 128), "terms"),
        ("verify_identities", verify_identities, "n_max"),
        ("cf_b", cf_b, "n"),
        ("pq_sweep", lambda v: pq_sweep(v, 1), "n"),
        ("cf_convergent", lambda v: cf_convergent(v, 1), "n"),
        ("cf_ladder_eval", lambda v: cf_ladder_eval(v, 1, 128), "depth"),
        ("expansion_str", expansion_str, "count"),
        ("nstr_fixed", lambda v: nstr_fixed(Fraction(1, 3), v), "digits"),
        ("nstr_ceiling", lambda v: nstr_ceiling(Fraction(1, 3), v), "digits"),
        ("phi_derivative", lambda v: phi_derivative(v, 1), "n"),
        ("beta", beta, "m"),
        ("first_order_enclosure", lambda v: first_order_enclosure(v, 1), "n"),
        ("first_order_error_bound", lambda v: first_order_error_bound(v, 1), "n"),
        ("second_order_bound", lambda v: second_order_bound(v, 1), "n"),
        ("log_convexity_check", lambda v: log_convexity_check(v, 1), "n"),
        ("log_convexity_error", lambda v: log_convexity_error(v, 1), "n"),
        ("certify_grid", lambda v: certify_grid("i", [v], [Fraction(1)]), "n"),
        ("Family.bound", lambda v: FAMILIES["i"].bound(v, 1), "n"),
        ("Family.at", lambda v: FAMILIES["i"].at(v, 1), "n"),
    ]
]


@pytest.mark.parametrize("value", [True, 2.0, "3"])
@pytest.mark.parametrize("call,name", COUNTED)
def test_a_count_that_is_not_an_int_is_refused_by_name(call, name, value):
    # a bool is not read as 0 or 1, and a float or a string gets the same
    # refusal, naming the argument, as every other non-int (numutil.check_index)
    with pytest.raises(ValueError) as exc:
        call(value)
    assert str(exc.value).endswith(f" must be an integer, got {name} = {value!r}")


def test_bound_values_read_one_sweep_and_no_oracle(monkeypatch):
    # the five public bound functions and every row's Family.bound form their
    # values from one sweep, and a point query reads phi only where it asks
    def refuse(*args, **kwargs):
        raise AssertionError("the value path read the oracle")

    x, sweep, depths = Fraction(7, 4), bounds.pq_sweep, []
    monkeypatch.setattr(bounds, "phi_series", refuse)
    monkeypatch.setattr(bounds, "phi_at", refuse)
    monkeypatch.setattr(bounds, "pq_sweep", lambda n, x: depths.append(n) or sweep(n, x))
    calls = [
        lambda: first_order_enclosure(3, x),
        lambda: first_order_error_bound(3, x),
        lambda: komatsu_lower(-x),
        lambda: szarek_werner_upper(x),
        lambda: second_order_bound(3, x),
        lambda: second_order_bound(4, -x),
        *(lambda key=key: FAMILIES[key].bound(*_own(key, [2]), x) for key in FAMILIES),
    ]
    for call in calls:
        depths.clear()
        call()
        assert len(depths) == 1


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_at_rounds_each_value_once(monkeypatch, family):
    # Family.at passes the values it shows to the row's certificates, so
    # one point rounds each shown value, each margin and Eq17's error once
    calls, rounding = [], bounds.round_quotient
    monkeypatch.setattr(bounds, "round_quotient", lambda *args: calls.append(args) or rounding(*args))
    for x in (Fraction(1, 3), Fraction(5, 2)):
        for n in _own(family, [0, 2, 3]):
            calls.clear()
            shown, certs = FAMILIES[family].at(n, x, 96)
            assert len(calls) == len(shown) + len(certs) + (family == "eq17"), (n, x)


def test_bound_shows_what_at_shows():
    # at p + GUARD_BITS, Family.bound gives the values Family.at shows at p
    for key, fam in FAMILIES.items():
        for x in (Fraction(-5, 2), Fraction(1, 3), Fraction(29, 2)):
            for n in _own(key, [0, 3, 6]):
                if _refusal(key, n, x) is None:
                    assert fam.bound(n, x, 97 + GUARD_BITS) == fam.at(n, x, 97)[0], (key, n, x)


@pytest.mark.parametrize("bits", [100.5, 128.0, "128", True])
def test_non_integer_precision_refused(bits):
    message = f"precision_bits must be an integer, got {bits!r}"
    calls = [
        lambda: komatsu_lower(1, bits),
        lambda: second_order_bound(2, 1, bits),
        lambda: first_order_enclosure(1, 1, bits),
        lambda: phi_derivative(1, 1, bits),
        lambda: log_convexity_check(1, 1, bits),
        lambda: certify_grid("eq18", [0], [Fraction(1)], bits),
        lambda: FAMILIES["i"].at(2, Fraction(1), bits),
        lambda: phi_series(1, bits),
        lambda: cf_ladder_eval(3, 1, bits),
        lambda: pq_pair(3).p.horner_error_bound(1, bits),
    ]
    for call in calls:
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message


def _routes(family: str, n, x, bits) -> list:
    """Every way in to a family's request (n, x, bits): Family.bound,
    Family.at, certify_grid, the row's public function where it takes this
    n (Eq18 and Eq19 take their own order only, True not as 1), and for Eq17
    the log-convexity pair."""
    fam = FAMILIES[family]
    public = {
        "eq15": [lambda: first_order_enclosure(n, x, bits)],
        "eq16": [lambda: first_order_error_bound(n, x, bits)],
        "eq17": [lambda: log_convexity_check(n, x, bits), lambda: log_convexity_error(n, x, bits)],
        "eq18": [lambda: komatsu_lower(x, bits)],
        "eq19": [lambda: szarek_werner_upper(x, bits)],
        "i": [lambda: second_order_bound(n, x, bits)],
    }[family]
    routes = [lambda: fam.bound(n, x, bits), lambda: fam.at(n, x, bits), lambda: certify_grid(family, [n], [x], bits)]
    return routes + (public if fam.order is None or (type(n) is int and n == fam.order) else [])


REFUSALS = [
    *((family, _own(family, [2])[0], Fraction(1), 128.0, ValueError, "precision_bits must be an integer, got 128.0")
      for family in sorted(FAMILIES)),
    *((family, -1, Fraction(1), 128, ValueError, "order must be non-negative, got n = -1") for family in sorted(FAMILIES)),
    *((family, 2.0, Fraction(1), 128, ValueError, "order must be an integer, got n = 2.0") for family in sorted(FAMILIES)),
    *((family, True, Fraction(1), 128, ValueError, "order must be an integer, got n = True") for family in sorted(FAMILIES)),
    ("eq18", 2, Fraction(1), 128, ValueError, "--family eq18 has the fixed order 0, but --n is 2"),
    ("eq15", 1, Fraction(0), 128, DomainError, "Eq15: x must exceed 0, got x = 0"),
]


@pytest.mark.parametrize("family,n,x,bits,error,message", REFUSALS)
def test_one_refusal_on_every_route(family, n, x, bits, error, message):
    # Family.checked is the one refusal point: each route raises the same
    # exception with the same message, before any value is formed
    routes = _routes(family, n, x, bits)
    assert len(routes) >= 3
    for route in routes:
        with pytest.raises(Exception) as exc:
            route()
        assert (type(exc.value), str(exc.value)) == (error, message)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=12), signed_grid_points(), st.integers(min_value=64, max_value=1024))
def test_log_convexity_pair_reads_the_eq17_certificate(n, x, bits):
    (cert,) = certify_grid("eq17", [n], [x], bits)
    assert log_convexity_check(n, x, bits) == cert.margin
    assert log_convexity_error(n, x, bits) == cert.threshold


def _error(c, ov: OracleValue) -> mpf:
    """The derived error of certificate c's margin against ov: 0 for an
    exact margin, Eq17's Taylor error, or else ov's error bound."""
    if c.family.endswith("_sharper"):
        return mpf(0)
    if c.family == "Eq17":
        return mp.make_mpf(bounds.log_convexity(c.n, c.x, ov, c.precision_bits, bounds._Sweep(c.n + 2, c.x))[1])
    return ov.error_bound


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_verdict_is_margin_above_threshold(family):
    # with the oracle's error bound, and with one of 2^20 that no margin
    # exceeds, so both verdicts are reached; the threshold is the error
    fam, orders, verdicts = FAMILIES[family], _own(family, [0, 1, 2, 3, 7]), set()
    xs = [x for x in (Fraction(-5, 2), Fraction(1, 3), Fraction(3, 2), Fraction(29, 2))
          if fam.x_above is None or x > fam.x_above]
    for bits in (64, 200):
        memo = {}
        certs = certify_grid(family, orders, xs, bits, memo)
        loose = {}  # planted where phi_at reads the oracle value of every certificate at (x, bits)
        for x in xs:
            ov = memo[x, bits + GUARD_BITS]
            loose[x, bits + GUARD_BITS] = OracleValue(ov.value, mpf(2) ** 20, ov.method)
        certs = [(c, memo) for c in certs] + [(c, loose) for c in certify_grid(family, orders, xs, bits, loose)]
        for c, read in certs:
            assert c.threshold == _error(c, read[c.x, bits + GUARD_BITS]), c
            assert (c.verdict == "pass") == (c.margin > c.threshold), c
            verdicts.add(c.verdict)
    assert verdicts == {"pass", "fail"}


@pytest.mark.parametrize("bits", [64, 128])
def test_margin_one_ulp_above_its_error_passes(bits):
    # a margin rounded down is at most its exact value, so one w-bit ulp
    # above the error is enough; an equal margin is not
    w = bits + GUARD_BITS
    for error in (mpf(2) ** -150, mpf(3) * mpf(2) ** -200, phi_series(Fraction(1, 3), w).error_bound):
        above = mp.fadd(error, mp.ldexp(1, mp.mag(error) - w), exact=True)
        assert error < above == mp.fadd(above, 0, prec=w)  # the next w-bit number
        cert = bounds._cert("Eq15", 0, Fraction(1, 3), above._mpf_, error._mpf_, bits)  # raw margin and error
        assert (cert.verdict, cert.margin, cert.threshold) == ("pass", above, error)
        assert bounds._cert("Eq15", 0, Fraction(1, 3), error._mpf_, error._mpf_, bits).verdict == "fail"


@pytest.mark.parametrize("bits", [64, 128])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_at_and_certify_grid_agree(family, bits):
    """Family.at refuses exactly the (n, x) that certify_grid skips, and
    makes the certificates certify_grid makes at every other (n, x)."""
    fam, orders = FAMILIES[family], _own(family, range(7))
    xs = [x for x in grid_points(parse_grid("-2:2:1/2")) if fam.x_above is None or x > fam.x_above]
    made = {}
    for c in certify_grid(family, orders, xs, bits):
        made.setdefault((c.n, c.x), []).append(c)
    refused = 0
    for n in orders:
        for x in xs:
            try:
                _, certs = fam.at(n, x, bits)
            except (DomainError, SingularityError):
                refused += 1
                assert (n, x) not in made, (family, n, x)
            else:
                assert made.pop((n, x)) == certs, (family, n, x)
    assert not made
    assert refused > 0 if family == "i" else refused == 0


def _evaluations():
    """Every public evaluator at a few points, comparable with ==."""
    out = []
    for p in (64, 200):
        for x in (Fraction(-7, 3), Fraction(0), Fraction(5, 2)):
            out += [komatsu_lower(x, p), phi_series(x, p), phi_quadrature(x, p)]
            out += [second_order_bound(n, x, p) for n in (0, 2, 12)]
        out += [szarek_werner_upper(x, p) for x in (Fraction(-1, 2), Fraction(3))]
        out += [second_order_bound(n, Fraction(5, 3), p) for n in (1, 3, 13)]
        out += [first_order_enclosure(3, Fraction(7, 4), p), first_order_error_bound(3, Fraction(7, 4), p)]
        out += [phi_derivative(5, Fraction(-9, 4), p), phi_derivative(17, Fraction(3), p)]
        out += [log_convexity_check(3, 1, p), log_convexity_error(3, 1, p)]
        out += [cf_ladder_eval(12, Fraction(7, 5), p), generating_function_residual(2, Fraction(1, 3), 20, p)]
        out += [pq_pair(7).p.eval_real(Fraction(7, 3), p), pq_pair(7).p.horner_error_bound(Fraction(-7, 3), p)]
    out += [beta(2), beta(1, Fraction(1, 2**90))]
    for family, fam in sorted(FAMILIES.items()):
        xs = [x for x in (Fraction(-5, 2), Fraction(1, 3), Fraction(3, 2), Fraction(4))
              if fam.x_above is None or x > fam.x_above]
        out.append(certify_grid(family, _own(family, [0, 1, 2, 3]), xs, 96))
    wide = mp.fdiv(2, 3, prec=200, rounding="n")
    out += [nstr_fixed(wide, 20), nstr_fixed(wide, 3), nstr_fixed(Fraction(2, 3), 30)]
    return out


def test_results_do_not_depend_on_mpmath_precision():
    # every rounding names its precision: mpmath's process-wide mp.prec and
    # iv.prec change nothing
    expected = _evaluations()
    for bits in (20, 2000):
        with mp.workprec(bits):
            assert _evaluations() == expected, bits
    old = iv.prec
    iv.prec = 20
    try:
        assert _evaluations() == expected
    finally:
        iv.prec = old


def test_bounds_agree_with_themselves_across_threads():
    # four threads evaluate families and bounds at p = 64..256 while a fifth
    # keeps changing mpmath's process-wide precision: no result may differ
    # from a single-threaded call
    points = (Fraction(-7, 3), Fraction(1, 3), Fraction(5, 2), Fraction(12))
    cases = [(FAMILIES[family].at, n, x) for family in ("i", "eq17", "eq15") for n in (2, 3)
             for x in points if x > 0 or (family != "eq15" and n % 2 == 0)]
    cases += [(second_order_bound, n, x) for n in (2, 5) for x in points if n % 2 == 0 or x > 0]
    cases += [(log_convexity_error, 3, x) for x in points]
    cases = [(fn, n, x, p) for fn, n, x in cases for p in (64, 160, 256)]
    expected = [fn(n, x, p) for fn, n, x, p in cases]
    results = [[] for _ in range(4)]
    done = threading.Event()

    def worker(k):
        order = list(range(len(cases)))
        random.Random(k).shuffle(order)
        results[k] = sorted((i, cases[i][0](*cases[i][1:])) for i in order)

    def disturber():
        while not done.is_set():
            with mp.workprec(24):
                mp.exp(1)

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(results))]
    noise = threading.Thread(target=disturber)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        noise.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        done.set()
        noise.join(timeout=60)
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads + [noise])
    for got in results:
        assert got == list(enumerate(expected))


# SHA-256 over every certificate of `mills verify` with default grid and
# n-max, per precision: (family, n, x, margin, verdict, threshold), the two
# values as raw mpfs.  The report hashes show 20 printed digits; this shows
# every bit of every margin and threshold, 3574 certificates each.
_CERTIFICATE_BITS = {
    64: "802d9b96c2646329c8f6c0aa36f5a91992a9bcaa411ea5f85139999f4598ff89",
    128: "42fc163cd2fb705e095108f56cafc160c6f1b3d3d278372784ab1b162c0e9654",
    256: "a889fa4de6fb57a5e202856e2d88454a37e35856ba9e9d99f5b056681f3f0ac6",
}


@pytest.mark.parametrize("bits", sorted(_CERTIFICATE_BITS))
def test_verify_certificate_bits_are_pinned(bits):
    xs, memo, digest = grid_points(build_parser().parse_args(["verify"]).grid), {}, hashlib.sha256()
    for family, orders, grid in _verify_plan(xs):
        for c in certify_grid(family, list(orders), grid, bits, memo):
            raws = [(sign, int(man), exp, bc) for sign, man, exp, bc in (c.margin._mpf_, c.threshold._mpf_)]
            digest.update(repr((c.family, c.n, str(c.x), raws[0], c.verdict, raws[1])).encode())
    assert digest.hexdigest() == _CERTIFICATE_BITS[bits]
