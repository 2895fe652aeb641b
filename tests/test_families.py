import random
import subprocess
import sys
import threading
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

import millsratio.families as families
from millsratio.cli import _faulty_tables
from millsratio.errors import IdentityError
from millsratio.families import (
    a_closed_form,
    discriminant,
    generating_function_residual,
    p_closed_form,
    pq_pair,
    q_closed_form,
    q_coefficient_form,
    quadratic_form,
    quadratic_triple,
    verify_identities,
)
from millsratio.numutil import to_fraction, to_mpf
from millsratio.poly import IntPolynomial, ONE, X, ZERO

orders = st.integers(min_value=0, max_value=40)


def P(*coeffs):
    return IntPolynomial(list(reversed(coeffs)))


# Reference forms in Fraction arithmetic, term by term as the formulas are
# written; the library computes the same values in integers only.


def fraction_a_coefficient(n, m):
    """Coefficient of x^{2m} y^n in exp(y x^2 / (1-y)) / ((1+y) sqrt(1-y^2))."""
    if m == 0:
        return Fraction((-1) ** n * (n + 1) * comb(n, n // 2), 2**n)
    if m == 1:
        return Fraction((1 - (-1) ** n) * n * comb(n - 1, n // 2), 2**n)
    s = Fraction(0)
    for k in range((n - m) // 2 + 1):
        top = n - 2 * k - 2
        if top >= m - 2:
            s += Fraction(factorial(2 * k + 1), 2 ** (2 * k) * factorial(k) ** 2) * comb(top, m - 2)
    return s


def fraction_a_closed_form(n):
    values = [factorial(n) * fraction_a_coefficient(n, m) / factorial(m) for m in range(n + 1)]
    assert all(v.denominator == 1 for v in values)
    return IntPolynomial([int(values[k // 2]) if k % 2 == 0 else 0 for k in range(2 * n + 1)])


# Reference forms with a factorial for every term, as the formulas are
# written; the library builds the same coefficients by exact term ratios.


def factorial_p_closed_form(n):
    """P_n = sum_k n! / (2^k k! (n-2k)!) X^{n-2k}."""
    coeffs = [0] * (n + 1)
    for k in range(n // 2 + 1):
        coeffs[n - 2 * k] = factorial(n) // (2**k * factorial(k) * factorial(n - 2 * k))
    return IntPolynomial(coeffs)


def factorial_q_closed_form(n):
    """Q_n as the sum of (n-1-k)!/(n-1-2k)! P_{n-1-2k} over 0 <= 2k <= n-1."""
    m = n - 1
    coeffs = [0] * n
    for k in range(m // 2 + 1):
        scale = factorial(m - k) // factorial(m - 2 * k)
        for i, c in enumerate(factorial_p_closed_form(m - 2 * k).coeffs):
            coeffs[i] += scale * c
    return IntPolynomial(coeffs)


def factorial_q_coefficient_form(n):
    """The X^{m-2k} coefficient of Q_{m+1} as the integer
    sum_j (m-k+j)! 2^{k-j} k!/j! over 2^k k! (m-2k)!."""
    m = n - 1
    coeffs = [0] * (m + 1)
    for k in range(m // 2 + 1):
        kf = factorial(k)
        num = sum(factorial(m - k + j) * (kf // factorial(j)) << (k - j) for j in range(k + 1))
        coeffs[m - 2 * k], rem = divmod(num, (kf << k) * factorial(m - 2 * k))
        assert rem == 0
    return IntPolynomial(coeffs)


def corrupt_ratio(monkeypatch, what, n, k):
    """Make every ratio step of `what` at order n and index k divide by one
    more than its formula says, as a transcription bug in that ratio would."""
    step = families._ratio_step

    def corrupted(term, num, den, *where):
        return step(term, num, den + (where == (what, n, k)), *where)

    monkeypatch.setattr(families, "_ratio_step", corrupted)


def reference_verify_identities(n_max, tables):
    """The identity suite with its discriminant entry formed as written,
    B_n^2 - 4 A_n C_n from the triple quadratic_form builds, every closed
    form built anew; the library decides the same entries from the
    Wronskians and must give the same report."""
    p_tab, q_tab = tables
    report = []

    def entry(identity, n, ok):
        report.append({"identity": identity, "n": n, "status": "pass" if ok else "fail"})

    def closed(identity, form, n, expected):
        try:
            entry(identity, n, form(n) == expected)
        except IdentityError:
            entry(identity, n, False)

    for n in range(n_max + 1):
        p, q, p1, q1, p2, q2 = p_tab[n], q_tab[n], p_tab[n + 1], q_tab[n + 1], p_tab[n + 2], q_tab[n + 2]
        entry("P_next=X*P+P'", n, p1 == X * p + p.derivative())
        entry("Q_next=P+Q'", n, q1 == p + q.derivative())
        if n >= 1:
            entry("P_next=X*P+n*P_prev", n, p1 == X * p + n * p_tab[n - 1])
            entry("Q_next=X*Q+n*Q_prev", n, q1 == X * q + n * q_tab[n - 1])
            entry("P'=n*P_prev", n, p.derivative() == n * p_tab[n - 1])
            closed("Q_closed_sum_P", q_closed_form, n, q)
            closed("Q_closed_coeffs", q_coefficient_form, n, q)
        closed("P_closed_form", p_closed_form, n, p)
        sign, f2 = (-1) ** n, factorial(n) ** 2
        entry("wronskian_step1", n, q1 * p - p1 * q == IntPolynomial([sign * factorial(n)]))
        entry("wronskian_step2", n, q2 * p - p2 * q == IntPolynomial([0, sign * factorial(n)]))
        a, b, c = quadratic_form(p_tab, q_tab, n)
        entry("discriminant", n, b * b - 4 * (a * c) == IntPolynomial([f2 * (4 * n + 4), 0, f2]))
        closed("A_closed_form", a_closed_form, n, a)
    return report


def true_tables(n_max):
    pairs = [pq_pair(k) for k in range(n_max + 3)]
    return [pair.p for pair in pairs], [pair.q for pair in pairs]


def edited(poly, k, delta):
    """poly with delta added to its X^k coefficient (k may pass the degree)."""
    coeffs = list(poly.coeffs) + [0] * (k + 1 - len(poly.coeffs))
    coeffs[k] += delta
    return IntPolynomial(coeffs)


def fraction_q_coefficient_form(n):
    """The X^{m-2k} coefficient of Q_{m+1} is (1/(m-2k)!) sum_j (m-k+j)!/(2^j j!)."""
    m = n - 1
    coeffs = [0] * (m + 1)
    for k in range(m // 2 + 1):
        val = sum(Fraction(factorial(m - k + j), 2**j * factorial(j)) for j in range(k + 1)) / factorial(m - 2 * k)
        assert val.denominator == 1
        coeffs[m - 2 * k] = val.numerator
    return IntPolynomial(coeffs)


class TestPQPairs:
    def test_base_cases(self):
        assert pq_pair(0).p == P(1) and pq_pair(0).q == P(0)
        assert pq_pair(1).p == P(1, 0) and pq_pair(1).q == P(1)

    def test_reference_table(self):
        expected = {
            2: (P(1, 0, 1), P(1, 0)),
            3: (P(1, 0, 3, 0), P(1, 0, 2)),
            4: (P(1, 0, 6, 0, 3), P(1, 0, 5, 0)),
            5: (P(1, 0, 10, 0, 15, 0), P(1, 0, 9, 0, 8)),
        }
        for n, (p, q) in expected.items():
            pair = pq_pair(n)
            assert pair.p == p, f"P_{n}"
            assert pair.q == q, f"Q_{n}"

    @given(orders)
    def test_degrees_and_leading_coefficients(self, n):
        pair = pq_pair(n)
        assert pair.p.degree == n
        assert pair.p.coeffs[-1] == 1
        if n >= 1:
            assert pair.q.degree == n - 1
            assert pair.q.coeffs[-1] == 1

    @given(orders)
    def test_parity_and_positivity(self, n):
        pair = pq_pair(n)
        for k, c in enumerate(pair.p.coeffs):
            assert c >= 0
            if k % 2 != n % 2:
                assert c == 0
        for k, c in enumerate(pair.q.coeffs):
            assert c >= 0
            if n >= 1 and k % 2 != (n - 1) % 2:
                assert c == 0

    @given(st.integers(min_value=0, max_value=20))
    def test_even_orders_have_positive_floor(self, n):
        # constant coefficient of P_{2n} is (2n)!/(2^n n!); X coefficient of
        # P_{2n+1} is (2n+1)!/(2^n n!); all remaining coefficients are >= 0
        floor = factorial(2 * n) // (2**n * factorial(n))
        assert pq_pair(2 * n).p.coeffs[0] == floor
        assert pq_pair(2 * n + 1).p.coeffs[1] == (2 * n + 1) * floor

    def test_concurrent_readers_never_see_half_grown_tables(self):
        # fresh interpreter, and a reloaded (empty) memo each round, so every
        # round races the first builds of orders 0..200 against the readers
        script = (
            "import importlib, sys, threading\n"
            "import millsratio.families as families\n"
            "sys.setswitchinterval(1e-6)\n"
            "errors = []\n"
            "def worker():\n"
            "    try:\n"
            "        for n in range(201):\n"
            "            families.pq_pair(n)\n"
            "    except Exception as exc:\n"
            "        errors.append(type(exc).__name__)\n"
            "for _ in range(20):\n"
            "    importlib.reload(families)\n"
            "    threads = [threading.Thread(target=worker) for _ in range(4)]\n"
            "    for t in threads:\n"
            "        t.start()\n"
            "    for t in threads:\n"
            "        t.join()\n"
            "print(len(errors), sorted(set(errors)))\n"
        )
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "0 []"


class TestClosedForms:
    def test_p_closed_form(self):
        assert p_closed_form(0) == P(1)
        assert p_closed_form(4) == P(1, 0, 6, 0, 3)
        assert p_closed_form(6) == P(1, 0, 15, 0, 45, 0, 15)

    def test_q_closed_form(self):
        assert q_closed_form(1) == P(1)
        assert q_closed_form(4) == P(1, 0, 5, 0)
        assert q_closed_form(5) == P(1, 0, 9, 0, 8)

    @given(st.integers(min_value=1, max_value=40))
    def test_closed_forms_match_recurrence(self, n):
        assert p_closed_form(n) == pq_pair(n).p
        assert q_closed_form(n) == pq_pair(n).q
        assert q_coefficient_form(n) == pq_pair(n).q


class TestIntegerKernels:
    """The integer closed forms against their Fraction references."""

    def test_a_closed_form_matches_fraction_reference(self):
        for n in range(121):
            assert a_closed_form(n) == fraction_a_closed_form(n), n

    def test_q_coefficient_form_matches_fraction_reference(self):
        for n in range(1, 121):
            assert q_coefficient_form(n) == fraction_q_coefficient_form(n), n

    def test_ratio_forms_match_factorial_references(self):
        for n in range(121):
            assert p_closed_form(n) == factorial_p_closed_form(n), n
        for n in range(1, 121):
            assert q_closed_form(n) == factorial_q_closed_form(n), n
            assert q_coefficient_form(n) == factorial_q_coefficient_form(n), n

    def test_closed_forms_read_no_recurrence_table(self, monkeypatch):
        def refuse(n):
            raise AssertionError("a closed form read the recurrence")

        monkeypatch.setattr(families, "pq_pair", refuse)
        monkeypatch.setattr(families, "_P", [])
        monkeypatch.setattr(families, "_Q", [])
        for n in range(1, 41):
            assert p_closed_form(n) == factorial_p_closed_form(n), n
            assert q_closed_form(n) == factorial_q_closed_form(n), n
            assert q_coefficient_form(n) == factorial_q_coefficient_form(n), n
            assert a_closed_form(n) == fraction_a_closed_form(n), n

    def test_non_integral_p_coefficient_is_an_identity_error(self, monkeypatch):
        # the X^3 coefficient of P_5 is 1 * (5 * 4) / 2; dividing by 3 leaves 2
        corrupt_ratio(monkeypatch, "P coefficient", 5, 1)
        with pytest.raises(IdentityError, match=r"non-integral P coefficient at n=5, k=1"):
            p_closed_form(5)
        fails = [(e["identity"], e["n"]) for e in verify_identities(5) if e["status"] == "fail"]
        assert fails == [("P_closed_form", 5)]

    def test_non_integral_q_scale_is_an_identity_error(self, monkeypatch):
        # the scale 3!/2! of P_2 in Q_5 is 1 * (4 * 3) / 4; dividing by 5 leaves 2
        corrupt_ratio(monkeypatch, "Q scale", 5, 1)
        with pytest.raises(IdentityError, match=r"non-integral Q scale at n=5, k=1"):
            q_closed_form(5)
        fails = [(e["identity"], e["n"]) for e in verify_identities(5) if e["status"] == "fail"]
        assert fails == [("Q_closed_sum_P", 5)]

    def test_non_integral_a_coefficient_is_an_identity_error(self, monkeypatch):
        # the x^8 coefficient of A_5 is 5 * 3 / 1 = 15; dividing by 2 leaves 1
        corrupt_ratio(monkeypatch, "A coefficient", 5, 4)
        with pytest.raises(IdentityError, match=r"non-integral A coefficient at n=5, k=4"):
            a_closed_form(5)
        fails = [(e["identity"], e["n"]) for e in verify_identities(5) if e["status"] == "fail"]
        assert fails == [("A_closed_form", 5)]

    def test_non_integral_q_coefficient_is_an_identity_error(self, monkeypatch):
        # the factor 2!/1! of the X coefficient of Q_4 is 1 * (3 * 2) / 3;
        # dividing by 4 leaves 2, while its X^3 coefficient stays 1
        corrupt_ratio(monkeypatch, "Q coefficient", 4, 1)
        with pytest.raises(IdentityError, match=r"non-integral Q coefficient at n=4, k=1"):
            q_coefficient_form(4)
        fails = [(e["identity"], e["n"]) for e in verify_identities(5) if e["status"] == "fail"]
        assert fails == [("Q_closed_coeffs", 4)]

    def test_a_and_q_coefficient_forms_do_o1_work_per_coefficient(self, monkeypatch):
        # one ratio step per coefficient of A_n below its leading 1, and three
        # per coefficient of Q_n (its scale, its binomial, its division by
        # 2^k) but one for the leading coefficient: no inner sum
        steps = []
        step = families._ratio_step

        def counting(term, num, den, what, n, k):
            steps.append(what)
            return step(term, num, den, what, n, k)

        monkeypatch.setattr(families, "_ratio_step", counting)
        for n in (1, 2, 7, 30, 61, 96):
            steps.clear()
            a_closed_form(n)
            assert steps == ["A coefficient"] * n, n
            steps.clear()
            q_coefficient_form(n)
            assert steps == ["Q coefficient"] * (3 * ((n - 1) // 2) + 1), n


class TestQuadraticTriple:
    def test_concurrent_first_builds_agree(self):
        # the triples read the P/Q tables to order 91; the threads race to
        # grow them wherever no earlier test has
        orders = list(range(70, 90))
        results = [[] for _ in range(6)]

        def worker(k):
            for n in orders[k % 2 :: 2] + orders[1 - k % 2 :: 2]:
                results[k].append(quadratic_triple(n))

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(results))]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        for got in results:
            assert len(got) == len(orders)
            for triple in got:
                assert triple == quadratic_triple(triple.n)
        assert quadratic_triple(80).a == a_closed_form(80)

    def test_order_zero(self):
        t = quadratic_triple(0)
        assert t.a == P(1)
        assert t.b == P(-1, 0)
        assert t.c == P(-1)

    def test_order_one(self):
        t = quadratic_triple(1)
        assert t.a == P(1, 0, -1)
        assert t.b == P(3, 0)
        assert t.c == P(2)

    def test_order_two(self):
        t = quadratic_triple(2)
        assert t.a == P(1, 0, 0, 0, 3)
        assert t.b == P(2, 0, -4, 0)
        assert t.c == P(1, 0, -4)

    def test_a_closed_form_examples(self):
        assert a_closed_form(1) == P(1, 0, -1)
        assert a_closed_form(2) == quadratic_triple(2).a
        assert a_closed_form(3) == P(1, 0, 3, 0, 9, 0, -9)

    @given(orders)
    def test_a_closed_form_matches_definition(self, n):
        assert a_closed_form(n) == quadratic_triple(n).a

    @given(st.integers(min_value=0, max_value=15))
    def test_a_polynomial_structure(self, n):
        odd_prod = lambda m: 1 if m == 0 else odd_prod(m - 1) * (2 * m - 1) ** 2
        even = quadratic_triple(2 * n).a
        assert even.degree == 4 * n
        assert all(c >= 0 for c in even.coeffs)
        assert all(c == 0 for k, c in enumerate(even.coeffs) if k % 2)
        assert even.coeffs[0] == (2 * n + 1) * odd_prod(n)
        odd = quadratic_triple(2 * n + 1).a
        assert odd.degree == 4 * n + 2
        assert odd.coeffs[0] == -odd_prod(n + 1)
        assert all(c >= 0 for k, c in enumerate(odd.coeffs) if k > 0)
        assert all(c == 0 for k, c in enumerate(odd.coeffs) if k % 2)

    def test_a_sign_structure(self):
        # the pattern beta and the I family's domain assume, by Descartes's
        # rule of signs on A_n as a polynomial in y = x^2: A_{2m} > 0 on R,
        # and A_{2m+1} has one positive root, in ]0, 1] as A_{2m+1}(1) >= 0
        for n in range(161):
            ys = a_closed_form(n).coeffs[::2]
            signs = [c > 0 for c in ys if c]
            changes = sum(a != b for a, b in zip(signs, signs[1:]))
            if n % 2:
                assert (changes, ys[0] < 0, sum(ys) >= 0) == (1, True, True), n
            else:
                assert (changes, ys[0] > 0) == (0, True), n


class TestDiscriminant:
    @pytest.mark.parametrize(
        "n,expected",
        [(0, P(1, 0, 4)), (1, P(1, 0, 8)), (2, P(4, 0, 48))],
    )
    def test_small_orders(self, n, expected):
        assert discriminant(n) == expected

    @given(orders)
    def test_closed_form(self, n):
        f2 = factorial(n) ** 2
        assert discriminant(n) == IntPolynomial([f2 * (4 * n + 4), 0, f2])


def triple_partial_sum_residual(x, y, terms: int, precision_bits: int) -> mpf:
    """generating_function_residual with its partial sum formed from the
    polynomial triples, each A_n evaluated at x with eval_rational."""
    x, y = to_fraction(x), to_fraction(y)
    partial = sum(quadratic_triple(n).a.eval_rational(x) * y**n / factorial(n) for n in range(terms))
    p, rn = precision_bits, {"prec": precision_bits, "rounding": "n"}
    xv, yv = to_mpf(x, p), to_mpf(y, p)
    exponent = mp.fdiv(mp.fmul(mp.fmul(yv, xv, **rn), xv, **rn), mp.fsub(1, yv, **rn), **rn)
    scale = mp.fmul(mp.fadd(1, yv, **rn), mp.sqrt(mp.fsub(1, mp.fmul(yv, yv, **rn), **rn), **rn), **rn)
    residual = mp.fsub(to_mpf(partial, p), mp.fdiv(mp.exp(exponent, **rn), scale, **rn), **rn)
    return mp.fneg(residual, exact=True) if residual < 0 else residual


class TestGeneratingFunction:
    @pytest.mark.parametrize(
        "x,y,terms,bits",
        [
            (Fraction(2), Fraction(1, 3), 60, 128),
            (Fraction(2), Fraction(-1, 3), 60, 128),
            (Fraction(-7, 3), Fraction(1, 4), 40, 192),
            (Fraction(-1, 2), Fraction(-3, 5), 25, 64),
            (0.3, Fraction(-1, 7), 20, 128),
            (-1.75, 0.125, 33, 256),
            (Fraction(0), Fraction(1, 2), 1, 64),
            (Fraction(5, 2), Fraction(9, 10), 2, 96),
        ],
    )
    def test_sweep_partial_sum_matches_the_triples(self, x, y, terms, bits):
        got, want = generating_function_residual(x, y, terms, bits), triple_partial_sum_residual(x, y, terms, bits)
        assert got == want and got.man_exp == want.man_exp, (x, y, terms, bits)

    def test_single_term_at_origin_is_exact(self):
        assert generating_function_residual(Fraction(0), Fraction(0), 1, 128) == 0

    def test_residual_small(self):
        r = generating_function_residual(Fraction(1), Fraction(1, 4), 40, 192)
        assert r < 2**-64

    def test_residual_small_negative_branch(self):
        r = generating_function_residual(Fraction(2), Fraction(-1, 4), 60, 192)
        assert r < 2**-64

    def test_residual_collapses_with_more_terms(self):
        r40 = generating_function_residual(Fraction(2), Fraction(1, 3), 40, 192)
        r80 = generating_function_residual(Fraction(2), Fraction(1, 3), 80, 192)
        assert r80 < r40 * 1e-4

    @pytest.mark.parametrize("x,y", [(mpf("0.5"), mpf("0.25")), (0.5, 0.25), ("1/2", "0.25"), ("0.5", "1/4")])
    def test_reads_x_and_y_like_the_bounds(self, x, y):
        expected = generating_function_residual(Fraction(1, 2), Fraction(1, 4), 5, 64)
        assert generating_function_residual(x, y, 5, 64) == expected

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            generating_function_residual(Fraction(1), Fraction(3, 2), 10, 128)
        with pytest.raises(ValueError):
            generating_function_residual(Fraction(1), Fraction(1, 2), 0, 128)


class TestDiscriminantByWronskians:
    """The suite decides B_n^2 - 4 A_n C_n = (n!)^2 (X^2 + 4n + 4) as
    W2_n^2 - 4 W_n W_{n+1}, W_k = Q_{k+1} P_k - P_{k+1} Q_k and
    W2_n = Q_{n+2} P_n - P_{n+2} Q_n."""

    polys = st.lists(st.integers(min_value=-(10**30), max_value=10**30), max_size=7).map(IntPolynomial)

    @settings(max_examples=300)
    @given(st.lists(polys, min_size=6, max_size=6), st.integers(min_value=0, max_value=3))
    def test_ring_identity_on_arbitrary_polynomials(self, six, n):
        # any six polynomials, not recurrence output, at orders n..n+2
        p, q = [ZERO] * n + six[0::2], [ONE] * n + six[1::2]
        a, b, c = quadratic_form(p, q, n)
        w0, w1, w2 = families._wronskian(p, q, n), families._wronskian(p, q, n + 1), families._wronskian(p, q, n, 2)
        assert w0 == q[n + 1] * p[n] - p[n + 1] * q[n] and w2 == q[n + 2] * p[n] - p[n + 2] * q[n]
        assert b * b - 4 * (a * c) == w2 * w2 - 4 * (w0 * w1)
        assert a == p[n] * p[n + 2] - p[n + 1] * p[n + 1] and c == q[n] * q[n + 2] - q[n + 1] * q[n + 1]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(polys, polys), min_size=4, max_size=7))
    def test_steps_equal_the_definitions_on_any_tables(self, pairs):
        # the suite steps W_k, W2_n and A_n through the recurrence residuals;
        # on any tables, not recurrence output, each step is the definition
        n_max, p, q = len(pairs) - 3, [pair[0] for pair in pairs], [pair[1] for pair in pairs]
        seen_w, seen_a = [], []

        class Recorder:  # stands in for A_n's closed form and records what it is compared with
            def __eq__(self, other):
                seen_a.append(other)
                return True

        def holds(w_n, w_next, w2_n, n):
            seen_w.append((w_n, w_next, w2_n))
            return True

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(families, "_discriminant_holds", holds)
            patch.setattr(families, "a_closed_form", lambda n: Recorder())
            verify_identities(n_max, (p, q))
        wronskian = families._wronskian
        assert seen_w == [(wronskian(p, q, n), wronskian(p, q, n + 1), wronskian(p, q, n, 2)) for n in range(n_max + 1)]
        assert seen_a == [families.hankel(p, n) for n in range(n_max + 1)]

    @pytest.mark.parametrize("n_max", [1, 5, 14, 40])
    def test_report_equals_the_reference_on_true_tables(self, n_max):
        tables = true_tables(n_max)
        report = verify_identities(n_max, tables)
        assert report == reference_verify_identities(n_max, tables) == verify_identities(n_max)
        assert all(e["status"] == "pass" for e in report)

    @pytest.mark.parametrize("seed", range(12))
    def test_report_equals_the_reference_on_corrupted_tables(self, seed):
        # one or two coefficient edits in P and in Q, small or of 10^40,
        # anywhere up to one place past the degree; then one or two whole
        # entries replaced by random polynomials of any degree, zero included
        rng = random.Random(seed)
        for replace in (False, True):
            for _ in range(8):
                n_max = rng.randint(1, 14)
                p_tab, q_tab = (list(t) for t in true_tables(n_max))
                for _ in range(rng.randint(1, 2)):
                    table, k = rng.choice((p_tab, q_tab)), rng.randrange(n_max + 3)
                    if replace:
                        table[k] = IntPolynomial([rng.choice((rng.randint(-3, 3), rng.randint(-(10**40), 10**40)))
                                                  for _ in range(rng.randint(0, 2 * n_max + 6))])
                    else:
                        delta = rng.choice((1, -1, 2, -3, 10**40, -(10**40), rng.randint(-(10**40), 10**40)))
                        table[k] = edited(table[k], rng.randint(0, table[k].degree + 1), delta)
                report = verify_identities(n_max, (p_tab, q_tab))
                assert report == reference_verify_identities(n_max, (p_tab, q_tab)), (seed, replace, n_max)

    def test_edits_fail_the_discriminant_where_the_reference_does(self):
        # a corrupted P_{n+1} or Q_{n+2} fails the discriminant entry at n
        # in both formulations, and a pure degree-raising edit of 10^40 too
        for n in (0, 3, 9):
            p_tab, q_tab = (list(t) for t in true_tables(9))
            q_tab[n + 2] = edited(q_tab[n + 2], q_tab[n + 2].degree + 1, 10**40)
            fails = {(e["identity"], e["n"]) for e in verify_identities(9, (p_tab, q_tab)) if e["status"] == "fail"}
            assert ("discriminant", n) in fails
            assert verify_identities(9, (p_tab, q_tab)) == reference_verify_identities(9, (p_tab, q_tab))

    def test_no_polynomial_product_above_degree_2_on_true_tables(self, monkeypatch):
        # on true tables every residual is ZERO, so the steps of W_k, W2_n,
        # A_n, P_n^2 and P_n P_{n-1} leave no product of two polynomials
        # above degree 1: the largest is P_0 P_2 or P_1^2 of A_0, or W2_n^2
        # of the discriminant entry, all of degree 2 (P_{n_max}^2 would be
        # 2 n_max, B_n^2 4 n_max + 2)
        n_max, products = 20, []
        pq_pair(n_max + 2)
        mul = IntPolynomial.__mul__

        def recording(self, other):
            out = mul(self, other)
            if isinstance(other, IntPolynomial):
                products.append((self.degree, other.degree, out.degree))
            return out

        monkeypatch.setattr(IntPolynomial, "__mul__", recording)
        monkeypatch.setattr(IntPolynomial, "__rmul__", recording)
        assert all(e["status"] == "pass" for e in verify_identities(n_max))
        assert products and max(degree for _, _, degree in products) == 2
        assert all(min(a, b) <= 1 for a, b, _ in products)

    def test_discriminant_decides_by_the_wronskians(self, monkeypatch):
        # mills poly --which Delta reads the shared tables through the same
        # rule; a wrong W2_n is reported as a failed identity
        assert discriminant(40) == IntPolynomial([factorial(40) ** 2 * 164, 0, factorial(40) ** 2])
        wronskian = families._wronskian
        monkeypatch.setattr(families, "_wronskian", lambda p, q, n, step=1: wronskian(p, q, n, step) + (step == 2))
        with pytest.raises(IdentityError, match=r"discriminant identity failed at n=7"):
            discriminant(7)
        with pytest.raises(ValueError, match="order must be non-negative"):
            discriminant(-1)


class TestClosedFormsOncePerPass:
    def test_each_p_form_is_built_once_per_pass(self, monkeypatch):
        built = []
        p_form = families.p_closed_form

        def counting(r):
            built.append(r)
            return p_form(r)

        monkeypatch.setattr(families, "p_closed_form", counting)
        assert all(e["status"] == "pass" for e in verify_identities(30))
        assert sorted(built) == list(range(31))
        # no memo outlives a pass: the next one builds every form again
        verify_identities(30)
        assert sorted(built) == sorted(list(range(31)) * 2)

    def test_a_failing_p_form_fails_every_q_entry_that_reads_it(self, monkeypatch):
        # Q_closed_sum_P at n sums P_{n-1-2k}, so it reads P_3 at n = 4, 6, 8, ...
        corrupt_ratio(monkeypatch, "P coefficient", 3, 1)
        fails = [(e["identity"], e["n"]) for e in verify_identities(12) if e["status"] == "fail"]
        assert fails == [("P_closed_form", 3)] + [("Q_closed_sum_P", n) for n in range(4, 13, 2)]
        expected = reference_verify_identities(12, true_tables(12))
        assert [(e["identity"], e["n"]) for e in expected if e["status"] == "fail"] == fails


class TestVerifyIdentities:
    def test_minimal_run_passes(self):
        report = verify_identities(1)
        assert report
        assert all(e["status"] == "pass" for e in report)
        assert list(report[0].keys()) == ["identity", "n", "status"]

    def test_moderate_run_passes(self):
        report = verify_identities(25)
        fails = [e for e in report if e["status"] != "pass"]
        assert not fails

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            verify_identities(0)

    def test_benchmark_order_passes_and_its_faulty_copy_fails(self):
        # verify_identities(96) is the exact_deep benchmark's call: 7 entries
        # per order and 5 more for n >= 1, every one a pass
        report = verify_identities(96)
        assert len(report) == 7 * 97 + 5 * 96 == 1159
        assert [e for e in report if e["status"] != "pass"] == []
        shared = list(families._P[:99]), list(families._Q[:99])
        faulty = verify_identities(96, _faulty_tables(96))
        assert [(e["identity"], e["n"]) for e in faulty] == [(e["identity"], e["n"]) for e in report]
        assert any(e["status"] == "fail" for e in faulty)
        assert all(a is b for a, b in zip(families._P, shared[0])) and all(a is b for a, b in zip(families._Q, shared[1]))
        assert all(p == p_closed_form(n) for n, p in enumerate(shared[0]))
        assert all(q == q_closed_form(n) for n, q in enumerate(shared[1]) if n)

    def test_corrupted_copy_is_flagged_and_shared_tables_stay_clean(self):
        pairs = [pq_pair(k) for k in range(6)]
        p_table = [pair.p for pair in pairs]
        p_table[2] = p_table[2] + 1
        report = verify_identities(3, (p_table, [pair.q for pair in pairs]))
        assert any(e["status"] == "fail" for e in report)
        assert pq_pair(2).p == p_closed_form(2)
        assert all(e["status"] == "pass" for e in verify_identities(3))

    def test_explicit_tables_match_shared_run(self):
        pairs = [pq_pair(k) for k in range(7)]
        tables = ([pair.p for pair in pairs], [pair.q for pair in pairs])
        assert verify_identities(4, tables) == verify_identities(4)

    def test_short_tables_rejected(self):
        pairs = [pq_pair(k) for k in range(4)]
        with pytest.raises(ValueError):
            verify_identities(3, ([pair.p for pair in pairs], [pair.q for pair in pairs]))
