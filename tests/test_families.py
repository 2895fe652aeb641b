import sys
import threading
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

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
from millsratio.poly import IntPolynomial

orders = st.integers(min_value=0, max_value=40)


def P(*coeffs):
    return IntPolynomial(list(reversed(coeffs)))


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
        assert pq_pair(2 * n).p.coefficient(0) == floor
        assert pq_pair(2 * n + 1).p.coefficient(1) == (2 * n + 1) * floor


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


class TestQuadraticTriple:
    def test_memoized_once_per_order(self):
        assert quadratic_triple(7) is quadratic_triple(7)

    def test_concurrent_first_builds_agree(self):
        # orders no other test builds, so the threads race to create them
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
                assert triple is quadratic_triple(triple.n)
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
        assert even.coefficient(0) == (2 * n + 1) * odd_prod(n)
        odd = quadratic_triple(2 * n + 1).a
        assert odd.degree == 4 * n + 2
        assert odd.coefficient(0) == -odd_prod(n + 1)
        assert all(c >= 0 for k, c in enumerate(odd.coeffs) if k > 0)
        assert all(c == 0 for k, c in enumerate(odd.coeffs) if k % 2)


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


class TestGeneratingFunction:
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

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            generating_function_residual(Fraction(1), Fraction(3, 2), 10, 128)
        with pytest.raises(ValueError):
            generating_function_residual(Fraction(1), Fraction(1, 2), 0, 128)


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
