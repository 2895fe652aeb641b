#!/usr/bin/env python3
"""The benchmark's own tests.

Run from the repository root:

    python3 perfbench/selftest.py

They start short benchmark runs (about two minutes in all), so they are
kept out of the package's pytest suite: the file name does not match
pytest's test_*.py pattern.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
import unittest
from fractions import Fraction
from pathlib import Path

from mpmath import mp, mpf

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import millsratio  # noqa: E402
import millsratio.errors as errors  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, seed: int = 1, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TinyPasses(unittest.TestCase):
    def check_metrics(self, proc, declared):
        out = result(proc)
        self.assertTrue(out["correct"])
        self.assertGreaterEqual(out["attempted"], 1)
        self.assertEqual(set(out["metrics"]), {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(out["metrics"][m["name"]]["unit"], m["unit"])
            self.assertIn(f"\n{m['name']} = ", proc.stdout)
        self.assertIn("\nfailed_share = ", proc.stdout)
        return out

    def test_every_workload_prints_every_metric(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_metrics(bench(w["name"], 0), SPEC["end_to_end"])
                self.check_metrics(bench(w["name"], 1), SPEC["per_layer"])

    def test_counts_repeat_between_runs(self):
        for w in ("exact_deep", "point_queries"):
            with self.subTest(workload=w):
                first, second = (result(bench(w, 1, seed=3))["metrics"] for _ in range(2))
                counts = {k: v["value"] for k, v in first.items() if v["unit"] == "count"}
                self.assertEqual(counts, {k: second[k]["value"] for k in counts})

    def test_operations_repeat_between_runs(self):
        first, second = (result(bench("point_queries", 0, seed=3)) for _ in range(2))
        self.assertEqual((first["attempted"], first["failed"]), (second["attempted"], second["failed"]))

    def test_known_unsound_bounds_show(self):
        out = result(bench("point_queries", 0, seed=1))
        self.assertGreater(out["failed"], 0)

    def test_refuses_to_run_without_the_program(self):
        bare = ROOT / ".perfbench" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = bench("verify_default", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare)


def planted(**overrides):
    """The package API with some functions replaced."""
    api = types.SimpleNamespace(**{name: getattr(millsratio, name) for name in millsratio.__all__})
    for name, fn in overrides.items():
        setattr(api, name, fn)
    return api


def run_batch(api, queries):
    outcomes = []
    for q in queries:
        try:
            outcomes.append(wl.run_query(api, q))
        except Exception as exc:
            outcomes.append(exc)
    return wl.check_queries(queries, outcomes, errors)


class Checks(unittest.TestCase):
    queries = wl.query_batch(5, 0)

    def test_planted_unsound_lower_bound_is_counted(self):
        target = next(q for q in self.queries if q.kind == "komatsu" and q.expect == "value")

        def lifted(x, precision_bits=128):
            value = millsratio.komatsu_lower(x, precision_bits)
            if Fraction(x) == target.x and precision_bits == target.precision:
                with mp.workprec(wl.REFERENCE_BITS):
                    return wl.phi_reference(target.x) * (1 + mpf(2) ** -40)
            return value

        honest = run_batch(millsratio, self.queries)
        lifted_run = run_batch(planted(komatsu_lower=lifted), self.queries)
        self.assertEqual(lifted_run.failed, honest.failed + 1)
        self.assertEqual(lifted_run.failures["unsound lower bound"], honest.failures.get("unsound lower bound", 0) + 1)
        self.assertGreater(lifted_run.failed / lifted_run.attempted, honest.failed / honest.attempted)

    def test_missing_domain_error_is_counted(self):
        queries = [q for q in self.queries if q.kind == "first_order"]
        self.assertTrue(any(q.expect == "DomainError" for q in queries))

        def lenient(n, x, precision_bits=128):
            return millsratio.first_order_enclosure(n, abs(x) or Fraction(1), precision_bits)

        checks = run_batch(planted(first_order_enclosure=lenient), queries)
        # beyond |x| = 30 phi_series itself raises, which the lenient bound cannot hide
        hidden = sum(q.expect == "DomainError" and abs(q.x) <= 30 for q in queries)
        self.assertEqual(checks.failures["missing DomainError"], hidden)

    def test_oracle_outside_error_bound_is_counted(self):
        queries = [q for q in self.queries if q.expect == "value"][:5]

        def shifted(x, precision_bits=128):
            ov = millsratio.phi_series(x, precision_bits)
            return millsratio.OracleValue(ov.value + 4 * ov.error_bound, ov.error_bound, ov.method)

        checks = run_batch(planted(phi_series=shifted), queries)
        self.assertEqual(checks.failures, {"series outside error_bound": 5})

    def test_repeated_operations_count_once(self):
        a, b = wl.Checks(), wl.Checks()
        for checks, failing in ((a, "op 1"), (b, "op 2")):
            for op in ("op 0", "op 1", "op 2"):
                checks.record("unsound lower bound" if op == failing else None, op)
        merged = wl.Checks.repeat([a.as_dict(), b.as_dict(), a.as_dict()])
        self.assertEqual((merged.attempted, merged.failed), (4, 2))  # 3 operations and the pass-size check
        b.record(None, "op 3")
        merged = wl.Checks.repeat([a.as_dict(), b.as_dict()])
        self.assertIn("passes ran different operations", merged.failures)

    def test_reference_is_accurate(self):
        for x in (Fraction(-30), Fraction(-7, 3), Fraction(0), Fraction(1), Fraction(30)):
            ref = wl.phi_reference(x)
            with mp.workprec(2 * wl._reference_bits(x)):
                xv = mpf(x.numerator) / x.denominator
                fine = mp.exp(xv * xv / 2) * mp.sqrt(mp.pi / 2) * mp.erfc(xv / mp.sqrt(2))
                self.assertLess(abs(ref - fine), mpf(2) ** -(wl.REFERENCE_BITS - 8))

    def test_query_shares(self):
        qs = [q for b in range(3) for q in wl.query_batch(1, b)]
        self.assertEqual(sum(q.expect == "DomainError" for q in qs), len(qs) // wl.OUT_OF_DOMAIN_EVERY)
        self.assertEqual(sum(q.kind == "dual_route" for q in qs), len(qs) * len(wl.DUAL_ROUTE_SLOTS) // wl.OUT_OF_DOMAIN_EVERY)
        self.assertTrue(all(q.precision in wl.PRECISIONS for q in qs))
        self.assertEqual(wl.query_batch(1, 2), qs[2 * wl.QUERY_BATCH :])

    def test_exact_references(self):
        self.assertEqual(wl.identity_count(30), wl.VERIFY_IDENTITIES)
        for n, x in wl.cf_inputs(1)[:20]:
            self.assertIsNone(wl.check_convergent(n, x, millsratio.cf_convergent(n, x)))
            self.assertIsNotNone(wl.check_convergent(n, x, millsratio.cf_convergent(n + 1, x)))
        for m in (0, 1, 5):
            self.assertIsNone(wl.check_beta(m, millsratio.beta(m)))
        wrong = millsratio.BetaRoot(m=1, value=mpf("0.5"), bracket=(Fraction(1, 2), Fraction(1, 2) + wl.BETA_TOLERANCE))
        self.assertIsNotNone(wl.check_beta(1, wrong))


if __name__ == "__main__":
    unittest.main()
