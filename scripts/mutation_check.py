"""Mutation check of the soundness terms of the oracle, the bounds and the verdict.

Each mutant below is a one-line change to src/ that weakens a rounding
direction or drops a counted error term, so that a value or error bound
the library returns may no longer hold.  For each mutant the check copies
src/, tests/ and pyproject.toml into a temporary directory, applies the
change there, and runs the test ids the mutant names, each a test that
fails on it.  The mutant is killed when one of them fails.  The check exits
0 when every mutant is killed, 1 when one survives, and 2 when the
unmutated copy fails those tests or a mutant's line is not found once in
its file.  It is not part of the tier-1 suite, which checks only that each
line occurs once and that pytest collects each id; it takes about 70 s on
2 cores (it took 2 min 7 s running each mutant's whole test files), and
needs nothing beyond the test dependencies.

    python scripts/mutation_check.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
ORACLE, BOUNDS = "src/millsratio/oracle.py", "src/millsratio/bounds.py"
O, K, B = "tests/test_oracle.py::", "tests/test_exact_kernel.py::", "tests/test_bounds.py::"
# killing test ids that several mutants share
REDERIVED_SUM = O + "TestSeriesCount::test_fixed_counts_match_a_fraction_rederivation[200-x0]"
NARROW_SUM = O + "TestSeriesCount::test_sum_encloses_d_at_narrow_widths[x0]"
PARTIAL_SUMS = O + "TestSeriesAsymptotic::test_partial_sums_rounded_outward_once[128]"
WITHIN_BOUND = O + "TestSeriesErrorBound::test_value_within_derived_bound[128]"
AGREE, EDGE_CASES = O + "TestAgreement::test_methods_agree[x0]", O + "TestQuadratureErrorBound::test_edge_cases[2048]"
CONVERGENT_ENDS = O + "test_convergent_ends_are_k_less_d_rounded_once[128]"
REDERIVED_EXP = O + "TestExpKernel::test_ends_match_a_fraction_rederivation[0-1/18]"
NARROW_EXP = O + "TestExpKernel::test_ends_enclose_e_at_narrow_widths[1/18]"
QUADRATURE_RULE = O + "test_quadrature_ends_enclose_the_exact_rule[64]"
QUADRATURE_OUTWARD = O + "test_quadrature_ends_are_outward_before_the_remainder[128]"
GRID = K + "test_default_grid_matches_the_reference[{}-128]"  # one family's certificates on the default grid
CERTIFY_GRID, LIBRARY = K + "test_certify_grid_is_the_reference", K + "test_library_functions_match_the_reference[128]"
FINISH = "zip(ks, ends, (round_floor, round_ceiling))"  # both routes' directions, lower end first
CONVERGENT = "(acc, acc + ulps) if xq < 0 else (-acc - ulps, -acc)"  # R = -sgn(x) D, over 2^g
QUADRATURE_LOWER = "end(n_lo, r_hi, e_hi, z_lo, wz_lo, -remainder)"  # each factor's end, lower end of phi
QUADRATURE_UPPER = "end(n_hi, r_lo, e_lo, z_hi, wz_hi, remainder)"
EQ15 = '{"lower": _quotient(qs[k], ps[k], w, "f"), "upper": _quotient(qs[k + 1], ps[k + 1], w, "c")}'


class Mutant(NamedTuple):
    name: str
    path: str
    old: str  # must occur exactly once in path
    new: str
    tests: tuple[str, ...]  # pytest ids of tests that fail on the mutant


MUTANTS = [
    Mutant("series-last-term-dropped", ORACLE,
           "return n, acc, n * ((4 << lu) + n + 1) + term, g", "return n, acc, n * ((4 << lu) + n + 1), g",
           (REDERIVED_SUM, O + "TestSeriesCount::test_sum_encloses_d_at_narrow_widths[x1]")),
    Mutant("series-first-term-rounded-up", ORACLE,
           "term = acc = (a << g) // b", "term = acc = -(-(a << g) // b)", (REDERIVED_SUM, NARROW_SUM)),
    Mutant("series-term-rounded-up", ORACLE,
           "term = term * aa // (bb * (2 * k + 1))", "term = -(-term * aa // (bb * (2 * k + 1)))",
           (REDERIVED_SUM, NARROW_SUM)),
    Mutant("error-bound-rounded-down", ORACLE,
           "mpf_sub(*pair, 53, round_ceiling)", "mpf_sub(*pair, 53, round_floor)",
           (O + "test_error_bound_is_the_distance_to_the_farther_end_rounded_up",)),
    Mutant("root-at-the-lower-end-only", BOUNDS,
           "for t in (s, s + (s * s != radicand))", "for t in (s, s)",
           (K + "test_root_is_on_the_outward_side_of_the_exact_root[241359]",)),
    Mutant("asymptotic-one-term-short", ORACLE,
           "while t << target_bits > c:", "while t * (2 * n + 1) * dd << target_bits > c * aa:",
           (PARTIAL_SUMS, O + "TestSeriesErrorBound::test_terms_exceed_u[x4]")),
    Mutant("asymptotic-next-sum-dropped", ORACLE,
           "return n, s, s + (-t if n % 2 else t), c", "return n, s, s, c", (PARTIAL_SUMS, WITHIN_BOUND)),
    Mutant("finish-lower-end-rounded-up", ORACLE, FINISH, "zip(ks, ends, (round_ceiling, round_ceiling))",
           (AGREE, EDGE_CASES)),
    Mutant("finish-upper-end-rounded-down", ORACLE, FINISH, "zip(ks, ends, (round_floor, round_floor))",
           (AGREE, EDGE_CASES)),
    Mutant("finish-rounding-reversed", ORACLE, FINISH, "zip(ks, ends, (round_ceiling, round_floor))",
           (AGREE, EDGE_CASES)),
    Mutant("convergent-ends-swapped", ORACLE, CONVERGENT, "(acc + ulps, acc) if xq < 0 else (-acc, -acc - ulps)",
           (CONVERGENT_ENDS,)),
    Mutant("convergent-negative-x-without-ulps", ORACLE, CONVERGENT, "(acc, acc) if xq < 0 else (-acc - ulps, -acc)",
           (CONVERGENT_ENDS,)),
    Mutant("convergent-positive-x-without-ulps", ORACLE, CONVERGENT, "(acc, acc + ulps) if xq < 0 else (-acc, -acc)",
           (CONVERGENT_ENDS,)),
    Mutant("asymptotic-ends-swapped", ORACLE, "sorted((s0, s1))", "sorted((s0, s1), reverse=True)",
           (PARTIAL_SUMS, WITHIN_BOUND)),
    Mutant("reflected-asymptotic-ends-swapped", ORACLE, "sorted((-s0, -s1))", "sorted((-s0, -s1), reverse=True)",
           (PARTIAL_SUMS,)),
    Mutant("kernel-taylor-term-rounded-up", ORACLE, "term = (term * a >> s + z) // ((b >> z) * k)",
           "term = -(-(term * a >> s + z) // ((b >> z) * k))", (REDERIVED_EXP, NARROW_EXP)),
    Mutant("kernel-count-without-its-floors", ORACLE, "lo, hi = acc, acc + 2 * k + 1", "lo, hi = acc, acc + 1",
           (REDERIVED_EXP, NARROW_EXP)),
    Mutant("kernel-upper-square-rounded-down", ORACLE, "lo, hi = lo * lo >> w, -(-hi * hi >> w)",
           "lo, hi = lo * lo >> w, hi * hi >> w", (REDERIVED_EXP,)),
    Mutant("pi-ends-swapped", ORACLE, "(mpf_pi(g + 2, rnd) for rnd in (round_floor, round_ceiling))",
           "(mpf_pi(g + 2, rnd) for rnd in (round_ceiling, round_floor))", (PARTIAL_SUMS, WITHIN_BOUND)),
    Mutant("root-half-pi-ends-swapped", ORACLE, "math.isqrt(lo << g - 1), math.isqrt((hi << g - 1) - 1) + 1",
           "math.isqrt((hi << g - 1) - 1) + 1, math.isqrt(lo << g - 1)",
           (O + "TestAgreement::test_methods_agree[x4]", O + "TestQuadrature::test_value_at_zero")),
    Mutant("quadrature-lower-remainder-added", ORACLE, QUADRATURE_LOWER, QUADRATURE_LOWER.replace("-remainder", "remainder"),
           (QUADRATURE_RULE, QUADRATURE_OUTWARD)),
    Mutant("quadrature-upper-remainder-subtracted", ORACLE, QUADRATURE_UPPER,
           QUADRATURE_UPPER.replace("remainder", "-remainder"), (QUADRATURE_RULE, QUADRATURE_OUTWARD)),
    Mutant("quadrature-lower-factors-at-the-upper-ends", ORACLE, QUADRATURE_LOWER,
           "end(n_lo, r_lo, e_lo, z_hi, wz_hi, -remainder)", (QUADRATURE_RULE, QUADRATURE_OUTWARD)),
    Mutant("quadrature-upper-end-without-its-count", ORACLE, "for ulps in (0, len(weights) + 4 * m * m)",
           "for ulps in (0, 0)", (QUADRATURE_OUTWARD,)),
    Mutant("quadrature-reflection-with-c-1", ORACLE, "(2, [(-r, q) for r, q in reversed(ends)]) if xq < 0",
           "(1, [(-r, q) for r, q in reversed(ends)]) if xq < 0",
           (AGREE, O + "TestQuadratureErrorBound::test_independent_of_series_polynomial_and_continued_fraction_code")),
    Mutant("weights-product-rounded-up", ORACLE, "v, c = v * c >> g, c * q2 >> g",
           "v, c = -(-v * c >> g), c * q2 >> g",
           (O + "TestQuadratureErrorBound::test_weights_are_the_floored_recurrence[256]",)),
    Mutant("root-rounded-inward", BOUNDS, '_quotient(num, den, precision_bits, "c" if odd else "f")',
           '_quotient(num, den, precision_bits, "f" if odd else "c")',
           (K + "test_integer_outward_matches_the_fraction_reference[128]",
            B + "TestSecondOrder::test_order_one_reproduces_szarek_werner")),
    Mutant("derivative-without-phi-extra-bits", BOUNDS, "phi_series(xf, p + max(0, mag_p))", "phi_series(xf, p)",
           (LIBRARY, B + "TestPhiDerivative::test_cancelling_points[17-x3-128]")),
    Mutant("derivative-without-guard-bits", BOUNDS, "p + GUARD_BITS + max(0, mag_p + mp.mag(ov.value), mag_q)",
           "p + max(0, mag_p + mp.mag(ov.value), mag_q)", (LIBRARY,)),
    Mutant("against-phi-margin-rounded-up", BOUNDS,
           '_quotient(margin, 1, precision_bits + GUARD_BITS, "f", -scale)',
           '_quotient(margin, 1, precision_bits + GUARD_BITS, "c", -scale)', (GRID.format("eq15"), CERTIFY_GRID)),
    Mutant("eq16-margin-rounded-up", BOUNDS, 'pn * pn1, w, "f", -scale)', 'pn * pn1, w, "c", -scale)',
           (GRID.format("eq16"), CERTIFY_GRID)),
    Mutant("log-convexity-margin-rounded-up", BOUNDS,
           'den, w, "f", -2 * scale)', 'den, w, "c", -2 * scale)', (GRID.format("eq17"), LIBRARY)),
    Mutant("sharper-margin-rounded-up", BOUNDS,
           'ps[n], precision_bits + GUARD_BITS, "f", -scale)', 'ps[n], precision_bits + GUARD_BITS, "c", -scale)',
           (GRID.format("i"), CERTIFY_GRID)),
    Mutant("eq15-rounded-inward", BOUNDS, EQ15, EQ15.replace('"f"', '"C"').replace('"c"', '"f"').replace('"C"', '"c"'),
           (GRID.format("eq15"), B + "TestSoundness::test_every_family_at_fixed_points[2901/101-128]")),
    Mutant("eq16-error-bound-rounded-down", BOUNDS,
           '_quotient(bound, ps[n] * ps[n + 1], w, "c")', '_quotient(bound, ps[n] * ps[n + 1], w, "f")',
           (GRID.format("eq16"), LIBRARY)),
    Mutant("log-convexity-error-rounded-down", BOUNDS,
           'den, w, "c", -2 * scale)', 'den, w, "f", -2 * scale)', (GRID.format("eq17"), LIBRARY)),
    Mutant("verdict-margin-equal-to-error-passes", BOUNDS,
           '"pass" if mpf_gt(margin._mpf_, error._mpf_)', '"pass" if not mpf_gt(error._mpf_, margin._mpf_)',
           (B + "test_margin_one_ulp_above_its_error_passes[128]",)),
]


def run_tests(copy: Path, tests: tuple[str, ...]) -> int:
    """pytest's exit status for tests in copy: 0 all passed, 1 some failed."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def fresh_copy(scratch: Path) -> Path:
    """src/, tests/ and pyproject.toml of the repository copied under
    scratch, without bytecode."""
    copy = Path(tempfile.mkdtemp(dir=scratch))
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copy2(ROOT / "pyproject.toml", copy)
    return copy


def apply(copy: Path, mutant: Mutant) -> None:
    path = copy / mutant.path
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise LookupError(f"{mutant.name}: {mutant.old!r} occurs {count} times in {mutant.path}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutation-check-") as scratch:
        tests = tuple(sorted({test for mutant in MUTANTS for test in mutant.tests}))
        if run_tests(fresh_copy(Path(scratch)), tests) != 0:
            print(f"the unmutated tests fail: {' '.join(tests)}", file=sys.stderr)
            return 2
        survivors = []
        for mutant in MUTANTS:
            copy = fresh_copy(Path(scratch))
            try:
                apply(copy, mutant)
            except LookupError as exc:
                print(exc, file=sys.stderr)
                return 2
            status = run_tests(copy, mutant.tests)
            if status not in (0, 1):
                print(f"{mutant.name}: pytest exited with status {status}", file=sys.stderr)
                return 2
            print(f"{'survived' if status == 0 else 'killed':8}  {mutant.name}", flush=True)
            if status == 0:
                survivors.append(mutant.name)
            shutil.rmtree(copy)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
