"""Mutation check of the soundness terms of the oracle, the bounds and the verdict.

Each mutant below is a one-line change to src/ that weakens a rounding
direction or drops a counted error term, so that a value or error bound
the library returns, or a digit it prints, may no longer hold; or that
breaks a step of the exact identity suite, so that a verdict it reports
may no longer be the definitions' verdict.  For each mutant the check
copies src/, tests/ and pyproject.toml into a temporary directory, applies
the change there, and runs the test ids the mutant names, each a test that
fails on it.  The mutant is killed when one of them fails, or when the run
takes longer than TIMEOUT_S (a mutant can make a loop endless).  The check
exits 0 when every mutant is killed, 1 when one survives, and 2 when the
unmutated copy fails those tests or runs out of time, or a mutant's line
is not found once in its file.  It is not part of the tier-1 suite, which
checks only that each line occurs once and that pytest collects each id;
it takes about 80 s on 2 cores (it took 2 min 7 s running each mutant's
whole test files), and needs nothing beyond the test dependencies.

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
ORACLE, BOUNDS, NUMUTIL = "src/millsratio/oracle.py", "src/millsratio/bounds.py", "src/millsratio/numutil.py"
FAMILIES, POLY = "src/millsratio/families.py", "src/millsratio/poly.py"
O, K, B = "tests/test_oracle.py::", "tests/test_exact_kernel.py::", "tests/test_bounds.py::"
F = "tests/test_families.py::"
TIMEOUT_S = 120  # per pytest run; the unmutated copy runs every killing test in about 6 s on 2 cores
DECIMAL_EDGES = "tests/test_numutil.py::test_nstr_fixed_at_the_edges_of_its_integer_path[{}]"
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
FINISH = 'zip(ks, ends, ("f", "c"))'  # both routes' directions, lower end first
CONVERGENT = "(acc, acc + ulps) if num < 0 else (-acc - ulps, -acc)"  # R = -sgn(x) D, over 2^g
QUADRATURE_LOWER = "end(n_lo, r_hi, e_hi, z_lo, wz_lo, -remainder)"  # each factor's end, lower end of phi
QUADRATURE_UPPER = "end(n_hi, r_lo, e_lo, z_hi, wz_hi, remainder)"
EQ15 = '{"lower": round_quotient(qs[k], ps[k], w, "f"), "upper": round_quotient(qs[k + 1], ps[k + 1], w, "c")}'


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
           "term = term * aa // den", "term = -(-term * aa // den)",
           (REDERIVED_SUM, NARROW_SUM)),
    Mutant("error-bound-rounded-down", ORACLE,
           'gap.bit_length(), 53, "c")', 'gap.bit_length(), 53, "f")',
           (O + "test_error_bound_is_the_distance_to_the_farther_end_rounded_up",)),
    Mutant("midpoint-rounded-down", ORACLE, 'abs(total).bit_length(), w, "n")',
           'abs(total).bit_length(), w, "f")',
           (O + "test_enclosure_is_finished_on_integers", O + "test_oracle_bits_are_pinned[phi_series]")),
    Mutant("root-at-the-lower-end-only", BOUNDS,
           "for t in (s, s + (s * s != radicand))", "for t in (s, s)",
           (K + "test_root_is_on_the_outward_side_of_the_exact_root[241359]",)),
    Mutant("asymptotic-one-term-short", ORACLE,
           "while t << target_bits > c:", "while t * (2 * n + 1) * dd << target_bits > c * aa:",
           (PARTIAL_SUMS, O + "TestSeriesErrorBound::test_terms_exceed_u[x4]")),
    Mutant("asymptotic-next-sum-dropped", ORACLE,
           "return n, s, s + (-t if n % 2 else t), c", "return n, s, s, c", (PARTIAL_SUMS, WITHIN_BOUND)),
    Mutant("finish-lower-end-rounded-up", ORACLE, FINISH, 'zip(ks, ends, ("c", "c"))', (AGREE, EDGE_CASES)),
    Mutant("finish-upper-end-rounded-down", ORACLE, FINISH, 'zip(ks, ends, ("f", "f"))', (AGREE, EDGE_CASES)),
    Mutant("finish-rounding-reversed", ORACLE, FINISH, 'zip(ks, ends, ("c", "f"))', (AGREE, EDGE_CASES)),
    Mutant("convergent-ends-swapped", ORACLE, CONVERGENT, "(acc + ulps, acc) if num < 0 else (-acc, -acc - ulps)",
           (CONVERGENT_ENDS,)),
    Mutant("convergent-negative-x-without-ulps", ORACLE, CONVERGENT, "(acc, acc) if num < 0 else (-acc - ulps, -acc)",
           (CONVERGENT_ENDS,)),
    Mutant("convergent-positive-x-without-ulps", ORACLE, CONVERGENT, "(acc, acc + ulps) if num < 0 else (-acc, -acc)",
           (CONVERGENT_ENDS,)),
    Mutant("asymptotic-ends-swapped", ORACLE, "sorted((s0, s1))", "sorted((s0, s1), reverse=True)",
           (PARTIAL_SUMS, WITHIN_BOUND)),
    Mutant("reflected-asymptotic-ends-swapped", ORACLE, "sorted((-s0, -s1))", "sorted((-s0, -s1), reverse=True)",
           (PARTIAL_SUMS,)),
    Mutant("kernel-taylor-term-rounded-up", ORACLE, "term = (term * a >> shift) // (odd * k)",
           "term = -(-(term * a >> shift) // (odd * k))", (REDERIVED_EXP, NARROW_EXP)),
    Mutant("kernel-count-without-its-floors", ORACLE, "lo, hi = acc, acc + 2 * k + 1", "lo, hi = acc, acc + 1",
           (REDERIVED_EXP, NARROW_EXP)),
    Mutant("kernel-upper-square-rounded-down", ORACLE, "lo, hi = lo * lo >> w, -(-hi * hi >> w)",
           "lo, hi = lo * lo >> w, hi * hi >> w", (REDERIVED_EXP,)),
    Mutant("pi-ends-swapped", ORACLE, "return lo, hi, math.isqrt(lo << g - 1), math.isqrt((hi << g - 1) - 1) + 1",
           "return hi, lo, math.isqrt(hi << g - 1), math.isqrt((lo << g - 1) - 1) + 1", (PARTIAL_SUMS, WITHIN_BOUND)),
    Mutant("kept-pi-floor-one-unit-high", ORACLE, "lo = floor >> top - g", "lo = (floor >> top - g) + 1",
           (O + "test_pi_read_from_the_kept_floor_in_any_order[ascending]", PARTIAL_SUMS)),
    Mutant("machin-error-count-dropped", ORACLE, "return 16 * s5 - 4 * s239, 16 * c5 + 4 * c239",
           "return 16 * s5 - 4 * s239, 0", (O + "test_machin_sum_encloses_pi_strictly[0]",)),
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
    Mutant("root-rounded-inward", BOUNDS, 'round_quotient(num, den, precision_bits, "c" if odd else "f")',
           'round_quotient(num, den, precision_bits, "f" if odd else "c")',
           (K + "test_integer_outward_matches_the_fraction_reference[128]",
            B + "TestSecondOrder::test_order_one_reproduces_szarek_werner")),
    Mutant("derivative-without-phi-extra-bits", BOUNDS, "phi_series(xf, p + max(0, mag_p))", "phi_series(xf, p)",
           (LIBRARY, B + "TestPhiDerivative::test_cancelling_points[17-x3-128]")),
    Mutant("derivative-without-guard-bits", BOUNDS, "p + GUARD_BITS + max(0, mag_p + _mag(raw(ov[0])), mag_q)",
           "p + max(0, mag_p + _mag(raw(ov[0])), mag_q)", (LIBRARY,)),
    Mutant("against-phi-margin-rounded-up", BOUNDS, 'round_quotient(margin, 1, w, "f", -scale)',
           'round_quotient(margin, 1, w, "c", -scale)', (GRID.format("eq15"), CERTIFY_GRID)),
    Mutant("against-phi-oracle-value-one-bit-short", BOUNDS, "v <<= scale - top", "v <<= scale - top - 1",
           (GRID.format("eq15"), CERTIFY_GRID)),
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
           'round_quotient(bound, ps[n] * ps[n + 1], w, "c")', 'round_quotient(bound, ps[n] * ps[n + 1], w, "f")',
           (GRID.format("eq16"), LIBRARY)),
    Mutant("log-convexity-error-rounded-down", BOUNDS,
           'den, w, "c", -2 * scale)', 'den, w, "f", -2 * scale)', (GRID.format("eq17"), LIBRARY)),
    Mutant("verdict-margin-equal-to-error-passes", BOUNDS,
           '"pass" if exceeds(margin, error)', '"pass" if not exceeds(error, margin)',
           (B + "test_margin_one_ulp_above_its_error_passes[128]",)),
    Mutant("beta-filter-bound-zero", BOUNDS, "if abs(t1 - t2) > (6 * n + 8) * _U * (t1 + t2):",
           "if abs(t1 - t2) > 0:",
           (K + "test_beta_matches_the_polynomial_bisection[tolerance3]", K + "test_filter_decides_only_exact_signs")),
    Mutant("beta-filter-without-its-x-floor", BOUNDS, "if xf >= _FILTER_X_MIN or not x:", "if xf >= 0:",
           (K + "test_filter_defers_where_it_cannot_decide[tiny-x]",)),
    Mutant("rounding-sticky-bit-dropped", NUMUTIL, "half & 1 and (half & 2 or man & (1 << n - 1) - 1)",
           "half & 1 and half & 2", ("tests/test_numutil.py::test_normalize_is_libmps_bit_for_bit",)),
    Mutant("quotient-sticky-bit-dropped", NUMUTIL, "normalize(sign, q | (r > 0), exp - shift",
           "normalize(sign, q, exp - shift", ("tests/test_numutil.py::test_to_mpf_rounds_a_fraction_once",)),
    Mutant("decimal-half-rounded-down", NUMUTIL, "up = 2 * r >= den if nearest", "up = 2 * r > den if nearest",
           (DECIMAL_EDGES.format(1), DECIMAL_EDGES.format(300))),
    Mutant("decimal-ceiling-of-a-negative-rounded-down", NUMUTIL, "else r > 0 and not sign", "else r > 0",
           ("tests/test_numutil.py::test_nstr_ceiling_never_prints_below_the_value",)),
    Mutant("stepped-square-without-its-correction", FAMILIES,
           "x_step(x_step(s, 2 * n, t), n * n, s_prev) + (2 * (r * p1) - r * r)",
           "x_step(x_step(s, 2 * n, t), n * n, s_prev)",
           (F + "TestDiscriminantByWronskians::test_report_equals_the_reference_on_corrupted_tables[0]",
            F + "TestDiscriminantByWronskians::test_steps_equal_the_definitions_on_any_tables")),
    Mutant("x-step-ignores-k", POLY, "out[i] += k * c", "out[i] += c",
           ("tests/test_poly.py::TestOwnResults::test_x_step_is_x_times_p_plus_k_times_q",
            F + "TestPQPairs::test_reference_table")),
]


def run_tests(copy: Path, tests: tuple[str, ...]) -> int | None:
    """pytest's exit status for tests in copy: 0 all passed, 1 some failed;
    None when the run took longer than TIMEOUT_S and was killed."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        return subprocess.run(command, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return None


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
        status = run_tests(fresh_copy(Path(scratch)), tests)
        if status != 0:
            failure = f"run longer than {TIMEOUT_S} s" if status is None else "fail"
            print(f"the unmutated tests {failure}: {' '.join(tests)}", file=sys.stderr)
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
            if status not in (0, 1, None):
                print(f"{mutant.name}: pytest exited with status {status}", file=sys.stderr)
                return 2
            verdict = "survived" if status == 0 else "killed" if status else "killed (timed out)"
            print(f"{verdict:8}  {mutant.name}", flush=True)
            if status == 0:
                survivors.append(mutant.name)
            shutil.rmtree(copy)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
