"""Mutation check of the soundness terms of the oracle, the bounds and the verdict.

Each mutant below is a one-line change to src/ that weakens a rounding
direction or drops a counted error term, so that a value or error bound
the library returns may no longer hold.  For each mutant the check copies
src/, tests/ and pyproject.toml into a temporary directory, applies the
change there, and runs the test files that cover it.  The mutant is killed when a test
fails.  The check exits 0 when every mutant is killed, 1 when one
survives, and 2 when the unmutated copy fails those tests or a mutant's
line is not found once in its file.  It is not part of the tier-1 suite;
it takes about two minutes, and needs nothing beyond the test dependencies.

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
ORACLE_TESTS, ROOT_TESTS = ("tests/test_oracle.py",), ("tests/test_exact_kernel.py", "tests/test_bounds.py")
FINISH = "zip(ends, (round_floor, round_ceiling))"  # the series route's directions, lower end first
CONVERGENT = "(acc, acc + ulps) if xq < 0 else (-acc - ulps, -acc)"  # R = -sgn(x) D, over 2^g
QUADRATURE_ENDS = "((round_floor, round_ceiling, 0), (round_ceiling, round_floor, len(weights) + 4 * m * m))"
EQ15 = '{"lower": _quotient(qs[k], ps[k], w, "f"), "upper": _quotient(qs[k + 1], ps[k + 1], w, "c")}'


class Mutant(NamedTuple):
    name: str
    path: str
    old: str  # must occur exactly once in path
    new: str
    tests: tuple[str, ...]


MUTANTS = [
    Mutant("series-last-term-dropped", ORACLE,
           "return n, acc, n * ((4 << lu) + n + 1) + term, g", "return n, acc, n * ((4 << lu) + n + 1), g",
           ORACLE_TESTS),
    Mutant("series-first-term-rounded-up", ORACLE,
           "term = acc = (a << g) // b", "term = acc = -(-(a << g) // b)", ORACLE_TESTS),
    Mutant("series-term-rounded-up", ORACLE,
           "term = term * aa // (bb * (2 * k + 1))", "term = -(-term * aa // (bb * (2 * k + 1)))", ORACLE_TESTS),
    Mutant("error-bound-rounded-down", ORACLE,
           "mpf_sub(*pair, 53, round_ceiling)", "mpf_sub(*pair, 53, round_floor)", ORACLE_TESTS),
    Mutant("quadrature-upper-end-without-its-count", ORACLE,
           "(round_ceiling, round_floor, len(weights) + 4 * m * m)", "(round_ceiling, round_floor, 0)", ORACLE_TESTS),
    Mutant("root-at-the-lower-end-only", BOUNDS,
           "for t in (s, s + (s * s != radicand))", "for t in (s, s)", ROOT_TESTS),
    Mutant("asymptotic-one-term-short", ORACLE,
           "while t << target_bits > c:", "while t * (2 * n + 1) * dd << target_bits > c * aa:", ORACLE_TESTS),
    Mutant("asymptotic-next-sum-dropped", ORACLE,
           "return n, s, s + (-t if n % 2 else t), c", "return n, s, s, c", ORACLE_TESTS),
    Mutant("finish-lower-end-rounded-up", ORACLE, FINISH, "zip(ends, (round_ceiling, round_ceiling))", ORACLE_TESTS),
    Mutant("finish-upper-end-rounded-down", ORACLE, FINISH, "zip(ends, (round_floor, round_floor))", ORACLE_TESTS),
    Mutant("finish-rounding-reversed", ORACLE, FINISH, "zip(ends, (round_ceiling, round_floor))", ORACLE_TESTS),
    Mutant("finish-root-rounded-inward", ORACLE, "_root_half_pi_exp(u, w, rnd) if c",
           "_root_half_pi_exp(u, w, round_floor if rnd == round_ceiling else round_ceiling) if c", ORACLE_TESTS),
    Mutant("convergent-ends-swapped", ORACLE, CONVERGENT, "(acc + ulps, acc) if xq < 0 else (-acc, -acc - ulps)",
           ORACLE_TESTS),
    Mutant("convergent-negative-x-without-ulps", ORACLE, CONVERGENT, "(acc, acc) if xq < 0 else (-acc - ulps, -acc)",
           ORACLE_TESTS),
    Mutant("convergent-positive-x-without-ulps", ORACLE, CONVERGENT, "(acc, acc + ulps) if xq < 0 else (-acc, -acc)",
           ORACLE_TESTS),
    Mutant("asymptotic-ends-swapped", ORACLE, "sorted((s0, s1))", "sorted((s0, s1), reverse=True)", ORACLE_TESTS),
    Mutant("reflected-asymptotic-ends-swapped", ORACLE, "sorted((-s0, -s1))", "sorted((-s0, -s1), reverse=True)",
           ORACLE_TESTS),
    Mutant("quadrature-pole-and-root-rounded-inward", ORACLE, QUADRATURE_ENDS,
           "((round_floor, round_floor, 0), (round_ceiling, round_ceiling, len(weights) + 4 * m * m))", ORACLE_TESTS),
    Mutant("quadrature-lower-remainder-added", ORACLE, "mpf_sub(phis[0], remainder, w, round_floor)",
           "mpf_add(phis[0], remainder, w, round_floor)", ORACLE_TESTS),
    Mutant("quadrature-upper-remainder-subtracted", ORACLE, "mpf_add(phis[1], remainder, w, round_ceiling)",
           "mpf_sub(phis[1], remainder, w, round_ceiling)", ORACLE_TESTS),
    Mutant("quadrature-weights-floored-up", ORACLE, "to_int(mpf_shift(e, f), round_floor)",
           "to_int(mpf_shift(e, f), round_ceiling)", ORACLE_TESTS),
    Mutant("quadrature-reflection-reversed", ORACLE, "ends = ((round_floor, hi), (round_ceiling, lo))",
           "ends = ((round_ceiling, hi), (round_floor, lo))", ORACLE_TESTS),
    Mutant("root-rounded-inward", BOUNDS, '_quotient(num, den, precision_bits, "c" if odd else "f")',
           '_quotient(num, den, precision_bits, "f" if odd else "c")', ROOT_TESTS),
    Mutant("derivative-without-phi-extra-bits", BOUNDS, "phi_series(xf, p + max(0, mag_p))", "phi_series(xf, p)",
           ROOT_TESTS),
    Mutant("derivative-without-guard-bits", BOUNDS, "p + GUARD_BITS + max(0, mag_p + mp.mag(ov.value), mag_q)",
           "p + max(0, mag_p + mp.mag(ov.value), mag_q)", ROOT_TESTS),
    Mutant("against-phi-margin-rounded-up", BOUNDS,
           '_quotient(margin, 1, precision_bits + GUARD_BITS, "f", -scale)',
           '_quotient(margin, 1, precision_bits + GUARD_BITS, "c", -scale)', ROOT_TESTS),
    Mutant("eq16-margin-rounded-up", BOUNDS, 'pn * pn1, w, "f", -scale)', 'pn * pn1, w, "c", -scale)', ROOT_TESTS),
    Mutant("log-convexity-margin-rounded-up", BOUNDS,
           'den, w, "f", -2 * scale)', 'den, w, "c", -2 * scale)', ROOT_TESTS),
    Mutant("sharper-margin-rounded-up", BOUNDS,
           'ps[n], precision_bits + GUARD_BITS, "f", -scale)', 'ps[n], precision_bits + GUARD_BITS, "c", -scale)',
           ROOT_TESTS),
    Mutant("eq15-rounded-inward", BOUNDS, EQ15, EQ15.replace('"f"', '"C"').replace('"c"', '"f"').replace('"C"', '"c"'),
           ROOT_TESTS),
    Mutant("eq16-error-bound-rounded-down", BOUNDS,
           '_quotient(bound, ps[n] * ps[n + 1], w, "c")', '_quotient(bound, ps[n] * ps[n + 1], w, "f")', ROOT_TESTS),
    Mutant("log-convexity-error-rounded-down", BOUNDS,
           'den, w, "c", -2 * scale)', 'den, w, "f", -2 * scale)', ROOT_TESTS),
    Mutant("verdict-margin-equal-to-error-passes", BOUNDS,
           '"pass" if mpf_gt(margin._mpf_, error._mpf_)', '"pass" if not mpf_gt(error._mpf_, margin._mpf_)',
           ROOT_TESTS),
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
