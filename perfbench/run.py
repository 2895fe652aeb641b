#!/usr/bin/env python3
"""Benchmark for millsratio: one workload per run, printed as metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify_default --seed 1 --seconds 30 --trace 0

Workloads (one closed-loop caller, one thread):

* verify_default: `mills verify` with CLI defaults through
  millsratio.cli.main, one fresh interpreter per pass (cold memo);
* point_queries: a seeded stream of single-point certified queries on a
  warm memo, each result checked against an independent reference;
* exact_deep: verify_identities(96), beta(0..15) and 200 seeded
  cf_convergent calls, one fresh interpreter per pass (cold memo).

With --trace 0 the run measures for --seconds and prints the end-to-end
metrics; point_queries runs a number of batches that follows --seconds,
not the clock, so that a seed always gives the same operations.  With
--trace 1 it alternates untraced and traced passes, each in a fresh
interpreter, and prints the per-layer metrics.  Every line but the last
is for people; the last line is one JSON object with the keys correct,
attempted, failed and metrics.  Times are in seconds of a reference host
speed (see child.py); the unscaled medians are printed too.  An operation
that a run repeats counts once in attempted and failed.  The program is
loaded from src/ next to this directory; without it the run exits with
status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import mpmath
import mpmath.libmp
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"  # span and sample files; listed in .gitignore
WORKLOADS = ("verify_default", "point_queries", "exact_deep")
SETUP_PROBES = 15  # set-up takes ~0.1 s, so take the median of many
CAL_REF_S = 0.0055  # calibration loop time (child.py) on the host in README.md
RUN_LIMIT_S = 170  # every run ends well inside 180 s

# per-layer metric -> where it comes from: ("count", counter) or ("self", self-time name)
PER_LAYER = {
    "oracle.phi_series.calls": ("count", "oracle.phi_series.calls"),
    "oracle.phi_series.distinct": ("count", "oracle.phi_series.distinct"),
    "oracle.phi_series.self_s": ("self", "oracle.phi_series"),
    "oracle.phi_series.self_s.band_lt2": ("self", "oracle.phi_series.band_lt2"),
    "oracle.phi_series.self_s.band_2_10": ("self", "oracle.phi_series.band_2_10"),
    "oracle.phi_series.self_s.band_10_30": ("self", "oracle.phi_series.band_10_30"),
    "oracle.phi_quadrature.calls": ("count", "oracle.phi_quadrature.calls"),
    "oracle.phi_quadrature.self_s": ("self", "oracle.phi_quadrature"),
    "families.quadratic_triple.calls": ("count", "families.quadratic_triple.calls"),
    "families.quadratic_triple.distinct": ("count", "families.quadratic_triple.distinct"),
    "families.quadratic_triple.self_s": ("self", "families.quadratic_triple"),
    "families.verify_identities.self_s": ("self", "families.verify_identities"),
    "families.identities_checked": ("count", "families.identities_checked"),
    "families.pq_pair.max_n": ("count", "families.pq_pair.max_n"),
    "poly.mul.calls": ("count", "poly.mul.calls"),
    "poly.mul.self_s": ("self", "poly.mul"),
    "poly.eval_rational.calls": ("count", "poly.eval_rational.calls"),
    "poly.eval_rational.self_s": ("self", "poly.eval_rational"),
    "poly.eval_real.calls": ("count", "poly.eval_real.calls"),
    "poly.eval_real.self_s": ("self", "poly.eval_real"),
    "poly.horner_error_bound.calls": ("count", "poly.horner_error_bound.calls"),
    "poly.horner_error_bound.self_s": ("self", "poly.horner_error_bound"),
    "contfrac.cf_convergent.calls": ("count", "contfrac.cf_convergent.calls"),
    "contfrac.cf_convergent.self_s": ("self", "contfrac.cf_convergent"),
    "bounds.beta.self_s": ("self", "bounds.beta"),
    "bounds.first_order_enclosure.self_s": ("self", "bounds.first_order_enclosure"),
    "bounds.second_order_bound.self_s": ("self", "bounds.second_order_bound"),
    **{
        f"bounds.certify_grid.{fam}.self_s": ("self", f"bounds.certify_grid.{fam}")
        for fam in ("eq15", "eq16", "eq17", "eq18", "eq19", "i")
    },
    "bounds.certificates": ("count", "bounds.certificates"),
    "bounds.log_convexity.calls": ("count", "bounds.log_convexity.calls"),
    "cli.main.self_s": ("self", "cli.main"),
}


class ChildError(RuntimeError):
    pass


class Runner:
    """Starts child.py in fresh interpreters against the checkout's src/."""

    def __init__(self, args):
        self.args = args
        self.deadline = perf_counter() + RUN_LIMIT_S
        env = dict(os.environ)
        env.pop("MILLS_PRECISION_BITS", None)  # verify_default runs the CLI defaults
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        self.env = env

    def child(self, mode: str, pass_id: int = 0, trace: bool = False, batches: int = 0) -> dict:
        req = {
            "mode": mode,
            "workload": self.args.workload,
            "seed": self.args.seed,
            "pass_id": pass_id,
            "trace": trace,
            "batches": batches,
            "spans_dir": str(WORK / "spans"),
        }
        timeout = self.deadline - perf_counter()
        if timeout <= 0:
            raise ChildError("run time limit reached")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(req)],
                cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped it
            raise ChildError(f"{mode} pass exceeded the run time limit") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise ChildError(f"{mode} pass exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        return json.loads(lines[-1])

    def one_pass(self, pass_id: int, trace: bool) -> dict:
        if self.args.workload == "point_queries":
            return self.child("pass", pass_id, trace, batches=1)
        return self.child("pass", pass_id, trace)

    def passes(self, seconds: float, trace: bool) -> list[dict]:
        """Fresh-interpreter passes until the next one would overrun
        `seconds`; with trace, untraced and traced passes alternate."""
        results: list[dict] = []
        walls: list[float] = []
        start = perf_counter()
        while True:
            t = perf_counter()
            pid = len(results)
            results.append(self.one_pass(pid, trace and pid % 2 == 1))
            walls.append(perf_counter() - t)
            enough = len(results) >= (2 if trace else 1)
            if enough and perf_counter() - start + statistics.median(walls) > seconds:
                return results


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between order statistics (inclusive method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def is_correct(workload: str, checks: wl.Checks) -> bool:
    """Every failure makes the run incorrect except, on point_queries, a
    bound that does not hold: round-to-nearest bound evaluation is a known
    defect of millsratio 0.1.0, so those count in `failed` but keep the run usable."""
    if workload != "point_queries":
        return checks.failed == 0
    return all(reason in wl.ROUNDING_FAILURES for reason in checks.failures)


def environment() -> list[str]:
    return [
        f"python = {platform.python_version()}",
        f"mpmath = {mpmath.__version__} (backend {mpmath.libmp.BACKEND})",
        f"nproc = {os.cpu_count()}",
    ]


def unit_factors(result: dict) -> list[float]:
    """Per measured unit of a child's result, the factor that takes its
    wall time to seconds of a reference host: CAL_REF_S over the mean of
    the calibration loop's times just before and just after the unit.
    The host's speed swings by a quarter and more, over seconds to
    minutes, and the loop slows with it, so the scaled times keep much of
    that swing out of the comparison between two runs."""
    cal = result["cal_s"]
    return [2 * CAL_REF_S / (before + after) for before, after in zip(cal, cal[1:])]


def scaled(results: list[dict], key: str) -> list[float]:
    """The per-unit values (or per-unit lists of values) under `key`,
    scaled by their unit's factor and flattened."""
    out = []
    for r in results:
        for value, factor in zip(r[key], unit_factors(r)):
            if isinstance(value, list):
                out.extend(v * factor for v in value)
            else:
                out.append(value * factor)
    return out


def timed_run(runner: Runner, args) -> tuple[dict, list[str], dict]:
    probes = [runner.child("setup") for _ in range(SETUP_PROBES)]
    if args.workload == "point_queries":
        results = [runner.child("pass", batches=wl.query_batches(args.seconds))]
    else:
        results = runner.passes(args.seconds, trace=False)
    setups = scaled(probes, "setup_s")
    run_s = scaled(results, "run_s")
    lat = scaled(results, "latencies_ms")
    rss = [r["rss_mb"] for r in results]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (statistics.median(run_s), "s"),
        "query_p50_ms": (percentile(lat, 0.50), "ms"),
        "query_p99_ms": (percentile(lat, 0.99), "ms"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    factors = [f for r in results for f in unit_factors(r)]
    notes = [
        f"samples: setup_s n={len(setups)}, run_s n={len(run_s)}, query latency n={len(lat)}, peak_rss_mb n={len(rss)}",
        f"host factor (times below are wall times multiplied by it, per unit): median {statistics.median(factors)}, "
        f"range {min(factors)}..{max(factors)}; unscaled medians: "
        f"setup_s {statistics.median(t for p in probes for t in p['setup_s'])} s, "
        f"run_s {statistics.median(t for r in results for t in r['run_s'])} s",
    ]
    if args.workload == "point_queries":
        pairs = results[0]["distinct_pairs"]
        notes.append(f"distinct (x, precision) pairs = {pairs} of {len(lat)} queries")
    (WORK / f"{args.workload}-samples.json").write_text(json.dumps({"setup": probes, "passes": results}))
    return metrics, notes, wl.Checks.repeat(results)


def traced_run(runner: Runner, args) -> tuple[dict, list[str], dict]:
    results = runner.passes(args.seconds, trace=True)
    plain = [r for r in results if "counters" not in r]
    traced = [r for r in results if "counters" in r]
    counters = traced[0]["counters"]
    notes = [f"samples: untraced passes n={len(plain)}, traced passes n={len(traced)}"]
    checks = wl.Checks.repeat(results)
    same = all(r["counters"] == counters for r in traced)
    checks.record(None if same else "counters differ between identical passes", json.dumps([r["counters"] for r in traced]))
    metrics = {}
    for name, (kind, source) in PER_LAYER.items():
        if kind == "count":
            metrics[name] = (counters[source], "count")
        else:
            # a pass's self times are scaled by the median factor of its units
            metrics[name] = (statistics.median(
                r["self_s"].get(source, 0.0) * statistics.median(unit_factors(r)) for r in traced
            ), "s")
    run_traced = statistics.median(scaled(traced, "run_s"))
    run_plain = statistics.median(scaled(plain, "run_s"))
    metrics["trace_overhead_s"] = (run_traced - run_plain, "s")
    notes.append(f"traced run_s = {run_traced} s, untraced run_s = {run_plain} s")
    return metrics, notes, checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "millsratio" / "__init__.py").is_file():
        print(f"error: the program is not here: {ROOT / 'src' / 'millsratio'} is missing", file=sys.stderr)
        return 2
    (WORK / "spans").mkdir(parents=True, exist_ok=True)
    for old in (WORK / "spans").glob(f"{args.workload}-*.jsonl"):
        old.unlink()

    runner = Runner(args)
    try:
        metrics, notes, checks = (traced_run if args.trace else timed_run)(runner, args)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    correct = is_correct(args.workload, checks)

    print(f"workload = {args.workload}, seed = {args.seed}, seconds = {args.seconds}, trace = {args.trace}")
    for line in environment() + notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    share = checks.failed / checks.attempted if checks.attempted else 0.0
    print(f"failed_share = {share} ({checks.failed} of {checks.attempted} operations)")
    for reason, count in sorted(checks.failures.items()):
        print(f"  failure: {reason} x{count}, e.g. {checks.examples[reason]}")
    print(f"correct = {correct}")
    print(json.dumps({
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
