"""One measurement in a fresh interpreter; run.py starts it.

Usage: python3 perfbench/child.py '<request JSON>'

The request either asks for ``setup`` (time ``import millsratio``, plus
the memo warm-up on point_queries, and nothing else) or for a ``pass`` of
its workload:

* verify_default and exact_deep: one pass from a cold memo;
* point_queries: ``batches`` batches on a warm memo.

The last line on stdout is one JSON object with the measurements, the
operation counts and the outcome of every output check.  Checks run after
the clock stops and after peak memory is read.

Times are wall times of measured units (a set-up, a pass, a batch of
queries); latencies are listed per unit.  Next to them the child reports
``cal_s``: the time of a fixed integer loop that runs no millsratio code,
taken before the first unit and after every unit, so unit i lies between
``cal_s[i]`` and ``cal_s[i + 1]``.  run.py scales each unit by them.
"""

from __future__ import annotations

import json
import statistics
import sys
from time import perf_counter

CAL_LOOPS = 60_000
CAL_REPEATS = 3


def _spin(n: int) -> int:
    s = 0
    for i in range(n):
        s += i * i % 7
    return s


def calibration_s() -> float:
    """Median wall time of the calibration loop, about 5 ms a repeat."""
    times = []
    for _ in range(CAL_REPEATS):
        start = perf_counter()
        _spin(CAL_LOOPS)
        times.append(perf_counter() - start)
    return statistics.median(times)


def setup(req: dict) -> dict:
    before = calibration_s()
    start = perf_counter()
    import millsratio

    if req["workload"] == "point_queries":
        warm_up(millsratio)
    wall = perf_counter() - start
    return {"setup_s": [wall], "cal_s": [before, calibration_s()]}


def warm_up(api) -> None:
    """Fill the polynomial memo up to the highest order point_queries uses,
    as a long-lived library caller would."""
    import workloads as wl

    api.pq_pair(max(2 * wl.FIRST_ORDER_MAX_N + 1, wl.SECOND_ORDER_MAX_N + 2))
    for n in range(wl.SECOND_ORDER_MAX_N + 1):
        api.quadratic_triple(n)


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def start_tracer(req: dict):
    if not req["trace"]:
        return None
    from tracer import Tracer

    tracer = Tracer(req["pass_id"])
    tracer.install()
    return tracer


def finish_tracer(tracer, req: dict, out: dict) -> None:
    if tracer is None:
        return
    tracer.uninstall()
    out["counters"] = tracer.counters()
    out["self_s"] = dict(tracer.self_s)
    tracer.write_spans(f"{req['spans_dir']}/{req['workload']}-{req['pass_id']}.jsonl")


def verify_pass(req: dict) -> dict:
    import contextlib
    import io

    import millsratio.cli as cli
    import workloads as wl

    tracer = start_tracer(req)
    buf = io.StringIO()
    before = calibration_s()
    start = perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(wl.VERIFY_ARGV))
    run_s = perf_counter() - start
    out = {"run_s": [run_s], "latencies_ms": [[run_s * 1e3]], "rss_mb": peak_rss_mb(), "cal_s": [before, calibration_s()]}
    finish_tracer(tracer, req, out)

    checks = wl.Checks()
    command = "mills " + " ".join(wl.VERIFY_ARGV)
    try:
        report = json.loads(buf.getvalue())
    except json.JSONDecodeError:
        checks.record("report is not JSON", command)
        return {**out, **checks.as_dict()}
    sections = (
        ("identities", "status", wl.VERIFY_IDENTITIES),
        ("certificates", "verdict", wl.VERIFY_CERTIFICATES),
        ("oracle_agreement", "status", wl.VERIFY_AGREEMENTS),
    )
    for section, field, _ in sections:
        for e in report.get(section, []):
            checks.record(None if e[field] == "pass" else f"{section} {e[field]}", json.dumps(e))
    counts = {section: len(report.get(section, [])) for section, _, _ in sections}
    command_ok = rc == 0 and report.get("all_pass") is True and all(counts[s] == n for s, _, n in sections)
    checks.record(
        None if command_ok else "verify command",
        f"{command}: exit {rc}, all_pass {report.get('all_pass')}, counts {counts}",
    )
    return {**out, **checks.as_dict()}


def exact_pass(req: dict) -> dict:
    import millsratio
    import workloads as wl

    cf_inputs = wl.cf_inputs(req["seed"])
    tracer = start_tracer(req)
    results, latencies = [], []

    def timed(fn, *args):
        start = perf_counter()
        try:
            value = fn(*args)
        except Exception as exc:  # recorded and counted as a failed operation
            value = exc
        latencies.append((perf_counter() - start) * 1e3)
        results.append(value)

    before = calibration_s()
    start = perf_counter()
    timed(millsratio.verify_identities, wl.EXACT_N_MAX)
    for m in wl.BETA_MS:
        timed(millsratio.beta, m)
    for n, x in cf_inputs:
        timed(millsratio.cf_convergent, n, x)
    run_s = perf_counter() - start
    out = {"run_s": [run_s], "latencies_ms": [latencies], "rss_mb": peak_rss_mb(), "cal_s": [before, calibration_s()]}
    finish_tracer(tracer, req, out)

    checks = wl.Checks()
    identities, betas, convergents = results[0], results[1 : 1 + len(wl.BETA_MS)], results[1 + len(wl.BETA_MS) :]
    call = f"verify_identities({wl.EXACT_N_MAX})"
    if isinstance(identities, Exception):
        checks.record(f"unexpected {type(identities).__name__}", call)
    else:
        for e in identities:
            checks.record(None if e["status"] == "pass" else "identity fail", json.dumps(e))
        count_ok = len(identities) == wl.identity_count(wl.EXACT_N_MAX)
        checks.record(None if count_ok else "identity count", f"{call}: {len(identities)} entries")
    for m, root in zip(wl.BETA_MS, betas):
        reason = f"unexpected {type(root).__name__}" if isinstance(root, Exception) else wl.check_beta(m, root)
        checks.record(reason, f"beta({m})")
    for i, ((n, x), value) in enumerate(zip(cf_inputs, convergents)):
        reason = f"unexpected {type(value).__name__}" if isinstance(value, Exception) else wl.check_convergent(n, x, value)
        checks.record(reason, f"call {i}: cf_convergent({n}, {x})")
    return {**out, **checks.as_dict()}


def stream(req: dict) -> dict:
    import millsratio
    import millsratio.errors as errors
    import workloads as wl

    warm_up(millsratio)
    tracer = start_tracer(req)
    queries, outcomes, latencies, batch_s = [], [], [], []
    rss_mb = None
    cal_s = [calibration_s()]
    for batch in range(req["batches"]):
        qs = wl.query_batch(req["seed"], batch)
        latencies.append([])
        batch_start = perf_counter()
        for q in qs:
            t = perf_counter()
            try:
                outcome = wl.run_query(millsratio, q)
            except Exception as exc:  # the expected DomainError, or a counted failure
                outcome = exc
            latencies[-1].append((perf_counter() - t) * 1e3)
            outcomes.append(outcome)
        batch_s.append(perf_counter() - batch_start)
        queries.extend(qs)
        if rss_mb is None and len(queries) >= wl.MIN_QUERIES:
            # read after a fixed number of queries, because the outcomes kept
            # for the checks grow with the length of the run
            rss_mb = peak_rss_mb()
        cal_s.append(calibration_s())
    out = {"run_s": batch_s, "latencies_ms": latencies, "rss_mb": rss_mb or peak_rss_mb(), "cal_s": cal_s}
    finish_tracer(tracer, req, out)

    out["distinct_pairs"] = len({(q.x, q.precision) for q in queries})
    return {**out, **wl.check_queries(queries, outcomes, errors).as_dict()}


MODES = {"setup": setup, "verify_default": verify_pass, "exact_deep": exact_pass, "point_queries": stream}


def main() -> int:
    req = json.loads(sys.argv[1])
    mode = "setup" if req["mode"] == "setup" else req["workload"]
    result = MODES[mode](req)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
