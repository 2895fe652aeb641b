"""Command-line front-end: polynomial generation, bound evaluation,
certification runs, continued fractions, and oracle queries.

Exit status contract: 0 all-pass, 1 certification failure, 2 usage or domain
error, such as a bound where A_n(x) is exactly 0 or an unwritable --out,
and 141 (128 + SIGPIPE), with nothing on stderr, when the reader of stdout
closes the pipe.
Rationals are accepted as "7/3" or "0.1" (parsed exactly, so grids are
reproducible); decimal output is round-to-nearest with 20 significant
digits unless --digits is given; `mills phi` shows its error bound
rounded up, to 3 significant digits.  --precision must be at least 64 bits;
the MILLS_PRECISION_BITS environment variable overrides its default of 128
bits, and a value that is not an integer of at least 64 is a usage error.
`mills beta` takes no precision: its accuracy is set by --tolerance.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from fractions import Fraction
from itertools import groupby
from operator import itemgetter

from . import __version__
from .bounds import FAMILIES, beta, certify_grid, find_family, phi_at
from .contfrac import cf_b, cf_ladder_eval, expansion_str, pq_sweep
from .errors import DomainError, MillsError, SingularityError
from .families import discriminant, hankel, pq_pair, quadratic_triple, verify_identities
from .numutil import DEFAULT_PRECISION_BITS, MIN_PRECISION_BITS, nstr_ceiling, nstr_fixed
from .oracle import phi_quadrature, phi_series

# the verify report's row fields, in order; identity rows fill family, n and verdict
CSV_COLUMNS = ["family", "n", "x", "margin", "precision_bits", "verdict"]
# the columns of each list section of the verify report: its rows are tuples
# in this order, each ending in its pass/fail
SECTIONS = {"identities": ("identity", "n", "status"), "oracle_agreement": ("x", "status"),
            "certificates": tuple(CSV_COLUMNS)}


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def parse_grid(text: str) -> tuple[Fraction, Fraction, Fraction]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"grid must be start:stop:step, got {text!r}")
    start, stop, step = (parse_rational(p) for p in parts)
    if step <= 0:
        raise argparse.ArgumentTypeError(f"grid step must be positive, got step = {step}")
    if stop < start:
        raise argparse.ArgumentTypeError(f"grid stop {stop} is below its start {start}")
    return start, stop, step


def at_least(minimum: int):
    """An argparse type: an integer of at least minimum."""
    def integer(text: str) -> int:
        if int(text) < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {text}")
        return int(text)
    return integer


def grid_points(grid: tuple[Fraction, Fraction, Fraction]) -> list[Fraction]:
    start, stop, step = grid
    return [start + k * step for k in range(int((stop - start) / step) + 1)]


def default_precision() -> int:
    """The MILLS_PRECISION_BITS override, or 128 bits when it is unset or empty.

    A value that is not an integer, or is below the minimum precision, is
    refused with a DomainError that names the variable.
    """
    raw = os.environ.get("MILLS_PRECISION_BITS")
    if not raw:
        return DEFAULT_PRECISION_BITS
    try:
        bits = int(raw)
    except ValueError:
        raise DomainError(f"MILLS_PRECISION_BITS must be an integer, got {raw!r}") from None
    if bits < MIN_PRECISION_BITS:
        raise DomainError(f"MILLS_PRECISION_BITS must be >= {MIN_PRECISION_BITS}, got {bits}")
    return bits


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mills", description=__doc__)
    parser.add_argument("--version", action="version", version=f"mills {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_poly = sub.add_parser("poly", help="print an exact polynomial from one of the families")
    p_poly.add_argument("--which", required=True, choices=["P", "Q", "A", "B", "C", "Delta"])
    p_poly.add_argument("--n", type=at_least(0), required=True)

    p_bounds = sub.add_parser("bounds", help="evaluate a bound family at a point against the oracle")
    fixed = [f"{key} ({fam.order})" for key, fam in FAMILIES.items() if fam.order is not None]
    p_bounds.add_argument(
        "--family", required=True, help=f"one of {', '.join(FAMILIES)}; i<N> (e.g. i2) is short for --family i --n N"
    )
    p_bounds.add_argument("--x", type=parse_rational, required=True)
    p_bounds.add_argument("--n", type=at_least(0), help=f"order within the family (default 0); fixed for {', '.join(fixed)}")

    p_verify = sub.add_parser("verify", help="run the identity suite and grid certification")
    p_verify.add_argument("--n-max", type=at_least(1), default=30)
    p_verify.add_argument("--grid", type=parse_grid, default=(Fraction(1, 10), Fraction(10), Fraction(1, 10)))
    p_verify.add_argument("--format", choices=["json", "csv", "text"], default="json")
    p_verify.add_argument("--out", default=None)
    p_verify.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)

    p_beta = sub.add_parser("beta", help="locate the odd-order threshold root beta_m")
    p_beta.add_argument("--m", type=at_least(0), required=True)
    p_beta.add_argument("--tolerance", type=parse_rational, default=None, help="bracket width (default: 2^-40)")

    p_cf = sub.add_parser("cf", help="continued-fraction convergents and ladder values")
    p_cf.add_argument("--x", type=parse_rational, required=True)
    p_cf.add_argument("--depth", type=at_least(1), default=10)

    p_phi = sub.add_parser("phi", help="evaluate the oracle")
    p_phi.add_argument("--x", type=parse_rational, required=True)
    p_phi.add_argument("--method", choices=["series", "quadrature", "both"], default="series")

    for p in (p_bounds, p_verify, p_cf, p_phi):  # not beta: its accuracy is --tolerance
        p.add_argument("--precision", type=at_least(MIN_PRECISION_BITS), help="working precision in bits (default: MILLS_PRECISION_BITS or 128)")
    for p in (p_bounds, p_verify, p_beta, p_cf, p_phi):
        p.add_argument("--digits", type=at_least(1), default=20, help="significant digits for decimal output")
    return parser


def cmd_poly(args) -> int:
    n, which = args.n, args.which
    if which == "Delta":
        print(discriminant(n))
    else:
        print(getattr(pq_pair(n) if which in ("P", "Q") else quadratic_triple(n), which.lower()))
    return 0


def cmd_bounds(args) -> int:
    """One point of one family: the shown bound values, and the margin and
    verdict of the certificate certify_grid makes at the same point."""
    name, n = args.family, args.n
    suffixed = re.fullmatch(r"([a-z]+)(\d+)", name.strip().lower())
    if suffixed and suffixed[1] in FAMILIES:
        if n not in (None, int(suffixed[2])):
            raise ValueError(f"--family {name} names order {suffixed[2]}, but --n is {n}")
        name, n = suffixed[1], int(suffixed[2])
    fam = find_family(name)
    x, p, digits = args.x, args.precision, args.digits
    memo: dict = {}
    # Family.raw_at refuses an --n other than eq18's or eq19's own order;
    # every value is printed from its raw tuple, as nstr_fixed reads it
    shown, certs = fam.raw_at((fam.order or 0) if n is None else n, x, p, memo)
    family, order, _, margin, _, verdict, _ = certs[0]
    phi = phi_at(x, p, memo)[0]  # the oracle value the certificate was measured against
    lines = [f"family = {family}", f"n = {order}", f"x = {x}", f"precision_bits = {p}"]
    lines += [f"{key} = {nstr_fixed(value, digits)}" for key, value in shown.items()]
    lines += [f"phi = {nstr_fixed(phi, digits)}", f"margin = {nstr_fixed(margin, digits)}", f"verdict = {verdict}"]
    print("\n".join(lines))
    return 0 if verdict == "pass" else 1


def _verify_plan(xs: list[Fraction]) -> list[tuple]:
    """(family, orders, points) of each certify_grid call of `mills verify`
    on the grid xs, in report order."""
    pos = [x for x in xs if x > 0]
    return [("eq15", range(6), pos), ("eq16", range(12), pos), ("eq18", [0], xs),
            ("eq19", [1], [x for x in xs if x > -1]), ("i", range(6), pos), ("eq17", range(4), xs)]


def _run_verification(args) -> dict:
    """The verify report of args as a dict in report order: each SECTIONS
    list holds its rows as tuples in that section's column order, the one
    copy of the rows the writers read.  Each certify_grid call's
    certificates become their rows as the call returns, and are dropped;
    the run's memo is dropped with this call, before anything is written."""
    xs = grid_points(args.grid)
    p = args.precision
    tables = _faulty_tables(args.n_max) if args.inject_fault else None
    identities = [(e["identity"], e["n"], e["status"]) for e in verify_identities(args.n_max, tables)]
    # str(x) once per point: certify_grid keeps the grid's own Fraction in
    # each certificate.  A certificate unpacked gives its margin raw, as
    # nstr_fixed reads it.  The text report shows a failing certificate's
    # margin only, so it renders no other.
    names, every_margin, digits = {id(x): str(x) for x in xs}, args.format != "text", args.digits

    def rows(certs) -> list[tuple]:
        return [(family, n, names[id(x)], nstr_fixed(margin, digits) if every_margin or verdict == "fail" else None,
                 bits, verdict) for family, n, x, margin, bits, verdict, _ in certs]

    # the run's memo: each point's phi, sweep and forms are formed once per
    # run, and the deepest sweep first (Eq16's, to order 12, before Eq15's)
    plan, memo = _verify_plan(xs), {}
    deepest_first = sorted(plan, key=lambda call: FAMILIES[call[0]].depth(max(call[1])), reverse=True)
    by_family = {family: rows(certify_grid(family, list(orders), grid, p, memo)) for family, orders, grid in deepest_first}
    certificates = [row for family, _, _ in plan for row in by_family[family]]
    # oracle cross-agreement on a fixed small grid, decided exactly on the
    # values' integers (OracleValue.dyadic); the series value is the one
    # the certificates read
    agreement = []
    for x in (Fraction(-2), Fraction(-1), Fraction(0), Fraction(1), Fraction(2), Fraction(5)):
        (es, vs, bs), (eq, vq, bq) = phi_at(x, p, memo).dyadic, phi_quadrature(x, p).dyadic
        top = max(es, eq)
        ok = abs((vs << top - es) - (vq << top - eq)) <= (bs << top - es) + (bq << top - eq)
        agreement.append((str(x), "pass" if ok else "fail"))
    config = {"subcommand": "verify", "precision_bits": p, "digits": args.digits, "n_max": args.n_max,
              "grid": ":".join(str(g) for g in args.grid), "format": args.format}
    if args.out:
        config["out"] = args.out
    return {
        "version": __version__,
        "config": config,
        "identities": identities,
        "oracle_agreement": agreement,
        "certificates": certificates,
        "all_pass": all(row[-1] == "pass" for section in (identities, agreement, certificates) for row in section),
    }


def _faulty_tables(n_max: int) -> tuple[list, list]:
    """Copies of the P and Q tables up to order n_max + 2 with P_2 corrupted.

    The identity suite must flag them; the shared memo is never touched, so
    every later run in the process sees correct tables.
    """
    pairs = [pq_pair(k) for k in range(n_max + 3)]
    p_table = [pair.p for pair in pairs]
    p_table[2] = p_table[2] + 1
    return p_table, [pair.q for pair in pairs]


def cmd_verify(args) -> int:
    """Run the verification, then write its report to --out or stdout.  A
    run that is refused, or fails before its rows are formed, writes
    nothing: the report is written only once every row is formed, and
    --out is opened only then."""
    report = _run_verification(args)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as out:
            write_report(report, args.format, out)
    else:
        write_report(report, args.format, sys.stdout)
    return 0 if report["all_pass"] else 1


def _row_template(columns) -> str:
    """The layout json.dumps(indent=2) gives a row of columns inside a
    top-level list, as one % template of the row's tuple: the ints n and
    precision_bits bare, every other column a quoted string."""
    fields = ",\n      ".join(f'"{c}": %s' if c in ("n", "precision_bits") else f'"{c}": "%s"' for c in columns)
    return "    {\n      " + fields + "\n    }"


_ROW_TEMPLATES = {section: _row_template(columns) for section, columns in SECTIONS.items()}


def _write_json(report: dict, out) -> None:
    """The bytes of json.dumps(indent=2) + "\n" of the report with each row
    of a SECTIONS list as the dict of its columns.  Each row is written by
    its section's template, with no escaping: every string in a row is one
    the program forms (a family or identity name, str of a Fraction,
    decimal digits, pass or fail), and none holds a quote, a backslash or a
    control character.  Every other value, such as the config with its
    user-given --out, goes through json's encoder.  A list section is
    written a group of rows at a time, the rows that share a first column
    (one family's certificates), so no piece holds the whole report."""
    lead = "{\n  "
    for key, value in report.items():
        out.write(f'{lead}"{key}": ')
        lead = ",\n  "
        if key not in SECTIONS:
            out.write(json.dumps(value, indent=2).replace("\n", "\n  "))  # a string's newline is escaped
        elif not value:
            out.write("[]")
        else:
            template, start = _ROW_TEMPLATES[key], "[\n"
            for _, rows in groupby(value, itemgetter(0)):
                out.write(start + ",\n".join([template % row for row in rows]))
                start = ",\n"
            out.write("\n  ]")
    out.write("\n}\n")


def _write_csv(report: dict, out) -> None:
    """The CSV_COLUMNS header, one row per identity and one per
    certificate, through csv.writer on out, a row at a time."""
    writer = csv.writer(out)
    writer.writerow(CSV_COLUMNS)
    writer.writerows((f"identity:{identity}", n, "", "", "", status) for identity, n, status in report["identities"])
    writer.writerows(report["certificates"])


def _write_text(report: dict, out) -> None:
    """A summary, a section at a time: each section's pass count, then one
    line per failing row, and the verdict."""
    out.write(f"mills verify (version {report['version']})\n")
    for section, name in (
        ("identities", lambda identity, n, _: f"{identity} at n={n}"),
        ("certificates", lambda family, n, x, margin, *_: f"{family} n={n} x={x} margin={margin}"),
        ("oracle_agreement", lambda x, _: f"oracle agreement at x={x}"),
    ):
        rows = report[section]
        fails = [f"  FAIL {name(*row)}\n" for row in rows if row[-1] == "fail"]
        out.write(f"{section.replace('_', ' ')}: {len(rows) - len(fails)}/{len(rows)} pass\n" + "".join(fails))
    out.write("ALL PASS\n" if report["all_pass"] else "FAILURES PRESENT\n")


_WRITERS = {"json": _write_json, "csv": _write_csv, "text": _write_text}


def write_report(report: dict, fmt: str, out) -> None:
    """Write a verify report, as _run_verification forms it, to the text
    stream out in fmt: "json", "csv" or "text", in pieces."""
    _WRITERS[fmt](report, out)


def read_json_report(text: str) -> dict:
    """A verify report that was written as JSON, its rows read back as
    tuples in their SECTIONS column order, as write_report takes it."""
    report = json.loads(text)
    for section, columns in SECTIONS.items():
        report[section] = [tuple(row[c] for c in columns) for row in report[section]]
    return report


def exact_str(value) -> str:
    """str(value) of an int or Fraction of any size.  CPython refuses to
    convert an int of more digits than sys.get_int_max_str_digits() (4300
    by default); a longer one is cut by divmod into chunks of k = half that
    many digits from the lowest up, in a loop, each converted alone, and
    the process-wide limit is left as it is."""
    if isinstance(value, Fraction):
        return exact_str(value.numerator) + ("" if value.denominator == 1 else "/" + exact_str(value.denominator))
    k = getattr(sys, "get_int_max_str_digits", int)() // 2  # 0: no limit (before Python 3.10.7)
    if not k or -10**k < value < 10**k:
        return str(value)
    rest, unit, chunks = abs(value), 10**k, []
    while rest >= unit:
        rest, low = divmod(rest, unit)
        chunks.append(f"{low:0{k}d}")
    chunks.append(str(rest))
    return "-" * (value < 0) + "".join(reversed(chunks))


def cmd_beta(args) -> int:
    root, n = beta(args.m, args.tolerance), 2 * args.m + 1
    lo, hi = root.bracket
    print(f"m = {args.m}")
    print(f"beta = {nstr_fixed(root.value, args.digits)}")
    print(f"bracket_low = {exact_str(lo)}")
    print(f"bracket_high = {exact_str(hi)}")
    for end, x in (("low", lo), ("high", hi)):
        scaled = hankel(pq_sweep(n + 2, x)[0], n)  # d^{2n+2} A_n(x) at x = a/d, as in beta
        print(f"A_{n}(bracket_{end}) = {exact_str(Fraction(scaled, x.denominator ** (2 * n + 2)))}")
    return 0


def cmd_cf(args) -> int:
    x, depth, p, digits = args.x, args.depth, args.precision, args.digits
    if x <= 0:
        raise DomainError(f"cf requires x > 0, got x = {x}")
    ov = phi_series(x, p)
    print(f"x = {x}")
    print(f"expansion: {expansion_str(min(depth, 8))}")
    print(f"phi = {nstr_fixed(ov.value, digits)}")
    print("n  b_{n-1}  convergent  decimal  ladder(depth=n)")
    ps, qs = pq_sweep(depth, x)  # every convergent Q_n/P_n = q_n/p_n from one sweep
    for n in range(1, depth + 1):
        conv, ladder = Fraction(qs[n], ps[n]), cf_ladder_eval(n, x, p)
        print(f"{n}  {cf_b(n - 1)}  {conv}  {nstr_fixed(conv, digits)}  {nstr_fixed(ladder, digits)}")
    return 0


def cmd_phi(args) -> int:
    x, p, digits = args.x, args.precision, args.digits
    rows = []
    if args.method in ("series", "both"):
        rows.append(phi_series(x, p))
    if args.method in ("quadrature", "both"):
        rows.append(phi_quadrature(x, p))
    print(f"x = {x}")
    print(f"precision_bits = {p}")
    for value, error_bound, method, *_ in rows:  # unpacked raw, as the digits are read
        print(f"{method}: {nstr_fixed(value, digits)} (error_bound <= {nstr_ceiling(error_bound, 3)})")
    return 0


COMMANDS = {
    "poly": cmd_poly,
    "bounds": cmd_bounds,
    "verify": cmd_verify,
    "beta": cmd_beta,
    "cf": cmd_cf,
    "phi": cmd_phi,
}


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Write "--x -5/2" as "--x=-5/2".  argparse takes a token that starts
    with "-" and is not a plain negative number for an option, so it would
    refuse -5/2 or -2:2:1/2 as a value; no option of this CLI starts with a
    digit or a point."""
    out: list[str] = []
    for token in argv:
        if out and re.match(r"-[\d.]", token) and out[-1].startswith("--") and "=" not in out[-1]:
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        if getattr(args, "precision", 0) is None:  # read the variable only where it is used
            args.precision = default_precision()
        status = COMMANDS[args.subcommand](args)
        sys.stdout.flush()  # a reader that closed the pipe shows here, not in the flush at exit
        return status
    except BrokenPipeError:
        # quiet, as a process that SIGPIPE ended (the signal module's "Note on
        # SIGPIPE"): stdout's descriptor points at os.devnull, so the flush at
        # exit writes there and cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 128 + 13  # 128 + SIGPIPE
    except (DomainError, SingularityError, ValueError, OSError) as exc:  # OSError: an unwritable --out
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MillsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
