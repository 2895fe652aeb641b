"""Command-line front-end: polynomial generation, bound evaluation,
certification runs, continued fractions, and oracle queries.

Exit status contract: 0 all-pass, 1 certification failure, 2 usage or
domain error.  Rationals are accepted as "7/3" or "0.1" (parsed exactly,
so grids are reproducible); decimal output is round-to-nearest with 20
significant digits unless --digits is given.  The MILLS_PRECISION_BITS
environment variable overrides the default precision of 128 bits; a value
that is not an integer of at least 64 bits is a usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import __version__
from .bounds import (
    CSV_COLUMNS,
    beta,
    certify_grid,
    first_order_enclosure,
    komatsu_lower,
    second_order_bound,
    szarek_werner_upper,
)
from .contfrac import cf_b, cf_convergent, cf_ladder_eval, expansion_str
from .errors import DomainError, MillsError
from .families import discriminant, pq_pair, quadratic_triple, verify_identities
from .numutil import DEFAULT_PRECISION_BITS, MIN_PRECISION_BITS, nstr_fixed
from .oracle import phi_quadrature, phi_series


@dataclass
class RunConfig:
    subcommand: str
    precision_bits: int
    digits: int = 20
    n: int | None = None
    n_max: int | None = None
    grid: tuple[Fraction, Fraction, Fraction] | None = None
    output_format: str = "json"
    output_path: str | None = None

    def as_dict(self) -> dict:
        d = {"subcommand": self.subcommand, "precision_bits": self.precision_bits, "digits": self.digits}
        if self.n is not None:
            d["n"] = self.n
        if self.n_max is not None:
            d["n_max"] = self.n_max
        if self.grid is not None:
            d["grid"] = ":".join(str(g) for g in self.grid)
        d["format"] = self.output_format
        if self.output_path:
            d["out"] = self.output_path
        return d


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def parse_grid(text: str) -> tuple[Fraction, Fraction, Fraction]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("grid must be start:stop:step")
    start, stop, step = (parse_rational(p) for p in parts)
    if step <= 0:
        raise argparse.ArgumentTypeError("grid step must be positive")
    return start, stop, step


def grid_points(grid: tuple[Fraction, Fraction, Fraction]) -> list[Fraction]:
    start, stop, step = grid
    out = []
    v = start
    while v <= stop:
        out.append(v)
        v += step
    return out


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

    def add_common(p):
        p.add_argument("--precision", type=int, default=None, help="working precision in bits (default: MILLS_PRECISION_BITS or 128)")
        p.add_argument("--digits", type=int, default=20, help="significant digits for decimal output")

    p_poly = sub.add_parser("poly", help="print an exact polynomial from one of the families")
    p_poly.add_argument("--which", required=True, choices=["P", "Q", "A", "B", "C", "Delta"])
    p_poly.add_argument("--n", type=int, required=True)

    p_bounds = sub.add_parser("bounds", help="evaluate a bound family at a point against the oracle")
    p_bounds.add_argument("--family", required=True, help="eq15, eq16, eq18, eq19, or i<N> (e.g. i2)")
    p_bounds.add_argument("--x", type=parse_rational, required=True)
    p_bounds.add_argument("--n", type=int, default=0, help="order within the family (eq15/eq16)")
    add_common(p_bounds)

    p_verify = sub.add_parser("verify", help="run the identity suite and grid certification")
    p_verify.add_argument("--n-max", type=int, default=30)
    p_verify.add_argument("--grid", type=parse_grid, default=(Fraction(1, 10), Fraction(10), Fraction(1, 10)))
    p_verify.add_argument("--format", choices=["json", "csv", "text"], default="json")
    p_verify.add_argument("--out", default=None)
    p_verify.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    add_common(p_verify)

    p_beta = sub.add_parser("beta", help="locate the odd-order threshold root beta_m")
    p_beta.add_argument("--m", type=int, required=True)
    p_beta.add_argument("--tolerance", type=parse_rational, default=None)
    add_common(p_beta)

    p_cf = sub.add_parser("cf", help="continued-fraction convergents and ladder values")
    p_cf.add_argument("--x", type=parse_rational, required=True)
    p_cf.add_argument("--depth", type=int, default=10)
    add_common(p_cf)

    p_phi = sub.add_parser("phi", help="evaluate the oracle")
    p_phi.add_argument("--x", type=parse_rational, required=True)
    p_phi.add_argument("--method", choices=["series", "quadrature", "both"], default="series")
    add_common(p_phi)

    return parser


def cmd_poly(args) -> int:
    n = args.n
    if n < 0:
        raise DomainError("order must be non-negative")
    which = args.which
    if which == "P":
        value = pq_pair(n).p
    elif which == "Q":
        value = pq_pair(n).q
    elif which == "Delta":
        value = discriminant(n)
    else:
        value = getattr(quadratic_triple(n), which.lower())
    print(value)
    return 0


def cmd_bounds(args) -> int:
    fam = args.family.strip().lower()
    x, p, digits = args.x, args.precision, args.digits
    ov = phi_series(x, p)
    lines = [f"family = {fam}", f"n = {args.n}", f"x = {x}", f"precision_bits = {p}"]
    if fam == "eq15":
        enc = first_order_enclosure(args.n, x, p)
        lower, upper = enc.lower, enc.upper
        margin = min(ov.value - lower, upper - ov.value)
        lines += [f"lower = {nstr_fixed(lower, digits)}", f"upper = {nstr_fixed(upper, digits)}"]
    elif fam == "eq18":
        lower = komatsu_lower(x, p)
        margin = ov.value - lower
        lines.append(f"lower = {nstr_fixed(lower, digits)}")
    elif fam == "eq19":
        upper = szarek_werner_upper(x, p)
        margin = upper - ov.value
        lines.append(f"upper = {nstr_fixed(upper, digits)}")
    elif fam.startswith("i") and fam[1:].isdigit():
        sb = second_order_bound(int(fam[1:]), x, p)
        margin = ov.value - sb.value if sb.role == "lower" else sb.value - ov.value
        lines.append(f"{sb.role} = {nstr_fixed(sb.value, digits)}")
    else:
        raise DomainError(f"unknown bound family {args.family!r}")
    verdict = "pass" if margin > ov.error_bound else "fail"
    lines += [
        f"phi = {nstr_fixed(ov.value, digits)}",
        f"margin = {nstr_fixed(margin, digits)}",
        f"verdict = {verdict}",
    ]
    print("\n".join(lines))
    return 0 if verdict == "pass" else 1


def _run_verification(args) -> dict:
    xs = grid_points(args.grid)
    pos = [x for x in xs if x > 0]
    p = args.precision
    identities = verify_identities(args.n_max, _faulty_tables(args.n_max) if args.inject_fault else None)
    certs = []
    small_orders = list(range(0, 6))
    memo: dict = {}  # one phi evaluation per (x, precision) for this run
    if pos:
        certs += certify_grid("eq15", small_orders, pos, p, memo)
        certs += certify_grid("eq16", [n for n in range(0, 12)], pos, p, memo)
    certs += certify_grid("eq18", [0], xs, p, memo)
    certs += certify_grid("eq19", [0], [x for x in xs if x > -1], p, memo)
    certs += certify_grid("i", small_orders, [x for x in pos], p, memo)
    certs += certify_grid("eq17", list(range(0, 4)), xs, p, memo)
    # oracle cross-agreement on a fixed small grid
    agreement = []
    for x in (Fraction(-2), Fraction(-1), Fraction(0), Fraction(1), Fraction(2), Fraction(5)):
        s = phi_series(x, p)
        q = phi_quadrature(x, p)
        ok = abs(s.value - q.value) <= s.error_bound + q.error_bound
        agreement.append({"x": str(x), "status": "pass" if ok else "fail"})
    all_pass = (
        all(e["status"] == "pass" for e in identities)
        and all(c.verdict == "pass" for c in certs)
        and all(e["status"] == "pass" for e in agreement)
    )
    return {
        "version": __version__,
        "config": RunConfig(
            subcommand="verify",
            precision_bits=p,
            digits=args.digits,
            n_max=args.n_max,
            grid=args.grid,
            output_format=args.format,
            output_path=args.out,
        ).as_dict(),
        "identities": identities,
        "oracle_agreement": agreement,
        "certificates": [c.to_json_dict(args.digits) for c in certs],
        "all_pass": all_pass,
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
    report = _run_verification(args)
    write_report(_render_report(report, args.format), args.out)
    return 0 if report["all_pass"] else 1


def write_report(text: str, path: str | None) -> None:
    """Write a rendered report to path, or to stdout when path is None."""
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL)
        writer.writerow(CSV_COLUMNS)
        for e in report["identities"]:
            writer.writerow([f"identity:{e['identity']}", e["n"], "", "", "", e["status"]])
        for c in report["certificates"]:
            writer.writerow([c[k] for k in CSV_COLUMNS])
        return buf.getvalue()
    lines = [f"mills verify (version {report['version']})"]
    fails = [e for e in report["identities"] if e["status"] == "fail"]
    lines.append(f"identities: {len(report['identities']) - len(fails)}/{len(report['identities'])} pass")
    for e in fails:
        lines.append(f"  FAIL {e['identity']} at n={e['n']}")
    cert_fails = [c for c in report["certificates"] if c["verdict"] == "fail"]
    lines.append(f"certificates: {len(report['certificates']) - len(cert_fails)}/{len(report['certificates'])} pass")
    for c in cert_fails:
        lines.append(f"  FAIL {c['family']} n={c['n']} x={c['x']} margin={c['margin']}")
    ag_fails = [e for e in report["oracle_agreement"] if e["status"] == "fail"]
    lines.append(f"oracle agreement: {len(report['oracle_agreement']) - len(ag_fails)}/{len(report['oracle_agreement'])} pass")
    lines.append("ALL PASS" if report["all_pass"] else "FAILURES PRESENT")
    return "\n".join(lines) + "\n"


def cmd_beta(args) -> int:
    root = beta(args.m, args.tolerance)
    a = quadratic_triple(2 * args.m + 1).a
    lo, hi = root.bracket
    print(f"m = {args.m}")
    print(f"beta = {nstr_fixed(root.value, args.digits)}")
    print(f"bracket_low = {lo}")
    print(f"bracket_high = {hi}")
    print(f"A_{2 * args.m + 1}(bracket_low) = {a.eval_rational(lo)}")
    print(f"A_{2 * args.m + 1}(bracket_high) = {a.eval_rational(hi)}")
    return 0


def cmd_cf(args) -> int:
    x, depth, p, digits = args.x, args.depth, args.precision, args.digits
    if x <= 0:
        raise DomainError("cf requires x > 0")
    if depth < 1:
        raise DomainError("depth must be >= 1")
    ov = phi_series(x, p)
    print(f"x = {x}")
    print(f"expansion: {expansion_str(min(depth, 8))}")
    print(f"phi = {nstr_fixed(ov.value, digits)}")
    print("n  b_{n-1}  convergent  decimal  ladder(depth=n)")
    for n in range(1, depth + 1):
        conv = cf_convergent(n, x)
        ladder = cf_ladder_eval(n, x, p)
        print(
            f"{n}  {cf_b(n - 1)}  {conv}  {nstr_fixed(conv, digits)}  {nstr_fixed(ladder, digits)}"
        )
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
    for ov in rows:
        print(f"{ov.method}: {nstr_fixed(ov.value, digits)} (error_bound <= {nstr_fixed(ov.error_bound, 3)})")
    return 0


COMMANDS = {
    "poly": cmd_poly,
    "bounds": cmd_bounds,
    "verify": cmd_verify,
    "beta": cmd_beta,
    "cf": cmd_cf,
    "phi": cmd_phi,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "precision", 0) is None:  # read the variable only where it is used
            args.precision = default_precision()
        return COMMANDS[args.subcommand](args)
    except (DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MillsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
