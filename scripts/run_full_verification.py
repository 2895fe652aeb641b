#!/usr/bin/env python3
"""Run the full identity + certified-bound verification and write a report.

Equivalent to `mills verify` with a denser grid and higher order cap than
the CLI defaults.  The verification runs once; its result is written as
JSON to reports/verification.json (creating the directory) and printed as
the text summary to stdout, byte for byte what `mills verify --format json
--out ...` and `mills verify --format text` would produce.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from millsratio.cli import _render_report, _run_verification, at_least, build_parser, write_report
from millsratio.errors import DomainError


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=at_least(1), default=40)
    parser.add_argument("--grid", default="0.1:10:0.1")
    parser.add_argument("--precision", type=int, default=128)
    parser.add_argument("--out", default="reports/verification.json")
    args = parser.parse_args(argv)

    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)

    verify_args = build_parser().parse_args(
        [
            "verify",
            "--n-max",
            str(args.n_max),
            "--grid",
            args.grid,
            "--precision",
            str(args.precision),
            "--format",
            "json",
            "--out",
            str(out),
        ]
    )
    try:
        report = _run_verification(verify_args)
    except (DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    write_report(_render_report(report, "json"), str(out))
    rc = 0 if report["all_pass"] else 1
    print(f"wrote {out} (exit {rc})")
    write_report(_render_report(report, "text"), None)
    return rc


if __name__ == "__main__":
    sys.exit(main())
