#!/usr/bin/env python3
"""Run the full identity + certified-bound verification and write a report.

A caller of `mills verify` with a denser grid and higher order cap than the
CLI defaults.  The verification runs once, through the CLI, and writes its
JSON report to reports/verification.json (creating the directory); that
report is then printed as the text summary, byte for byte what
`mills verify --format text` would produce.  Exit status is that of
`mills verify`.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from millsratio import cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=cli.at_least(1), default=40)
    parser.add_argument("--grid", default="0.1:10:0.1")
    parser.add_argument("--precision", type=cli.at_least(cli.MIN_PRECISION_BITS), default=cli.DEFAULT_PRECISION_BITS)
    parser.add_argument("--out", default="reports/verification.json")
    args = parser.parse_args(cli._attach_negative_values(sys.argv[1:] if argv is None else list(argv)))

    out = pathlib.Path(args.out)
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.unlink(missing_ok=True)  # a report left by an earlier run is never printed as this one's
    except OSError as exc:  # as mills verify refuses an --out it cannot write
        print(f"error: {exc}", file=sys.stderr)
        return 2
    options = ["--n-max", str(args.n_max), "--grid", args.grid, "--precision", str(args.precision)]
    rc = cli.main(["verify", *options, "--format", "json", "--out", str(out)])
    if not out.exists():
        return rc  # refused or failed before a report: mills verify printed why
    print(f"wrote {out} (exit {rc})")
    cli.write_report(cli.json_report_as_text(out.read_text(encoding="utf-8")), None)
    return rc


if __name__ == "__main__":
    sys.exit(main())
