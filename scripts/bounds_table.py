#!/usr/bin/env python3
"""Print a comparison table of the bound families against the oracle.

For each grid point x the table shows phi(x), the first-order enclosure at a
chosen order, the second-order lower/upper values, and the classical
lower/upper specializations, so the sharpness ordering is visible at a glance.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from millsratio.bounds import FAMILIES
from millsratio.cli import grid_points, parse_digits, parse_grid
from millsratio.errors import DomainError, SingularityError
from millsratio.numutil import nstr_fixed
from millsratio.oracle import phi_series


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grid", type=parse_grid, default="0.5:5:0.5")
    parser.add_argument("--order", type=int, default=2, help="first-order enclosure order n")
    parser.add_argument("--even", type=int, default=2, help="even second-order index 2m")
    parser.add_argument("--odd", type=int, default=3, help="odd second-order index 2m+1")
    parser.add_argument("--precision", type=int, default=128)
    parser.add_argument("--digits", type=parse_digits, default=12)
    args = parser.parse_args()

    xs = grid_points(args.grid)
    p, d = args.precision, args.digits
    # (family, order, one header per value the family shows); "-" marks a
    # point outside the family's domain or at a root of A_n
    columns = [
        ("eq15", args.order, ("cf_lower", "cf_upper")),
        ("i", args.even, (f"I_{args.even}",)),
        ("i", args.odd, (f"I_{args.odd}",)),
        ("eq18", 0, ("lower_cl",)),
        ("eq19", 1, ("upper_cl",)),
    ]

    header = ["x", "phi"] + [h for _, _, headers in columns for h in headers]
    print("  ".join(h.rjust(d + 4) for h in header))
    memo: dict = {}
    for x in xs:
        row = [str(Fraction(x)), nstr_fixed(phi_series(x, p).value, d)]
        for name, n, headers in columns:
            try:
                shown, _ = FAMILIES[name].at(n, x, p, memo)
                row += [nstr_fixed(v, d) for v in shown.values()]
            except (DomainError, SingularityError):
                row += ["-"] * len(headers)
        print("  ".join(v.rjust(d + 4) for v in row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
