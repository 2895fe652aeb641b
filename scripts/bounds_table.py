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

from millsratio.bounds import FAMILIES, GUARD_BITS, phi_at
from millsratio.cli import _attach_negative_values, at_least, grid_points, parse_grid
from millsratio.errors import DomainError, EnvelopeError, SingularityError
from millsratio.numutil import DEFAULT_PRECISION_BITS, MIN_PRECISION_BITS, nstr_fixed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grid", type=parse_grid, default="0.5:5:0.5")
    parser.add_argument("--order", type=at_least(0), default=2, help="first-order enclosure order n")
    parser.add_argument("--even", type=at_least(0), default=2, help="even second-order index 2m")
    parser.add_argument("--odd", type=at_least(0), default=3, help="odd second-order index 2m+1")
    parser.add_argument("--precision", type=at_least(MIN_PRECISION_BITS), default=DEFAULT_PRECISION_BITS)
    parser.add_argument("--digits", type=at_least(1), default=12)
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else list(argv)))

    xs = grid_points(args.grid)
    p, d = args.precision, args.digits
    try:
        phis = [phi_at(x, p).value for x in xs]
    except EnvelopeError as exc:
        parser.error(f"argument --grid: {exc}")
    # (family, order, one header per value the family shows); "-" marks a
    # point outside the family's domain or at a root of A_n.  The values are
    # those Family.at shows, read at p + GUARD_BITS with no certificate
    columns = [
        ("eq15", args.order, ("cf_lower", "cf_upper")),
        ("i", args.even, (f"I_{args.even}",)),
        ("i", args.odd, (f"I_{args.odd}",)),
        ("eq18", 0, ("lower_cl",)),
        ("eq19", 1, ("upper_cl",)),
    ]

    header = ["x", "phi"] + [h for _, _, headers in columns for h in headers]
    print("  ".join(h.rjust(d + 4) for h in header))
    for x, phi in zip(xs, phis):
        row = [str(Fraction(x)), nstr_fixed(phi, d)]
        for name, n, headers in columns:
            try:
                shown = FAMILIES[name].bound(n, x, p + GUARD_BITS)
                row += [nstr_fixed(v, d) for v in shown.values()]
            except (DomainError, SingularityError):
                row += ["-"] * len(headers)
        print("  ".join(v.rjust(d + 4) for v in row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
