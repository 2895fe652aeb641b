"""Certified upper and lower bounds for the Mills ratio.

First-order family (rational enclosures, x > 0):

    Q_{2n}(x)/P_{2n}(x) < phi(x) < Q_{2n+1}(x)/P_{2n+1}(x)
    |phi(x) - Q_n(x)/P_n(x)| < n! / (P_n(x) P_{n+1}(x))

Second-order family (square-root bounds): phi is wedged by the roots
Z_n^{+-}(x) = (B_n(x) +- n! sqrt(x^2+4n+4)) / (2 A_n(x)) of the quadratic
A_n T^2 - B_n T + C_n.  Even orders give the lower bound Z^+ on all of R;
odd orders n = 2m+1 give the upper bound (B - n! sqrt(...)) / (2A) on
]-beta_m, inf[, where beta_m is the unique root of A_{2m+1} in ]0, 1].
The n = 0 and n = 1 specializations are the classical results

    2/(x + sqrt(x^2+4)) < phi(x)              (all real x)
    phi(x) < 4/(3x + sqrt(x^2+8))             (x > -1).

beta_m is located by bisection with *exact* rational sign evaluations, so
the returned bracket is a proof.  At x = +-beta_m the quadratic
degenerates (A vanishes) and the bound evaluator reports a singularity
instead of inventing a continuity value.

First-order values are the exact rationals Q_n(x)/P_n(x) and
n!/(P_n(x) P_{n+1}(x)) rounded once: enclosure endpoints outward, the error
bound up, so they hold at every precision.

The families Eq15 to Eq19 and I are the rows of one table, FAMILIES: a
stated domain, the fixed order of a one-bound family, and an evaluator of
the shown bound values and certificates at a point.  certify_grid,
`mills bounds` and scripts/bounds_table.py all read it, so they share one
verdict rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable

from mpmath import mp, mpf

from .errors import DomainError, EnvelopeError, SingularityError
from .families import pq_pair, quadratic_triple
from .numutil import check_precision, nstr_fixed, to_fraction, to_mpf
from .oracle import phi_series


@dataclass(frozen=True)
class Enclosure:
    x: mpf
    lower: mpf
    upper: mpf
    lower_source: str
    upper_source: str
    precision_bits: int


@dataclass(frozen=True)
class BetaRoot:
    m: int
    value: mpf
    bracket: tuple[Fraction, Fraction]


@dataclass(frozen=True)
class SecondOrderBound:
    n: int
    value: mpf
    role: str  # "lower" for even n, "upper" for odd n


@dataclass(frozen=True)
class Certificate:
    family: str
    n: int
    x: Fraction
    margin: mpf
    precision_bits: int
    verdict: str

    def to_json_dict(self, digits: int = 20) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "x": str(self.x),
            "margin": nstr_fixed(self.margin, digits),
            "precision_bits": self.precision_bits,
            "verdict": self.verdict,
        }


CSV_COLUMNS = ["family", "n", "x", "margin", "precision_bits", "verdict"]


def first_order_enclosure(n: int, x, precision_bits: int = 128) -> Enclosure:
    """Rational enclosure Q_{2n}/P_{2n} < phi < Q_{2n+1}/P_{2n+1}, x > 0,
    with the exact endpoints rounded outward to precision_bits."""
    if n < 0:
        raise ValueError("order must be non-negative")
    check_precision(precision_bits)
    with mp.workprec(precision_bits):
        xf = _positive(x, "first-order enclosure requires x > 0")
        return Enclosure(
            x=to_mpf(xf),
            lower=_rounded(_convergent(2 * n, xf), "f"),
            upper=_rounded(_convergent(2 * n + 1, xf), "c"),
            lower_source=f"Eq15/order={2 * n}",
            upper_source=f"Eq15/order={2 * n + 1}",
            precision_bits=precision_bits,
        )


def first_order_error_bound(n: int, x, precision_bits: int = 128) -> mpf:
    """n! / (P_n(x) P_{n+1}(x)), the first-order truncation error bound,
    rounded up to precision_bits."""
    if n < 0:
        raise ValueError("order must be non-negative")
    check_precision(precision_bits)
    with mp.workprec(precision_bits):
        return _rounded(_error_bound_exact(n, _positive(x, "error bound is stated for x > 0")), "c")


def _positive(x, message: str) -> Fraction:
    """x as an exact rational, refused unless x > 0."""
    xf = to_fraction(x)
    if xf <= 0:
        raise DomainError(message)
    return xf


def _convergent(n: int, x: Fraction) -> Fraction:
    pair = pq_pair(n)
    return pair.q.eval_rational(x) / pair.p.eval_rational(x)


def _error_bound_exact(n: int, x: Fraction) -> Fraction:
    return Fraction(factorial(n)) / (pq_pair(n).p.eval_rational(x) * pq_pair(n + 1).p.eval_rational(x))


def _rounded(value: Fraction, rounding: str = "n") -> mpf:
    """value at the working precision, rounded down ("f"), up ("c") or to nearest ("n")."""
    return mp.fdiv(value.numerator, value.denominator, rounding=rounding)


def komatsu_lower(x, precision_bits: int = 128) -> mpf:
    """2 / (x + sqrt(x^2 + 4)); a lower bound for phi on all of R."""
    check_precision(precision_bits)
    with mp.workprec(precision_bits):
        xv = to_mpf(x)
        if xv < 0:
            # rationalized form avoids cancellation in x + sqrt(x^2+4)
            return (mp.sqrt(xv * xv + 4) - xv) / 2
        return 2 / (xv + mp.sqrt(xv * xv + 4))


def szarek_werner_upper(x, precision_bits: int = 128) -> mpf:
    """4 / (3x + sqrt(x^2 + 8)); an upper bound for phi on ]-1, inf[."""
    check_precision(precision_bits)
    with mp.workprec(precision_bits):
        xv = to_mpf(x)
        if xv <= -1:
            raise DomainError("x must exceed -1")
        if xv < 0:
            # rationalized form avoids cancellation in 3x + sqrt(x^2+8)
            return (mp.sqrt(xv * xv + 8) - 3 * xv) / (2 * (1 - xv * xv))
        return 4 / (3 * xv + mp.sqrt(xv * xv + 8))


def second_order_root(n: int, x, sign: str, precision_bits: int = 128) -> mpf:
    """Root Z_n^{+-}(x) = (B_n(x) +- n! sqrt(x^2+4n+4)) / (2 A_n(x))."""
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    check_precision(precision_bits)
    with mp.workprec(precision_bits):
        xv = to_mpf(x)
        t = quadratic_triple(n)
        a, b, c = (poly.eval_real(xv, precision_bits) for poly in (t.a, t.b, t.c))
        if abs(a) <= t.a.horner_error_bound(xv, precision_bits):
            raise SingularityError(
                f"A_{n}({nstr_fixed(xv, 8)}) is below the evaluation error threshold"
            )
        root = factorial(n) * mp.sqrt(xv * xv + 4 * n + 4)
        # Standard stable quadratic-root evaluation: form b +- root without
        # cancellation, and obtain the other root as c / q via Vieta.
        if b >= 0:
            q = (b + root) / 2
            return q / a if sign == "+" else c / q
        q = (b - root) / 2
        return c / q if sign == "+" else q / a


def second_order_bound(n: int, x, precision_bits: int = 128) -> SecondOrderBound:
    """Even n: lower bound Z^+ on all of R.  Odd n: upper bound
    (B - n! sqrt(x^2+4n+4)) / (2A) on ]-beta_m, inf[."""
    if n < 0:
        raise ValueError("order must be non-negative")
    if n % 2 == 0:
        value = second_order_root(n, x, "+", precision_bits)
        return SecondOrderBound(n=n, value=value, role="lower")
    # ]-beta_m, inf[ is decided by the exact sign of the even polynomial A_n
    # at |x|: negative exactly inside the gap
    xf = to_fraction(x)
    if xf < 0 and quadratic_triple(n).a.eval_rational(-xf) >= 0:
        raise DomainError(f"order {n} upper bound requires x > -beta_{(n - 1) // 2}")
    value = second_order_root(n, x, "-", precision_bits)
    return SecondOrderBound(n=n, value=value, role="upper")


def beta(m: int, tolerance=None) -> BetaRoot:
    """The unique root of A_{2m+1} in ]0, 1], bracketed by exact signs.

    Every sign query is exact rational arithmetic, so the final bracket is
    mathematically certain; the reported value is its midpoint.  When the
    root is exactly 1 (as for m = 0, where A_1 = X^2 - 1) the value is
    exact and the upper bracket endpoint carries sign zero.
    """
    if m < 0:
        raise ValueError("index must be non-negative")
    tol = Fraction(1, 2**40) if tolerance is None else to_fraction(tolerance)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    a = quadratic_triple(2 * m + 1).a
    lo, hi = Fraction(0), Fraction(1)
    if a.eval_rational(lo) >= 0:
        raise ArithmeticError(f"A_{2 * m + 1}(0) must be negative")
    s_hi = a.eval_rational(hi)
    if s_hi == 0:
        return BetaRoot(m=m, value=mpf(1), bracket=(Fraction(1) - min(tol, Fraction(1, 2)), Fraction(1)))
    while hi - lo > tol:
        mid = (lo + hi) / 2
        s = a.eval_rational(mid)
        if s == 0:
            # dyadic midpoint happens to be the exact root
            return BetaRoot(m=m, value=to_mpf(mid), bracket=(mid - tol, mid + tol))
        if s < 0:
            lo = mid
        else:
            hi = mid
    bits = max(128, -(tol.numerator.bit_length() - tol.denominator.bit_length()) + 32)
    with mp.workprec(bits):
        value = to_mpf((lo + hi) / 2)
    return BetaRoot(m=m, value=value, bracket=(lo, hi))


def log_convexity(n: int, x, precision_bits: int = 128, memo: dict | None = None) -> tuple[mpf, mpf]:
    """(margin, threshold) of the log-convexity inequality at (n, x).

    margin = A_n(x) phi(x)^2 - B_n(x) phi(x) + C_n(x), positive iff the
    inequality holds; threshold is its propagated error bound.  phi, A_n,
    B_n and C_n are each evaluated once, at precision_bits + 32; ``memo``
    is an optional phi memo as described in certify_grid.
    """
    if n < 0:
        raise ValueError("order must be non-negative")
    wp = precision_bits + 32
    ov = _phi(x, wp, memo)
    t = quadratic_triple(n)
    with mp.workprec(wp):
        xv = to_mpf(x)
        a, b, c = (poly.eval_real(xv, wp) for poly in (t.a, t.b, t.c))
        phi = ov.value
        margin = a * phi * phi - b * phi + c
        horner = sum(poly.horner_error_bound(xv, wp) for poly in (t.a, t.b, t.c))
        slope = abs(2 * a * phi - b) + 1
        return margin, slope * ov.error_bound + horner * (1 + phi * phi)


def log_convexity_check(n: int, x, precision_bits: int = 128) -> mpf:
    """A_n(x) phi(x)^2 - B_n(x) phi(x) + C_n(x); positive iff the
    log-convexity inequality holds at (n, x)."""
    return log_convexity(n, x, precision_bits)[0]


def log_convexity_error(n: int, x, precision_bits: int = 128) -> mpf:
    """Propagated error bound for log_convexity_check at the same arguments."""
    return log_convexity(n, x, precision_bits)[1]


def _phi(x, precision_bits: int, memo: dict | None):
    """phi_series(x, precision_bits), read from and stored into memo if given."""
    if memo is None:
        return phi_series(x, precision_bits)
    key = (x, precision_bits)
    ov = memo.get(key)
    if ov is None:
        ov = memo[key] = phi_series(x, precision_bits)
    return ov


def _cert(family: str, n: int, x: Fraction, margin: mpf, threshold: mpf, precision_bits: int) -> Certificate:
    return Certificate(family, n, x, margin, precision_bits, "pass" if margin > threshold else "fail")


def _oracle(x: Fraction, precision_bits: int, memo: dict | None) -> tuple[mpf, mpf]:
    """phi at precision_bits + 16, and the slack a margin must clear: the
    oracle error bound plus one unit of rounding at precision_bits."""
    ov = _phi(x, precision_bits + 16, memo)
    return ov.value, ov.error_bound + mp.ldexp(1 + abs(ov.value), -precision_bits)


def _eq15(n: int, x: Fraction, precision_bits: int, memo: dict | None):
    phi, slack = _oracle(x, precision_bits, memo)
    lower = _rounded(_convergent(2 * n, x), "f")
    upper = _rounded(_convergent(2 * n + 1, x), "c")
    margin = min(phi - lower, upper - phi)
    return {"lower": lower, "upper": upper}, [_cert("Eq15", n, x, margin, slack, precision_bits)]


def _eq16(n: int, x: Fraction, precision_bits: int, memo: dict | None):
    phi, slack = _oracle(x, precision_bits, memo)
    conv = _rounded(_convergent(n, x))
    bound = _rounded(_error_bound_exact(n, x), "c")
    margin = bound - abs(phi - conv)
    return {"convergent": conv, "error_bound": bound}, [_cert("Eq16", n, x, margin, 2 * slack, precision_bits)]


def _eq17(n: int, x: Fraction, precision_bits: int, memo: dict | None):
    margin, threshold = log_convexity(n, x, precision_bits, memo)
    return {}, [_cert("Eq17", n, x, margin, threshold, precision_bits)]


def _eq18(n: int, x: Fraction, precision_bits: int, memo: dict | None):
    phi, slack = _oracle(x, precision_bits, memo)
    lower = komatsu_lower(x, precision_bits + 16)
    return {"lower": lower}, [_cert("Eq18", n, x, phi - lower, slack, precision_bits)]


def _eq19(n: int, x: Fraction, precision_bits: int, memo: dict | None):
    phi, slack = _oracle(x, precision_bits, memo)
    upper = szarek_werner_upper(x, precision_bits + 16)
    return {"upper": upper}, [_cert("Eq19", n, x, upper - phi, slack, precision_bits)]


def _second_order(n: int, x: Fraction, precision_bits: int, memo: dict | None):
    """I_n, plus the companion I_n_sharper certificate of its sharpness
    against the first-order convergent: Q_{2m}/P_{2m} < Z^+ for x > 0 and
    Z^- < Q_{2m+1}/P_{2m+1} for x > beta_m."""
    phi, slack = _oracle(x, precision_bits, memo)
    sb = second_order_bound(n, x, precision_bits + 16)
    margin = phi - sb.value if sb.role == "lower" else sb.value - phi
    certs = [_cert(f"I_{n}", n, x, margin, slack, precision_bits)]
    if x > 0 and (n % 2 == 0 or quadratic_triple(n).a.eval_rational(x) > 0):
        conv = _rounded(_convergent(n, x))
        sharper = sb.value - conv if sb.role == "lower" else conv - sb.value
        rounding = mp.ldexp(1 + abs(conv), -precision_bits)
        certs.append(_cert(f"I_{n}_sharper", n, x, sharper, rounding, precision_bits))
    return {sb.role: sb.value}, certs


@dataclass(frozen=True)
class Family:
    """One bound family: what differs between families, and nothing more.

    ``evaluate(n, x, precision_bits, memo)`` returns the bound values shown
    at (n, x), by name, and the certificates made there, with ``memo`` as in
    certify_grid; it raises DomainError or SingularityError where the
    order-n bound is not stated.  It runs at the working precision
    precision_bits + 16, which its callers (``at``, certify_grid) set once
    for all the points they evaluate."""

    name: str
    x_above: int | None  # stated domain x > x_above; None: every x the oracle takes
    order: int | None  # the one order of a single-bound family
    evaluate: Callable[[int, Fraction, int, dict | None], tuple[dict[str, mpf], list[Certificate]]]

    def check(self, x: Fraction) -> None:
        """Refuse x outside the family's stated domain."""
        if self.x_above is not None and x <= self.x_above:
            raise DomainError(f"{self.name}: x must exceed {self.x_above}, got x = {x}")

    def at(self, n: int, x: Fraction, precision_bits: int = 128, memo: dict | None = None):
        """Shown values and certificates at one point; n is ignored by a
        single-bound family."""
        self.check(x)
        with mp.workprec(precision_bits + 16):
            return self.evaluate(n if self.order is None else self.order, x, precision_bits, memo)


# The evaluators call the public functions by their module names, so that
# wrappers installed on the module see every call.
FAMILIES = {
    fam.name.lower(): fam
    for fam in (
        Family("Eq15", 0, None, _eq15),
        Family("Eq16", 0, None, _eq16),
        Family("Eq17", None, None, _eq17),
        Family("Eq18", None, 0, _eq18),
        Family("Eq19", -1, 1, _eq19),
        Family("I", None, None, _second_order),
    )
}


def find_family(name: str) -> Family:
    """The FAMILIES row for a family name, in any letter case."""
    fam = FAMILIES.get(name.strip().lower())
    if fam is None:
        raise ValueError(f"unknown bound family {name!r}; expected one of {', '.join(FAMILIES)}")
    return fam


def certify_grid(
    family: str, orders: list[int], xs: list[Fraction], precision_bits: int = 128, memo: dict | None = None
) -> list[Certificate]:
    """Evaluate a bound family against the oracle on a grid.

    Each certificate records the margin (distance from violation) rather
    than a boolean, so near-violations remain visible in reports; the
    verdict is "pass" only when the margin clears the oracle error bound
    plus evaluation slack.  For the second-order family the sharpness
    claims against the first-order convergents are certified as companion
    "<id>_sharper" entries.  An x outside the family's stated domain is a
    DomainError; (n, x) pairs outside an order's own domain (odd orders of
    I) or at a root of A_n are skipped.

    ``memo`` holds the oracle values keyed by (x, working precision).  A
    caller that certifies several families over one grid passes the same
    dict to every call, so each phi is evaluated once for the whole run;
    without it the memo lives for this call only.  The dict is the caller's
    and is dropped with it: there is no process-wide oracle cache.
    """
    fam = find_family(family)
    check_precision(precision_bits)
    xs = [Fraction(x) for x in xs]
    for x in xs:
        fam.check(x)
    memo = {} if memo is None else memo
    out: list[Certificate] = []
    with mp.workprec(precision_bits + 16):
        for x in xs:
            for n in orders if fam.order is None else [fam.order]:
                try:
                    out += fam.evaluate(n, x, precision_bits, memo)[1]
                except EnvelopeError:
                    raise  # beyond the oracle, whatever the order
                except (DomainError, SingularityError):
                    continue  # outside this order's domain, or exactly at a root of A_n
    out.sort(key=lambda c: (c.family, c.n, c.x))
    return out
