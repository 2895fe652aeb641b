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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from mpmath import mp, mpf

from .errors import DomainError, SingularityError
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

    def to_csv_row(self, digits: int = 20) -> list[str]:
        d = self.to_json_dict(digits)
        return [str(d[k]) for k in CSV_COLUMNS]


CSV_COLUMNS = ["family", "n", "x", "margin", "precision_bits", "verdict"]


def first_order_enclosure(n: int, x, precision_bits: int = 128) -> Enclosure:
    """Rational enclosure Q_{2n}/P_{2n} < phi < Q_{2n+1}/P_{2n+1}, x > 0."""
    if n < 0:
        raise ValueError("order must be non-negative")
    check_precision(precision_bits)
    with mp.workprec(precision_bits):
        xv = to_mpf(x)
        if xv <= 0:
            raise DomainError("first-order enclosure requires x > 0")
        lo_pair, hi_pair = pq_pair(2 * n), pq_pair(2 * n + 1)
        lower = lo_pair.q.eval_real(xv, precision_bits) / lo_pair.p.eval_real(xv, precision_bits)
        upper = hi_pair.q.eval_real(xv, precision_bits) / hi_pair.p.eval_real(xv, precision_bits)
        return Enclosure(
            x=xv,
            lower=lower,
            upper=upper,
            lower_source=f"Eq15/order={2 * n}",
            upper_source=f"Eq15/order={2 * n + 1}",
            precision_bits=precision_bits,
        )


def first_order_error_bound(n: int, x, precision_bits: int = 128) -> mpf:
    """n! / (P_n(x) P_{n+1}(x)), the first-order truncation error bound."""
    if n < 0:
        raise ValueError("order must be non-negative")
    check_precision(precision_bits)
    with mp.workprec(precision_bits):
        xv = to_mpf(x)
        if xv <= 0:
            raise DomainError("error bound is stated for x > 0")
        pn = pq_pair(n).p.eval_real(xv, precision_bits)
        pn1 = pq_pair(n + 1).p.eval_real(xv, precision_bits)
        return factorial(n) / (pn * pn1)


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


def _quadratic_at(n: int, x, precision_bits: int):
    """(A_n(x), B_n(x), C_n(x), singularity guard threshold) as mpf."""
    t = quadratic_triple(n)
    a = t.a.eval_real(x, precision_bits)
    b = t.b.eval_real(x, precision_bits)
    c = t.c.eval_real(x, precision_bits)
    guard = t.a.horner_error_bound(x, precision_bits)
    return a, b, c, guard


def second_order_root(n: int, x, sign: str, precision_bits: int = 128) -> mpf:
    """Root Z_n^{+-}(x) = (B_n(x) +- n! sqrt(x^2+4n+4)) / (2 A_n(x))."""
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    check_precision(precision_bits)
    with mp.workprec(precision_bits):
        xv = to_mpf(x)
        a, b, c, guard = _quadratic_at(n, xv, precision_bits)
        if abs(a) <= guard:
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


def _check_odd_domain(n: int, x) -> None:
    """Odd-order bound lives on ]-beta_m, inf[; decided by the exact sign
    of the even polynomial A_n at |x| (negative exactly inside the gap)."""
    xf = to_fraction(x)
    if xf >= 0:
        return
    if quadratic_triple(n).a.eval_rational(-xf) >= 0:
        raise DomainError(f"order {n} upper bound requires x > -beta_{(n - 1) // 2}")


def second_order_bound(n: int, x, precision_bits: int = 128) -> SecondOrderBound:
    """Even n: lower bound Z^+ on all of R.  Odd n: upper bound
    (B - n! sqrt(x^2+4n+4)) / (2A) on ]-beta_m, inf[."""
    if n < 0:
        raise ValueError("order must be non-negative")
    if n % 2 == 0:
        value = second_order_root(n, x, "+", precision_bits)
        return SecondOrderBound(n=n, value=value, role="lower")
    _check_odd_domain(n, x)
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


FAMILIES = ("Eq15", "Eq16", "Eq17", "Eq18", "Eq19", "I")


def certify_grid(
    family: str, orders: list[int], xs: list[Fraction], precision_bits: int = 128, memo: dict | None = None
) -> list[Certificate]:
    """Evaluate a bound family against the oracle on a grid.

    Each certificate records the margin (distance from violation) rather
    than a boolean, so near-violations remain visible in reports; the
    verdict is "pass" only when the margin clears the oracle error bound
    plus evaluation slack.  For the second-order family the sharpness
    claims against the first-order convergents are certified as companion
    "<id>_sharper" entries.

    ``memo`` holds the oracle values keyed by (x, working precision).  A
    caller that certifies several families over one grid passes the same
    dict to every call, so each phi is evaluated once for the whole run;
    without it the memo lives for this call only.  The dict is the caller's
    and is dropped with it: there is no process-wide oracle cache.
    """
    fam = _normalize_family(family)
    check_precision(precision_bits)
    wp = precision_bits + 16
    xs = [Fraction(x) for x in xs]
    memo = {} if memo is None else memo

    def cert(fid: str, n: int, x: Fraction, margin: mpf, threshold: mpf) -> Certificate:
        verdict = "pass" if margin > threshold else "fail"
        return Certificate(fid, n, x, margin, precision_bits, verdict)

    out: list[Certificate] = []
    with mp.workprec(wp):
        for x in xs:
            if fam == "Eq17":
                for n in orders:
                    out.append(cert("Eq17", n, x, *log_convexity(n, x, precision_bits, memo)))
                continue
            ov = _phi(x, wp, memo)
            phi = ov.value
            slack = ov.error_bound + (1 + abs(phi)) * mpf(2) ** (-precision_bits)
            for n in _family_orders(fam, orders):
                if fam == "Eq15":
                    lo = to_mpf(_convergent(2 * n, x))
                    hi = to_mpf(_convergent(2 * n + 1, x))
                    out.append(cert("Eq15", n, x, min(phi - lo, hi - phi), slack))
                elif fam == "Eq16":
                    conv = to_mpf(_convergent(n, x))
                    bound = to_mpf(_error_bound_exact(n, x))
                    out.append(cert("Eq16", n, x, bound - abs(phi - conv), 2 * slack))
                elif fam == "Eq18":
                    out.append(cert("Eq18", 0, x, phi - komatsu_lower(x, wp), slack))
                elif fam == "Eq19":
                    out.append(cert("Eq19", 1, x, szarek_werner_upper(x, wp) - phi, slack))
                elif fam == "I":
                    try:
                        sb = second_order_bound(n, x, wp)
                    except (DomainError, SingularityError):
                        continue  # outside the stated domain, or exactly at a root of A_n
                    margin = phi - sb.value if sb.role == "lower" else sb.value - phi
                    out.append(cert(f"I_{n}", n, x, margin, slack))
                    out.extend(_sharper_cert(n, x, sb, precision_bits, wp))
    out.sort(key=lambda c: (c.family, c.n, c.x))
    return out


def _sharper_cert(n: int, x: Fraction, sb: SecondOrderBound, precision_bits: int, wp: int):
    """Second-order vs first-order: Q_{2m}/P_{2m} < Z^+ for x > 0 and
    Z^- < Q_{2m+1}/P_{2m+1} for x > beta_m; exact convergent values."""
    t = quadratic_triple(n)
    if n % 2 == 0:
        applies = x > 0
    else:
        applies = x > 0 and t.a.eval_rational(x) > 0
    if not applies:
        return []
    conv = to_mpf(_convergent(n, x))
    margin = sb.value - conv if sb.role == "lower" else conv - sb.value
    rounding = (1 + abs(conv)) * mpf(2) ** (-precision_bits)
    verdict = "pass" if margin > rounding else "fail"
    return [Certificate(f"I_{n}_sharper", n, x, margin, precision_bits, verdict)]


def _convergent(n: int, x: Fraction) -> Fraction:
    pair = pq_pair(n)
    return pair.q.eval_rational(x) / pair.p.eval_rational(x)


def _error_bound_exact(n: int, x: Fraction) -> Fraction:
    return Fraction(factorial(n)) / (pq_pair(n).p.eval_rational(x) * pq_pair(n + 1).p.eval_rational(x))


def _family_orders(fam: str, orders: list[int]) -> list[int]:
    if fam in ("Eq18", "Eq19"):
        return [0]
    return list(orders)


def _normalize_family(family: str) -> str:
    key = family.strip().lower()
    table = {"eq15": "Eq15", "eq16": "Eq16", "eq17": "Eq17", "eq18": "Eq18", "eq19": "Eq19", "i": "I", "second": "I"}
    if key not in table:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    return table[key]
