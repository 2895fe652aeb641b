"""Seeded inputs for the three workloads, and the independent checks that
decide whether each output of the program is right.

Nothing here uses the package's own oracle, polynomial tables or
convergents as a reference:

* phi is taken from ``mpmath.erfc`` at 600 bits or more, never from
  ``millsratio.oracle``;
* P_n(x), Q_n(x) and A_n(x) at a rational point are recomputed from the
  three-term recurrence on exact rational *values*, never from the
  package's ``IntPolynomial`` tables or its scaled convergent recurrence.

This module imports nothing from ``millsratio``; the exception classes a
query must raise are passed in by the caller.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf

# ---------------------------------------------------------------- verify_default
# `mills verify` with every CLI default: grid 1/10..10 step 1/10, --n-max 30,
# 128 bits, JSON report.  The counts are those of millsratio 0.1.0.
VERIFY_ARGV = ["verify"]
VERIFY_IDENTITIES = 367  # identity_count(30)
VERIFY_CERTIFICATES = 3574
VERIFY_AGREEMENTS = 6

# ---------------------------------------------------------------- exact_deep
EXACT_N_MAX = 96  # verify_identities cost grows like n^3; fixed so seeds compare
BETA_MS = tuple(range(16))
CF_COUNT = 200
CF_MIN_ORDER, CF_MAX_ORDER = 20, 200
CF_MAX_DEN = 16
BETA_TOLERANCE = Fraction(1, 2**40)  # beta()'s default bracket width

# ---------------------------------------------------------------- point_queries
QUERY_BATCH = 200  # one pass; run_s on point_queries is the time of a batch
MIN_QUERIES = 1000  # p99 then has at least ten samples beyond it
BATCH_NOMINAL_S = 1.75  # wall time of a batch on the host in README.md
PRECISIONS = (64, 128, 256)
BANDS = ((0, 2), (2, 10), (10, 30))  # |x| bands, used in equal thirds
MAX_DEN = 128  # keeps most (x, precision) pairs from repeating
FIRST_ORDER_MAX_N = 20
SECOND_ORDER_MAX_N = 40
OUT_OF_DOMAIN_EVERY = 20  # one query in 20 is outside its domain
DUAL_ROUTE_SLOTS = (4, 14)  # and two in 20 are series + quadrature checks
BOUND_KINDS = ("first_order", "komatsu", "szarek_werner", "second_order")
REFERENCE_BITS = 600


@dataclass(frozen=True)
class Query:
    kind: str  # "dual_route" or one of BOUND_KINDS
    n: int
    x: Fraction
    precision: int
    expect: str  # "value", "DomainError" or "SingularityError"

    def cli(self) -> str:
        """The equivalent `mills` command.  Negative x is written as
        --x=-5/2 because argparse rejects `--x -5/2`."""
        if self.kind == "dual_route":
            return f"mills phi --method both --x={self.x} --precision {self.precision}"
        family = {
            "first_order": f"eq15 --n {self.n}",
            "komatsu": "eq18",
            "szarek_werner": "eq19",
            "second_order": f"i{self.n}",
        }[self.kind]
        return f"mills bounds --family {family} --x={self.x} --precision {self.precision}"


def _draw_abs(rng: random.Random, band: tuple[int, int], positive: bool, place: float) -> Fraction:
    """|x| in `band`, at the share `place` of its width, on a random denominator."""
    lo, hi = band
    den = rng.randint(1, MAX_DEN)
    top = hi * den + (1 if hi == BANDS[-1][1] else 0)  # the last band is closed
    num = round((lo + (hi - lo) * place) * den)
    return Fraction(min(max(num, lo * den, 1 if positive else 0), top - 1), den)


def make_query(rng: random.Random, index: int, place: float) -> Query:
    """Query number `index` of the stream, with |x| at the share `place`
    of its band.  The band, the precision, the query class and the bound
    kind follow the index, so that every seed runs the same mix; the rest
    is drawn from `rng`."""
    band = BANDS[index % len(BANDS)]
    slot = index % OUT_OF_DOMAIN_EVERY
    p = PRECISIONS[index // len(BANDS) % len(PRECISIONS)]
    if slot == OUT_OF_DOMAIN_EVERY - 1:
        return _out_of_domain(rng, band, p, place)
    if slot in DUAL_ROUTE_SLOTS:
        # x >= 0 only: phi_quadrature takes 0.5-1.2 s at x <= -10, so under 1%
        # of the queries would hold half of a batch's time and p99 would sit
        # on that cliff
        return Query("dual_route", 0, _draw_abs(rng, band, False, place), p, "value")
    kind = BOUND_KINDS[index // (len(BANDS) * len(PRECISIONS)) % len(BOUND_KINDS)]
    if kind == "first_order":
        n = rng.randint(0, FIRST_ORDER_MAX_N)
        return Query(kind, n, _draw_abs(rng, band, True, place), p, "value")
    if kind == "second_order":
        n = rng.randint(0, SECOND_ORDER_MAX_N)
        if n % 2:
            # odd orders live on ]-beta_m, inf[ with beta_m in ]0, 1]; A_1 = x^2 - 1
            # vanishes at x = 1, where the documented outcome is SingularityError
            x = _draw_abs(rng, band, True, place)
            return Query(kind, n, x, p, "SingularityError" if (n, x) == (1, 1) else "value")
        x = _draw_abs(rng, band, False, place)
        return Query(kind, n, -x if rng.random() < 0.25 else x, p, "value")
    x = _draw_abs(rng, band, False, place)
    if kind == "szarek_werner" and x >= 1:
        return Query(kind, 0, x, p, "value")  # negative x is in domain only above -1
    return Query(kind, 0, -x if rng.random() < 0.25 else x, p, "value")


def _out_of_domain(rng: random.Random, band: tuple[int, int], p: int, place: float) -> Query:
    x = _draw_abs(rng, band, False, place)
    case = rng.randrange(4)
    if case == 0:  # the rational enclosure is stated for x > 0
        return Query("first_order", rng.randint(0, FIRST_ORDER_MAX_N), -x, p, "DomainError")
    if case == 1:  # Szarek-Werner needs x > -1
        return Query("szarek_werner", 0, -max(x, Fraction(1)), p, "DomainError")
    if case == 2:  # odd orders need x > -beta_m, and beta_m <= 1
        n = 2 * rng.randint(0, SECOND_ORDER_MAX_N // 2 - 1) + 1
        return Query("second_order", n, -max(x, Fraction(1)), p, "DomainError")
    # beyond the oracle envelope |x| <= 30 (EnvelopeError is a DomainError)
    far = 30 + Fraction(rng.randint(1, 10 * MAX_DEN), MAX_DEN)
    return Query(rng.choice(BOUND_KINDS), 0, far if rng.random() < 0.5 else -far, p, "DomainError")


def query_batch(seed: int, batch: int) -> list[Query]:
    """Batch number `batch` of the stream for `seed`; each batch has its own
    generator so that a batch is the same whichever batches came first.

    The |x| of a batch's queries in one band fall one in each of as many
    equal parts of the band, in a seeded order, so that every batch spends
    about as long on the series route's x^2 cost whatever the seed."""
    rng = random.Random(f"point_queries/{seed}/{batch}")
    start = batch * QUERY_BATCH
    bands = [(start + i) % len(BANDS) for i in range(QUERY_BATCH)]
    parts = [bands.count(b) for b in range(len(BANDS))]
    orders = [rng.sample(range(n), n) for n in parts]
    queries = []
    for i, b in enumerate(bands):
        place = (orders[b].pop() + rng.random()) / parts[b]
        queries.append(make_query(rng, start + i, place))
    return queries


def query_batches(seconds: float) -> int:
    """Batches in a timed point_queries run.  The number follows --seconds,
    not the clock, so a seed always gives the same queries, and the same
    code the same failures, however fast the host runs."""
    return max(-(-MIN_QUERIES // QUERY_BATCH), round(seconds / BATCH_NOMINAL_S))


def run_query(api, q: Query):
    """The calls `mills bounds` / `mills phi` make for one query."""
    ov = api.phi_series(q.x, q.precision)
    if q.kind == "dual_route":
        return ov, api.phi_quadrature(q.x, q.precision)
    if q.kind == "first_order":
        return ov, api.first_order_enclosure(q.n, q.x, q.precision)
    if q.kind == "komatsu":
        return ov, api.komatsu_lower(q.x, q.precision)
    if q.kind == "szarek_werner":
        return ov, api.szarek_werner_upper(q.x, q.precision)
    return ov, api.second_order_bound(q.n, q.x, q.precision)


def _reference_bits(x: Fraction) -> int:
    # phi(x) < 1.26 for x >= 0, but it grows like e^{x^2/2} for x < 0: keep
    # REFERENCE_BITS below the binary point there too
    if x >= 0:
        return REFERENCE_BITS
    return REFERENCE_BITS + math.ceil(float(x) ** 2 / 2 * math.log2(math.e))


def phi_reference(x: Fraction) -> mpf:
    """phi(x) = e^{x^2/2} sqrt(pi/2) erfc(x/sqrt(2)), from mpmath's erfc."""
    with mp.workprec(_reference_bits(x)):
        xv = mpf(x.numerator) / x.denominator
        return mp.exp(xv * xv / 2) * mp.sqrt(mp.pi / 2) * mp.erfc(xv / mp.sqrt(2))


def check_query(q: Query, outcome, ref, errors) -> str | None:
    """None when `outcome` is right for `q`, else the failure class.

    `outcome` is the value run_query returned or the exception it raised;
    `ref` is phi_reference(q.x) (unused when an exception is expected);
    `errors` is the millsratio.errors module.
    """
    if q.expect != "value":
        expected = getattr(errors, q.expect)
        if isinstance(outcome, expected):
            return None
        return f"missing {q.expect}"
    if isinstance(outcome, BaseException):
        return f"unexpected {type(outcome).__name__}"
    ov, result = outcome
    with mp.workprec(_reference_bits(q.x) + 64):
        if abs(ov.value - ref) > ov.error_bound:
            return "series outside error_bound"
        if q.kind == "dual_route":
            return None if abs(result.value - ref) <= result.error_bound else "quadrature outside error_bound"
    if q.kind == "first_order":
        return None if result.lower < ref < result.upper else "unsound enclosure"
    if q.kind == "komatsu":
        return None if result < ref else "unsound lower bound"
    if q.kind == "szarek_werner":
        return None if result > ref else "unsound upper bound"
    if result.role == "lower":
        return None if result.value < ref else "unsound second-order bound"
    return None if result.value > ref else "unsound second-order bound"


class Checks:
    """Operations attempted, and the failed ones with their failure class.

    An operation is named by a string that is unique within its pass.  A
    pass that repeats the same operations is folded in with repeat(): each
    operation counts once, and as failed if it failed in any pass, so the
    counts do not depend on how many passes fit in a run.
    """

    def __init__(self):
        self.attempted = 0
        self.failed_ops: dict[str, str] = {}  # operation -> failure class

    def record(self, reason: str | None, op: str) -> None:
        """One operation; `reason` is its failure class, None if it passed."""
        self.attempted += 1
        if reason:
            self.failed_ops.setdefault(op, reason)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    @property
    def failures(self) -> dict[str, int]:
        """Failed operations by failure class."""
        return dict(Counter(self.failed_ops.values()))

    @property
    def examples(self) -> dict[str, str]:
        """The first failed operation of each class."""
        out: dict[str, str] = {}
        for op, reason in self.failed_ops.items():
            out.setdefault(reason, op)
        return out

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed_ops": self.failed_ops}

    @classmethod
    def repeat(cls, passes: list[dict]) -> "Checks":
        """Fold the as_dict() of passes that ran the same operations."""
        checks = cls()
        checks.attempted = passes[0]["attempted"]
        for p in passes:
            for op, reason in p["failed_ops"].items():
                checks.failed_ops.setdefault(op, reason)
        sizes = sorted({p["attempted"] for p in passes})
        checks.record(None if len(sizes) == 1 else "passes ran different operations", f"operations per pass {sizes}")
        return checks


def check_queries(queries: list[Query], outcomes: list, errors) -> Checks:
    checks = Checks()
    refs: dict[Fraction, mpf] = {}
    for i, (q, outcome) in enumerate(zip(queries, outcomes)):
        ref = None
        if q.expect == "value":
            ref = refs.get(q.x)
            if ref is None:
                ref = refs[q.x] = phi_reference(q.x)
        checks.record(check_query(q, outcome, ref, errors), f"query {i}: {q.cli()}")
    return checks


# Failure classes that come from round-to-nearest bound evaluation, the
# known defect of the bound evaluators.  They count in `failed`; every
# other class also makes the run incorrect.
ROUNDING_FAILURES = frozenset(
    {"unsound enclosure", "unsound lower bound", "unsound upper bound", "unsound second-order bound"}
)


# ---------------------------------------------------------------- exact_deep


def identity_count(n_max: int) -> int:
    """Entries verify_identities(n_max) reports: 7 per order, 5 more for n >= 1."""
    return 7 * (n_max + 1) + 5 * n_max


def cf_inputs(seed: int) -> list[tuple[int, Fraction]]:
    """(order, x) pairs for cf_convergent: orders spread evenly over
    20..200 so that seeds differ only in x."""
    rng = random.Random(f"exact_deep/{seed}")
    out = []
    for i in range(CF_COUNT):
        n = CF_MIN_ORDER + (CF_MAX_ORDER - CF_MIN_ORDER) * i // (CF_COUNT - 1)
        den = rng.randint(1, CF_MAX_DEN)
        out.append((n, Fraction(rng.randint(1, 30 * den), den)))
    return out


def pq_values(n: int, x: Fraction) -> tuple[Fraction, Fraction]:
    """(P_n(x), Q_n(x)) from P_{k+1} = x P_k + k P_{k-1} on values."""
    p_prev, p = Fraction(1), Fraction(x)
    q_prev, q = Fraction(0), Fraction(1)
    if n == 0:
        return p_prev, q_prev
    for k in range(1, n):
        p_prev, p = p, x * p + k * p_prev
        q_prev, q = q, x * q + k * q_prev
    return p, q


def a_value(n: int, x: Fraction) -> Fraction:
    """A_n(x) = P_n P_{n+2} - P_{n+1}^2 at a rational point."""
    p0, p1, p2 = (pq_values(n + k, x)[0] for k in range(3))
    return p0 * p2 - p1 * p1


def check_convergent(n: int, x: Fraction, value) -> str | None:
    p, q = pq_values(n, x)
    return None if value == q / p else "wrong convergent"


def check_beta(m: int, root) -> str | None:
    """The bracket must hold a sign change of A_{2m+1} and be narrow."""
    lo, hi = root.bracket
    # an exact dyadic root is returned as (mid - tol, mid + tol)
    if not (0 <= lo < hi <= 1) or hi - lo > 2 * BETA_TOLERANCE:
        return "bad beta bracket"
    s_lo, s_hi = a_value(2 * m + 1, lo), a_value(2 * m + 1, hi)
    if s_lo > 0 or s_hi < 0 or (s_lo == 0 and s_hi == 0):
        return "bracket without sign change"
    with mp.workprec(256):
        if not (mpf(lo.numerator) / lo.denominator <= root.value <= mpf(hi.numerator) / hi.denominator):
            return "beta value outside bracket"
    return None
