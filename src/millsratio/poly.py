"""Exact dense univariate polynomials over arbitrary-precision integers.

Coefficients are Python ints stored in ascending order of the exponent.
The representation is canonical: no trailing zero coefficient is kept, the
zero polynomial is the empty tuple and its degree is -1.  Multiplication is
schoolbook O(d^2); every polynomial in this project has degree at most a
few hundred, so anything fancier would be wasted effort.

Instances are immutable and safe for unrestricted concurrent use.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from mpmath import mp, mpf

from .numutil import check_precision, to_mpf


class IntPolynomial:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[int, ...] = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coefficient(self, k: int) -> int:
        """Coefficient of X^k (0 for k beyond the degree)."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = IntPolynomial([other])
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
        return IntPolynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial([-c for c in self.coeffs])

    def __sub__(self, other) -> "IntPolynomial":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "IntPolynomial":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "IntPolynomial":
        other = _coerce(other)
        if not self.coeffs or not other.coeffs:
            return IntPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial([k * c for k, c in enumerate(self.coeffs)][1:])

    def shift(self, k: int) -> "IntPolynomial":
        """Multiply by X^k."""
        if not self.coeffs:
            return self
        return IntPolynomial([0] * k + list(self.coeffs))

    def eval_rational(self, x: Fraction) -> Fraction:
        """Exact evaluation at x = a/b by homogeneous Horner on integers:
        b^d p(a/b) = sum c_k a^k b^(d-k), reduced by one gcd at the end."""
        x = Fraction(x)
        if not self.coeffs:
            return Fraction(0)
        a, b = x.numerator, x.denominator
        acc, bpow = self.coeffs[-1], 1
        for c in reversed(self.coeffs[:-1]):
            bpow *= b
            acc = acc * a + c * bpow
        return Fraction(acc, bpow)

    def eval_int(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_real(self, x, precision_bits: int) -> mpf:
        """Horner evaluation at the requested binary working precision."""
        check_precision(precision_bits)
        with mp.workprec(precision_bits):
            xv = to_mpf(x)
            acc = mpf(0)
            for c in reversed(self.coeffs):
                acc = acc * xv + c
            return acc

    def eval_abs_real(self, x, precision_bits: int) -> mpf:
        """Sum of |c_k| |x|^k; majorant used in Horner rounding bounds."""
        with mp.workprec(precision_bits):
            xv = abs(to_mpf(x))
            acc = mpf(0)
            for c in reversed(self.coeffs):
                acc = acc * xv + abs(c)
            return acc

    def horner_error_bound(self, x, precision_bits: int) -> mpf:
        """Standard forward bound on the Horner rounding error at x."""
        with mp.workprec(precision_bits):
            d = max(self.degree, 0)
            return self.eval_abs_real(x, precision_bits) * (2 * d + 2) * mpf(2) ** (-precision_bits)

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


def _coerce(value) -> IntPolynomial:
    if isinstance(value, IntPolynomial):
        return value
    if isinstance(value, int):
        return IntPolynomial([value])
    raise TypeError(f"cannot combine IntPolynomial with {type(value).__name__}")


ZERO = IntPolynomial()
ONE = IntPolynomial([1])
X = IntPolynomial([0, 1])
