"""Exact scalar arithmetic: rational parsing and quadratic field extensions.

All algebraic identities in this package are checked with zero rounding
error, so the building blocks here work over ``fractions.Fraction``.
``QuadExt`` implements arithmetic in Q(sqrt(d)) for a fixed integer
d >= 2 that is not a perfect square, which is enough to store
fixed-point coordinates whose entries involve a single quadratic surd.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import isqrt

from .errors import InvalidRequestError

__all__ = [
    "parse_rational",
    "exact_sqrt",
    "QuadExt",
    "is_exact_scalar",
    "exact_str",
]


def parse_rational(text):
    """Parse ``p/q``, integer, or decimal strings into a Fraction; a zero
    q raises InvalidRequestError naming the text."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    s = str(text).strip()
    if "/" in s:
        num, den = (int(part.strip()) for part in s.split("/", 1))
        if not den:
            raise InvalidRequestError(f"zero denominator in {s!r}")
        return Fraction(num, den)
    return Fraction(s)


TRIAL_DIVISION_BOUND = 10 ** 5  # B in _square_decompose


def _square_decompose(n):
    """Write n >= 1 as s*s*d; return (s, d).

    Trial division stops at p = B, so d is free of the squares of the
    primes up to B.  The cofactor left then has only prime factors above
    B; one isqrt test moves its root into s when it is a perfect square,
    and otherwise it stays in d, which may then keep the square of a
    prime above B.  QuadExt matches fields by a square test, so no
    caller needs d squarefree.
    """
    if n < 1:
        raise ValueError("need a positive integer")
    s, d, p = 1, 1, 2
    while p * p <= n and p <= TRIAL_DIVISION_BOUND:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    root = isqrt(n)
    if root * root == n:
        return s * root, d
    return s, d * n


def exact_sqrt(value):
    """Exact square root of a non-negative Fraction or int.

    Returns a Fraction when the root is rational, otherwise a QuadExt
    b*sqrt(d) with d from _square_decompose.
    """
    q = value if isinstance(value, Fraction) else Fraction(value)
    if q < 0:
        raise ValueError("square root of a negative rational")
    num, den = q.numerator, q.denominator
    rnum, rden = isqrt(num), isqrt(den)
    if rnum * rnum == num and rden * rden == den:
        return Fraction(rnum, rden)
    # sqrt(a/b) = sqrt(a*b)/b
    s, d = _square_decompose(num * den)
    return QuadExt(0, Fraction(s, den), d)


def _collapse(a, b, d):
    return a if b == 0 else QuadExt(a, b, d)


class QuadExt:
    """A number a + b*sqrt(d) with rational a, b and an integer d >= 2
    that is not a perfect square.

    d need not be squarefree: d and d' name one field when d*d' is a
    perfect square, and an operand from d' enters d's field rescaled.
    Arithmetic and order with Fraction and int operands stay exact.
    Operations that would leave the field (mixing two fields with both
    surd parts nonzero) raise TypeError.  Results with vanishing surd part
    collapse to Fraction; of two QuadExt operands, the left one's d is
    the result's.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d):
        self.a = a if isinstance(a, Fraction) else Fraction(a)
        self.b = b if isinstance(b, Fraction) else Fraction(b)
        self.d = int(d)
        if self.d < 2 or isqrt(self.d) ** 2 == self.d:
            raise ValueError(
                "d must be an integer >= 2 that is not a perfect square")

    def _split(self, other):
        """Return (a, b) parts of the operand inside this field, or None."""
        if isinstance(other, QuadExt):
            if other.d == self.d or other.b == 0:
                return other.a, other.b
            # b'*sqrt(d') = b'*r/d*sqrt(d) where d*d' = r*r.
            square = self.d * other.d
            root = isqrt(square)
            if root * root == square:
                return other.a, other.b * root / self.d
            return None
        if isinstance(other, (int, Fraction)):
            return Fraction(other), Fraction(0)
        return None

    def __add__(self, other):
        if isinstance(other, float):
            return float(self) + other
        parts = self._split(other)
        if parts is None:
            return NotImplemented
        oa, ob = parts
        return _collapse(self.a + oa, self.b + ob, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, float):
            return float(self) - other
        parts = self._split(other)
        if parts is None:
            return NotImplemented
        oa, ob = parts
        return _collapse(self.a - oa, self.b - ob, self.d)

    def __rsub__(self, other):
        if isinstance(other, float):
            return other - float(self)
        parts = self._split(other)
        if parts is None:
            return NotImplemented
        oa, ob = parts
        return _collapse(oa - self.a, ob - self.b, self.d)

    def __mul__(self, other):
        if isinstance(other, float):
            return float(self) * other
        parts = self._split(other)
        if parts is None:
            return NotImplemented
        oa, ob = parts
        return _collapse(self.a * oa + self.b * ob * self.d,
                         self.a * ob + self.b * oa, self.d)

    __rmul__ = __mul__

    def _inverse(self):
        norm = self.a * self.a - self.b * self.b * self.d
        if norm == 0:
            raise ZeroDivisionError("division by zero element")
        return QuadExt(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other):
        if isinstance(other, float):
            return float(self) / other
        parts = self._split(other)
        if parts is None:
            return NotImplemented
        oa, ob = parts
        if ob == 0:
            if oa == 0:
                raise ZeroDivisionError("division by zero")
            return _collapse(self.a / oa, self.b / oa, self.d)
        return self * QuadExt(oa, ob, self.d)._inverse()

    def __rtruediv__(self, other):
        if isinstance(other, float):
            return other / float(self)
        parts = self._split(other)
        if parts is None:
            return NotImplemented
        oa, ob = parts
        return _collapse(oa, ob, self.d) * self._inverse() \
            if ob != 0 else self._inverse() * oa

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = Fraction(1)
        for _ in range(n):
            out = self * out
        return out

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.d)

    def __pos__(self):
        return self

    def __eq__(self, other):
        parts = self._split(other)
        if parts is None:
            if isinstance(other, float):
                return float(self) == other
            return NotImplemented
        oa, ob = parts
        return self.a == oa and self.b == ob

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        # b*|b|*d is the same for every (b, d) that writes b*sqrt(d).
        return hash((self.a, self.b * abs(self.b) * self.d))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __float__(self):
        return float(self.a) + float(self.b) * float(self.d) ** 0.5

    def _sign(self):
        """Exact sign -1, 0 or 1; opposite-sign parts compare a^2, b^2*d."""
        sa = (self.a > 0) - (self.a < 0)
        sb = (self.b > 0) - (self.b < 0)
        if sa * sb >= 0:
            return sa or sb
        gap = self.a * self.a - self.b * self.b * self.d
        return sa if gap > 0 else sb if gap < 0 else 0

    def _order(self, other, op):
        """op(self, other), decided exactly unless other is a float."""
        if isinstance(other, float):
            return op(float(self), other)
        parts = self._split(other)
        if parts is None:
            return NotImplemented
        oa, ob = parts
        return op(QuadExt(self.a - oa, self.b - ob, self.d)._sign(), 0)

    def __abs__(self):
        return self if self._sign() >= 0 else -self

    def __lt__(self, other):
        return self._order(other, operator.lt)

    def __le__(self, other):
        return self._order(other, operator.le)

    def __gt__(self, other):
        return self._order(other, operator.gt)

    def __ge__(self, other):
        return self._order(other, operator.ge)

    def __repr__(self):
        return f"QuadExt({self.a!r}, {self.b!r}, {self.d})"

    def __str__(self):
        surd = _format_surd(self.b, self.d)
        if self.a == 0:
            return surd
        sign = "+" if self.b > 0 else "-"
        mag = _format_surd(abs(self.b), self.d)
        return f"{self.a} {sign} {mag}"


def _format_surd(b, d):
    num, den = b.numerator, b.denominator
    if num == 1:
        head = f"sqrt({d})"
    elif num == -1:
        head = f"-sqrt({d})"
    else:
        head = f"{num}*sqrt({d})"
    return head if den == 1 else f"{head}/{den}"


def is_exact_scalar(value):
    """True for int, Fraction, and QuadExt values."""
    return isinstance(value, (int, Fraction, QuadExt))


def exact_str(value):
    """Canonical string form: '114/5', '3', 'sqrt(10)/12', or a float repr."""
    if isinstance(value, (Fraction, int, QuadExt)):
        return str(value)
    return repr(float(value))
