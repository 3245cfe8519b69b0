"""Exact scalar arithmetic: rational parsing and quadratic field extensions.

All algebraic identities in this package are checked with zero rounding
error, so the building blocks here work over ``fractions.Fraction``.
``QuadExt`` implements arithmetic in Q(sqrt(d)) for a fixed squarefree
integer d >= 2, which is enough to store fixed-point coordinates whose
entries involve a single quadratic surd.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, isqrt

from .errors import SolverIncompleteError

__all__ = [
    "parse_rational",
    "squarefree_decompose",
    "exact_sqrt",
    "QuadExt",
    "is_exact_scalar",
    "exact_str",
]


def parse_rational(text):
    """Parse ``p/q``, integer, or decimal strings into a Fraction."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    s = str(text).strip()
    if "/" in s:
        num, den = s.split("/", 1)
        return Fraction(int(num.strip()), int(den.strip()))
    return Fraction(s)


TRIAL_DIVISION_BOUND = 10 ** 5  # B in squarefree_decompose
RHO_ITERATIONS = 2 ** 16  # cap on Pollard-Brent rho steps per cofactor
# Miller-Rabin with the first 13 prime bases decides primality below
# MILLER_RABIN_BOUND (Sorenson & Webster, Math. Comp. 86, 2017).
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3317044064679887385961981


def _is_prime(m):
    """Deterministic Miller-Rabin for odd m with 41 < m < the bound."""
    d, r = m - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in MILLER_RABIN_BASES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _rho_factor(m):
    """A proper factor of the odd composite m, or None.

    Pollard's rho with Brent's cycle search on x -> x*x + c, with
    c = 1, 2, ..., for at most RHO_ITERATIONS steps in all (the
    backtrack after an overshooting batch adds at most one batch).
    """
    steps, c = 0, 0
    while steps + 2 <= RHO_ITERATIONS:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1 and steps + 2 * r <= RHO_ITERATIONS:
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % m
                    q = q * (x - y) % m
                g = gcd(q, m)
                k += 128
            steps += 2 * r
            r *= 2
        if g == m:
            # The batch overshot: step one at a time from its start.
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = gcd(x - ys, m)
        if 1 < g < m:
            return g
    return None


def _decompose_cofactor(m):
    """(s, d) with m = s*s*d, d squarefree, for m > 1 whose prime
    factors all exceed TRIAL_DIVISION_BOUND."""
    root = isqrt(m)
    if root * root == m:
        return root, 1
    # Below B**3, m is a prime or a product of two distinct primes.
    if m < TRIAL_DIVISION_BOUND ** 3 or (
            m < MILLER_RABIN_BOUND and _is_prime(m)):
        return 1, m
    factor = _rho_factor(m)
    if factor is None:
        raise SolverIncompleteError(
            "squarefree part undecided: a %d-digit cofactor" % len(str(m)))
    s1, d1 = _decompose_cofactor(factor)
    s2, d2 = _decompose_cofactor(m // factor)
    g = gcd(d1, d2)
    return s1 * s2 * g, (d1 // g) * (d2 // g)


def squarefree_decompose(n):
    """Write n >= 1 as s*s*d with d squarefree; return (s, d).

    Trial division stops at p = B.  The cofactor m left then has only
    prime factors above B, so m is decided when it is a perfect square,
    below B**3 (a prime or a product of two distinct primes) or a prime
    by Miller-Rabin below MILLER_RABIN_BOUND; otherwise Pollard-Brent rho
    splits it, within RHO_ITERATIONS steps, and each factor is decided
    the same way.  A cofactor still undecided raises
    SolverIncompleteError (CLI exit 4).
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
    if p * p > n:
        return s, d * n
    s_rest, d_rest = _decompose_cofactor(n)
    return s * s_rest, d * d_rest


def exact_sqrt(value):
    """Exact square root of a non-negative Fraction or int.

    Returns a Fraction when the root is rational, otherwise a QuadExt
    from squarefree_decompose, which may raise SolverIncompleteError.
    """
    q = value if isinstance(value, Fraction) else Fraction(value)
    if q < 0:
        raise ValueError("square root of a negative rational")
    num, den = q.numerator, q.denominator
    rnum, rden = isqrt(num), isqrt(den)
    if rnum * rnum == num and rden * rden == den:
        return Fraction(rnum, rden)
    # sqrt(a/b) = sqrt(a*b)/b
    s, d = squarefree_decompose(num * den)
    return QuadExt(0, Fraction(s, den), d)


def _collapse(a, b, d):
    return a if b == 0 else QuadExt(a, b, d)


class QuadExt:
    """A number a + b*sqrt(d) with rational a, b and fixed squarefree d >= 2.

    Arithmetic and order with Fraction and int operands stay exact.
    Operations that would leave the field (mixing distinct d with both
    surd parts nonzero) raise TypeError.  Results with vanishing surd part
    collapse to Fraction.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d):
        self.a = a if isinstance(a, Fraction) else Fraction(a)
        self.b = b if isinstance(b, Fraction) else Fraction(b)
        self.d = int(d)
        if self.d < 2:
            raise ValueError("d must be a squarefree integer >= 2")

    def _split(self, other):
        """Return (a, b) parts of the operand inside this field, or None."""
        if isinstance(other, QuadExt):
            if other.d == self.d:
                return other.a, other.b
            if other.b == 0:
                return other.a, Fraction(0)
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
        return hash((self.a, self.b, self.d))

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
