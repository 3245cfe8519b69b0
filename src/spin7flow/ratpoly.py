"""Exact multivariate polynomial arithmetic over the rationals.

This engine backs the positivity-certification layer.  It provides an
immutable polynomial class with Fraction coefficients and a fixed
variable order, Sylvester resultants of polynomials regarded as
univariate in one designated variable, Sturm-sequence isolation of the
real roots of exact univariate polynomials, and a branch-and-bound box
certifier for multivariate non-negativity whose per-box range bounds
come from exact rational Bernstein coefficients.

Every routine here is exact.  Floating point enters in one place, as a
guess: root isolation takes the last cell of its bisection from a float
Newton estimate and checks that cell with exact signs, so no result
depends on it.  Callers convert results themselves when they want
doubles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, gcd, lcm, prod
from operator import add

from .errors import InvalidRequestError

__all__ = [
    "Ball",
    "Box",
    "Certificate",
    "Interval",
    "RatPoly",
    "STATUS_COUNTEREXAMPLE",
    "STATUS_INCONCLUSIVE",
    "STATUS_NONNEGATIVE",
    "certify_nonneg",
    "count_distinct_roots",
    "random_nonnegativity_audit",
    "rational_string",
    "smallest_root_in_interval",
    "sturm_sequence",
    "sylvester_matrix",
    "sylvester_resultant",
    "univariate_gcd",
]

STATUS_NONNEGATIVE = "NonNegative"
STATUS_COUNTEREXAMPLE = "CounterexampleFound"
STATUS_INCONCLUSIVE = "Inconclusive"

DEFAULT_MAX_DEPTH = 40
# _subdivide's box budget: the ray certificate of (10**4, 1) takes
# 609,965 boxes, and its tree grows about 70-fold per decade of k.
BOX_BUDGET = 2 ** 20
ROOT_ACCURACY = Fraction(1, 10 ** 12)
SNAP_DENOMINATOR = 10 ** 6
# At most this many Newton or bisection steps for a float root estimate.
# Newton's iteration near a simple root needs a few; an estimate the cap
# cuts short is checked like any other.
_NEWTON_STEPS = 100


def _coerce(value):
    """Exact scalar coercion.  Floats are refused to keep the ring exact."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise InvalidRequestError(
        f"coefficients must be exact rationals, got {type(value).__name__}")


def rational_string(value):
    """Serialize an exact rational as an explicit num/den string."""
    q = _coerce(value)
    return f"{q.numerator}/{q.denominator}"


def _product(f, g):
    """Product of two {exponents: coefficient} dicts."""
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            key = tuple(map(add, e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return out


def _compile_evaluation(poly, fixed):
    """The fixed data of the evaluation kernel for poly with the
    variables at indices fixed set: the coefficients as integer
    numerators over their lcm, the degree of each fixed variable, and
    the terms grouped by their exponents in the kept variables, the
    groups in RatPoly term order.  A family that serves many points
    compiles once and runs _integer_evaluation per point."""
    nums, scale = _integer_multiple(poly.terms.values())
    degrees = list(map(max, zip(*poly.terms))) or [0] * len(poly.variables)
    kept = [i for i in range(len(degrees)) if i not in fixed]
    groups = {}
    for exps, n in zip(poly.terms, nums):
        groups.setdefault(tuple([exps[i] for i in kept]), []).append(
            (tuple([exps[i] for i in fixed]), n))
    return (scale, tuple(degrees[i] for i in fixed),
            tuple(sorted(groups.items(), key=lambda group: (
                sum(group[0]), group[0]), reverse=True)))


def _integer_evaluation(compiled, points):
    """The one evaluation kernel: yields ({kept exponents: numerator},
    denominator) at each point for a polynomial compiled by
    _compile_evaluation.  A point gives each fixed variable, in the
    compiled order, as p/q from a pair (p, q), q > 0; a value x that is
    not rational, such as a quadratic-extension number, comes as (x, 1).
    A fixed variable of degree m enters each term as p**e * q**(m - e)."""
    scale, degrees, groups = compiled
    for point in points:
        denominator, tables = scale, []
        for m, (p, q) in zip(degrees, point):
            tables.append([p ** e * q ** (m - e) for e in range(m + 1)])
            denominator *= q ** m
        sums = {}
        for key, rows in groups:
            total = 0
            for exps, n in rows:
                for table, e in zip(tables, exps):
                    n = n * table[e]
                total = total + n
            sums[key] = total
        yield sums, denominator


class RatPoly:
    """A polynomial with Fraction coefficients over named variables.

    Terms are stored as a map from exponent tuples to nonzero Fraction
    coefficients and iterate in graded lexicographic order, highest
    total degree first with ties broken by the exponent tuple in
    descending lexicographic order.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise InvalidRequestError(f"duplicate variable in {variables}")
        width = len(variables)
        cleaned = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != width or any(
                    not isinstance(e, int) or e < 0 for e in exps):
                raise InvalidRequestError(
                    f"bad exponent tuple {exps} for variables {variables}")
            q = _coerce(coeff)
            if q != 0:
                cleaned[exps] = cleaned[exps] + q if exps in cleaned else q
        ordered = sorted(cleaned, key=lambda e: (sum(e), e), reverse=True)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(
            self, "terms",
            {e: cleaned[e] for e in ordered if cleaned[e] != 0})

    # The slots are read-only by convention; block accidental rebinds.
    def __setattr__(self, name, value):
        raise AttributeError("RatPoly is immutable")

    @classmethod
    def _ordered(cls, variables, terms):
        """A RatPoly from terms its caller built in canonical form:
        distinct variable names, and nonzero Fractions under in-range
        exponent tuples, in term order.  Nothing is checked."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "variables", variables)
        object.__setattr__(poly, "terms", terms)
        return poly

    @classmethod
    def zero(cls, variables):
        return cls(variables, {})

    @classmethod
    def constant(cls, variables, value):
        zero_exp = (0,) * len(tuple(variables))
        return cls(variables, {zero_exp: value})

    @classmethod
    def variable(cls, variables, name):
        variables = tuple(variables)
        if name not in variables:
            raise InvalidRequestError(f"{name!r} is not one of {variables}")
        exps = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, {exps: 1})

    @property
    def is_zero(self):
        return not self.terms

    def ordered_terms(self):
        return tuple(self.terms.items())

    def _check_same_variables(self, other):
        if self.variables != other.variables:
            raise InvalidRequestError(
                f"variable mismatch: {self.variables} versus "
                f"{other.variables}")

    def __add__(self, other):
        if not isinstance(other, RatPoly):
            other = RatPoly.constant(self.variables, other)
        self._check_same_variables(other)
        merged = dict(self.terms)
        for exps, coeff in other.terms.items():
            merged[exps] = merged.get(exps, Fraction(0)) + coeff
        return RatPoly(self.variables, merged)

    __radd__ = __add__

    def __neg__(self):
        return RatPoly(self.variables,
                       {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, RatPoly)
                       else -_coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, RatPoly):
            q = _coerce(other)
            return RatPoly(self.variables,
                           {e: c * q for e, c in self.terms.items()})
        self._check_same_variables(other)
        return RatPoly(self.variables, _product(self.terms, other.terms))

    __rmul__ = __mul__

    def __truediv__(self, other):
        q = _coerce(other)
        if q == 0:
            raise ZeroDivisionError("division of a polynomial by zero")
        return RatPoly(self.variables,
                       {e: c / q for e, c in self.terms.items()})

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise InvalidRequestError("polynomial powers are naturals")
        result = RatPoly.constant(self.variables, 1)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, RatPoly):
            if self.degree() > 0:
                return False
            value = self.terms.get((0,) * len(self.variables), Fraction(0))
            try:
                return value == _coerce(other)
            except InvalidRequestError:
                return NotImplemented
        return (self.variables == other.variables
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.variables, tuple(self.terms.items())))

    def degree(self, name=None):
        """Total degree, or the degree in one variable.  Zero gives -1."""
        if self.is_zero:
            return -1
        if name is None:
            return max(sum(e) for e in self.terms)
        idx = self._index(name)
        return max(e[idx] for e in self.terms)

    def _index(self, name):
        try:
            return self.variables.index(name)
        except ValueError:
            raise InvalidRequestError(
                f"{name!r} is not one of {self.variables}") from None

    def partial(self, name):
        """Exact partial derivative."""
        idx = self._index(name)
        out = {}
        for exps, coeff in self.terms.items():
            if exps[idx] == 0:
                continue
            key = tuple(e - 1 if i == idx else e
                        for i, e in enumerate(exps))
            out[key] = out.get(key, Fraction(0)) + coeff * exps[idx]
        return RatPoly(self.variables, out)

    def evaluate(self, values):
        """Exact evaluation, the full case of substitute.  Accepts a
        mapping by name or a sequence.  Point entries may be any exact
        scalar with ring arithmetic over the integers, so
        quadratic-extension numbers work."""
        if isinstance(values, dict):
            try:
                point = [values[v] for v in self.variables]
            except KeyError as missing:
                raise InvalidRequestError(
                    f"no value for variable {missing}") from None
        else:
            point = list(values)
            if len(point) != len(self.variables):
                raise InvalidRequestError(
                    f"expected {len(self.variables)} coordinates, "
                    f"got {len(point)}")
        compiled = _compile_evaluation(self, range(len(point)))
        (sums, denominator), = _integer_evaluation(compiled, [[
            x.as_integer_ratio() if isinstance(x, (int, Fraction)) else (x, 1)
            for x in point]])
        return sums.get((), 0) / Fraction(denominator)

    def substitute(self, values):
        """The polynomial in the remaining variables, with each variable
        named in values set to that exact rational."""
        fixed = [self._index(name) for name in values]
        (sums, denominator), = _integer_evaluation(
            _compile_evaluation(self, fixed),
            [[_coerce(x).as_integer_ratio() for x in values.values()]])
        kept = tuple(v for i, v in enumerate(self.variables) if i not in fixed)
        return RatPoly(kept, {key: Fraction(n, denominator)
                              for key, n in sums.items()})

    def compose(self, variables_out, mapping):
        """Substitute every variable by a polynomial or exact scalar.

        mapping sends each of this polynomial's variable names to
        either a RatPoly over variables_out or an exact rational.  Terms
        and powers are plain dicts; only the result is a RatPoly.
        """
        variables_out = tuple(variables_out)
        images = []
        for name in self.variables:
            image = mapping[name]
            if not isinstance(image, RatPoly):
                image = RatPoly.constant(variables_out, image)
            elif image.variables != variables_out:
                raise InvalidRequestError(
                    f"image of {name!r} uses {image.variables}, "
                    f"expected {variables_out}")
            images.append(image.terms)
        zero = (0,) * len(variables_out)
        powers = [[{zero: 1}] for _ in images]
        out = {}
        for exps, coeff in self.terms.items():
            term = {zero: coeff}
            for image, cache, e in zip(images, powers, exps):
                while len(cache) <= e:
                    cache.append(_product(cache[-1], image))
                if e:
                    term = _product(term, cache[e])
            for key, c in term.items():
                out[key] = out.get(key, 0) + c
        return RatPoly(variables_out, out)

    def coefficient_of(self, name, power):
        """The coefficient of name**power, as a polynomial with the
        same variable list and exponent zero in that slot."""
        idx = self._index(name)
        out = {}
        for exps, coeff in self.terms.items():
            if exps[idx] == power:
                key = tuple(0 if i == idx else e
                            for i, e in enumerate(exps))
                out[key] = coeff
        return RatPoly(self.variables, out)

    def drop_variable(self, name):
        """Remove an unused variable from the variable list."""
        if self.degree(name) > 0:
            raise InvalidRequestError(
                f"{name!r} still occurs with positive degree")
        return self.substitute({name: 0})

    def univariate_coefficients(self, name=None):
        """Ascending coefficient list of an effectively univariate
        polynomial."""
        if name is None:
            live = [v for v in self.variables if self.degree(v) > 0]
            if len(live) > 1:
                raise InvalidRequestError(
                    f"polynomial is multivariate in {live}")
            name = live[0] if live else self.variables[0] \
                if self.variables else None
            if name is None:
                raise InvalidRequestError("no variables to collect on")
        idx = self._index(name)
        degree = max((e[idx] for e in self.terms), default=0)
        coeffs = [Fraction(0)] * (degree + 1)
        for exps, coeff in self.terms.items():
            if any(e and i != idx for i, e in enumerate(exps)):
                raise InvalidRequestError(
                    "polynomial is not univariate in " + repr(name))
            coeffs[exps[idx]] += coeff
        return coeffs

    def __repr__(self):
        return f"RatPoly({self.variables!r}, {self!s})"

    def __str__(self):
        if self.is_zero:
            return "0"
        chunks = []
        for exps, coeff in self.terms.items():
            factors = []
            for name, e in zip(self.variables, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            body = "*".join(factors)
            mag = abs(coeff)
            if body and mag == 1:
                piece = body
            elif body:
                piece = f"{mag}*{body}"
            else:
                piece = str(mag)
            sign = "-" if coeff < 0 else "+"
            chunks.append((sign, piece))
        first_sign, first_piece = chunks[0]
        text = ("-" if first_sign == "-" else "") + first_piece
        for sign, piece in chunks[1:]:
            text += f" {sign} {piece}"
        return text


# ---------------------------------------------------------------------------
# Sylvester resultants
# ---------------------------------------------------------------------------

def sylvester_matrix(f, g, var):
    """The Sylvester matrix of f and g regarded as univariate in var.

    Rows hold the descending coefficient sequences, f shifted through
    deg(g) rows and g through deg(f) rows.  Degrees are the exact
    degrees in var of the stored terms, so coefficient polynomials that
    merely vanish at special parameter values do not shrink the matrix.
    """
    if not isinstance(f, RatPoly) or not isinstance(g, RatPoly):
        raise InvalidRequestError("sylvester_matrix expects RatPoly inputs")
    f._check_same_variables(g)
    m = f.degree(var)
    n = g.degree(var)
    if m < 1 or n < 1:
        raise InvalidRequestError(
            f"both inputs need degree >= 1 in {var!r}, got {m} and {n}")
    fc = [f.coefficient_of(var, m - i) for i in range(m + 1)]
    gc = [g.coefficient_of(var, n - i) for i in range(n + 1)]
    size = m + n
    zero = RatPoly.zero(f.variables)
    matrix = []
    for shift in range(n):
        row = [zero] * size
        for j, entry in enumerate(fc):
            row[shift + j] = entry
        matrix.append(row)
    for shift in range(m):
        row = [zero] * size
        for j, entry in enumerate(gc):
            row[shift + j] = entry
        matrix.append(row)
    return matrix


def _poly_determinant(matrix):
    """Exact determinant by column expansion with minor memoization.

    Each row is cleared of denominators once, by the lcm of its
    coefficients' denominators, so the expansion runs on integer
    {exponents: int} dicts; the product of the row scales divides out
    once at the end.
    """
    size = len(matrix)
    if size == 0:
        raise InvalidRequestError("empty matrix")
    variables = matrix[0][0].variables
    scale = 1
    rows = []
    for row in matrix:
        nums, row_scale = _integer_multiple(
            [c for entry in row for c in entry.terms.values()])
        scale *= row_scale
        nums = iter(nums)
        rows.append([{e: next(nums) for e in entry.terms} for entry in row])
    memo = {}
    unit = {(0,) * len(variables): 1}

    def minor(col, row_mask):
        if col == size:
            return unit
        key = (col, row_mask)
        cached = memo.get(key)
        if cached is not None:
            return cached
        total = {}
        parity = 0
        for row in range(size):
            bit = 1 << row
            if row_mask & bit:
                continue
            entry = rows[row][col]
            if entry:
                sub = minor(col + 1, row_mask | bit)
                sign = -1 if parity & 1 else 1
                for e1, c1 in entry.items():
                    c1 *= sign
                    for e2, c2 in sub.items():
                        exps = tuple(map(add, e1, e2))
                        total[exps] = total.get(exps, 0) + c1 * c2
            parity += 1
        total = {e: c for e, c in total.items() if c}
        memo[key] = total
        return total

    return RatPoly(variables, {e: Fraction(c, scale)
                               for e, c in minor(0, 0).items()})


def sylvester_resultant(f, g, var=None):
    """Resultant of f and g in var, as a polynomial in the remaining
    variables.  var may be omitted only when the two polynomials are
    jointly live in a single variable name."""
    if var is None:
        live = sorted({v for v in f.variables if f.degree(v) > 0}
                      | {v for v in g.variables if g.degree(v) > 0})
        if len(live) != 1:
            raise InvalidRequestError(
                "ambiguous elimination variable; pass var explicitly")
        var = live[0]
    det = _poly_determinant(sylvester_matrix(f, g, var))
    return det.drop_variable(var)


# ---------------------------------------------------------------------------
# Univariate real-root machinery
# ---------------------------------------------------------------------------

def _strip(coeffs):
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def _sign_at(ints, p, q):
    """Exact sign of an integer polynomial at x = p/q with q > 0.

    Homogeneous Horner returns q**degree times the value, which has the
    value's sign; p/q need not be in lowest terms.
    """
    total, scale = 0, 1
    for c in reversed(ints):
        total = total * p + c * scale
        scale *= q
    return (total > 0) - (total < 0)


def univariate_gcd(a, b):
    """Monic greatest common divisor of two exact coefficient lists, from
    the primitive pseudo-remainder chain of sturm_sequence."""
    a, b = (_primitive(_integer_multiple(_strip(c))[0]) for c in (a, b))
    while b:
        a, b = b, _primitive(_pseudo_divmod(a, b)[1])
    if not a:
        return []
    return [Fraction(c, a[-1]) for c in a]


def _derivative(coeffs):
    return [c * i for i, c in enumerate(coeffs)][1:]


def _integer_multiple(coeffs):
    """(ints, scale): an exact coefficient list as integer numerators
    over scale, the lcm of its denominators."""
    scale = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (scale // c.denominator) for c in coeffs], scale


def _primitive(ints):
    """An integer list over the gcd of its entries, a positive divisor,
    so every sign stays."""
    content = gcd(*ints)
    return [c // content for c in ints] if content > 1 else ints


def _pseudo_divmod(num, den):
    """(q, r) with s*num = q*den + r for an integer s > 0, on integer
    lists.

    Pseudo-division (Collins 1967) with the scale's sign dropped: each
    step multiplies q and num by |lc(den)| and cancels num's top term,
    so no step divides, and q and r are positive multiples of the
    rational quotient and remainder.
    """
    num = list(num)
    lead = den[-1]
    scale, sign = abs(lead), (1 if lead > 0 else -1)
    low = den[:-1]
    quotient = []  # highest power first
    while len(num) >= len(den):
        factor = num.pop() * sign
        if factor:
            if scale != 1:
                num = [c * scale for c in num]
                quotient = [c * scale for c in quotient]
            offset = len(num) - len(low)
            for j, d in enumerate(low):
                num[offset + j] -= factor * d
        quotient.append(factor)
    while num and num[-1] == 0:
        num.pop()
    return quotient[::-1], num


def sturm_sequence(coeffs):
    """Sturm sequence of an exact polynomial p, as primitive integer
    coefficient lists.

    The primitive pseudo-remainder chain on (p, p') (Collins 1967; Brown
    & Traub 1971): each member is minus the pseudo-remainder of the two
    before it, divided by its content.  Both steps scale by a positive
    integer, so each member is a positive multiple of the member that
    Euclid's chain over the rationals gives, with the same signs
    everywhere.  When the last member g = gcd(p, p') is not constant,
    every member is divided by g with a positive leading coefficient,
    so the first member is the squarefree part of p.
    """
    p0 = _strip(coeffs)
    if len(p0) <= 1:
        return [_integer_multiple(p0)[0]] if p0 else []
    p0 = _primitive(_integer_multiple(p0)[0])
    seq = [p0, _primitive(_derivative(p0))]
    while len(seq[-1]) > 1:
        rem = _pseudo_divmod(seq[-2], seq[-1])[1]
        if not rem:
            g = seq[-1] if seq[-1][-1] > 0 else [-c for c in seq[-1]]
            return [_primitive(_pseudo_divmod(member, g)[0])
                    for member in seq]
        seq.append(_primitive([-c for c in rem]))
    return seq


def _sign_changes(seq, p, q):
    previous = 0
    changes = 0
    for coeffs in seq:
        sign = _sign_at(coeffs, p, q)
        if sign == 0:
            continue
        if previous and sign != previous:
            changes += 1
        previous = sign
    return changes


def count_distinct_roots(sequence, lo, hi):
    """Distinct real roots in the half-open interval (lo, hi], lo <= hi,
    of the first member of a Sturm sequence.  Either endpoint may be a root.
    """
    lo, hi = _coerce(lo), _coerce(hi)
    if hi < lo:
        raise InvalidRequestError("need lo <= hi to count roots")
    return (_sign_changes(sequence, *lo.as_integer_ratio())
            - _sign_changes(sequence, *hi.as_integer_ratio()))


def _convergents(n, d, max_denominator):
    """Continued-fraction convergents (h, k) of n/d, d > 0, in lowest
    terms with 0 < k <= max_denominator."""
    out = []
    h0, h1 = 1, 0
    k0, k1 = 0, 1
    while d:
        a = n // d
        n, d = d, n - a * d
        h0, h1 = a * h0 + h1, h0
        k0, k1 = a * k0 + k1, k0
        if k0 > max_denominator:
            break
        out.append((h0, k0))
    return out


def _float_root(ints, lo, hi, sign_hi):
    """A float estimate of the one sign change of an integer polynomial
    in (lo, hi), sign_hi its sign at hi: Newton steps from the midpoint,
    each kept inside the bracket the float signs leave and replaced by
    the bracket's midpoint when it falls outside."""
    top = max(map(abs, ints))
    coeffs = [c / top for c in reversed(ints)]  # in [-1, 1]: no overflow
    x = (lo + hi) / 2
    for _ in range(_NEWTON_STEPS):
        value = slope = 0.0
        for c in coeffs:
            slope = slope * x + value
            value = value * x + c
        if value == 0:
            return x
        if (value > 0) == (sign_hi > 0):
            hi = x
        else:
            lo = x
        step = x - value / slope if slope else lo
        step = step if lo < step < hi else (lo + hi) / 2
        if step == x:
            return x
        x = step
    return x


def _estimated_cell(ints, a, b, q, sign_b, tol_num, tol_den):
    """(x, y, r): of the cells (x/r, y/r] that halving (a/q, b/q] until
    it is no wider than tol_num/tol_den can end in, the one that holds
    _float_root's estimate; None when no halving is left, the bracket is
    out of the float range, or the estimate is not a number in it.  The
    cell is found in integers from the estimate's exact value; the signs
    at its ends are not checked here."""
    width = b - a
    halvings = (-(-width * tol_den // (tol_num * q)) - 1).bit_length()
    if not halvings:
        return None
    try:
        lo, hi = a / q, b / q
    except OverflowError:
        return None
    x = _float_root(ints, lo, hi, sign_b)
    if not lo <= x < hi:  # NaN included
        return None
    num, den = x.as_integer_ratio()
    cell = ((num * q - a * den) << halvings) // (width * den)
    if not 0 <= cell < 1 << halvings:
        return None
    x = (a << halvings) + cell * width
    return x, x + width, q << halvings


def smallest_root_in_interval(coeffs, lo, hi, include_lo=False,
                              accuracy=ROOT_ACCURACY):
    """Leftmost real root of an exact univariate polynomial on an
    interval, or None.

    The search covers (lo, hi], and [lo, hi] when include_lo is set.
    Returns a pair (root, exact).  When exact is True the root is a
    proven rational zero; otherwise it is the midpoint of a bracket no
    wider than accuracy, which must be positive.  Rational candidates
    with denominator up to SNAP_DENOMINATOR are tested exactly before
    settling for a bracket.
    Bisection uses Sturm counts on (a, b] while the bracket holds more
    than one root, then the exact sign of the squarefree part alone.
    The bracket is (a/q, b/q] with integers a, b and a denominator q
    that doubles at each halving, so its tests run in integers.  Once
    it holds one simple root, a float Newton estimate names the cell
    the remaining halvings would end in, and two exact signs check it:
    a zero at an end inside the bracket is the midpoint they would
    return, and ends that bracket the sign change are their last cell.
    When the check fails the halvings run as before, so the result is
    the same either way.
    """
    lo, hi = _coerce(lo), _coerce(hi)
    if hi <= lo:
        raise InvalidRequestError("need lo < hi for root isolation")
    if accuracy <= 0:
        raise InvalidRequestError("root accuracy must be positive")
    sequence = sturm_sequence(coeffs)
    if not sequence:
        raise InvalidRequestError(
            "the zero polynomial has no isolated roots")
    squarefree = sequence[0]
    if include_lo and _sign_at(squarefree, *lo.as_integer_ratio()) == 0:
        return lo, True
    count = count_distinct_roots(sequence, lo, hi)
    if count == 0:
        return None
    q = lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (q // lo.denominator)
    b = hi.numerator * (q // hi.denominator)
    tol_num, tol_den = Fraction(accuracy).as_integer_ratio()
    while count > 1 and (b - a) * tol_den > tol_num * q:
        a, mid, b, q = 2 * a, a + b, 2 * b, 2 * q
        left = count_distinct_roots(sequence, Fraction(a, q),
                                    Fraction(mid, q))
        if left == 1 and _sign_at(squarefree, mid, q) == 0:
            return Fraction(mid, q), True
        if left:
            b, count = mid, left
        else:
            a = mid
    if count == 1:
        # One simple root in (a, b]: b itself, or the one sign change in
        # (a, b), read against b because a may be a root.
        sign_b = _sign_at(squarefree, b, q)
        if sign_b == 0:
            return Fraction(b, q), True
        cell = _estimated_cell(squarefree, a, b, q, sign_b, tol_num,
                               tol_den)
        if cell is not None:
            # The last cell of the halvings below, if the estimate found
            # it: an end inside (a, b) that is a zero is the midpoint they
            # would return, and ends that bracket the sign change leave
            # them nothing to do.
            x, y, r = cell
            sign_x, sign_y = _sign_at(squarefree, x, r), _sign_at(
                squarefree, y, r)
            if sign_y == 0:
                return Fraction(y, r), True
            if sign_x == 0 and x * q > a * r:
                return Fraction(x, r), True
            if sign_y == sign_b != sign_x:
                a, b, q = x, y, r
        while (b - a) * tol_den > tol_num * q:
            a, mid, b, q = 2 * a, a + b, 2 * b, 2 * q
            sign = _sign_at(squarefree, mid, q)
            if sign == 0:
                return Fraction(mid, q), True
            if sign == sign_b:
                b = mid
            else:
                a = mid
    for h, k in _convergents(a + b, 2 * q, SNAP_DENOMINATOR):
        if a * k < h * q < b * k and _sign_at(squarefree, h, k) == 0:
            return Fraction(h, k), True
    return Fraction(a + b, 2 * q), False


# ---------------------------------------------------------------------------
# Boxes, balls, and certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    """A rational interval with optional open-endpoint flags.

    The flags record statements like (0, 1]; the certifier itself
    always works with the closure, which is the stronger claim.
    """

    lower: Fraction
    upper: Fraction
    lower_open: bool = False
    upper_open: bool = False

    def __post_init__(self):
        object.__setattr__(self, "lower", _coerce(self.lower))
        object.__setattr__(self, "upper", _coerce(self.upper))
        if self.lower > self.upper:
            raise InvalidRequestError(
                f"interval bounds out of order: {self.lower} > {self.upper}")

    @property
    def width(self):
        return self.upper - self.lower

    def __str__(self):
        left = "(" if self.lower_open else "["
        right = ")" if self.upper_open else "]"
        return f"{left}{self.lower}, {self.upper}{right}"


@dataclass(frozen=True)
class Box:
    """An axis-aligned product of rational intervals."""

    intervals: tuple

    def __post_init__(self):
        fixed = tuple(
            iv if isinstance(iv, Interval) else Interval(*iv)
            for iv in self.intervals)
        object.__setattr__(self, "intervals", fixed)

    @classmethod
    def from_bounds(cls, bounds):
        return cls(tuple(Interval(lo, hi) for lo, hi in bounds))

    @classmethod
    def unit(cls, dimension):
        return cls.from_bounds([(0, 1)] * dimension)

    @property
    def dimension(self):
        return len(self.intervals)

    @property
    def widths(self):
        return tuple(iv.width for iv in self.intervals)

    def midpoint(self):
        return tuple((iv.lower + iv.upper) / 2 for iv in self.intervals)

    def corners(self):
        points = [()]
        for iv in self.intervals:
            points = [p + (endpoint,) for p in points
                      for endpoint in (iv.lower, iv.upper)]
        return tuple(points)

    def __str__(self):
        return " x ".join(str(iv) for iv in self.intervals)


@dataclass(frozen=True)
class Ball:
    """A closed Euclidean ball with rational center and radius."""

    center: tuple
    radius: Fraction

    def __post_init__(self):
        object.__setattr__(
            self, "center", tuple(_coerce(c) for c in self.center))
        object.__setattr__(self, "radius", _coerce(self.radius))
        if self.radius < 0:
            raise InvalidRequestError("ball radius must be nonnegative")

    def contains_point(self, point):
        point = tuple(point)
        if len(point) != len(self.center):
            raise InvalidRequestError("ball and point dimensions differ")
        gap = sum((Fraction(p) - c) ** 2
                  for p, c in zip(point, self.center))
        return gap <= self.radius ** 2

    def contains_box(self, box):
        if box.dimension != len(self.center):
            raise InvalidRequestError("ball and box dimensions differ")
        return all(self.contains_point(corner) for corner in box.corners())

    def to_json_dict(self):
        return {"center": [rational_string(c) for c in self.center],
                "radius": rational_string(self.radius)}


@dataclass
class Certificate:
    """Outcome of a branch-and-bound non-negativity run.

    status is one of the STATUS_* strings.  max_depth records the
    deepest subdivision level that was actually examined, and
    boxes_per_depth the number of boxes examined at each level from 0 to
    max_depth; it is left out of repr and of the JSON form.  For a
    counterexample the point and its exact negative value are kept; for
    an inconclusive run the box with the worst surviving lower bound (or,
    past the box budget, the cell the walk stopped at) is kept instead.
    """

    status: str
    exclusion_balls: tuple
    boxes_processed: int
    max_depth: int
    counterexample: tuple = None
    worst_box: Box = None
    worst_bound: Fraction = None
    boxes_per_depth: tuple = field(default=(), repr=False)

    def to_json_dict(self):
        payload = {
            "status": self.status,
            "exclusions": [ball.to_json_dict()
                           for ball in self.exclusion_balls],
            "boxes_processed": self.boxes_processed,
            "max_depth_reached": self.max_depth,
        }
        if self.counterexample is not None:
            point, value = self.counterexample
            payload["counterexample"] = {
                "point": [rational_string(c) for c in point],
                "value": rational_string(value),
            }
        return payload


# ---------------------------------------------------------------------------
# Bernstein range bounds
# ---------------------------------------------------------------------------

def _dense_coefficients(poly):
    """Dense power-basis coefficient tensor with per-axis degrees, as
    integer numerators over scale, the lcm of the denominators."""
    dims = tuple(max(poly.degree(v), 0) + 1 for v in poly.variables)
    nums, scale = _integer_multiple(poly.terms.values())
    flat, strides = _dense_tensor(zip(poly.terms, nums), dims)
    return flat, scale, dims, strides


def _dense_tensor(terms, dims):
    """(flat, strides): integer (exponents, numerator) pairs as a dense
    row-major tensor with dims entries per axis."""
    strides = []
    acc = 1
    for size in reversed(dims):
        strides.append(acc)
        acc *= size
    strides = tuple(reversed(strides))
    flat = [0] * acc
    for exps, n in terms:
        flat[sum(e * s for e, s in zip(exps, strides))] = n
    return flat, strides


@lru_cache(maxsize=64)
def _slab_index(dims, strides, axis):
    """The tensor's entries sorted into slabs along one axis.

    Slab i lists the flat index of every entry whose index along the
    axis is i, one per fibre, in the same fibre order for every i.
    order[j] is the place of flat entry j in the slabs laid end to end,
    so a kernel can run each level of a fibre recursion as one pass over
    whole slabs and put the result back in flat order at the end.
    """
    stride = strides[axis]
    block = stride * dims[axis]
    starts = [base + offset for base in range(0, prod(dims), block)
              for offset in range(stride)]
    slabs = tuple(tuple(start + i * stride for start in starts)
                  for i in range(dims[axis]))
    joined = [j for slab in slabs for j in slab]
    return slabs, tuple(sorted(range(len(joined)), key=joined.__getitem__))


def _unslab(rows, order):
    """Slab rows, one per index along the axis, back in flat order."""
    joined = [x for row in rows for x in row]
    return [joined[place] for place in order]


def _axis_transform(flat, dims, strides, axis, table):
    """Apply a square integer table along one tensor axis.

    Each fiber f along the axis becomes table @ f, computed slab by
    slab; zero entries of the table are skipped.
    """
    slabs, order = _slab_index(dims, strides, axis)
    values = [[flat[j] for j in slab] for slab in slabs]
    rows = []
    for row in table:
        acc = [0] * len(slabs[0])
        for factor, slab in zip(row, values):
            if factor:
                acc = [a + factor * x for a, x in zip(acc, slab)]
        rows.append(acc)
    return _unslab(rows, order)


def _bernstein_tensor(poly, box):
    """Bernstein coefficients of a polynomial over a box, in integers:
    _bernstein_form of its dense coefficients."""
    return _bernstein_form(*_dense_coefficients(poly), box)


def _bernstein_form(flat, scale, dims, strides, box):
    """A dense power-basis tensor, integer numerators over scale, in the
    Bernstein basis of the box, as integer numerators over a new scale.

    On each axis the power coefficients of x go through the affine map
    x = lo + w*u onto the unit interval (a Taylor shift and a scaling)
    and then to the degree-d Bernstein basis in u, both in one product
    table: entry (k, j) sums C(k,i)/C(d,i) * C(j,i) lo^(j-i) w^i over i.
    With lo = a/b and w = c/e the table is built times the integer
    m b^d e^d, m = lcm_i C(d,i); coefficient i is nums[i]/scale, where
    scale is the input scale times those factors.  The map is linear,
    and the new scale depends on the input scale, dims and box alone.
    """
    for axis, (size, iv) in enumerate(zip(dims, box.intervals)):
        table, factor = _axis_table(size - 1, iv.lower, iv.width)
        scale *= factor
        flat = _axis_transform(flat, dims, strides, axis, table)
    return flat, scale, dims, strides


@lru_cache(maxsize=64)
def _axis_table(d, lower, width):
    """One axis's integer product table and the factor m b^d e^d it is
    built times; it depends only on the degree and the interval."""
    (a, b), (c, e) = lower.as_integer_ratio(), width.as_integer_ratio()
    m = lcm(*(comb(d, i) for i in range(d + 1)))
    table = tuple(tuple(sum(comb(k, i) * comb(j, i) * (m // comb(d, i))
                            * a ** (j - i) * b ** (d - j + i) * c ** i
                            * e ** (d - i)
                            for i in range(min(k, j) + 1))
                        for j in range(d + 1)) for k in range(d + 1))
    return table, m * b ** d * e ** d


def _split_axis(nums, dims, strides, axis):
    """Integer de Casteljau halves along one axis.

    Each level of the recursion is one pass over a whole slab, every
    fibre at once.  Input numerators carry an implicit scale; both
    outputs come back multiplied by 2**degree, so the caller adds degree
    to the scale exponent.
    """
    slabs, order = _slab_index(dims, strides, axis)
    d = dims[axis] - 1
    cur = [[nums[j] for j in slab] for slab in slabs]
    left = [[x << d for x in cur[0]]] + [None] * d
    right = [None] * d + [[x << d for x in cur[d]]]
    for level in range(1, d + 1):
        shift = d - level
        for i in range(d + 1 - level):
            cur[i] = [a + b for a, b in zip(cur[i], cur[i + 1])]
        left[level] = [x << shift for x in cur[0]]
        right[shift] = [x << shift for x in cur[shift]]
    return _unslab(left, order), _unslab(right, order)


@lru_cache(maxsize=64)
def _corners(dims, strides):
    """The tensor's corner entries as (top, flat index) pairs, top
    holding 1 on each axis where the entry is the last one; in the order
    of product((0, 1), repeat=len(dims))."""
    return tuple((top, sum(t * (size - 1) * stride
                           for t, size, stride in zip(top, dims, strides)))
                 for top in product((0, 1), repeat=len(dims)))


def _cell_point(box, cells, top):
    """The corner of a cell of the box that top names (see _corners)."""
    return tuple(iv.lower + iv.width * Fraction(offset + t, 1 << level)
                 for iv, (offset, level), t in zip(box.intervals, cells, top))


def _cell_exclusion(balls, box):
    """An exact integer test whether a cell of the box lies in a ball.

    A cell is one (offset, level) pair per axis: the dyadic piece
    [offset, offset + 1] / 2^level of that edge.  The box's lowers and
    widths and every ball's centre and radius go over one integer
    denominator here, once.  A corner's squared distance from a centre
    is a sum of one term per axis, and each term is largest at one end
    of its edge, so the farthest corner's distance is the sum of those
    largest terms: the cell is inside the closed ball exactly when every
    corner is, which is Ball.contains_box.
    """
    lowers = [iv.lower for iv in box.intervals]
    widths = [iv.width for iv in box.intervals]
    unit = lcm(*(q.denominator for q in lowers + widths), *(
        q.denominator for ball in balls
        for q in ball.center + (ball.radius,)))
    widths = [int(w * unit) for w in widths]
    discs = [(tuple(int((lo - c) * unit) for lo, c in zip(lowers,
                                                          ball.center)),
              int(ball.radius * unit) ** 2) for ball in balls]

    def inside(cells):
        top = max(level for _, level in cells)
        for gaps, radius2 in discs:
            total = 0
            for gap, width, (offset, level) in zip(gaps, widths, cells):
                near = (gap << level) + width * offset
                far = max(abs(near), abs(near + width))
                total += far * far << 2 * (top - level)
            if total <= radius2 << 2 * top:
                return True
        return False

    return inside


def _box_for(variables, box):
    """The box as a Box, checked against a polynomial's variables."""
    if not isinstance(box, Box):
        box = Box.from_bounds(box)
    if box.dimension != len(variables):
        raise InvalidRequestError(
            f"box dimension {box.dimension} does not match "
            f"{len(variables)} variables")
    return box


def _certify_checks(variables, box, exclusions):
    """(box, balls) for a certificate over variables: the box as
    _box_for gives it, with no degenerate edge, and the exclusion balls,
    each of the box's dimension."""
    box = _box_for(variables, box)
    if any(iv.width == 0 for iv in box.intervals):
        raise InvalidRequestError(
            "degenerate box edges are not supported; evaluate instead")
    balls = tuple(exclusions)
    for ball in balls:
        if len(ball.center) != box.dimension:
            raise InvalidRequestError("exclusion ball dimension mismatch")
    return box, balls


def certify_nonneg(poly, box, exclusions=(), max_depth=DEFAULT_MAX_DEPTH):
    """Branch-and-bound certificate that poly >= 0 on a closed box.

    Each box's range is enclosed by its exact rational Bernstein
    coefficients, integers over one denominator that each halving
    multiplies by a power of two.  A box is discharged when its
    Bernstein lower bound is nonnegative or when it lies inside an
    exclusion ball.  A corner coefficient is the exact value at that
    corner, so a negative corner outside the exclusion balls is returned
    as a counterexample at an exact rational point.  Subdivision bisects
    the axis that has been split the fewest times, the first such axis
    on ties (so on [0, 1/2] x [0, 1] the first split halves the first
    axis); boxes still alive at max_depth make the outcome Inconclusive
    and the one with the worst bound is reported.  A run that would
    examine more than BOX_BUDGET boxes is Inconclusive too (_subdivide).

    A box is a cell, one dyadic piece (offset, level) of each edge; each
    split runs slab by slab (_split_axis), the ball test runs on
    integers (_cell_exclusion), and Fractions are built only for a
    counterexample and the worst box.
    """
    if not isinstance(poly, RatPoly):
        raise InvalidRequestError("certify_nonneg expects a RatPoly")
    box, balls = _certify_checks(poly.variables, box, exclusions)
    if box.dimension == 0 or poly.is_zero:
        value = poly.evaluate([0] * box.dimension)
        status = STATUS_NONNEGATIVE if value >= 0 else STATUS_COUNTEREXAMPLE
        counter = None if value >= 0 else ((), value)
        return Certificate(status, balls, 1, 0, counterexample=counter,
                           boxes_per_depth=(1,))
    nums, scale, dims, strides = _bernstein_tensor(poly, box)
    # scale // g is the least common denominator of the coefficients.
    g = gcd(scale, *nums)
    examine, split = _tensor_steps(dims, strides, scale // g,
                                   _cell_exclusion(balls, box))
    return _subdivide(box, balls, max_depth, ([n // g for n in nums], 0),
                      examine, split)


def _tensor_steps(dims, strides, denominator, in_ball):
    """_subdivide's examine and split over nodes (nums, shift): a
    Bernstein tensor on the node's cell, integer numerators over
    denominator << shift, that each split halves in integers."""
    corners = _corners(dims, strides)
    degrees = tuple(size - 1 for size in dims)

    def examine(node, cells, last):
        nums, shift = node
        low = min(nums)
        if low >= 0 or in_ball(cells):
            return None
        return ([(top, nums[c]) for top, c in corners if nums[c] < 0],
                denominator << shift, low)

    def split(node, axis, halves):
        nums, shift = node
        shift += degrees[axis]
        left, right = _split_axis(nums, dims, strides, axis)
        return (left, shift), (right, shift)

    return examine, split


def _subdivide(box, balls, max_depth, root, examine, split):
    """certify_nonneg's depth-first subdivision of box into cells, on
    nodes that carry a polynomial's Bernstein data on a cell in any form.

    examine(node, cells, last) is None when the cell is discharged: the
    polynomial is nonnegative there or the cell lies in a ball.  Else it
    is (negatives, scale, low): (top, numerator) for each corner (see
    _corners) where the polynomial is negative, in the order of
    _corners (corners inside a ball may be left out), their denominator,
    and, when last (the cell is at max_depth), the numerator of a lowest
    Bernstein coefficient.  split(node, axis, halves) gives the nodes of
    the two halves, whose cells are halves.  The axis is the one split
    the fewest times, the first on ties; the left half is examined
    first.  Past BOX_BUDGET boxes every cell is examined as last, and
    the first that survives ends the walk Inconclusive, as its worst
    box with its lowest bound.
    """
    dimension = box.dimension
    per_depth = []
    worst_bound = None
    worst_cells = None

    def certificate(status, **found):
        return Certificate(status, balls, sum(per_depth), len(per_depth) - 1,
                           boxes_per_depth=tuple(per_depth), **found)

    stack = [(root, ((0, 0),) * dimension, 0)]
    while stack:
        node, cells, depth = stack.pop()
        if depth == len(per_depth):
            per_depth.append(1)
        else:
            per_depth[depth] += 1
        spent = sum(per_depth) > BOX_BUDGET
        last = spent or depth >= max_depth
        found = examine(node, cells, last)
        if found is None:
            continue
        negatives, scale, low = found
        for top, value in negatives:
            corner = _cell_point(box, cells, top)
            if not any(ball.contains_point(corner) for ball in balls):
                return certificate(
                    STATUS_COUNTEREXAMPLE,
                    counterexample=(corner, Fraction(value, scale)))
        if last:
            bound = Fraction(low, scale)
            if spent or worst_bound is None or bound < worst_bound:
                worst_bound = bound
                worst_cells = cells
            if spent:
                break
            continue
        levels = [level for _, level in cells]
        axis = levels.index(min(levels))
        head, (offset, level), tail = (cells[:axis], cells[axis],
                                       cells[axis + 1:])
        halves = (head + ((2 * offset, level + 1),) + tail,
                  head + ((2 * offset + 1, level + 1),) + tail)
        left, right = split(node, axis, halves)
        stack.append((right, halves[1], depth + 1))
        stack.append((left, halves[0], depth + 1))

    if worst_cells is not None:
        return certificate(
            STATUS_INCONCLUSIVE, worst_bound=worst_bound,
            worst_box=Box.from_bounds(zip(
                _cell_point(box, worst_cells, (0,) * dimension),
                _cell_point(box, worst_cells, (1,) * dimension))))
    return certificate(STATUS_NONNEGATIVE)


def random_nonnegativity_audit(poly, box, samples, seed):
    """Exact spot check of a certified box.

    Draws random points lo + width * r / 2^16 (r uniform in 0..2^16) in
    the closed box, evaluates the polynomial exactly at each, and returns
    the worst pair (value, point) encountered.  Every coordinate is an
    integer over one common unit (the box's denominators' lcm times
    2^16), so the evaluation kernel takes every sample on integers.
    """
    if samples < 1:
        raise InvalidRequestError("the audit needs at least one sample")
    box = _box_for(poly.variables, box)
    rng = random.Random(seed)
    scale = 1 << 16
    lowers = [iv.lower for iv in box.intervals]
    widths = [iv.width for iv in box.intervals]
    unit = scale * lcm(*[q.denominator for q in lowers + widths])
    starts = [int(lo * unit) for lo in lowers]
    steps = [int(w * unit) // scale for w in widths]
    coords = [[start + step * rng.randrange(scale + 1)
               for start, step in zip(starts, steps)] for _ in range(samples)]
    values = _integer_evaluation(
        _compile_evaluation(poly, range(len(starts))),
        ([(x, unit) for x in c] for c in coords))
    (sums, denominator), worst = min(
        zip(values, coords), key=lambda pair: pair[0][0].get((), 0))
    return (Fraction(sums.get((), 0), denominator),
            tuple(Fraction(x, unit) for x in worst))
