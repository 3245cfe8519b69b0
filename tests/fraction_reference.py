"""The Fraction forms of the exact kernels, kept as oracles.

ratpoly and critical_points run these kernels on integers: compose sums
into one exponent dict, evaluation and substitution sum integer
numerators over one denominator, the Bernstein tables are cleared to
integers, the Bernstein axis transform and de Casteljau split run one
slab (every fibre at one index) at a time, root bisection carries
integer numerators over a doubling denominator, the Sturm chain and
univariate_gcd run on primitive pseudo-remainders, the tangency flags
take integer dot products, and the exact Jacobian and gradients
evaluate a kernel traced from the dual pass.  These are the forms they
replaced, with every intermediate a Fraction, a RatPoly or a dual, and
the integer loops that went fibre by fibre.  The new kernels must
return exactly what these return (for the Sturm chain: positive
multiples of these members; at a float state, the same bits).
"""

from fractions import Fraction
from math import comb

from spin7flow import phase_system
from spin7flow.critical_points import catalog
from spin7flow.errors import InvalidRequestError
from spin7flow.phase_system import derivative
from spin7flow.ratpoly import (ROOT_ACCURACY, SNAP_DENOMINATOR, RatPoly,
                               _convergents, _derivative, _integer_multiple,
                               _strip)


def compose(poly, variables_out, mapping):
    """RatPoly.compose term by term: every power, term and partial sum
    is a RatPoly."""
    variables_out = tuple(variables_out)
    images = []
    for name in poly.variables:
        image = mapping[name]
        if not isinstance(image, RatPoly):
            image = RatPoly.constant(variables_out, image)
        elif image.variables != variables_out:
            raise InvalidRequestError(
                f"image of {name!r} uses {image.variables}, "
                f"expected {variables_out}")
        images.append(image)
    power_cache = [{0: RatPoly.constant(variables_out, 1)}
                   for _ in images]
    result = RatPoly.zero(variables_out)
    for exps, coeff in poly.terms.items():
        term = RatPoly.constant(variables_out, coeff)
        for i, e in enumerate(exps):
            cache = power_cache[i]
            if e not in cache:
                highest = max(cache)
                acc = cache[highest]
                for step in range(highest + 1, e + 1):
                    acc = acc * images[i]
                    cache[step] = acc
            term = term * cache[e]
        result = result + term
    return result


def evaluate(poly, point):
    """RatPoly.evaluate term by term at a sequence of values: every term
    and partial sum is a Fraction or the values' own type."""
    total = Fraction(0)
    for exps, coeff in poly.terms.items():
        term = coeff
        for x, e in zip(point, exps):
            if e:
                term = term * x ** e
        total = total + term
    return total


def substitute(poly, values):
    """RatPoly.substitute term by term in Fractions; names that are not
    variables of poly are ignored."""
    names = poly.variables
    fixed = [(i, values[n]) for i, n in enumerate(names) if n in values]
    kept = [i for i, n in enumerate(names) if n not in values]
    out = {}
    for exps, coeff in poly.terms.items():
        for i, x in fixed:
            if exps[i]:
                coeff = coeff * x ** exps[i]
        key = tuple(exps[i] for i in kept)
        out[key] = out.get(key, 0) + coeff
    return RatPoly(tuple(names[i] for i in kept), out)


def _dense_coefficients(poly):
    dims = tuple(max(poly.degree(v), 0) + 1 for v in poly.variables)
    strides = []
    acc = 1
    for size in reversed(dims):
        strides.append(acc)
        acc *= size
    strides = tuple(reversed(strides))
    flat = [Fraction(0)] * acc
    for exps, coeff in poly.terms.items():
        flat[sum(e * s for e, s in zip(exps, strides))] = coeff
    return flat, dims, strides


def _axis_transform(flat, dims, strides, axis, table):
    size = dims[axis]
    stride = strides[axis]
    out = list(flat)
    block = stride * size
    for base in range(0, len(flat), block):
        for offset in range(stride):
            start = base + offset
            fiber = [flat[start + i * stride] for i in range(size)]
            for i, row in enumerate(table):
                acc = Fraction(0)
                for factor, value in zip(row, fiber):
                    acc += factor * value
                out[start + i * stride] = acc
    return out


def integer_axis_transform(flat, dims, strides, axis, table):
    """ratpoly._axis_transform fibre by fibre on integers: each fibre
    along the axis becomes table @ fibre."""
    size = dims[axis]
    stride = strides[axis]
    out = list(flat)
    rows = [[(j, factor) for j, factor in enumerate(row) if factor]
            for row in table]
    block = stride * size
    for base in range(0, len(flat), block):
        for offset in range(stride):
            start = base + offset
            fiber = [flat[start + i * stride] for i in range(size)]
            for i, row in enumerate(rows):
                acc = 0
                for j, factor in row:
                    acc += factor * fiber[j]
                out[start + i * stride] = acc
    return out


def split_axis(nums, dims, strides, axis):
    """ratpoly._split_axis fibre by fibre: the integer de Casteljau
    halves of each fibre, both times 2**degree."""
    size = dims[axis]
    d = size - 1
    stride = strides[axis]
    total = len(nums)
    left = [0] * total
    right = [0] * total
    block = stride * size
    for base in range(0, total, block):
        for offset in range(stride):
            start = base + offset
            cur = [nums[start + i * stride] for i in range(size)]
            left[start] = cur[0] << d
            right[start + d * stride] = cur[d] << d
            for level in range(1, size):
                for i in range(size - level):
                    cur[i] = cur[i] + cur[i + 1]
                left[start + level * stride] = cur[0] << (d - level)
                right[start + (d - level) * stride] = \
                    cur[d - level] << (d - level)
    return left, right


def bernstein_tensor(poly, box):
    """Bernstein coefficients of poly over box as Fractions, with the
    tensor's dims and strides; entry (k, j) of an axis table sums
    C(k,i)/C(d,i) * C(j,i) lo^(j-i) w^i over i."""
    flat, dims, strides = _dense_coefficients(poly)
    for axis, (size, iv) in enumerate(zip(dims, box.intervals)):
        d = size - 1
        lo, w = iv.lower, iv.width
        table = [[sum(Fraction(comb(k, i) * comb(j, i), comb(d, i))
                      * lo ** (j - i) * w ** i
                      for i in range(min(k, j) + 1))
                  for j in range(size)] for k in range(size)]
        flat = _axis_transform(flat, dims, strides, axis, table)
    return flat, dims, strides


def poly_divmod(num, den):
    """Long division of exact coefficient lists over the rationals."""
    num = list(num)
    den = _strip(den)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    quotient = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    lead = den[-1]
    for i in range(len(num) - len(den), -1, -1):
        factor = num[i + len(den) - 1] / lead
        quotient[i] = factor
        if factor:
            for j, d in enumerate(den):
                num[i + j] -= factor * d
    return quotient, _strip(num)


def univariate_gcd(a, b):
    """Euclid's monic gcd over the rationals."""
    a, b = _strip(a), _strip(b)
    while b:
        a, b = b, poly_divmod(a, b)[1]
    if not a:
        return []
    return [c / a[-1] for c in a]


def sturm_sequence(coeffs):
    """Euclid's chain on (p, p') over the rationals, each member then
    cleared of denominators; a non-constant gcd divides every member."""
    p0 = _strip(coeffs)
    if len(p0) <= 1:
        return [_integer_multiple(p0)[0]] if p0 else []
    seq = [p0, _derivative(p0)]
    while len(seq[-1]) > 1:
        _, rem = poly_divmod(seq[-2], seq[-1])
        if not rem:
            lead = seq[-1][-1]
            monic = [c / lead for c in seq[-1]]
            seq = [poly_divmod(member, monic)[0] for member in seq]
            break
        seq.append([-c for c in rem])
    return [_integer_multiple(member)[0] for member in seq]


def _sign_at(ints, x):
    total = Fraction(0)
    for c in reversed(ints):
        total = total * x + c
    return (total > 0) - (total < 0)


def _sign_changes(sequence, x):
    signs = [s for s in (_sign_at(member, x) for member in sequence) if s]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def count_distinct_roots(sequence, lo, hi):
    return _sign_changes(sequence, lo) - _sign_changes(sequence, hi)


def smallest_root_in_interval(coeffs, lo, hi, include_lo=False,
                              accuracy=ROOT_ACCURACY):
    """Root bisection with a Fraction bracket (a, b], Fraction midpoints
    and Fraction sign tests, on the Fraction Euclid chain above."""
    lo, hi = Fraction(lo), Fraction(hi)
    sequence = sturm_sequence(_strip(coeffs))
    squarefree = sequence[0]
    if include_lo and _sign_at(squarefree, lo) == 0:
        return lo, True
    count = count_distinct_roots(sequence, lo, hi)
    if count == 0:
        return None
    a, b = lo, hi
    while count > 1 and b - a > accuracy:
        mid = (a + b) / 2
        left = count_distinct_roots(sequence, a, mid)
        if left == 1 and _sign_at(squarefree, mid) == 0:
            return mid, True
        if left:
            b, count = mid, left
        else:
            a = mid
    if count == 1:
        sign_b = _sign_at(squarefree, b)
        if sign_b == 0:
            return b, True
        while b - a > accuracy:
            mid = (a + b) / 2
            sign = _sign_at(squarefree, mid)
            if sign == 0:
                return mid, True
            if sign == sign_b:
                b = mid
            else:
                a = mid
    for candidate in _convergents((a + b) / 2, SNAP_DENOMINATOR):
        if a < candidate < b and _sign_at(squarefree, candidate) == 0:
            return candidate, True
    return (a + b) / 2, False


def _dot(u, v):
    total = 0
    for a, b in zip(u, v):
        total = total + a * b
    return total


def tangency_flags(params, label, vectors):
    """(crf, spin+, spin-) for each vector: Fraction dot products with
    the exact constraint gradients and first-order Jacobian rows."""
    state = catalog(params).get(label).state
    grads = constraint_gradients(params, state)
    df, dh = first_order_jacobians(params, state)
    flags = []
    for vec in vectors:
        crf = (_dot(grads["hyperplane"], vec) == 0
               and _dot(grads["conservation"], vec) == 0)
        flags.append((crf,
                      crf and all(_dot(row, vec) == 0 for row in df),
                      crf and all(_dot(row, vec) == 0 for row in dh)))
    return flags


def jacobian(params, state):
    """phase_system.jacobian as one pass of the duals."""
    c = phase_system._matching(phase_system.quartic_coefficients(params),
                               state.Z)
    return derivative(lambda y: phase_system._field(c, y[:4], y[4:]),
                      state.as_tuple())


def constraint_gradients(params, state):
    """phase_system.constraint_gradients as one pass of the duals."""
    c = phase_system._matching(phase_system.quartic_coefficients(params),
                               state.Z)
    hyperplane, conservation = derivative(
        lambda y: phase_system._crf_values(c, y[:4], y[4:]), state.as_tuple())
    return {"hyperplane": hyperplane, "conservation": conservation}


def first_order_jacobians(params, state):
    """phase_system.first_order_jacobians as one pass of the duals."""
    d = phase_system._matching(phase_system.cubic_coefficients(params),
                               state.Z)

    def systems(y):
        plus = phase_system._cubic_terms(d, y[4:])
        return sum(phase_system._first_order(y[:4], y[4:], plus,
                                             tuple(-u for u in plus)), ())

    rows = derivative(systems, state.as_tuple())
    return rows[:4], rows[4:]
