"""Orbit parameters (k, l), their canonical form, and line-bundle indices.

An integer pair (k, l) labels the homogeneous principal orbit.  The pair is
meaningful only up to permutations of the zero-sum triple (k, l, -(k+l))
combined with an overall sign flip, twelve images in total, so a canonical
representative with k >= l >= 0 and gcd(k, l) = 1 is used everywhere.
Three circle bundles over the orbit enter the analysis; their topological
order is k+l, k, or l, and each one anchors a distinct cone point of the
flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd

from .errors import InvalidParameterError, InvalidRequestError

__all__ = [
    "AWParams",
    "SpaceClass",
    "BundleTag",
    "BundleIndex",
    "normalize",
    "classify_space",
    "bundle",
]


class SpaceClass(Enum):
    GENERIC = "Generic"
    EXCEPTIONAL_10 = "Exceptional10"
    EXCEPTIONAL_11 = "Exceptional11"


class BundleTag(Enum):
    K_PLUS_L = "k+l"
    K = "k"
    L = "l"


@dataclass(frozen=True)
class AWParams:
    """Canonical orbit parameters with k >= l >= 0 coprime."""

    k: int
    l: int

    def __post_init__(self):
        if not isinstance(self.k, int) or not isinstance(self.l, int):
            raise InvalidParameterError("k and l must be integers")
        if (self.k, self.l) == (0, 0):
            raise InvalidParameterError("(k, l) = (0, 0) is not an orbit")
        if not (self.k >= self.l >= 0):
            raise InvalidParameterError(
                f"require k >= l >= 0, got ({self.k}, {self.l}); "
                "use normalize() for raw pairs")
        if gcd(self.k, self.l) != 1:
            raise InvalidParameterError(
                f"require gcd(k, l) = 1, got ({self.k}, {self.l})")

    @property
    def delta(self):
        """The positive integer k*k + k*l + l*l."""
        return self.k * self.k + self.k * self.l + self.l * self.l

    @property
    def rho(self):
        """The exact ratio l/k in [0, 1]."""
        return Fraction(self.l, self.k)

    def __str__(self):
        return f"N({self.k},{self.l})"


def _as_params(params):
    """params as AWParams: an AWParams as is, or a (k, l) pair; any
    other value raises InvalidRequestError."""
    if isinstance(params, AWParams):
        return params
    try:
        k, l = params
    except (TypeError, ValueError):
        raise InvalidRequestError(
            "params must be AWParams or a (k, l) pair") from None
    return AWParams(k, l)


def normalize(k, l):
    """Canonical AWParams for an arbitrary nonzero integer pair (k, l).

    In the zero-sum triple (k, l, -(k+l)) the odd-signed entry has the
    largest absolute value, so the canonical pair is the middle and the
    smallest absolute value, each divided by their gcd.
    """
    if not isinstance(k, int) or not isinstance(l, int):
        raise InvalidParameterError("k and l must be integers")
    if (k, l) == (0, 0):
        raise InvalidParameterError("(k, l) = (0, 0) is not an orbit")
    b, a, _ = sorted(map(abs, (k, l, k + l)))
    g = gcd(a, b)
    return AWParams(a // g, b // g)


def classify_space(params):
    """Generic versus the two exceptional orbit classes, by k*l*(k-l)."""
    if params.k * params.l * (params.k - params.l) != 0:
        return SpaceClass.GENERIC
    if params.l == 0:
        return SpaceClass.EXCEPTIONAL_10
    return SpaceClass.EXCEPTIONAL_11


@dataclass(frozen=True)
class BundleIndex:
    """A choice of circle bundle over the orbit with its topological order."""

    tag: BundleTag
    order: int

    def __post_init__(self):
        if self.order <= 0:
            raise InvalidParameterError(
                f"bundle order must be positive, got {self.order}")


def bundle(params, tag):
    """BundleIndex for one of the three distinguished circle bundles."""
    if isinstance(tag, str):
        try:
            tag = BundleTag(tag)
        except ValueError:
            raise InvalidParameterError(f"unknown bundle tag {tag!r}") from None
    if tag is BundleTag.K_PLUS_L:
        return BundleIndex(tag, params.k + params.l)
    if tag is BundleTag.K:
        return BundleIndex(tag, params.k)
    if tag is BundleTag.L:
        if params.l == 0:
            raise InvalidParameterError(
                "the l-bundle degenerates for l = 0; no cone point exists")
        return BundleIndex(tag, params.l)
    raise InvalidParameterError(f"unknown bundle tag {tag!r}")
