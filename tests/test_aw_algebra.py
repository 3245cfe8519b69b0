"""Tests for orbit parameter normalization and bundle selection."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from spin7flow.aw_algebra import (AWParams, BundleTag, SpaceClass,
                                  _as_params, bundle, classify_space,
                                  normalize)
from spin7flow.errors import InvalidParameterError, InvalidRequestError


def test_normalize_examples():
    assert normalize(3, 2) == AWParams(3, 2)
    assert normalize(2, 3) == AWParams(3, 2)
    assert normalize(1, -3) == AWParams(2, 1)
    assert normalize(1, 0) == AWParams(1, 0)
    assert normalize(0, 1) == AWParams(1, 0)
    assert normalize(-1, -1) == AWParams(1, 1)
    assert normalize(2, 0) == AWParams(1, 0)
    assert normalize(10, 15) == AWParams(3, 2)


def test_normalize_idempotent_and_orbit_invariant():
    rng = random.Random(7)
    for _ in range(200):
        k = rng.randrange(-40, 41)
        l = rng.randrange(-40, 41)
        if (k, l) == (0, 0):
            continue
        p = normalize(k, l)
        assert normalize(p.k, p.l) == p
        triple = (k, l, -(k + l))
        for sign in (1, -1):
            for perm in permutations(triple):
                a, b = sign * perm[0], sign * perm[1]
                if (a, b) != (0, 0):
                    assert normalize(a, b) == p


def test_params_validation():
    with pytest.raises(InvalidParameterError):
        AWParams(2, 3)
    with pytest.raises(InvalidParameterError):
        AWParams(2, 2)
    with pytest.raises(InvalidParameterError):
        AWParams(0, 0)
    with pytest.raises(InvalidParameterError):
        AWParams(-1, -2)
    with pytest.raises(InvalidParameterError):
        AWParams(6, 4)
    with pytest.raises(InvalidParameterError):
        normalize(0, 0)


def test_as_params_takes_awparams_or_a_pair():
    p = AWParams(3, 2)
    assert _as_params(p) is p
    assert _as_params((3, 2)) == p
    assert _as_params([1, 0]) == AWParams(1, 0)
    for bad in (None, 5, (3, 2, 1), "x", 2.5):
        with pytest.raises(InvalidRequestError, match="pair"):
            _as_params(bad)
    # a pair is checked as AWParams checks it, not normalized
    for bad in ((2, 3), (4, 2), (3.0, 2)):
        with pytest.raises(InvalidParameterError):
            _as_params(bad)


def test_delta_and_rho():
    assert AWParams(3, 2).delta == 19
    assert AWParams(1, 1).delta == 3
    assert AWParams(1, 0).delta == 1
    assert AWParams(17, 5).delta == 399
    assert AWParams(3, 2).rho == Fraction(2, 3)
    assert AWParams(1, 0).rho == 0
    rng = random.Random(11)
    for _ in range(100):
        k = rng.randrange(-30, 31)
        l = rng.randrange(-30, 31)
        if (k, l) == (0, 0):
            continue
        p = normalize(k, l)
        assert p.delta > 0
        # delta is invariant under the triple symmetry before gcd reduction
        from math import gcd
        g = gcd(k, l)
        assert (k * k + k * l + l * l) == p.delta * g * g


def test_classify_space():
    assert classify_space(AWParams(1, 0)) is SpaceClass.EXCEPTIONAL_10
    assert classify_space(AWParams(1, 1)) is SpaceClass.EXCEPTIONAL_11
    assert classify_space(AWParams(3, 2)) is SpaceClass.GENERIC
    assert classify_space(AWParams(17, 5)) is SpaceClass.GENERIC


def test_bundle_orders():
    p = AWParams(3, 2)
    assert bundle(p, BundleTag.K_PLUS_L).order == 5
    assert bundle(p, BundleTag.K).order == 3
    assert bundle(p, BundleTag.L).order == 2
    assert bundle(p, "k+l").order == 5
    assert bundle(p, "l").order == 2
    with pytest.raises(InvalidParameterError):
        bundle(AWParams(1, 0), BundleTag.L)
    with pytest.raises(InvalidParameterError):
        bundle(p, "m")
