"""Bitwise parity of ``sequences._power`` with ``float.__pow__``.

``_power`` maps ``math.pow`` for speed; every written number depends on it
giving the bits of ``float.__pow__``, and on a fault the same exception.
The inputs are those the package passes: the index ranges of the pow
families, the alpha grid of the benchmark's checks, and the squares of the
even/odd transforms, the quadratic rates and CorB.c.  numpy's power, and
x*x for a square, differ from libm pow on some of these entries, so a swap
to either fails here.
"""

import math

import numpy as np
import pytest

from jacobi_spectra.sequences import _arange, _power

ALPHAS = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 1.0)
RANGES = [(0, 60000), (1, 60001), (29999, 30002), (0, 1), (5, 5)]


def reference(base, alpha):
    return np.array([float.__pow__(x, alpha) for x in base.tolist()])


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("lo, hi", RANGES)
def test_pow_family_ranges(lo, hi, alpha):
    # pow builds a(n) = (n+1)**alpha from lo+1..hi+1, pow-shifted from lo..hi
    for base in (_arange(lo + 1, hi + 1), _arange(lo, hi)):
        assert_same_bits(_power(base, alpha), reference(base, alpha))


@pytest.mark.parametrize("alpha", ALPHAS)
def test_squares_of_pow_values(alpha):
    # the even/odd transforms square the parent's a(n)
    values = reference(_arange(1, 60001), alpha)
    assert_same_bits(_power(values, 2.0), reference(values, 2.0))


def test_squares_of_ratios():
    # CorB.c squares a(n+1)/a(n), in (1, 2] for the growing families
    rng = np.random.default_rng(20261019)
    ratios = 1.0 + rng.random(100000)
    pows = reference(_arange(1, 30003), 0.5)
    for base in (ratios[ratios > 1.0], pows[1:] / pows[:-1]):
        assert_same_bits(_power(base, 2.0), reference(base, 2.0))


def test_quadratic_rates():
    base = _arange(0, 30001)
    assert_same_bits(_power(base, 2.0), reference(base, 2.0))


@pytest.mark.parametrize("base, alpha", [
    ([0.0], -0.5),                 # ZeroDivisionError, not math's ValueError
    ([2.0, 3.0, 0.0, 4.0], -1.5),
    ([1.0, 2.0, 10.0], 400.0),     # OverflowError (34, ...), not math's
    ([3.0, 1e200], 2.0),
])
def test_faults_raise_what_float_pow_raises(base, alpha):
    with pytest.raises(ArithmeticError) as want:
        for x in base:
            float.__pow__(x, alpha)
    with pytest.raises(ArithmeticError) as got:
        _power(np.array(base), alpha)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


def test_faults_are_not_math_pow_exceptions():
    with pytest.raises(ValueError, match="math domain error"):
        math.pow(0.0, -0.5)
    with pytest.raises(ZeroDivisionError,
                       match="0.0 cannot be raised to a negative power"):
        _power(np.array([0.0]), -0.5)
