"""Closed-form spectral measures as oracles.

Three catalogue inputs have known, absolutely continuous orthogonality
measures, each given here by its distribution function F(x) = mu((-inf, x]):

* ``const`` (a = 1, b = 0): the semicircle on [-2, 2];
* ``pow:alpha=1`` (a(n) = n + 1, b = 0): density 1/(2 cosh(pi x / 2)),
  so F(x) = (2/pi) arctan(exp(pi x / 2));
* the birth-death rates ``lam=linear,mu=linear`` through ``bd_to_jacobi``
  (a(n) = n + 1, b(n) = -(2n + 1)): the Laguerre density exp(x) on x <= 0.

For b == 0 the even and odd restrictions of the square (``square_even``,
``square_odd``) have closed forms too.  With mu the measure at e_0,
<e_0, E^k e_0> is the integral of x**(2k), so E's measure is the
push-forward of mu under x -> x**2: F_e(y) = 2 F(sqrt y) - 1.  The odd
restriction starts at e_1 = p_1(J) e_0 with p_1(x) = x/a(0), so
F_o(y) = integral over [-sqrt y, sqrt y] of (x/a(0))**2 dmu; for ``const``
that is s (s**2 - 2) sqrt(4 - s**2) / (4 pi) + (2/pi) arcsin(s/2), s = sqrt y.

The N-point Gauss rule brackets F at each node exactly, at every N
(Chebyshev-Markov-Stieltjes): sum_{i<j} w_i <= F(x_j) <= sum_{i<=j} w_i.
For ``const`` with unit weights and the polynomial start, S(n) is the
invariant of the three-term recurrence and equals 1 for every n.
"""

import numpy as np
import pytest

from jacobi_spectra import (WeightSequence, bd_to_jacobi, eigenvalues,
                            instantiate, parse_rates, poly_init, s_sequence,
                            square_even, square_odd, truncate)
from jacobi_spectra.cli import main

# the largest violation measured over the three families at N <= 2000 is
# 1.44e-15 (pow:alpha=1, N = 2000), and over the squares below 1.55e-15
# (square_even(pow:alpha=1), N = 60): the rounding of the summed weights
CMS_TOL = 16 * np.finfo(float).eps


def _semicircle(x):
    x = np.clip(x, -2.0, 2.0)
    return (0.5 + x * np.sqrt(4.0 - x * x) / (4 * np.pi)
            + np.arcsin(x / 2) / np.pi)


def _sech(x):
    # arctan(exp(-pi|x|/2)) on both sides, so exp cannot overflow
    tail = (2 / np.pi) * np.arctan(np.exp(-np.pi * np.abs(x) / 2))
    return np.where(x <= 0, tail, 1.0 - tail)


def _laguerre(x):
    return np.exp(np.minimum(x, 0.0))


def _even_square(cdf):
    """F_e(y) = 2 F(sqrt y) - 1 of a measure F symmetric about 0."""
    return lambda y: 2.0 * cdf(np.sqrt(np.maximum(y, 0.0))) - 1.0


def _odd_square_semicircle(y):
    s = np.sqrt(np.clip(y, 0.0, 4.0))
    return (s * (s * s - 2.0) * np.sqrt(4.0 - s * s) / (4 * np.pi)
            + (2 / np.pi) * np.arcsin(s / 2))


FAMILIES = {
    "const": (lambda: instantiate("const"), _semicircle),
    "pow:alpha=1": (lambda: instantiate("pow:alpha=1"), _sech),
    "bd:lam=linear,mu=linear": (
        lambda: bd_to_jacobi(parse_rates("lam=linear,mu=linear"))[0],
        _laguerre),
}


def _assert_cms_bracket(nodes, weights, cdf):
    upper = np.cumsum(weights)
    F = cdf(nodes)
    assert np.all(np.diff(nodes) > 0)
    assert np.max(upper - weights - F) <= CMS_TOL
    assert np.max(F - upper) <= CMS_TOL


@pytest.mark.parametrize("N", [10, 60, 500, 2000])
@pytest.mark.parametrize("family", list(FAMILIES))
def test_gauss_rule_brackets_the_measure(family, N):
    make, cdf = FAMILIES[family]
    spectrum = eigenvalues(truncate(make(), N), weights=True)
    _assert_cms_bracket(spectrum.eigenvalues, spectrum.weights, cdf)


SQUARES = {
    "square_even(const)": (lambda: square_even(instantiate("const")),
                           _even_square(_semicircle)),
    "square_odd(const)": (lambda: square_odd(instantiate("const")),
                          _odd_square_semicircle),
    "square_even(pow:alpha=1)": (
        lambda: square_even(instantiate("pow:alpha=1")), _even_square(_sech)),
}


# square_even(pow:alpha=1) only at small N: at N = 500 and 2000 its weights
# sum to 1 - 5e-14 and 1 - 3.9e-9, the deficit all in the lowest nodes
@pytest.mark.parametrize("family, N", [
    *[(family, N) for family in ("square_even(const)", "square_odd(const)")
      for N in (10, 60, 500, 2000)],
    ("square_even(pow:alpha=1)", 10),
    ("square_even(pow:alpha=1)", 60),
])
def test_gauss_rule_brackets_the_square_measures(family, N):
    make, cdf = SQUARES[family]
    spectrum = eigenvalues(truncate(make(), N), weights=True)
    _assert_cms_bracket(spectrum.eigenvalues, spectrum.weights, cdf)


# max |S - 1| measured over n <= 1e5: 2.3e-14 at lam = 0.3 and 1.2e-12 at
# lam = 1.999, where the eigenvector oscillates slowest
@pytest.mark.parametrize("lam, bound", [(0.3, 1e-13), (1.999, 5e-12)])
def test_free_matrix_s_is_conserved(lam, bound):
    seq = instantiate("const")
    trace = s_sequence(seq, WeightSequence.ones(), lam, poly_init(seq, lam),
                       100_000)
    assert trace.n[-1] == 100_000
    assert np.max(np.abs(trace.raw_s() - 1.0)) <= bound


@pytest.mark.parametrize("family", list(FAMILIES))
def test_cli_spectrum_round_trip_brackets_the_measure(family, tmp_path):
    make, cdf = FAMILIES[family]
    if family.startswith("bd:"):
        # transform bd writes n, abar, bbar, log_pi; its first three
        # columns are a sequence table for spectrum
        assert main(["transform", "bd", "--bd", family[3:], "--n", "60",
                     "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "bd.csv").read_text().splitlines()[1:]
        table = tmp_path / "table.csv"
        table.write_text("".join(",".join(row.split(",")[:3]) + "\n"
                                 for row in rows))
        family = "table:%s" % table
    out = tmp_path / "spectrum"
    assert main(["spectrum", "--seq", family, "--size", "60", "--weights",
                 "--out", str(out)]) == 0
    k, nodes, weights = np.loadtxt(out / "spectrum.csv", delimiter=",",
                                   skiprows=1, unpack=True)
    assert np.array_equal(k, np.arange(60))
    want = eigenvalues(truncate(make(), 60), weights=True)
    assert np.array_equal(nodes, want.eigenvalues)
    assert np.array_equal(weights, want.weights)
    _assert_cms_bracket(nodes, weights, cdf)
