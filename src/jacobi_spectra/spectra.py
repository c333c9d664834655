"""Finite-section spectra via Sturm-sequence bisection.

The N x N leading principal submatrix of a Jacobi matrix is symmetric
tridiagonal with positive off-diagonals, hence has simple spectrum.  The
primitive operation is the Sturm count: the number of eigenvalues strictly
below a shift, read off the signs of the LDL^T pivot recursion.  Bisection
on the count yields any eigenvalue to prescribed absolute tolerance, and
differencing counts at bin edges yields eigenvalue densities without a
full eigensolve.

Finite sections are only *evidence* about the spectrum of the infinite
operator: they can place spurious eigenvalues inside genuine spectral
gaps (the alternating power family with its gap (-1, 1) is the standard
caution fixture), so no claims beyond graded evidence are made here.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import _elementwise
from .errors import DomainError
# unused here; perfbench/tracing.py patches spectra.poly_eval
from .recurrence import poly_eval  # noqa: F401

__all__ = [
    "Truncation",
    "TruncationSpectrum",
    "truncate",
    "sturm_count",
    "eigenvalues",
    "density_report",
    "gauss_measure",
    "write_spectrum_csv",
    "write_density_csv",
]

_SAFE_MIN = np.finfo(float).tiny / np.finfo(float).eps


@dataclass(frozen=True)
class Truncation:
    """N x N principal submatrix: diag b(0..N-1), offdiag a(0..N-2)."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "diag", np.asarray(self.diag, dtype=float))
        object.__setattr__(self, "offdiag", np.asarray(self.offdiag, dtype=float))
        if len(self.offdiag) != len(self.diag) - 1:
            raise DomainError("offdiag must have length N-1")
        if not (np.all(np.isfinite(self.diag))
                and np.all(np.isfinite(self.offdiag))):
            raise DomainError("truncation entries must be finite")
        if np.any(self.offdiag <= 0.0):
            raise DomainError("off-diagonal entries must be positive")

    @property
    def order(self):
        return len(self.diag)

    def gershgorin(self):
        """(lower, upper) bounds containing every eigenvalue."""
        a = np.concatenate(([0.0], self.offdiag, [0.0]))
        radius = a[:-1] + a[1:]
        return float(np.min(self.diag - radius)), float(np.max(self.diag + radius))

    def dense(self):
        m = np.diag(self.diag)
        idx = np.arange(self.order - 1)
        m[idx, idx + 1] = self.offdiag
        m[idx + 1, idx] = self.offdiag
        return m


@dataclass(frozen=True)
class TruncationSpectrum:
    """Sorted eigenvalues of a truncation, with optional Gauss weights.

    The weights, when present, are the squared first components of the
    normalized eigenvectors: the N-point discretization of the spectral
    measure at the first basis vector.
    """

    order: int
    eigenvalues: np.ndarray
    weights: np.ndarray | None = None


def truncate(seq, order):
    """Copy the first ``order`` rows/columns of the Jacobi matrix."""
    if order < 1:
        raise DomainError("truncation order must be >= 1")
    return Truncation(seq.b_array(order), seq.a_array(order - 1))


def _sturm_counts_vec(diag, off2, shifts, pivmin):
    """Sturm counts for a vector of shifts simultaneously."""
    shifts = np.asarray(shifts, dtype=float)
    d = diag[0] - shifts
    d[np.abs(d) < pivmin] = -pivmin
    count = (d < 0.0).astype(np.int64)
    for b_i, e2 in zip(map(float, diag[1:]), map(float, off2)):
        d = (b_i - shifts) - e2 / d
        d[np.abs(d) < pivmin] = -pivmin
        count += d < 0.0
    return count


def _pivmin(t):
    scale = max(1.0, float(np.max(t.offdiag) ** 2)) if len(t.offdiag) else 1.0
    return _SAFE_MIN * scale


def sturm_count(t, x):
    """Number of eigenvalues of the truncation strictly below x.

    Exact pivot hits are absorbed by substituting a tiny negative pivot,
    which keeps the count monotone in x.
    """
    if t.order == 1:
        return int(t.diag[0] - x < 0.0)
    off2 = t.offdiag ** 2
    return int(_sturm_counts_vec(t.diag, off2, np.array([x]), _pivmin(t))[0])


def eigenvalues(t, tol=None, weights=False):
    """All eigenvalues by simultaneous bisection on the Sturm count.

    ``tol`` is the absolute tolerance; default 1e-12 * max(1, spectral
    radius bound).  With ``weights=True`` the Gauss weights are attached
    (see :func:`gauss_measure`).
    """
    glo, ghi = t.gershgorin()
    radius = max(abs(glo), abs(ghi), 1.0)
    if tol is None:
        tol = 1e-12 * radius
    if not tol > 0.0:
        raise DomainError("tolerance must be positive")
    N = t.order
    if N == 1:
        eigs = np.array([t.diag[0]])
    else:
        off2 = t.offdiag ** 2
        pivmin = _pivmin(t)
        span = (ghi - glo) + 2e-6 * max(ghi - glo, 1.0)
        lo = np.full(N, glo - 1e-6 * max(ghi - glo, 1.0))
        hi = np.full(N, ghi + 1e-6 * max(ghi - glo, 1.0))
        target = np.arange(1, N + 1)
        # fixed step count: intervals halve each sweep; looping on the
        # interval width instead can spin forever once hi - lo reaches the
        # double-precision spacing at large magnitudes
        steps = min(110, max(1, int(math.ceil(math.log2(span / tol))) + 2))
        for _ in range(steps):
            mid = 0.5 * (lo + hi)
            counts = _sturm_counts_vec(t.diag, off2, mid, pivmin)
            above = counts >= target
            hi = np.where(above, mid, hi)
            lo = np.where(above, lo, mid)
        eigs = 0.5 * (lo + hi)
    w = _gauss_weights(t, eigs) if weights else None
    return TruncationSpectrum(order=N, eigenvalues=eigs, weights=w)


def density_report(seq, order, window, bin_width):
    """Eigenvalue counts of the truncation per bin over [x_lo, x_hi).

    Counts come from Sturm-count differences at bin edges; no eigensolve.
    Returns a list of (bin_lo, bin_hi, count).
    """
    x_lo, x_hi = float(window[0]), float(window[1])
    if not all(map(math.isfinite, (x_lo, x_hi, bin_width))):
        raise DomainError("window and bin width must be finite")
    if bin_width <= 0.0:
        raise DomainError("bin width must be positive")
    if x_hi <= x_lo:
        return []
    bins = (x_hi - x_lo) / bin_width - 1e-12
    if not math.isfinite(bins):
        raise DomainError("window width / bin width = %r is not a bin count"
                          % bins)
    t = truncate(seq, order)
    n_bins = int(math.ceil(bins))
    edges = x_lo + bin_width * np.arange(n_bins + 1)
    if t.order == 1:
        counts = np.array([int(t.diag[0] < e) for e in edges])
    else:
        counts = _sturm_counts_vec(t.diag, t.offdiag ** 2, edges, _pivmin(t))
    return [
        (float(edges[i]), float(edges[i + 1]), int(counts[i + 1] - counts[i]))
        for i in range(n_bins)
    ]


def _math_map(fn, *arrays):
    """A ``math`` function applied elementwise to float arrays.

    Iterating a memoryview yields Python floats without the list that
    ``.tolist()`` would build.
    """
    return _elementwise(fn, *map(memoryview, arrays))


def _twice_log_abs(x, logscale):
    """2 log|u| for u = x exp(logscale), -inf where x is an exact zero."""
    abs_x = np.abs(x)
    zero = abs_x == 0.0
    abs_x[zero] = 1.0
    out = _math_map(math.log, abs_x)
    out += logscale
    out[zero] = -np.inf
    out *= 2.0
    return out


def _gauss_weights(t, nodes):
    """Christoffel weights 1 / sum_j p_j(x_k)**2 for all nodes in one pass.

    The loop runs over the degree n with the nodes as a vector; each step
    is the log-scaled recurrence of :func:`recurrence.propagate`, which
    keeps (p_n, p_{n+1}) on the unit circle and carries the log of its
    magnitude apart, so nothing overflows.  ``hypot``, ``log`` and ``exp``
    are the ``math`` functions applied elementwise because numpy's
    versions differ in the last bit for some inputs: with them every
    weight is bit-identical to the scalar recurrence run node by node.
    The sum of squares is folded into a running ``logaddexp`` in order of
    n, as ``np.logaddexp.reduce`` folds a polynomial trace, so no
    (N, nodes) array is stored.
    """
    nodes = np.asarray(nodes, dtype=float)
    if t.order == 1:
        return np.ones(len(nodes))
    # a(N-1) is never part of p_0..p_{N-1}; pad it so the pair at the
    # last index is well-defined
    a = np.concatenate((t.offdiag, [1.0]))
    b = t.diag
    x, y = np.ones(len(nodes)), (nodes - b[0]) / a[0]
    r = _math_map(math.hypot, x, y)
    x /= r
    y /= r
    logscale = _math_map(math.log, r)
    log_sum = _twice_log_abs(x, logscale)
    for n in range(1, t.order):
        # a(n) p(n+1) = (lam - b(n)) p(n) - a(n-1) p(n-1), scale-free
        y_new = ((nodes - b[n]) * y - a[n - 1] * x) / a[n]
        r = _math_map(math.hypot, y, y_new)
        y /= r
        y_new /= r
        x, y = y, y_new
        logscale += _math_map(math.log, r)
        log_sum = np.logaddexp(log_sum, _twice_log_abs(x, logscale))
    return _math_map(lambda v: math.exp(-v), log_sum)


def gauss_measure(t, tol=None):
    """Nodes and weights of the N-point Gauss discretization of the measure."""
    return eigenvalues(t, tol=tol, weights=True)


def write_spectrum_csv(path, spectrum):
    """CSV export: (k, eigenvalue[, weight])."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if spectrum.weights is None:
            writer.writerow(["k", "eigenvalue"])
            for k, x in enumerate(spectrum.eigenvalues):
                writer.writerow([k, "%.17g" % x])
        else:
            writer.writerow(["k", "eigenvalue", "weight"])
            for k, (x, w) in enumerate(zip(spectrum.eigenvalues,
                                           spectrum.weights)):
                writer.writerow([k, "%.17g" % x, "%.17g" % w])


def write_density_csv(path, rows):
    """CSV export: (bin_lo, bin_hi, count)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_lo", "bin_hi", "count"])
        for lo, hi, count in rows:
            writer.writerow(["%.17g" % lo, "%.17g" % hi, count])
