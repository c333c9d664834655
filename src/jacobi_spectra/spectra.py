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

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .recurrence import _elementwise, _log_abs, _write_columns
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
# at most this many bisection sweeps, each halving every bracket
_MAX_SWEEPS = 110
# at most this many density_report bins (~15 MB of rows, ~5 MB of CSV)
_MAX_BINS = 100_000


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
        """(lower, upper) bounds containing every eigenvalue; inf on overflow."""
        a = np.concatenate(([0.0], self.offdiag, [0.0]))
        with np.errstate(over="ignore"):
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
    if not math.isfinite(ghi - glo):
        raise DomainError("Gershgorin bounds overflow: [%r, %r]" % (glo, ghi))
    radius = max(abs(glo), abs(ghi), 1.0)
    if tol is None:
        tol = 1e-12 * radius
    if not 0.0 < tol < math.inf:
        raise DomainError("tolerance must be positive and finite")
    N = t.order
    if N == 1:
        eigs = np.array([t.diag[0]])
    else:
        off2 = t.offdiag ** 2
        pivmin = _pivmin(t)
        pad = 1e-6 * max(ghi - glo, 1.0)
        span = (ghi - glo) + 2.0 * pad
        lo, hi = np.full(N, glo - pad), np.full(N, ghi + pad)
        target = np.arange(1, N + 1)
        # fixed step count: intervals halve each sweep; looping on the
        # interval width instead can spin forever once hi - lo reaches the
        # double-precision spacing at large magnitudes; the ratio is clamped
        # so that a subnormal tol does not take log2 to inf
        ratio = min(span / tol, 2.0 ** _MAX_SWEEPS)
        steps = min(_MAX_SWEEPS, max(1, int(math.ceil(math.log2(ratio))) + 2))
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
    Returns a list of (bin_lo, bin_hi, count).  More than ``_MAX_BINS``
    bins is a :class:`DomainError`.
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
    n_bins = int(math.ceil(bins))
    if n_bins > _MAX_BINS:
        raise DomainError("%d bins exceed the limit of %d" % (n_bins, _MAX_BINS))
    t = truncate(seq, order)
    edges = x_lo + bin_width * np.arange(n_bins + 1)
    if t.order == 1:
        counts = np.array([int(t.diag[0] < e) for e in edges])
    else:
        counts = _sturm_counts_vec(t.diag, t.offdiag ** 2, edges, _pivmin(t))
    return [
        (float(edges[i]), float(edges[i + 1]), int(counts[i + 1] - counts[i]))
        for i in range(n_bins)
    ]


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
    r = _elementwise(math.hypot, x, y)
    x /= r
    y /= r
    logscale = _elementwise(math.log, r)
    log_sum = _log_abs(x, logscale)
    log_sum *= 2.0
    for n in range(1, t.order):
        # a(n) p(n+1) = (lam - b(n)) p(n) - a(n-1) p(n-1), scale-free
        y_new = ((nodes - b[n]) * y - a[n - 1] * x) / a[n]
        r = _elementwise(math.hypot, y, y_new)
        y /= r
        y_new /= r
        x, y = y, y_new
        logscale += _elementwise(math.log, r)
        log_sq = _log_abs(x, logscale)
        log_sq *= 2.0
        log_sum = np.logaddexp(log_sum, log_sq)
    return _elementwise(lambda v: math.exp(-v), log_sum)


def gauss_measure(t, tol=None):
    """Nodes and weights of the N-point Gauss discretization of the measure."""
    return eigenvalues(t, tol=tol, weights=True)


def write_spectrum_csv(path, spectrum):
    """CSV export: (k, eigenvalue[, weight])."""
    header = ["k", "eigenvalue"]
    columns = [np.arange(len(spectrum.eigenvalues)), spectrum.eigenvalues]
    if spectrum.weights is not None:
        header.append("weight")
        columns.append(spectrum.weights)
    _write_columns(path, header, *columns)


def write_density_csv(path, rows):
    """CSV export: (bin_lo, bin_hi, count)."""
    table = np.array(rows, dtype=float).reshape(-1, 3)
    _write_columns(path, ["bin_lo", "bin_hi", "count"], table[:, 0],
                   table[:, 1], table[:, 2].astype(np.int64))
