"""Finite-section spectra via Sturm-sequence bisection.

The N x N leading principal submatrix of a Jacobi matrix is symmetric
tridiagonal with positive off-diagonals, hence has simple spectrum.  The
primitive operation is the Sturm count: the number of eigenvalues below a
shift, read off the signs of the LDL^T pivot recursion (at order >= 2 an
eigenvalue equal to the shift is counted too when its pivot comes out
below ``pivmin``, see :func:`sturm_count`).  Bisection on the count yields
any eigenvalue to prescribed absolute tolerance, and differencing counts
at bin edges yields eigenvalue densities without a full eigensolve.

One sweep computes the counts for a whole vector of shifts (every bracket
midpoint of a bisection step, or every bin edge).  It runs down the rows
of the recursion in blocks: each row costs two numpy calls, and the test
for pivots below ``pivmin`` and the sign count run once per block.  A
block that holds such a pivot is redone from its first one with the
row-by-row sweep that substitutes ``-pivmin``, so the counts are
bit-identical to that sweep's.  Its cost is numpy call overhead, not
arithmetic: the shift vectors are a few hundred long.

Gauss weights come from one three-term recurrence over all nodes at once,
in plain float arithmetic kept in range by exact power-of-two rescaling
(:func:`_gauss_weights`).

Finite sections are only *evidence* about the spectrum of the infinite
operator: they can place spurious eigenvalues inside genuine spectral
gaps (the alternating power family with its gap (-1, 1) is the standard
caution fixture), so no claims beyond graded evidence are made here.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .recurrence import _write_columns
# unused here; perfbench/tracing.py patches spectra.poly_eval
from .recurrence import poly_eval  # noqa: F401

__all__ = [
    "Truncation",
    "TruncationSpectrum",
    "truncate",
    "sturm_count",
    "eigenvalues",
    "density_report",
    "write_spectrum_csv",
    "write_density_csv",
]

_SAFE_MIN = np.finfo(float).tiny / np.finfo(float).eps
# at most this many bisection sweeps, each halving every bracket
_MAX_SWEEPS = 110
# floats in one block of the Sturm sweep's (rows, shifts) buffer: 64 KB
_BLOCK_ELEMENTS = 8192
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
    """Sturm counts for a vector of shifts simultaneously.

    The pivots ``d_i = (b_i - s) - a_{i-1}**2 / d_{i-1}`` are computed in
    blocks of rows of a ``(rows, shifts)`` buffer of at most
    ``_BLOCK_ELEMENTS`` floats.  One ``np.subtract.outer`` fills a block
    with ``b_i - s``; each row then costs two numpy calls, a divide and a
    subtract in place.  The pivmin test and the count of negative pivots
    run once per block.  Every entry goes through the same IEEE operations
    as the row-by-row sweep, so a block without a pivot below ``pivmin``
    is bit-identical to it.  A block with one keeps its rows before the
    first such row and finishes from that row with the row-by-row sweep,
    which substitutes ``-pivmin``; so each row is computed at most twice.
    The fast pass may divide by an exact zero pivot or overflow in the
    rows it will redo, hence the ``np.errstate``.
    """
    shifts = np.asarray(shifts, dtype=float)
    N = len(diag)
    block = max(1, _BLOCK_ELEMENTS // max(1, len(shifts)))
    # row 0 carries the last pivot row of the previous block
    buf = np.empty((min(block, N - 1) + 1, len(shifts)))
    rows, q = list(buf), np.empty(len(shifts))
    d = rows[0]
    np.subtract(float(diag[0]), shifts, out=d)
    d[np.abs(d) < pivmin] = -pivmin
    count = (d < 0.0).astype(np.int64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for lo in range(1, N, block):
            hi = min(lo + block, N)
            k = hi - lo
            b, pivots = diag[lo:hi], buf[1:k + 1]
            e2s = off2[lo - 1:hi - 1].tolist()
            np.subtract.outer(b, shifts, out=pivots)
            for prev, d, e2 in zip(rows, rows[1:k + 1], e2s):
                np.divide(e2, prev, out=q)
                np.subtract(d, q, out=d)
            hits = np.abs(pivots) < pivmin
            if hits.any():
                first = int(hits.any(axis=1).argmax())
                for i in range(first, k):
                    d = rows[i + 1]
                    np.subtract(float(b[i]), shifts, out=d)
                    np.divide(e2s[i], rows[i], out=q)
                    np.subtract(d, q, out=d)
                    d[np.abs(d) < pivmin] = -pivmin
            count += (pivots < 0.0).sum(axis=0)
            buf[0] = buf[k]
    return count


def _sturm_setup(t):
    """(off2, pivmin) of a truncation: squared off-diagonal, pivot floor.

    A square past binary64 is a :class:`DomainError`: with ``pivmin`` or
    an ``off2`` entry infinite, every pivot would be substituted.
    """
    with np.errstate(over="ignore"):
        off2 = t.offdiag ** 2
        scale = max(1.0, float(np.max(t.offdiag) ** 2)) if len(off2) else 1.0
    if not (math.isfinite(scale) and np.all(np.isfinite(off2))):
        raise DomainError("squared off-diagonal overflows binary64: max a = %r"
                          % float(np.max(t.offdiag)))
    return off2, _SAFE_MIN * scale


def _sturm_counts(t):
    """The Sturm counter of a truncation: a function shifts -> counts.

    ``_sturm_setup`` runs once, here, so its :class:`DomainError` comes
    before any count.  Order 1 counts ``b(0) < shift``, strictly, with no
    pivot substitution.
    """
    if t.order == 1:
        return lambda shifts: (t.diag[0] < np.asarray(shifts)).astype(np.int64)
    off2, pivmin = _sturm_setup(t)
    return lambda shifts: _sturm_counts_vec(t.diag, off2, shifts, pivmin)


def sturm_count(t, x):
    """Number of eigenvalues of the truncation below x.

    Exact pivot hits are absorbed by substituting a tiny negative pivot,
    which keeps the count monotone in x.  At order >= 2 the substituted
    pivot counts as negative, so an eigenvalue equal to x whose pivot comes
    out below ``pivmin`` is counted too: const N=3 (eigenvalues -sqrt 2, 0,
    sqrt 2) at x=0 gives 2.  At order 1 the count is ``b(0) < x``,
    strictly below.
    """
    return int(_sturm_counts(t)([x])[0])


def eigenvalues(t, tol=None, weights=False):
    """All eigenvalues by simultaneous bisection on the Sturm count.

    ``tol`` is the absolute tolerance; default 1e-12 * max(1, spectral
    radius bound).  With ``weights=True`` the Gauss weights are attached:
    nodes and weights of the N-point Gauss discretization of the measure.
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
        counter = _sturm_counts(t)
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
            counts = counter(mid)
            above = counts >= target
            hi = np.where(above, mid, hi)
            lo = np.where(above, lo, mid)
        eigs = 0.5 * (lo + hi)
    w = _gauss_weights(t, eigs) if weights else None
    return TruncationSpectrum(order=N, eigenvalues=eigs, weights=w)


def density_report(seq, order, window, bin_width):
    """Eigenvalue counts of the truncation per bin over [x_lo, x_hi).

    Counts come from Sturm-count differences at bin edges; no eigensolve.
    At order >= 2 :func:`sturm_count` counts an eigenvalue exactly at an
    edge, so it falls in the bin that ends there: const N=3 puts its 0 in
    [-1, 0).  Returns a list of (bin_lo, bin_hi, count).  More than
    ``_MAX_BINS`` bins is a :class:`DomainError`.
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
    counts = _sturm_counts(t)(edges)
    return [
        (float(edges[i]), float(edges[i + 1]), int(counts[i + 1] - counts[i]))
        for i in range(n_bins)
    ]


def _gauss_weights(t, nodes):
    """Christoffel weights 1 / sum_j p_j(x_k)**2 for all nodes in one pass.

    The loop runs over the degree n with the nodes as a vector, in plain
    float arithmetic.  Each node carries the pair (p_{n-1}, p_n) and the
    running sum s of p_j**2, j < n, divided by 2**e and 2**(2e) for an
    integer exponent e of its own.  Before p_n**2 is added, a p_n of 1 or
    more is brought into [1/2, 1) by the power of two 2**-k, k its
    ``np.frexp`` exponent, and p_{n-1} and s are scaled with it by 2**-k
    and 2**-2k.  A multiplication by a power of two rounds nothing above
    the subnormal range, so the only rounding is that of the recurrence
    and the sum, and nothing that is squared or summed reaches N.  The
    scale never grows back: scaling up where the p_j shrink would overflow
    s, which holds p_0**2 = 1 in true scale; a pair that shrinks past the
    subnormal range below the largest p_j so far adds nothing to s.  The
    weight is ``ldexp(1/s, -2e)`` with s >= 1/4, rounded once, and 0 where
    it is below binary64's range.  No (N, nodes) array is stored.
    """
    nodes = np.asarray(nodes, dtype=float)
    # a(N-1) is never part of p_0..p_{N-1}; pad it so the pair at the
    # last index is well-defined
    a = np.concatenate((t.offdiag, [1.0]))
    b = t.diag
    x, y = np.ones(len(nodes)), (nodes - b[0]) / a[0]
    s, e = x.copy(), np.zeros(len(nodes), dtype=np.int64)
    # far from the spectrum a weight, or a shrinking pair, underflows to 0
    # on purpose, even where the caller traps underflow
    with np.errstate(under="ignore"):
        for n in range(1, t.order):
            k = -np.maximum(np.frexp(y)[1], 0)
            e -= k
            x = np.ldexp(x, k)
            y = np.ldexp(y, k)
            s = np.ldexp(s, k + k)
            s += y * y
            # a(n) p(n+1) = (lam - b(n)) p(n) - a(n-1) p(n-1)
            x, y = y, ((nodes - b[n]) * y - a[n - 1] * x) / a[n]
        return np.ldexp(1.0 / s, -2 * e)


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
