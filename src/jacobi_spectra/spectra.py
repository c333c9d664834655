"""Finite-section spectra via Sturm-sequence multisection and Newton polishing.

The N x N leading principal submatrix of a Jacobi matrix is symmetric
tridiagonal with positive off-diagonals, hence has simple spectrum.  The
primitive operation is the Sturm count: the number of eigenvalues below a
shift, read off the signs of the LDL^T pivot recursion (at order >= 2 an
eigenvalue equal to the shift is counted too when its pivot comes out
below ``pivmin``, see :func:`sturm_count`).  Differencing counts at bin
edges yields eigenvalue densities without a full eigensolve.
:func:`eigenvalues` splits intervals on the count until each holds one
eigenvalue, an interval with c eigenvalues at c points per sweep
(multisection, Lo, Philippe & Sameh 1987), then runs a safeguarded Newton
step on det(T - x) inside each isolating bracket, as LAPACK's ``dstebz``
isolates (Kahan's bisection; Demmel, Dhillon & Ren 1995 on its
correctness).

One sweep computes the counts for a whole vector of shifts (every split
point of a multisection step, every Newton point, or every bin edge).  It
runs down the rows of the recursion in blocks: each row costs two numpy
calls on arrays, and the test for pivots below ``pivmin`` and the sign
count run once per block.  No block operation costs more per shift than
its arithmetic, so short blocks of many shifts stay cheap.  A block that
holds such a pivot is redone from its first one with the row-by-row
sweep that substitutes ``-pivmin``, so the counts are bit-identical to
that sweep's.  For Newton the same pass also carries the log-derivative
sum_i d'_i / d_i, three more numpy calls per row; count callers do not
pay for it.  The cost is numpy call overhead per row and sweep, not
arithmetic: a sweep costs about the same at one shift as at a few
hundred, so multisection fills the first sweeps with as many shifts as
the order and isolates in a handful of sweeps; the shift vectors then
shrink as intervals isolate and nodes converge.

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
# at most this many Sturm sweeps per eigenvalues call, both phases together
_MAX_SWEEPS = 110
# floats in one block of each of the Sturm sweep's (rows, shifts) buffers:
# 64 KB for the pivots and 64 KB for the q_i, and two more for Newton
_BLOCK_ELEMENTS = 8192
# Gauss weights whose sum is off 1 by more than this are a DomainError
_WEIGHT_SUM_TOL = 1e-6
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


def _sturm_counts(t, shifts, log_derivative=False):
    """Sturm counts of a truncation for a vector of shifts simultaneously.

    Order 1 counts ``b(0) < shift``, strictly, with no pivot substitution
    and no log-derivative.  From order 2 on, :func:`_sturm_setup` runs
    first, so its :class:`DomainError` comes before any count.  The
    pivots ``d_i = (b_i - s) - q_i``, ``q_i = a_{i-1}**2 / d_{i-1}``, are
    computed in blocks of rows of a ``(rows, shifts)`` buffer of at
    most ``_BLOCK_ELEMENTS`` floats.  One ``np.subtract.outer`` fills a
    block with ``b_i - s`` and one broadcast copy fills a second block of
    the same shape with ``a_{i-1}**2``; each row then costs two numpy
    calls on arrays, ``divide(q, prev, q)`` and ``subtract(d, q, d)`` in
    place, with ``out`` passed by position: parsing it as a keyword costs
    more per call, and so does a Python float operand, which numpy
    converts on every call.  The pivmin test and the count of negative
    pivots run once per block.  Every entry goes through the same IEEE
    operations as the row-by-row sweep, so a block without a pivot below
    ``pivmin`` is bit-identical to it.  A block with one keeps its rows
    before the first such row and finishes from that row with the
    row-by-row sweep, which substitutes ``-pivmin`` and reads
    ``a_{i-1}**2`` from ``off2`` again, as the q rows by then hold
    quotients; so each row is computed at most twice.  The fast pass may
    divide by an exact zero pivot or overflow in the rows it will redo,
    hence the ``np.errstate``.

    With ``log_derivative=True`` it returns ``(counts, sum_i d'_i / d_i)``,
    the derivative of log|det(T - s)| = sum_i log|d_i|, which gives the
    Newton step -1 / sum for det(T - s).  From d'_0 = -1 and
    ``d'_i = -1 + q_i d'_{i-1} / d_{i-1}``, the ratios ``r_i = d'_i / d_i``
    obey ``r_i = (q_i / d_i) r_{i-1} - 1 / d_i``.  Once a block's pivots
    are final (restarted rows included), ``q_i / d_i`` and ``1 / d_i`` are
    two block operations, and each r_i costs three numpy calls: a
    multiply, a subtract and the add of r_i to the running sum, in row
    order as the row-by-row sweep adds them.  No block-wide operation
    takes that sum: ``np.add.accumulate`` along the rows runs one inner
    loop per shift, which costs more than the row adds once blocks are
    short and the shifts many, and ``np.add.reduce`` sums one shift
    pairwise, which rounds differently.
    """
    shifts = np.asarray(shifts, dtype=float)
    if t.order == 1:
        return (t.diag[0] < shifts).astype(np.int64)
    off2, pivmin = _sturm_setup(t)
    diag, N, m = t.diag, t.order, len(shifts)
    block = max(1, _BLOCK_ELEMENTS // max(1, m))
    rows_max = min(block, N - 1)
    # row 0 carries the last pivot row of the previous block
    buf = np.empty((rows_max + 1, m))
    qbuf = np.empty((rows_max, m))
    rows, qs = list(buf), list(qbuf)
    divide, subtract, multiply, add = (np.divide, np.subtract, np.multiply,
                                       np.add)
    d = rows[0]
    np.subtract(float(diag[0]), shifts, out=d)
    d[np.abs(d) < pivmin] = -pivmin
    count = (d < 0.0).astype(np.int64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if log_derivative:
            # row 0 of rbuf carries r of the previous row
            rbuf, vbuf = np.empty((rows_max + 1, m)), np.empty((rows_max, m))
            rs, vs = list(rbuf), list(vbuf)
            np.divide(-1.0, d, out=rs[0])
            total = rs[0].copy()
        for lo in range(1, N, block):
            hi = min(lo + block, N)
            k = hi - lo
            b, pivots, q = diag[lo:hi], buf[1:k + 1], qbuf[:k]
            np.subtract.outer(b, shifts, out=pivots)
            q[...] = off2[lo - 1:hi - 1, None]
            for prev, d, qi in zip(rows, rows[1:k + 1], qs):
                divide(qi, prev, qi)
                subtract(d, qi, d)
            hits = np.abs(pivots) < pivmin
            if hits.any():
                first = int(hits.any(axis=1).argmax())
                for i in range(first, k):
                    d = rows[i + 1]
                    np.subtract(float(b[i]), shifts, out=d)
                    np.divide(off2[lo - 1 + i], rows[i], out=qs[i])
                    np.subtract(d, qs[i], out=d)
                    d[np.abs(d) < pivmin] = -pivmin
            count += (pivots < 0.0).sum(axis=0)
            if log_derivative:
                np.divide(q, pivots, out=q)
                np.divide(1.0, pivots, out=vbuf[:k])
                for prev, r, ui, vi in zip(rs, rs[1:k + 1], qs, vs):
                    multiply(ui, prev, r)
                    subtract(r, vi, r)
                    add(total, r, total)
                rbuf[0] = rbuf[k]
            buf[0] = buf[k]
    return (count, total) if log_derivative else count


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


def sturm_count(t, x):
    """Number of eigenvalues of the truncation below x.

    Exact pivot hits are absorbed by substituting a tiny negative pivot,
    which keeps the count monotone in x.  At order >= 2 the substituted
    pivot counts as negative, so an eigenvalue equal to x whose pivot comes
    out below ``pivmin`` is counted too: const N=3 (eigenvalues -sqrt 2, 0,
    sqrt 2) at x=0 gives 2.  At order 1 the count is ``b(0) < x``,
    strictly below.
    """
    return int(_sturm_counts(t, [x])[0])


def eigenvalues(t, tol=None, weights=False):
    """All eigenvalues: multisection until isolated, then safeguarded Newton.

    Phase 1 (:func:`_isolate`) splits intervals of the Gershgorin bounds,
    each at as many equispaced points as it holds eigenvalues, until each
    holds one eigenvalue; phase 2
    (:func:`_polish`) runs Newton on det(T - x) inside each isolating
    bracket.  ``tol`` is the absolute tolerance; default 1e-12 *
    max(1, spectral radius bound).  It bounds what ends the search, not
    the node error directly: a node is final when its last Newton step is
    at most ``tol`` and stays in its bracket (the error is then of the
    order of that step squared over the gap to the next eigenvalue, a few
    ulps of the radius at the default), or when its bracket is at most
    ``tol`` wide; eigenvalues that share an interval at most ``tol`` wide
    share its midpoint, within ``tol / 2`` of each.  Both phases together
    run at most ``_MAX_SWEEPS`` Sturm sweeps.  With ``weights=True`` the
    Gauss weights are attached: nodes and weights of the N-point Gauss
    discretization of the measure.  Weights whose sum is off 1 by more
    than ``_WEIGHT_SUM_TOL`` are a :class:`DomainError`.
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
        # its DomainError comes before any sweep: a tol wider than the
        # Gershgorin interval isolates with none
        _sturm_setup(t)
        pad = 1e-6 * max(ghi - glo, 1.0)
        eigs, (lo, hi, k), sweeps = _isolate(t, glo - pad, ghi + pad, tol)
        eigs[k] = _polish(t, lo, hi, k, tol, _MAX_SWEEPS - sweeps)
    w = None
    if weights:
        w = _gauss_weights(t, eigs)
        total = float(np.sum(w))
        if not abs(total - 1.0) <= _WEIGHT_SUM_TOL:
            raise DomainError("Gauss weights sum to %r, not 1 within %g"
                              % (total, _WEIGHT_SUM_TOL))
    return TruncationSpectrum(order=N, eigenvalues=eigs, weights=w)


def _isolate(t, lo, hi, tol):
    """Phase 1: multisect [lo, hi] until every interval holds one eigenvalue.

    Each interval carries (lo, hi, count(lo), count(hi)) and the intervals
    stay in increasing order.  A sweep splits every interval that holds
    c >= 2 eigenvalues at the c points lo + (hi - lo) j / (c + 1),
    j = 1..c, into c + 1 pieces (Lo, Philippe & Sameh 1987), so one sweep
    counts at most ``t.order`` shifts, in increasing order.  Where rounding
    puts a point on the one before it or on ``hi``, the point is dropped
    and its two pieces are one.  A piece with several eigenvalues is split
    again, one with one leaves the shift vector for phase 2, one with none
    is dropped.  An interval at most ``tol`` wide, or with no float
    strictly inside, gives its midpoint to all of its eigenvalues, as do
    the intervals left after ``_MAX_SWEEPS``.  Returns (eigenvalues so
    placed, NaN elsewhere; the isolating intervals as arrays (lo, hi,
    index of their eigenvalue); sweeps run).
    """
    eigs = np.full(t.order, np.nan)
    lo, hi = np.array([lo]), np.array([hi])
    nlo, nhi = np.array([0]), np.array([t.order])
    isolated = [(lo[:0], hi[:0], nlo[:0])]
    sweeps = 0
    while len(lo):
        mid = 0.5 * (lo + hi)
        done = (hi - lo <= tol) | ~((lo < mid) & (mid < hi))
        if sweeps == _MAX_SWEEPS:
            done[:] = True
        for a, b, x in zip(nlo[done].tolist(), nhi[done].tolist(),
                           mid[done].tolist()):
            eigs[a:b] = x
        lo, hi, nlo, nhi = (v[~done] for v in (lo, hi, nlo, nhi))
        if not len(lo):
            break
        # point j of interval i is entry first[i] + j - 1 of x
        c = nhi - nlo
        first = np.cumsum(c) - c
        owner = np.repeat(np.arange(len(c)), c)
        j = np.arange(len(owner)) - first[owner] + 1
        x = lo[owner] + (hi - lo)[owner] * (j / (c + 1)[owner])
        prev = np.concatenate(([-np.inf], x[:-1]))
        prev[first] = lo
        keep = (prev < x) & (x < hi[owner])
        x, owner = x[keep], owner[keep]
        # clipped and nondecreasing, so that the intervals always
        # partition 0..order-1
        count = np.clip(_sturm_counts(t, x), nlo[owner], nhi[owner])
        np.maximum.accumulate(count, out=count)
        sweeps += 1
        # interval i becomes the pieces between lo[i], its kept points, hi[i]
        starts = np.searchsorted(owner, np.arange(len(c)))
        ends = np.searchsorted(owner, np.arange(len(c)), side="right")
        lo, nlo = np.insert(x, starts, lo), np.insert(count, starts, nlo)
        hi, nhi = np.insert(x, ends, hi), np.insert(count, ends, nhi)
        one, several = nhi - nlo == 1, nhi - nlo > 1
        isolated.append((lo[one], hi[one], nlo[one]))
        lo, hi, nlo, nhi = (v[several] for v in (lo, hi, nlo, nhi))
    return eigs, [np.concatenate(v) for v in zip(*isolated)], sweeps


def _polish(t, lo, hi, k, tol, sweeps):
    """Phase 2: safeguarded Newton for eigenvalue k[j] in (lo[j], hi[j]).

    Each sweep takes the counts and the Newton steps -1 / sum d'/d at the
    current points in one :func:`_sturm_counts` pass.  The count puts the
    point on one end of its bracket.  A node is final when its step is at most
    ``tol`` and lands in the closed bracket, or when the bracket is at
    most ``tol`` wide or has no float strictly inside; it leaves the
    shift vector.  Otherwise the next point is the Newton iterate if it
    lies in the open bracket.  An iterate past the far end goes to that
    end, once in a row: an eigenvalue on the end (a shift that hit it in
    phase 1) is then final after one more step, instead of bisection
    halving towards it.  Any other iterate is replaced by the bracket's
    midpoint.  After ``sweeps`` sweeps the points left are the nodes.
    """
    nodes = np.empty(len(k))
    todo = np.arange(len(k))
    x = 0.5 * (lo + hi)
    jumped = np.zeros(len(k), dtype=bool)
    for _ in range(sweeps):
        if not len(todo):
            break
        count, slope = _sturm_counts(t, x, log_derivative=True)
        above = count > k
        lo, hi = np.where(above, lo, x), np.where(above, x, hi)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = -1.0 / slope
            new = x + step
        mid = 0.5 * (lo + hi)
        inside = (lo <= new) & (new <= hi)
        final = ((np.abs(step) <= tol) & inside) | (hi - lo <= tol) \
            | ~((lo < mid) & (mid < hi))
        nodes[todo[final]] = np.where(inside, new, mid)[final]
        far = np.where(above, lo, hi)
        past = ~jumped & np.where(above, new <= lo, new >= hi)
        x = np.where((lo < new) & (new < hi), new, np.where(past, far, mid))
        keep = ~final
        todo, lo, hi, k, x, jumped = (v[keep] for v in (todo, lo, hi, k, x,
                                                        past))
    nodes[todo] = x
    return nodes


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
    n_bins = math.ceil(bins)
    if bins > _MAX_BINS:
        raise DomainError("%.6g bins exceed the limit of %d"
                          % (n_bins, _MAX_BINS))
    t = truncate(seq, order)
    edges = x_lo + bin_width * np.arange(n_bins + 1)
    counts = _sturm_counts(t, edges)
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
    the subnormal range, so the only rounding is that of the recurrence,
    the squares and the sum, and nothing that is squared or summed reaches
    N.  The sum is compensated: the rounding error of each addition is
    found exactly (Knuth's TwoSum) and collected in c, scaled with s, so
    s + c carries the sum of the rounded squares to about one rounding.
    Where few terms matter, at small orders, the plain sum's rounding
    would otherwise be most of the weight's error.  The scale never grows
    back: scaling up where the p_j shrink would overflow s, which holds
    p_0**2 = 1 in true scale; a pair that shrinks past the subnormal range
    below the largest p_j so far adds nothing to s.  The weight is
    ``ldexp(1/(s + c), -2e)`` with s >= 1/4, and 0 where it is below
    binary64's range.  No (N, nodes) array is stored.
    """
    nodes = np.asarray(nodes, dtype=float)
    # a(N-1) is never part of p_0..p_{N-1}; pad it so the pair at the
    # last index is well-defined
    a = np.concatenate((t.offdiag, [1.0]))
    b = t.diag
    s, c = np.ones(len(nodes)), np.zeros(len(nodes))
    e = np.zeros(len(nodes), dtype=np.int64)
    # far from the spectrum a weight, or a shrinking pair, underflows to 0
    # on purpose, even where the caller traps underflow; a ratio past
    # binary64 (a subnormal a(n)) turns into NaN weights, which the caller's
    # weight-sum check reports as its one error
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        x, y = s.copy(), (nodes - b[0]) / a[0]
        for n in range(1, t.order):
            k = -np.maximum(np.frexp(y)[1], 0)
            e -= k
            x = np.ldexp(x, k)
            y = np.ldexp(y, k)
            k += k
            s = np.ldexp(s, k)
            c = np.ldexp(c, k)
            # TwoSum: s + p is exactly total + (s - (total - z)) + (p - z)
            p = y * y
            total = s + p
            z = total - s
            c += (s - (total - z)) + (p - z)
            s = total
            # a(n) p(n+1) = (lam - b(n)) p(n) - a(n-1) p(n-1)
            x, y = y, ((nodes - b[n]) * y - a[n - 1] * x) / a[n]
        return np.ldexp(1.0 / (s + c), -2 * e)


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
