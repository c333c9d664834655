"""Three-term recurrence evaluation in an overflow-safe representation.

Generalized eigenvectors of a Jacobi matrix solve

    a(n) u(n+1) = (lam - b(n)) u(n) - a(n-1) u(n-1)      (n >= 1)

with a free initial pair (u(0), u(1)) != (0, 0).  At generic spectral
parameters these solutions grow exponentially, so raw binary64 values
overflow within a few hundred steps for the sequence families of interest.
We therefore carry the *direction* of the pair (u(n), u(n+1)) on the unit
circle plus one accumulated log-magnitude:

    u(n)   = x * exp(logscale)
    u(n+1) = y * exp(logscale),     x**2 + y**2 == 1.

Every downstream diagnostic only needs scale-free combinations of
consecutive entries, so nothing is lost.  Exact zeros (e.g. odd-index
polynomial values at lam = 0 for symmetric matrices) are representable:
the corresponding coordinate is exactly 0.0.  The kernel ``_propagate_rows``
is the one step loop: :func:`propagate`, :func:`poly_eval` and
``diagnostics.s_sequence`` all read its rows (x, y, logscale).  It fills a
preallocated (N+1, 3) array step by step, so its peak memory is its result.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "EigvecInit",
    "PropagationState",
    "PolyTrace",
    "propagate",
    "poly_eval",
    "poly_init",
    "l2_partial_sums",
    "write_trace_csv",
]

# exp(logscale) overflows binary64 past this
_LOG_HUGE = math.log(np.finfo(float).max)


def _elementwise(fn, *args):
    """fn mapped over equal-length sequences or float arrays, as a float array.

    numpy's exp, log, hypot and power differ from the ``math`` functions
    in the last bit for some inputs; computing those entries with ``math``
    keeps every written number identical to the scalar definitions.
    Arrays are read through memoryviews, which yield Python floats without
    the list that ``.tolist()`` would build.  Pass a C builtin such as
    ``math.pow`` or ``math.log`` as fn: a Python lambda or a slot wrapper
    such as ``float.__pow__`` costs more per entry than the libm call.
    """
    args = [memoryview(v) if isinstance(v, np.ndarray) else v for v in args]
    return np.fromiter(map(fn, *args), float, len(args[0]))


def _sign_log_abs(x, logscale):
    """(sign, log|u|) of u = x exp(logscale), elementwise: sign 0 and log
    -inf at an exact zero, and sign -1 for NaN x."""
    abs_x = np.abs(x)
    zero = abs_x == 0.0
    abs_x[zero] = 1.0
    log_abs = _elementwise(math.log, abs_x)
    log_abs += logscale
    log_abs[zero] = -np.inf
    return np.where(x > 0.0, 1, np.where(zero, 0, -1)), log_abs


def _exp_signed(sign, log_abs):
    """sign * exp(log_abs), entrywise by ``math.exp``: 0.0 where sign is 0
    and +-inf past binary64, with no numpy warning."""
    sign, log_abs = np.broadcast_arrays(sign, log_abs)
    live = sign != 0
    u = np.where(live & (log_abs > _LOG_HUGE), np.inf, 0.0)
    finite = live & (u == 0.0)
    u[finite] = _elementwise(math.exp, log_abs[finite])
    return sign * u


def _write_columns(path, header, *columns, blank=None):
    """Equal-length array columns as CSV rows (CRLF, as ``csv.writer``).

    The one place output numbers are formatted: integer columns (at most
    int64) as ``'%d' % i`` and the other columns as ``'%.17g' % x``, byte
    for byte.  Rows where the boolean array ``blank`` is true leave their
    last cell empty.  ``_cells`` computes the digits of whole blocks of
    rows in numpy arithmetic; a float within 1e-9 of a tie at 17 digits,
    which CPython rounds half-even, and a subnormal are formatted by ``%``.
    """
    from . import _cells  # its tables are built at the first write
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        fh.writelines(_cells.rows(columns, blank))


@dataclass(frozen=True)
class EigvecInit:
    """Initial pair (u(0), u(1)); must not be the zero vector."""

    u0: float
    u1: float

    def __post_init__(self):
        if self.u0 == 0.0 and self.u1 == 0.0:
            raise DomainError("initial pair must be nonzero")


@dataclass(frozen=True)
class PropagationState:
    """Normalized snapshot of (u(n), u(n+1)).

    ``x`` and ``y`` are the unit-circle coordinates of u(n) and u(n+1);
    ``logscale`` is the natural log of the true pair magnitude.
    """

    n: int
    x: float
    y: float
    logscale: float

    def log_abs_u(self):
        """(sign, log|u(n)|); log is -inf at an exact zero."""
        sign, log_abs = _sign_log_abs(np.array([self.x]), self.logscale)
        return int(sign[0]), float(log_abs[0])


def poly_init(seq, lam):
    """The orthonormal-polynomial initial pair (p0, p1) = (1, (lam-b0)/a0)."""
    return EigvecInit(1.0, (lam - seq.b(0)) / seq.a(0))


def _propagate_rows(a, b, lam, u0, u1):
    """The (N+1, 3) rows (x, y, logscale) over arrays a(0..N), b(0..N): row 0
    is the normalized pair (u0, u1), the recurrence acts from n = 1 on."""
    a, b = memoryview(a), memoryview(b)
    hypot, log = math.hypot, math.log
    u0, u1 = float(u0), float(u1)
    r = hypot(u0, u1)
    x, y = u0 / r, u1 / r
    logscale = log(r)
    rows = np.empty((len(a), 3))
    # the columns as memoryviews: each step stores three floats in place
    xs, ys, logs = map(memoryview, rows.T)
    xs[0], ys[0], logs[0] = x, y, logscale
    n = 0
    try:
        # zip reads a(n-1), a(n) and b(n) for n = 1, 2, ... in one pass;
        # strict, so a b of another length than a is an error
        for a_prev, a_n, b_n in zip(a[:-1], a[1:], b[1:], strict=True):
            n += 1
            # a(n) u(n+1) = (lam - b(n)) u(n) - a(n-1) u(n-1), scale-free
            y_new = ((lam - b_n) * y - a_prev * x) / a_n
            r = hypot(y, y_new)
            # r > 0 in exact arithmetic: y == 0 forces y_new = -a(n-1) x / a(n)
            # != 0, since (x, y) != 0; only that quotient's underflow gives 0
            x, y = y / r, y_new / r
            logscale += log(r)
            xs[n], ys[n], logs[n] = x, y, logscale
    except ZeroDivisionError:
        raise DomainError(
            "propagation underflows at n = %d: a(%d)/a(%d) = %r/%r rounds to "
            "0, so (u(%d), u(%d)) is (0, 0) relative to u(%d)"
            % (n, n - 1, n, a[n - 1], a[n], n, n + 1, n - 1)) from None
    # a finite pair stays finite unless one step's ratio overflows: then
    # r is inf and every later logscale inf or nan
    if not math.isfinite(logscale) and math.isfinite(rows[0, 2]):
        n = int(np.argmin(np.isfinite(rows[:, 2])))
        raise DomainError(
            "propagation overflows at n = %d: u(%d) is beyond binary64 "
            "relative to (u(%d), u(%d)), with a(%d) = %r, a(%d) = %r and "
            "lam - b(%d) = %r"
            % (n, n + 1, n - 1, n, n - 1, a[n - 1], n, a[n], n, lam - b[n]))
    return rows


def propagate(seq, lam, init, n_max):
    """Yield :class:`PropagationState` for n = 0 .. n_max: the rows of
    ``_propagate_rows`` over a(0..n_max) and b(0..n_max)."""
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    rows = _propagate_rows(seq.a_array(n_max + 1), seq.b_array(n_max + 1),
                           lam, init.u0, init.u1)
    for n, row in enumerate(rows.tolist()):
        yield PropagationState(n, *row)


class PolyTrace:
    """Values p(0)..p(N) of the orthonormal polynomials at a fixed lam.

    Each value is stored as (sign, log|p|), with sign 0 flagging an exact
    zero.  p(0) = 1 always.
    """

    def __init__(self, lam, signs, log_abs):
        self.lam = float(lam)
        self.signs = np.asarray(signs, dtype=np.int8)
        self.log_abs = np.asarray(log_abs, dtype=float)

    def __len__(self):
        return len(self.signs)

    def value(self, n):
        """p(n) as a float; inf with the right sign if not representable."""
        return float(_exp_signed(self.signs[n], self.log_abs[n]))

    def values(self):
        return _exp_signed(self.signs, self.log_abs)

    def is_zero(self, n):
        return self.signs[n] == 0


def poly_eval(seq, lam, n_max):
    """Evaluate p(0)..p(n_max) at lam with the kernel ``_propagate_rows``."""
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    init, m = poly_init(seq, lam), max(n_max, 1) + 1
    x, _, logscale = _propagate_rows(seq.a_array(m), seq.b_array(m), lam,
                                     init.u0, init.u1)[: n_max + 1].T
    return PolyTrace(lam, *_sign_log_abs(x, logscale))


def l2_partial_sums(trace):
    """Running sums of p(n)**2 (log form) for a :class:`PolyTrace`.

    Returns an array L with L[m] = log(sum over n <= m of p(n)**2).  The
    log-sum-exp accumulation makes L exactly nondecreasing at any
    magnitude; exact zeros (log|p| = -inf) contribute nothing.
    """
    return np.logaddexp.accumulate(2.0 * trace.log_abs)


def write_trace_csv(path, states):
    """Export a propagation run: columns (n, sign_u, log_abs_u, u_if_representable).

    ``states`` is the (N+1, 3) array of normalized states (x, y, logscale)
    for n = 0..N, such as :attr:`DiagnosticsTrace.states`.  u is written
    where exp(log|u|) is representable, as 0 at an exact zero, and left
    empty otherwise.
    """
    x, logscale = states[:, 0], states[:, 2]
    sign, log_abs = _sign_log_abs(x, logscale)
    shown = (sign != 0) & (np.abs(log_abs) < _LOG_HUGE)
    u = _exp_signed(np.where(shown, sign, 0), log_abs)
    _write_columns(path, ["n", "sign_u", "log_abs_u", "u_if_representable"],
                   np.arange(len(x)), sign, log_abs, u,
                   blank=(sign != 0) & ~shown)
