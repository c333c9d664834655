"""CSV rows of numpy columns, byte for byte as ``'%.17g' % x`` and ``'%d' % i``.

Each cell is four little-endian uint64 words: a lead word (separator,
sign, the ``0.000`` prefix of a small number and the first digit) and
three words of digits, decimal point and exponent.  Bytes a cell does not
use are NUL, and ``bytes.translate`` drops the NULs of a block of rows.

Float digits are exact.  For a normal x with decimal exponent X, the
product y = |x| 10^(16 - X) is formed as a double-double: 10^k is a
106-bit hi + lo pair taken from exact integers, and |x| hi is Dekker's
two-product, so y is off by less than 1e-13.  D, the integer nearest y,
is then the correctly rounded 17-digit significand, unless y is within
1e-9 of a half-integer: CPython rounds an exact tie half-even, so those
near-ties, and every subnormal x, are formatted by ``%``.  An X that
leaves D outside [10^16, 10^17) is corrected by one and D recomputed.
The ``%g`` layout follows: fixed notation for -4 <= X < 17, exponent
notation otherwise, trailing zeros and a bare point stripped, and at
least two exponent digits.  A zero takes the same path as 1.0, with its
first digit set to 0.  ``%.17g`` writes -0 and -inf with their sign and
every NaN as ``nan``; NaN, ±inf, subnormals and near-ties are the only
cells written after the array path.

Integer digits are taken in 4-digit chunks, only as many per block as
its longest number needs.

The tables are built when this module is imported, which
``recurrence._write_columns`` does at its first call, not at start-up.
"""

import itertools
import math

import numpy as np

# rows per block; the sweep recorded in CHANGES.md chose it: larger blocks
# cost fewer numpy calls per cell and more peak memory
BLOCK_ROWS = 1024

_U = np.uint64
_B8, _B16, _B32, _B56 = map(_U, (8, 16, 32, 56))
_ZERO, _COMMA, _MINUS, _CRLF = map(_U, (0, ord(","), ord("-") << 8, 0x0A0D))

# decimal exponents with a row in the per-exponent tables: normal floats
# have |X| <= 308, and the estimate of X is at most one off
_XMIN, _XMAX = -310, 310


def _word(text):
    """ASCII text of at most 8 bytes as one little-endian word."""
    return int.from_bytes(text.encode(), "little")


def _split(v):
    """Dekker's split of v into two halves of 26 significant bits."""
    t = v * 134217729.0
    hi = t - (t - v)
    return hi, v - hi


def _pow10():
    """10^(16 - X) for every X of the tables: (hi, lo, E) with (hi + lo) 2^E
    the value to 106 bits and hi in [0.5, 1)."""
    rows = []
    for k in range(16 - _XMIN, 15 - _XMAX, -1):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        # m = round(10^k 2^shift) has 106 or 107 bits
        shift = 107 - num.bit_length() + den.bit_length()
        if shift >= 0:
            m = ((num << (shift + 1)) + den) // (2 * den)
        else:
            m = (num + (1 << (-shift - 1))) >> -shift
        hi = float(m)
        frac, exp = math.frexp(hi)
        rows.append((frac, math.ldexp(float(m - int(hi)), -exp), exp - shift))
    hi, lo, exp = map(np.array, zip(*rows))
    return hi, lo, exp.astype(np.int32)


_LOW = np.array([(1 << 8 * n) - 1 for n in range(9)], np.uint64)

# 4-digit chunks c = 100 h + l: their ASCII digits (the first in the low
# byte) and their trailing zero digits (4 for c = 0), from the 2-digit ones
_C2 = np.arange(100, dtype=np.uint64)
_ASCII2 = (_C2 // _U(10) + _U(48)) | ((_C2 % _U(10) + _U(48)) << _B8)
_ASCII4 = (_ASCII2[:, None] | (_ASCII2 << _B16)).reshape(-1)
_TZ2 = np.where(_C2 == 0, 2, _C2 % _U(10) == 0).astype(np.int8)
_TZ4 = np.where(_C2 == 0, _TZ2[:, None] + 2, _TZ2).reshape(-1)
del _C2, _ASCII2, _TZ2

_PH, _PL, _PE = _pow10()

# per exponent X: the point position q among the 16 digits after the
# first (0 in exponent notation, 16, i.e. none, for a small fixed number),
# the lead-word prefix "0.", "0.0", ... and the exponent word
_X = np.arange(_XMIN, _XMAX + 1)
_FIXED = (_X >= -4) & (_X < 17)
_SMALL = _FIXED & (_X < 0)
_Q = np.where(_FIXED, np.where(_SMALL, 16, _X), 0)
_PREFIX = np.array([_word("0." + "0" * (-x - 1)) << 16 if s else 0
                    for x, s in zip(_X.tolist(), _SMALL.tolist())], np.uint64)
_EXPO = np.array([0 if f else _word("e%+03d" % x) << 24
                  for x, f in zip(_X.tolist(), _FIXED.tolist())], np.uint64)
# per X and trailing zero count tz of the 17 digits: the digit bytes kept
# after the first digit, through the last nonzero digit, or only up to the
# point when the fraction is all zeros
_TZ = np.arange(17)
_KEEP = np.where(_SMALL[:, None], 16 - _TZ,
                 np.where(_TZ >= 16 - _Q[:, None], _Q[:, None], 17 - _TZ)
                 ).reshape(-1)
del _X, _FIXED, _SMALL, _TZ

# the point inserted at q: which bytes of each digit word stay in place,
# and the point itself (after the digits, q = 16, it is always stripped)
_q = np.arange(17)
_KEEP1, _KEEP2 = _LOW[np.minimum(_q, 8)], _LOW[np.clip(_q - 8, 0, 8)]
_DOT = np.where(_q < 16, _U(ord(".")) << (_B8 * (_q % 8).astype(np.uint64)),
                _ZERO)
_DOT1, _DOT2 = np.where(_q < 8, _DOT, _ZERO), np.where(_q >= 8, _DOT, _ZERO)
# masks keeping the first n of the 24 digit bytes, per word, n in 0..17
_STRIP = [_LOW[np.clip(np.arange(18) - 8 * j, 0, 8)] for j in range(3)]
# masks dropping the leading zeros of a 20-digit integer with n digits
_NONLEAD = [~_LOW[np.clip(20 - np.arange(21) - 8 * j, 0, 8)] for j in range(3)]
_POW10 = np.array([10 ** i for i in range(1, 20)], np.uint64)
del _q, _DOT

_NAN, _INF = _U(_word("nan")), _U(_word("inf"))


def _significands(a, x):
    """(D, floor, near_tie) for normal a > 0 and integer x: D the integer
    nearest y = a 10^(16 - x), floor(y), and whether y is within 1e-9 of
    a tie."""
    i = x - _XMIN
    frac, exp = np.frexp(a)
    hi = _PH[i]
    p = frac * hi
    fh, fl = _split(frac)
    hh, hl = _split(hi)
    # p's exact rounding error (Dekker), plus frac times 10^k's lo part
    lo = ((fh * hh - p) + fh * hl + fl * hh) + fl * hl + frac * _PL[i]
    shift = exp + _PE[i]
    y_hi, y_lo = np.ldexp(p, shift), np.ldexp(lo, shift)
    whole = np.floor(y_hi)
    rest = (y_hi - whole) + y_lo
    step = np.floor(rest)
    rest -= step
    floor = whole.astype(np.int64) + step.astype(np.int64)
    return floor + (rest > 0.5), floor, np.abs(rest - 0.5) < 1e-9


def float_cells(v, out):
    """Write to out[..., 0:4] the cell words of the float64 array v, as
    ``'%.17g' % x``.  ±0 takes the array path with first digit 0; only
    NaN, ±inf, subnormals and near-ties are written after it, by word or
    by ``%``."""
    a = np.abs(v)
    normal = (a >= np.finfo(np.float64).tiny) & (a <= np.finfo(np.float64).max)
    zero = a == 0.0
    a[~normal] = 1.0
    x = np.floor(np.log10(a)).astype(np.int64)
    d, floor, tie = _significands(a, x)
    # x is floor(log10 a) when 10^16 <= y < 10^17.  The estimate is at most
    # one off; one move in the direction floor(y) shows is right also when
    # y's error crosses 10^16 or 10^17 (a is then a power of ten, and the
    # rounding below lands on the same digits)
    fix = (floor < 10 ** 16) | (floor >= 10 ** 17)
    if fix.any():
        x[fix] += np.where(floor[fix] < 10 ** 16, -1, 1)
        d[fix], _, tie[fix] = _significands(a[fix], x[fix])
    # y rounded up to 10^17: the significand is 10^16, one decade up
    top = d == 10 ** 17
    if top.any():
        x[top] += 1
        d[top] = 10 ** 16
    lead = d // 10 ** 16
    hi8 = (d - lead * 10 ** 16) // 10 ** 8
    # a zero went through as 1.0: its first digit is 0, set after hi8,
    # which would otherwise keep 10^16 and index past _ASCII4
    lead[zero] = 0
    lo8 = d - (d // 10 ** 8) * 10 ** 8
    c1, c3 = hi8 // 10 ** 4, lo8 // 10 ** 4
    c2, c4 = hi8 - c1 * 10 ** 4, lo8 - c3 * 10 ** 4
    # trailing zero digits of d, at most 16
    tz = _TZ4[c4] + (c4 == 0) * (_TZ4[c3] + (c3 == 0) * (
        _TZ4[c2] + (c2 == 0) * _TZ4[c1]))
    ix = x - _XMIN
    q, keep = _Q[ix], _KEEP[ix * 17 + tz]
    # the 16 digits after the first, with the point inserted at q
    w1 = _ASCII4[c1] | (_ASCII4[c2] << _B32)
    w2 = _ASCII4[c3] | (_ASCII4[c4] << _B32)
    k1, k2 = _KEEP1[q], _KEEP2[q]
    moved1, moved2 = w1 & ~k1, w2 & ~k2
    out[..., 0] = (np.where(np.signbit(v), _MINUS, _ZERO) | _PREFIX[ix]
                   | ((lead.astype(np.uint64) + _U(48)) << _B56))
    out[..., 1] = ((w1 & k1) | (moved1 << _B8) | _DOT1[q]) & _STRIP[0][keep]
    out[..., 2] = ((w2 & k2) | (moved2 << _B8) | _DOT2[q]
                   | (moved1 >> _B56)) & _STRIP[1][keep]
    out[..., 3] = ((moved2 >> _B56) & _STRIP[2][keep]) | _EXPO[ix]
    odd = (~normal ^ zero) | tie  # zeros are not normal, but written above
    if odd.any():
        nan = np.isnan(v)
        out[odd] = _ZERO
        out[odd & np.signbit(v) & ~nan, 0] = _MINUS
        out[nan, 1] = _NAN
        out[np.isinf(v), 1] = _INF
        for i in map(tuple, np.argwhere(odd & np.isfinite(v))):
            out[i][1:] = np.frombuffer(
                ("%.17g" % abs(v[i])).encode().ljust(24, b"\0"), "<u8")


def int_cells(v, out):
    """Write to out[..., 0:4] the cell words of the int64 array v, as
    ``'%d' % i``; the number of 4-digit chunks is set per call by the
    largest magnitude in v."""
    neg = v < 0
    mag = v.view(np.uint64)
    mag = np.where(neg, ~mag + _U(1), mag)
    # 20 digits of mag in 4-digit chunks, and how many are not leading zeros
    n = np.searchsorted(_POW10, mag, "right") + 1
    # the high chunks no number in v has stay zero words, which the
    # leading-zero masks drop anyway
    chunks = [_ZERO] * 5
    for j in range((int(n.max()) + 3) // 4):
        rest = mag // _U(10000)
        chunks[j] = _ASCII4[mag - rest * _U(10000)]
        mag = rest
    a4, a3, a2, a1, a0 = chunks
    out[..., 0] = np.where(neg, _MINUS, _ZERO)
    out[..., 1] = (a0 | (a1 << _B32)) & _NONLEAD[0][n]
    out[..., 2] = (a2 | (a3 << _B32)) & _NONLEAD[1][n]
    out[..., 3] = a4 & _NONLEAD[2][n]


def rows(columns, blank=None):
    """The CSV rows of equal-length columns, as bytes of a block of rows
    each: cells joined by commas, rows ended by CRLF, integer columns as
    ``%d`` and the rest as ``%.17g``, and the last cell empty in the rows
    where ``blank`` is true.  A block's NUL padding is dropped by
    ``bytes.translate``."""
    runs = []  # (first, end, dtype, fmt) per run of adjacent int/float columns
    for is_int, run in itertools.groupby(
            range(len(columns)), lambda j: columns[j].dtype.kind in "iu"):
        run = list(run)
        runs.append((run[0], run[-1] + 1, np.int64 if is_int else np.float64,
                     int_cells if is_int else float_cells))
    n, width = len(columns[0]), len(columns)
    for start in range(0, n, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, n)
        words = np.empty((stop - start, 4 * width + 1), "<u8")
        cells = words[:, :-1].reshape(stop - start, width, 4)
        for first, end, dtype, fmt in runs:
            fmt(np.stack([c[start:stop] for c in columns[first:end]], axis=1,
                         dtype=dtype, casting="safe"), cells[:, first:end])
        cells[:, 1:, 0] |= _COMMA
        if blank is not None:
            cells[blank[start:stop], -1] = [_COMMA, _ZERO, _ZERO, _ZERO]
        words[:, -1] = _CRLF
        yield words.tobytes().translate(None, b"\0")
