"""``recurrence._write_columns`` against the row-by-row ``%`` writer.

The array formatter must write exactly the bytes of ``'%.17g' % x`` and
``'%d' % i``; ``reference`` below is the writer it replaced, kept as the
oracle.  The inputs reach every branch of the formatter: random bit
patterns, exact ties (CPython rounds them half-even, and the formatter
hands near-ties to ``%``), powers of ten and their neighbours, where the
decimal exponent estimate is corrected, subnormals, signed zeros,
infinities and NaNs, 64-bit integer extremes, and block boundaries.
Signed zeros are formatted on the array path, alone in their blocks and
beside NaN, inf and subnormals, which are written after it; an integer
block takes only the digit chunks its longest number needs, so blocks
with 4, 19 and 1 digits at most sit in one column.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jacobi_spectra import _cells
from jacobi_spectra.recurrence import _write_columns


def reference(path, header, *columns, blank=None):
    """The row-by-row ``%`` writer, one formatted row per table row."""
    specs = ["%d" if c.dtype.kind in "iu" else "%.17g" for c in columns]
    row = ",".join(specs) + "\r\n"
    short = ",".join(specs[:-1]) + ",\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for i, r in enumerate(zip(*map(memoryview, columns))):
            fh.write(short % r[:-1] if blank is not None and blank[i]
                     else row % r)


def assert_same_bytes(tmp_path, *columns, blank=None):
    header = ["c%d" % j for j in range(len(columns))]
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    _write_columns(got, header, *columns, blank=blank)
    reference(want, header, *columns, blank=blank)
    got, want = got.read_bytes(), want.read_bytes()
    if got != want:
        for i, (g, w) in enumerate(zip(got.split(b"\r\n"), want.split(b"\r\n"))):
            assert g == w, "line %d" % i
    assert got == want


def powers_of_two_times(*factors):
    e = np.arange(-1074, 1024)
    with np.errstate(over="ignore"):
        return np.concatenate([np.ldexp(f, e) for f in factors])


def test_random_bit_patterns(tmp_path):
    bits = np.random.default_rng(20261019).integers(
        0, 2 ** 64, 10 ** 6, dtype=np.uint64, endpoint=False)
    assert_same_bytes(tmp_path, *bits.view(np.float64).reshape(4, -1))


def test_ties_and_powers(tmp_path):
    # every power of two times 1, 3, 5/4 and 7/8: many are exact ties at
    # 17 digits, such as 2**-25 = 2.98023223876953125e-08
    x = powers_of_two_times(1.0, 3.0, 1.25, 0.875)
    assert "%.17g" % 2.0 ** -25 == "2.9802322387695312e-08"
    assert_same_bytes(tmp_path, x, -x[::-1])


def test_powers_of_ten_and_neighbours(tmp_path):
    p = 10.0 ** np.arange(-323, 309)
    x = np.concatenate([p, np.nextafter(p, np.inf), np.nextafter(p, 0.0)])
    assert_same_bytes(tmp_path, x, -x)


def test_special_values(tmp_path):
    tiny = np.finfo(np.float64).tiny
    x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324,
                  -5e-324, tiny, -tiny, np.nextafter(tiny, 0.0),
                  np.finfo(np.float64).max, -np.finfo(np.float64).max,
                  1e16, 1e17, 123.0, 1e-4, 1e-5, 0.5, 1.0, 9.5, 99.5])
    x = np.concatenate([x, np.ldexp(1.0, np.arange(-1074, -1022)) * 3.0])
    assert np.signbit(x[5])
    assert_same_bytes(tmp_path, x)


def test_integer_columns(tmp_path):
    big = np.iinfo(np.int64)
    i64 = np.concatenate([
        np.array([0, 1, -1, 9, 10, -10, 9999, 10000, -10000,
                  big.max, -big.max, big.min, big.min + 1], np.int64),
        10 ** np.arange(19, dtype=np.int64), -10 ** np.arange(19) + 1,
        np.random.default_rng(7).integers(big.min, big.max, 5000,
                                          dtype=np.int64)])
    i8 = np.resize(np.arange(-128, 128, dtype=np.int8), len(i64))
    assert_same_bytes(tmp_path, i8, i64, i64.astype(float), i64[::-1])


def test_integer_blocks_of_different_digit_counts(tmp_path):
    # each block formats only as many 4-digit chunks as its longest number
    big = np.iinfo(np.int64)
    edge = np.resize(np.array([big.min, big.max, 0, -1], np.int64),
                     _cells.BLOCK_ROWS)
    small = np.resize(np.arange(-9, 10, dtype=np.int64), _cells.BLOCK_ROWS)
    i64 = np.concatenate([np.arange(_cells.BLOCK_ROWS), edge, small])
    assert_same_bytes(tmp_path, i64)
    assert_same_bytes(tmp_path, i64[::-1], i64.astype(float))


def test_signed_zeros_in_blocks_without_other_odd_values(tmp_path):
    # zeros take the array path; no block below holds a NaN, inf or subnormal
    n = 2 * _cells.BLOCK_ROWS + 5
    zeros = np.where(np.arange(n) % 3 == 0, -0.0, 0.0)
    mixed = np.random.default_rng(3).standard_normal(n)
    mixed[::7] = 0.0
    mixed[1::7] = -0.0
    assert_same_bytes(tmp_path, zeros, mixed, np.arange(n))


def test_signed_zeros_beside_nan_inf_and_subnormals(tmp_path):
    # one block with both: the other odd values must leave zeros untouched
    x = np.array([0.0, np.nan, -0.0, np.inf, 1.5, -np.inf, 5e-324, -0.0,
                  -5e-324, 0.0, -np.nan, 2.0 ** -25])
    assert_same_bytes(tmp_path, x, -x, np.zeros(len(x)))


def test_unsigned_64_bit_column_is_refused(tmp_path):
    with pytest.raises(TypeError):
        _write_columns(tmp_path / "u.csv", ["u"], np.array([1], np.uint64))


@pytest.mark.parametrize("n", [0, 1, 2, _cells.BLOCK_ROWS - 1,
                               _cells.BLOCK_ROWS, _cells.BLOCK_ROWS + 1,
                               2 * _cells.BLOCK_ROWS + 1])
def test_row_counts_at_block_boundaries(n, tmp_path):
    x = np.random.default_rng(n).standard_normal(n) * 1e3
    assert_same_bytes(tmp_path, np.arange(n), x, x.astype(np.float32))
    assert_same_bytes(tmp_path, x)


@pytest.mark.parametrize("width", [1, 3])
def test_blank_rows_hide_negative_values(width, tmp_path):
    # the blank cell's value, here negative, must leave no sign behind
    n = 2 * _cells.BLOCK_ROWS + 3
    rng = np.random.default_rng(width)
    columns = [np.arange(n), -rng.random(n), -rng.random(n) - 1e300][-width:]
    blank = rng.random(n) < 0.4
    assert_same_bytes(tmp_path, *columns, blank=blank)
    assert_same_bytes(tmp_path, *columns, blank=np.ones(n, bool))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(width=64), min_size=1, max_size=40),
       st.integers(-2 ** 63, 2 ** 63 - 1))
def test_any_float_column(values, integer):
    x = np.array(values)
    i = np.full(len(x), integer, np.int64)
    with tempfile.TemporaryDirectory() as tmp:
        assert_same_bytes(Path(tmp), i, x, -x)
