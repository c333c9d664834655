"""Tests for the log-scaled three-term recurrence machinery."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jacobi_spectra import (
    DomainError,
    EigvecInit,
    PolyTrace,
    cli,
    instantiate,
    l2_partial_sums,
    poly_eval,
    poly_init,
    propagate,
)
from jacobi_spectra.recurrence import _propagate_rows, write_trace_csv
from jacobi_spectra.transforms import flip

CATALOG = [
    "const",
    "pow:alpha=0.5",
    "pow:alpha=1",
    "factorial-staircase",
    "chihara",
    "iterlog:k=1,m=16",
]


def naive_eigvec(seq, lam, init, n_max):
    """Direct float recurrence; only valid while values stay representable."""
    u = [float(init.u0), float(init.u1)]
    for n in range(1, n_max):
        u.append(((lam - seq.b(n)) * u[n] - seq.a(n - 1) * u[n - 1]) / seq.a(n))
    return u


# --- initial data ----------------------------------------------------------


def test_poly_init():
    seq = instantiate("chihara")
    init = poly_init(seq, 3.0)
    assert init.u0 == 1.0
    assert init.u1 == (3.0 - seq.b(0)) / seq.a(0)


def test_zero_init_rejected():
    with pytest.raises(DomainError):
        EigvecInit(0.0, 0.0)


def test_propagate_needs_positive_length():
    seq = instantiate("const")
    with pytest.raises(DomainError):
        list(propagate(seq, 0.0, EigvecInit(1.0, 0.0), 0))


def test_poly_eval_needs_nonnegative_n_max():
    with pytest.raises(DomainError, match="n_max must be >= 0"):
        poly_eval(instantiate("const"), 0.5, -1)


def test_poly_trace_length_is_n_max_plus_one():
    assert len(poly_eval(instantiate("const"), 0.5, 10)) == 11


# --- exactness on the free matrix ------------------------------------------


def test_const_lambda_zero_polys():
    # p = 1, 0, -1, 0, 1, ... with exact zeros at odd indices
    trace = poly_eval(instantiate("const"), 0.0, 8)
    values = trace.values()
    expected = [1.0, 0.0, -1.0, 0.0, 1.0, 0.0, -1.0, 0.0, 1.0]
    assert values == pytest.approx(expected, abs=1e-15)
    assert trace.is_zero(1) and trace.is_zero(7)
    assert not trace.is_zero(2)


def test_chebyshev_closed_form():
    # const family polys at lam = 2cos(theta): p_n = sin((n+1)theta)/sin(theta)
    theta = 1.1
    trace = poly_eval(instantiate("const"), 2.0 * math.cos(theta), 40)
    for n in range(41):
        expected = math.sin((n + 1) * theta) / math.sin(theta)
        assert trace.value(n) == pytest.approx(expected, abs=1e-10)


# --- values from log magnitudes --------------------------------------------


def test_value_past_binary64_is_inf():
    # const at lam = 3: p(n) grows like 2.618**n, past binary64 near n = 740
    trace = poly_eval(instantiate("const"), 3.0, 1000)
    assert trace.value(1000) == math.inf
    assert trace.values()[1000] == math.inf


@pytest.mark.parametrize("spec", ["pow:alpha=0.5", "chihara", "const",
                                  "paired:eps=0.01,inner=pow,alpha=1"])
@pytest.mark.parametrize("lam", [-3.0, -1.7, -0.3, 0.0, 0.45, 1.9, 3.0])
def test_value_is_bitwise_values_entry(spec, lam):
    trace = poly_eval(instantiate(spec), lam, 400)
    one_by_one = np.array([trace.value(n) for n in range(401)])
    assert one_by_one.tobytes() == trace.values().tobytes()


# --- the kernel ------------------------------------------------------------


def list_rows(a, b, lam, u0, u1):
    """The kernel as it was before it filled a preallocated array: the same
    steps, with the rows collected in a list of floats."""
    a, b = memoryview(a), memoryview(b)
    u0, u1 = float(u0), float(u1)
    r = math.hypot(u0, u1)
    x, y = u0 / r, u1 / r
    logscale = math.log(r)
    rows = [x, y, logscale]
    try:
        for n in range(1, len(a)):
            y_new = ((lam - b[n]) * y - a[n - 1] * x) / a[n]
            r = math.hypot(y, y_new)
            x, y = y / r, y_new / r
            logscale += math.log(r)
            rows += x, y, logscale
    except ZeroDivisionError:
        raise DomainError(
            "propagation underflows at n = %d: a(%d)/a(%d) = %r/%r rounds to "
            "0, so (u(%d), u(%d)) is (0, 0) relative to u(%d)"
            % (n, n - 1, n, a[n - 1], a[n], n, n + 1, n - 1)) from None
    rows = np.array(rows).reshape(-1, 3)
    if not math.isfinite(logscale) and math.isfinite(rows[0, 2]):
        n = int(np.argmin(np.isfinite(rows[:, 2])))
        raise DomainError(
            "propagation overflows at n = %d: u(%d) is beyond binary64 "
            "relative to (u(%d), u(%d)), with a(%d) = %r, a(%d) = %r and "
            "lam - b(%d) = %r"
            % (n, n + 1, n - 1, n, n - 1, a[n - 1], n, a[n], n, lam - b[n]))
    return rows


def traced_peak(fn, *args):
    """Peak bytes that tracemalloc traces during fn(*args), above those
    traced before the call."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.mark.parametrize("text", [
    "const", "chihara", "pow:alpha=0.5",
    "paired:eps=0.01,inner=pow,alpha=1", "iterlog:k=1,m=16"])
# lam = 0 on the b == 0 families gives exact-zero coordinates
@pytest.mark.parametrize("lam", [0.0, 0.5, -1.5, 3.0])
@pytest.mark.parametrize("u0, u1", [(None, None), (1.0, 0.0), (0.6, -0.8),
                                    (math.nan, 1.0)])
def test_kernel_matches_list_reference_bitwise(text, lam, u0, u1):
    seq = instantiate(text)
    if u0 is None:
        init = poly_init(seq, lam)
        u0, u1 = init.u0, init.u1
    a, b = seq.a_array(2001), seq.b_array(2001)
    got = _propagate_rows(a, b, lam, u0, u1)
    want = list_rows(a, b, lam, u0, u1)
    assert got.shape == want.shape == (2001, 3)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("a, lam, fault", [
    ([1e-300, 1e300, 1.0, 1.0], 0.0, "underflows"),   # a(0)/a(1) rounds to 0
    ([1e300, 1e-300, 1.0, 1.0], 0.5, "overflows"),    # u(2) passes binary64
])
def test_kernel_faults_match_list_reference(a, lam, fault):
    a, b = np.array(a), np.zeros(len(a))
    with pytest.raises(DomainError) as want:
        list_rows(a, b, lam, 1.0, 0.0)
    with pytest.raises(DomainError) as got:
        _propagate_rows(a, b, lam, 1.0, 0.0)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("propagation %s at n = 1:" % fault)


@pytest.mark.parametrize("n_rows", [1, 2, 3])
def test_kernel_short_inputs_match_list_reference(n_rows):
    # the steps zip a(n-1), a(n) and b(n): none at 1 row, one at 2, two at 3
    seq = instantiate("chihara")
    a, b = seq.a_array(n_rows), seq.b_array(n_rows)
    for lam in (0.0, 0.5, -1.5):
        got = _propagate_rows(a, b, lam, 0.6, -0.8)
        want = list_rows(a, b, lam, 0.6, -0.8)
        assert got.shape == want.shape == (n_rows, 3)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_kernel_refuses_coefficients_of_different_lengths():
    with pytest.raises(ValueError):
        _propagate_rows(np.ones(4), np.zeros(3), 0.5, 1.0, 0.0)
    with pytest.raises(ValueError):
        _propagate_rows(np.ones(3), np.zeros(4), 0.5, 1.0, 0.0)


@pytest.mark.parametrize("a, b, lam, u1, fault", [
    # step 1 lands on y = 0 exactly, then a(1)/a(2) rounds to 0
    ([1.0, 1e-300, 1e300, 1.0], [0.0, -1.0, 0.0, 0.0], 0.0, 1.0,
     "underflows"),
    # (lam - b(2)) y / a(2) passes binary64
    ([1.0, 1.0, 1e-10, 1.0], [0.0] * 4, 1e300, 0.0, "overflows"),
])
def test_kernel_faults_after_the_first_step_name_their_n(a, b, lam, u1,
                                                         fault):
    a, b = np.array(a), np.array(b)
    with pytest.raises(DomainError) as want:
        list_rows(a, b, lam, 1.0, u1)
    with pytest.raises(DomainError) as got:
        _propagate_rows(a, b, lam, 1.0, u1)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("propagation %s at n = 2:" % fault)


def test_kernel_peak_memory_is_its_result():
    seq = instantiate("pow:alpha=0.5")
    a, b = seq.a_array(100001), seq.b_array(100001)
    nbytes = 3 * 100001 * 8
    assert traced_peak(_propagate_rows, a, b, 0.7, 1.0, 0.3) <= 1.25 * nbytes


def test_analyze_holds_one_lambda_trace_at_a_time(tmp_path):
    def analyze(lams):
        return traced_peak(cli.main, [
            "analyze", "--seq", "pow:alpha=0.5", "--lambda", lams,
            "--n", "20000", "--out", str(tmp_path / lams)])

    analyze("0.25")                    # first-call allocations
    assert analyze("0.5,-1.5") <= analyze("0.5") + 0.5e6


# --- normalization and reconstruction --------------------------------------


@pytest.mark.parametrize("text", CATALOG)
def test_state_stays_normalized(text):
    seq = instantiate(text)
    for state in propagate(seq, 1.3, EigvecInit(0.6, -0.8), 300):
        assert abs(state.x ** 2 + state.y ** 2 - 1.0) < 1e-12


def test_reconstruction_matches_naive_recurrence():
    rng = np.random.default_rng(7)
    for _ in range(100):
        seq = instantiate(str(rng.choice(CATALOG)))
        lam = float(rng.uniform(-5.0, 5.0))
        init = EigvecInit(float(rng.uniform(-1, 1)) or 1.0,
                          float(rng.uniform(-1, 1)))
        n_max = int(rng.integers(5, 200))
        naive = naive_eigvec(seq, lam, init, n_max)
        if not all(abs(v) < 1e280 for v in naive):
            continue
        scale = max(abs(v) for v in naive)
        for state in propagate(seq, lam, init, n_max):
            expected = naive[state.n]
            sign, log_abs = state.log_abs_u()
            # near a sign change the direct recurrence itself loses relative
            # accuracy to cancellation, so compare against the local scale
            if abs(expected) < 1e-8 * scale:
                continue
            got = sign * math.exp(log_abs)
            assert got == pytest.approx(expected, rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(lam=st.floats(min_value=-5, max_value=5,
                     allow_nan=False, allow_infinity=False),
       u1=st.floats(min_value=-2, max_value=2,
                    allow_nan=False, allow_infinity=False))
def test_reconstruction_property_chihara(lam, u1):
    seq = instantiate("chihara")
    init = EigvecInit(1.0, u1)
    naive = naive_eigvec(seq, lam, init, 60)
    scale = max(abs(v) for v in naive)
    for state in propagate(seq, lam, init, 60):
        expected = naive[state.n]
        if abs(expected) < 1e-8 * scale:
            continue
        sign, log_abs = state.log_abs_u()
        assert sign * math.exp(log_abs) == pytest.approx(expected, rel=1e-8)


def test_survives_exponential_growth():
    # const family outside [-2, 2] grows like exp(n arccosh(lam/2)),
    # far past the binary64 overflow threshold log(max) ~ 709
    trace = poly_eval(instantiate("const"), 3.0, 5000)
    assert np.all(np.isfinite(trace.log_abs))
    assert trace.log_abs[-1] > 4000.0


# --- flip covariance -------------------------------------------------------


@pytest.mark.parametrize("text", CATALOG)
def test_flip_covariance(text):
    seq = instantiate(text)
    lam = 1.7
    n_max = 400
    orig = poly_eval(seq, -lam, n_max)
    flipped = poly_eval(flip(seq), lam, n_max)
    signs_expected = orig.signs * np.where(np.arange(n_max + 1) % 2 == 0, 1, -1)
    assert np.array_equal(flipped.signs, signs_expected.astype(np.int8))
    assert flipped.log_abs == pytest.approx(orig.log_abs, rel=1e-10)


# --- l2 partial sums -------------------------------------------------------


def test_partial_sums_monotone():
    trace = poly_eval(instantiate("pow:alpha=0.5"), 0.7, 2000)
    L = l2_partial_sums(trace)
    assert np.all(np.diff(L) >= 0.0)


def test_partial_sums_match_direct_sum():
    trace = poly_eval(instantiate("const"), 0.3, 50)
    L = l2_partial_sums(trace)
    direct = np.cumsum(trace.values() ** 2)
    assert np.exp(L) == pytest.approx(direct, rel=1e-12)


def test_partial_sums_handle_exact_zeros():
    L = l2_partial_sums(PolyTrace(0.0, [1, 0, 1], [0.0, -np.inf, 0.0]))
    assert np.exp(L) == pytest.approx([1.0, 1.0, 2.0])


# --- export ----------------------------------------------------------------


def test_write_trace_csv(tmp_path):
    seq = instantiate("const")
    states = np.array([(s.x, s.y, s.logscale)
                       for s in propagate(seq, 0.0, poly_init(seq, 0.0), 4)])
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), states)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,sign_u,log_abs_u,u_if_representable"
    assert len(lines) == 6
    # exact zero at n = 1 is written as sign 0, value 0
    assert lines[2].startswith("1,0,")
    assert lines[2].endswith(",0")
