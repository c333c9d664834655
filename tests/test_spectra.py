"""Tests for truncation spectra: Sturm counts, bisection, Gauss measures."""

import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg

import test_golden

from jacobi_spectra import (
    DomainError,
    density_report,
    eigenvalues,
    instantiate,
    poly_eval,
    sturm_count,
    truncate,
)
from jacobi_spectra import cli, spectra
from jacobi_spectra.sequences import SequencePair
from jacobi_spectra.spectra import (
    Truncation,
    _BLOCK_ELEMENTS,
    _MAX_BINS,
    _gauss_weights,
    _sturm_counts,
    _sturm_setup,
    write_density_csv,
    write_spectrum_csv,
)

CATALOG = [
    "const",
    "pow:alpha=0.5",
    "chihara",
    "factorial-staircase",
    "iterlog:k=1,m=16",
]


# --- truncation ------------------------------------------------------------


def test_truncate_shapes_and_values():
    t = truncate(instantiate("chihara"), 4)
    assert t.order == 4
    assert list(t.diag) == [1.0, 3.0, 5.0, 7.0]
    assert list(t.offdiag) == [1.0, 2.0, 3.0]


def test_truncate_validation():
    with pytest.raises(DomainError):
        truncate(instantiate("const"), 0)
    with pytest.raises(DomainError):
        Truncation(np.array([0.0, 0.0]), np.array([-1.0]))
    with pytest.raises(DomainError):
        Truncation(np.array([0.0, np.inf]), np.array([1.0]))
    with pytest.raises(DomainError):
        Truncation(np.array([0.0, 0.0]), np.array([np.nan]))
    with pytest.raises(DomainError, match="offdiag must have length N-1"):
        Truncation([1.0, 2.0], [1.0, 1.0])


def test_gershgorin_contains_spectrum():
    for text in CATALOG:
        t = truncate(instantiate(text), 60)
        lo, hi = t.gershgorin()
        eigs = scipy.linalg.eigh_tridiagonal(
            t.diag, t.offdiag, eigvals_only=True)
        assert lo <= eigs[0] and eigs[-1] <= hi


def test_dense_matches_tridiagonal():
    t = truncate(instantiate("chihara"), 5)
    m = t.dense()
    assert np.allclose(np.diag(m), t.diag)
    assert np.allclose(np.diag(m, 1), t.offdiag)
    assert np.allclose(m, m.T)


# --- Sturm counts ----------------------------------------------------------


def test_sturm_count_2x2_hand_case():
    # [[0, 1], [1, 0]] has eigenvalues -1 and 1
    t = Truncation(np.zeros(2), np.ones(1))
    assert sturm_count(t, -2.0) == 0
    assert sturm_count(t, 0.0) == 1
    assert sturm_count(t, 2.0) == 2


def test_sturm_count_order_one():
    t = Truncation(np.array([3.0]), np.zeros(0))
    assert sturm_count(t, 2.9) == 0
    assert sturm_count(t, 3.1) == 1


def test_sturm_count_matches_scipy():
    rng = np.random.default_rng(2)
    for text in CATALOG:
        t = truncate(instantiate(text), 50)
        eigs = scipy.linalg.eigh_tridiagonal(
            t.diag, t.offdiag, eigvals_only=True)
        for x in rng.uniform(eigs[0] - 1.0, eigs[-1] + 1.0, size=20):
            assert sturm_count(t, float(x)) == int(np.sum(eigs < x))


def _sturm_counts_index_loop(t, shifts, log_derivative=False):
    """Reference Sturm sweep: index loop, np.where pivot substitution.

    Order 1 counts b(0) < shift, strictly.  With ``log_derivative`` it also
    returns sum_i d'_i / d_i, where d'_i = -1 + q_i d'_{i-1} / d_{i-1},
    q_i = a_{i-1}**2 / d_{i-1}, is carried as the ratio
    r_i = d'_i / d_i = (q_i / d_i) r_{i-1} - 1 / d_i and added row by row.
    """
    shifts = np.asarray(shifts, dtype=float)
    if t.order == 1:
        return (t.diag[0] < shifts).astype(np.int64)
    diag, (off2, pivmin) = t.diag, _sturm_setup(t)
    d = diag[0] - shifts
    d = np.where(np.abs(d) < pivmin, -pivmin, d)
    count = (d < 0.0).astype(np.int64)
    r = -1.0 / d
    total = r
    for i in range(1, len(diag)):
        q = off2[i - 1] / d
        d = (diag[i] - shifts) - q
        d = np.where(np.abs(d) < pivmin, -pivmin, d)
        count += d < 0.0
        # near an eigenvalue r is ~1/pivmin; its products may overflow
        with np.errstate(over="ignore", invalid="ignore"):
            r = (q / d) * r - 1.0 / d
            total = total + r
    return (count, total) if log_derivative else count


def _hit_rows(t, shift):
    """Rows of the Sturm sweep at ``shift`` whose pivot is below pivmin."""
    off2, pivmin = _sturm_setup(t)
    rows, d = [], 1.0
    for i in range(t.order):
        d = (t.diag[i] - shift) - (off2[i - 1] / d if i else 0.0)
        if abs(d) < pivmin:
            rows.append(i)
            d = -pivmin
    return rows


def _pivot_hits_at(order, hits):
    """Truncation whose sweep at shift 0 has exact zero pivots at ``hits``.

    Off-diagonal 2**-30 keeps every other pivot at exactly 1.0 (1 - 2**-60
    rounds to 1).  A hit after a pivot 1.0 is b = a = 1; a hit right after
    a hit (pivot -pivmin = -2**-970) is b = -1, a**2 = 2**-970.
    """
    diag, off = np.ones(order), np.full(order - 1, 2.0 ** -30)
    state = "one"
    if 0 in hits:
        diag[0], state = 0.0, "hit"
    for r in range(1, order):
        if r in hits:
            assert state != "huge", "a hit cannot follow the pivot 2**910"
            if state == "one":
                off[r - 1] = 1.0
            else:
                diag[r], off[r - 1] = -1.0, 2.0 ** -485
            state = "hit"
        else:
            state = "huge" if state == "hit" else "one"
    return Truncation(diag, off)


def _assert_counts_match(t, shifts):
    """Counts of both modes of the counting function, and the
    log-derivative sum from order 2 on, bit for bit against the index loop."""
    got = _sturm_counts(t, shifts)
    if t.order == 1:
        assert np.array_equal(got, _sturm_counts_index_loop(t, shifts))
        return
    expected, total = _sturm_counts_index_loop(t, shifts, log_derivative=True)
    assert np.array_equal(got, expected)
    newton, got_total = _sturm_counts(t, shifts, log_derivative=True)
    assert np.array_equal(newton, got)
    assert np.array_equal(got_total.view(np.int64), total.view(np.int64))


def test_sturm_counts_match_index_loop():
    cases = [truncate(instantiate(text), 40)
             for text in CATALOG + ["paired:eps=0.01,inner=pow,alpha=1"]]
    # ones on both diagonals: at shift 0 the pivots run 1, 0, 1, 1, 0, ...
    cases += [Truncation(np.ones(k), np.ones(k - 1)) for k in (2, 5, 8)]
    for t in cases:
        # a shift equal to diag[0] makes the first pivot exactly zero
        shifts = np.concatenate(
            [t.diag, [0.0], np.linspace(*t.gershgorin(), 61)])
        _assert_counts_match(t, shifts)


@pytest.mark.parametrize("n_shifts", [1, 100, 500, _BLOCK_ELEMENTS + 8])
def test_sturm_counts_match_index_loop_across_blocks(n_shifts):
    # the sweep runs rows 1..N-1 in blocks of this many rows
    block = max(1, _BLOCK_ELEMENTS // n_shifts)
    orders = sorted({1, 2, block, block + 1, block + 2, 2 * block + 5})
    for order in orders:
        shifts = np.concatenate(([0.0, -0.0], np.linspace(-3.0, 3.0, n_shifts)))
        cases = [truncate(instantiate("chihara"), order),
                 Truncation(np.ones(order), np.ones(order - 1)),
                 Truncation(np.zeros(order), np.ones(order - 1))]
        for t in cases:
            _assert_counts_match(t, shifts[:n_shifts])
    # exact zero pivots on the first row, the first and last rows of a
    # block and on consecutive rows, for blocks of one row or many
    order = block + 3 if block > 100 else 2 * block + 3
    for hits in ([0], [1], [block], [block + 1], [0, 1, 2],
                 [block - 1, block, block + 1], [1, 2, 3, 2 * block]):
        hits = [h for h in hits if h < order]
        t = _pivot_hits_at(order, hits)
        assert _hit_rows(t, 0.0) == sorted(set(hits))
        shifts = np.concatenate(([0.0, -0.0], np.full(n_shifts, 0.5)))
        _assert_counts_match(t, shifts[:n_shifts])


def test_sturm_counts_match_index_loop_at_exact_eigenvalues():
    # const: eigenvalues 2 cos(k pi / (N + 1)); zero diagonal and all ones
    for order in (81, 82, 83):
        for t in (Truncation(np.zeros(order), np.ones(order - 1)),
                  Truncation(np.ones(order), np.ones(order - 1))):
            k = np.arange(1, order + 1)
            shifts = t.diag[0] + 2.0 * np.cos(k * math.pi / (order + 1))
            _assert_counts_match(t, np.concatenate((shifts, [0.0, -0.0, 1.0])))


@pytest.mark.parametrize("text, order", [
    ("chihara", 500), ("paired:eps=0.01,inner=pow,alpha=1", 300),
    ("chihara", 2100),
])
def test_eigenvalues_bitwise_match_index_loop(text, order, monkeypatch):
    t = truncate(instantiate(text), order)
    got = eigenvalues(t).eigenvalues
    monkeypatch.setattr(spectra, "_sturm_counts", _sturm_counts_index_loop)
    expected = eigenvalues(t).eigenvalues
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def test_density_counts_match_index_loop(monkeypatch):
    args = (instantiate("chihara"), 20000, (0.0, 80000.0), 784.12)
    got = density_report(*args)
    assert len(got) == 103
    monkeypatch.setattr(spectra, "_sturm_counts", _sturm_counts_index_loop)
    assert got == density_report(*args)


def test_exact_zero_pivots_raise_no_warning():
    all_ones = SequencePair(lambda n: 1.0, lambda n: 1.0, name="all-ones")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seq in (instantiate("const"), all_ones):
            for order in (2, 3, 300):
                t = truncate(seq, order)
                eigenvalues(t, weights=True)
                for x in (0.0, -0.0, 1.0, 2.0):
                    sturm_count(t, x)
                density_report(seq, order, (-3.0, 12.0), 0.25)


def test_squared_offdiagonal_overflow_is_a_domain_error():
    seq = instantiate("pow:alpha=150")  # a(49) ~ 3.4e253, a**2 overflows
    t = truncate(seq, 50)
    with pytest.raises(DomainError, match="overflows"):
        eigenvalues(t)
    with pytest.raises(DomainError, match="overflows"):
        sturm_count(t, 0.0)
    with pytest.raises(DomainError, match="overflows"):
        density_report(seq, 50, (0.0, 1.0), 0.5)


def test_sturm_count_monotone_through_exact_eigenvalue():
    t = Truncation(np.zeros(3), np.ones(2))  # eigenvalues -sqrt2, 0, sqrt2
    xs = [-2.0, -math.sqrt(2.0), -1.0, 0.0, 1.0, math.sqrt(2.0), 2.0]
    counts = [sturm_count(t, x) for x in xs]
    assert counts == sorted(counts)
    assert counts[0] == 0 and counts[-1] == 3


def test_sturm_count_at_an_exact_eigenvalue():
    # the rule as it stands: at order >= 2 a pivot below pivmin becomes
    # -pivmin and counts as negative, so an eigenvalue equal to x is
    # counted; order 1 compares b(0) < x and does not count it
    t = Truncation(np.zeros(3), np.ones(2))  # eigenvalues -sqrt2, 0, sqrt2
    assert sturm_count(t, 0.0) == 2
    assert density_report(instantiate("const"), 3, (-1.0, 1.0), 1.0) == [
        (-1.0, 0.0, 1), (0.0, 1.0, 0)]
    assert sturm_count(Truncation(np.zeros(1), np.zeros(0)), 0.0) == 0
    assert density_report(instantiate("const"), 1, (-1.0, 1.0), 1.0) == [
        (-1.0, 0.0, 0), (0.0, 1.0, 1)]


# --- eigenvalues by bisection ----------------------------------------------


def test_const_closed_form():
    N = 200
    t = truncate(instantiate("const"), N)
    eigs = eigenvalues(t).eigenvalues
    k = np.arange(1, N + 1)
    expected = 2.0 * np.cos(k * math.pi / (N + 1))[::-1]
    assert np.max(np.abs(eigs - expected)) < 1e-10


def test_eigenvalues_match_scipy():
    for text in CATALOG:
        t = truncate(instantiate(text), 80)
        got = eigenvalues(t, tol=1e-13).eigenvalues
        expected = scipy.linalg.eigh_tridiagonal(
            t.diag, t.offdiag, eigvals_only=True)
        scale = max(1.0, float(np.max(np.abs(expected))))
        assert np.max(np.abs(got - expected)) < 1e-10 * scale


def test_eigenvalues_order_one():
    t = Truncation(np.array([4.5]), np.zeros(0))
    assert eigenvalues(t).eigenvalues == pytest.approx([4.5])


def test_eigenvalues_count_consistency():
    t = truncate(instantiate("pow:alpha=0.5"), 40)
    spectrum = eigenvalues(t, tol=1e-12)
    for k, x in enumerate(spectrum.eigenvalues):
        assert sturm_count(t, x - 1e-9) <= k
        assert sturm_count(t, x + 1e-9) >= k + 1


def test_eigenvalues_rejects_bad_tol():
    t = truncate(instantiate("const"), 5)
    with pytest.raises(DomainError):
        eigenvalues(t, tol=0.0)


def _recorded_sweeps(monkeypatch):
    """(log_derivative, shifts) of every Sturm sweep, in call order."""
    calls = []

    def recording(t, shifts, log_derivative=False):
        calls.append((log_derivative, np.array(shifts)))
        return _sturm_counts(t, shifts, log_derivative)

    monkeypatch.setattr(spectra, "_sturm_counts", recording)
    return calls


@pytest.mark.parametrize("text, order, interval, newton", [
    ("chihara", 500, 4, 7), ("paired:eps=0.01,inner=pow,alpha=1", 300, 7, 8),
])
def test_isolate_then_polish_sweeps(text, order, interval, newton, monkeypatch):
    calls = _recorded_sweeps(monkeypatch)
    eigenvalues(truncate(instantiate(text), order))
    # count-only multisection sweeps, then Newton sweeps; 17 + 11 and
    # 11 + 11 with one midpoint per interval, 42-43 with bisection alone
    assert [mode for mode, _ in calls] == [False] * interval + [True] * newton
    # the one Gershgorin interval holds all eigenvalues: order points
    assert len(calls[0][1]) == order
    assert all(len(np.unique(shifts)) == len(shifts) for _, shifts in calls)
    # every eigenvalue is isolated; converged nodes leave the shift vector
    sizes = [len(shifts) for mode, shifts in calls if mode]
    assert sizes[0] == order and sizes == sorted(sizes, reverse=True)


def _isolated(t, tol=None, lo=None, hi=None):
    """_isolate on t as eigenvalues runs it, with its count-only shifts."""
    glo, ghi = t.gershgorin()
    pad = 1e-6 * max(ghi - glo, 1.0)
    if tol is None:
        tol = 1e-12 * max(abs(glo), abs(ghi), 1.0)
    shifts = []

    def recording(t, x):
        shifts.append(np.array(x))
        return _sturm_counts(t, x)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectra, "_sturm_counts", recording)
        eigs, brackets, sweeps = spectra._isolate(
            t, glo - pad if lo is None else lo,
            ghi + pad if hi is None else hi, tol)
    assert sweeps == len(shifts)
    return eigs, brackets, shifts


@pytest.mark.parametrize("text", CATALOG + ["paired:eps=0.01,inner=pow,alpha=1"])
def test_isolation_sweeps_carry_at_most_order_increasing_shifts(text):
    t = truncate(instantiate(text), 300)
    _, _, shifts = _isolated(t)
    # the intervals stay in order and their points strictly inside them,
    # so a sweep's shifts increase strictly across all of its intervals
    assert len(shifts[0]) == t.order
    assert all(len(x) <= t.order and np.all(np.diff(x) > 0.0) for x in shifts)


@pytest.mark.parametrize("text", CATALOG)
def test_isolating_brackets_hold_one_scipy_eigenvalue(text):
    t = truncate(instantiate(text), 300)
    eigs, (lo, hi, k), _ = _isolated(t)
    expected = scipy.linalg.eigh_tridiagonal(
        t.diag, t.offdiag, eigvals_only=True)
    assert np.all(np.isnan(eigs)) and sorted(k) == list(range(t.order))
    inside = (lo[:, None] < expected) & (expected <= hi[:, None])
    assert np.array_equal(inside, np.eye(t.order, dtype=bool)[k])


@pytest.mark.parametrize("case, tol", [
    # Wilkinson W21+: eigenvalues in pairs, its largest two ~40 ulps apart
    ("w21", 1e-10), ("w21", 1e-14),
    # four eigenvalues that round to 10.75, in an interval of a few ulps
    ("cluster", 1e-300),
])
def test_isolation_of_tight_clusters_places_every_index_once(case, tol):
    if case == "w21":
        t, bounds = Truncation(np.abs(np.arange(21) - 10.0), np.ones(20)), {}
    else:
        t = Truncation(np.full(4, 10.75), np.full(3, 1e-100))
        bounds = {"lo": 10.75 - 1e-14, "hi": 10.75 + 1e-14}
    eigs, (lo, hi, k), shifts = _isolated(t, tol, **bounds)
    placed = np.flatnonzero(~np.isnan(eigs))
    assert sorted(np.concatenate((placed, k))) == list(range(t.order))
    # no zero-width piece: every bracket and every sweep's points increase
    assert np.all(lo < hi)
    assert all(np.all(np.diff(x) > 0.0) for x in shifts)
    if case == "cluster":
        # rounding merges the four points of the second sweep into one
        assert [len(x) for x in shifts] == [4, 1] and len(placed) == 4
    got = eigenvalues(t, tol=tol).eigenvalues
    assert not np.any(np.isnan(got)) and np.all(np.diff(got) >= 0.0)


def test_polished_eigenvalues_match_scipy_to_rounding():
    # bisection alone left errors of ~1.1e-13 of the radius (tol 1e-12)
    for text in CATALOG + ["paired:eps=0.01,inner=pow,alpha=1"]:
        t = truncate(instantiate(text), 300)
        got = eigenvalues(t).eigenvalues
        expected = scipy.linalg.eigh_tridiagonal(
            t.diag, t.offdiag, eigvals_only=True)
        radius = max(1.0, *map(abs, t.gershgorin()))
        assert np.max(np.abs(got - expected)) < 2e-14 * radius


def test_newton_on_an_exact_eigenvalue(monkeypatch):
    t = Truncation(np.zeros(3), np.ones(2))  # eigenvalues -sqrt2, 0, sqrt2
    _, pivmin = _sturm_setup(t)
    assert _hit_rows(t, 0.0) == [0]
    # the bracket (-1, 1) puts the first Newton point on 0 itself, where
    # the first pivot is substituted; the step there is about -pivmin / 2
    node = spectra._polish(t, np.array([-1.0]), np.array([1.0]),
                           np.array([1]), 1e-12, 5)
    assert np.isfinite(node[0]) and abs(node[0]) <= pivmin
    # the middle of the first sweep's three points is 0, so the middle
    # eigenvalue's bracket ends on it; Newton steps past that end go to it
    # once, instead of bisection halving towards it for ~40 sweeps
    calls = _recorded_sweeps(monkeypatch)
    eigs = eigenvalues(t).eigenvalues
    assert len(calls[0][1]) == 3 and calls[0][1][1] == 0.0
    assert [mode for mode, _ in calls[:2]] == [False, True]
    assert np.all(np.isfinite(eigs)) and abs(eigs[1]) <= pivmin
    assert eigs[0] == pytest.approx(-math.sqrt(2.0), abs=4e-16)
    assert eigs[2] == pytest.approx(math.sqrt(2.0), abs=4e-16)
    assert len(calls) <= 10


def test_cluster_within_tol_shares_its_midpoint():
    # Wilkinson W21+: its two largest eigenvalues differ by ~1e-14
    t = Truncation(np.abs(np.arange(21) - 10.0), np.ones(20))
    expected = scipy.linalg.eigh_tridiagonal(
        t.diag, t.offdiag, eigvals_only=True)
    for tol in (1e-10, 1e-14):
        eigs = eigenvalues(t, tol=tol).eigenvalues
        assert (eigs[-1] == eigs[-2]) == (tol == 1e-10)
        assert np.max(np.abs(eigs - expected)) <= tol / 2


@pytest.mark.parametrize("tol", [1e-320, 1e-300])
def test_subnormal_tol_stays_within_max_sweeps(tol, monkeypatch):
    calls = _recorded_sweeps(monkeypatch)
    eigs = eigenvalues(truncate(instantiate("const"), 10), tol=tol).eigenvalues
    assert len(calls) <= spectra._MAX_SWEEPS
    expected = 2.0 * np.cos(np.arange(10, 0, -1) * math.pi / 11)
    assert np.max(np.abs(eigs - expected)) < 1e-15


@pytest.mark.parametrize("max_sweeps", [0, 1, 2, 6])
def test_both_phases_share_max_sweeps(max_sweeps, monkeypatch):
    t = truncate(instantiate("chihara"), 60)
    calls = _recorded_sweeps(monkeypatch)
    eigenvalues(t)
    # 3 count-only sweeps, then 7 Newton sweeps: the caps cut into both
    assert [mode for mode, _ in calls[:4]] == [False] * 3 + [True]
    assert len(calls) > 6
    del calls[:]
    monkeypatch.setattr(spectra, "_MAX_SWEEPS", max_sweeps)
    eigs = eigenvalues(t).eigenvalues
    assert len(calls) == max_sweeps
    # the nodes left when the sweeps run out stay in their brackets
    lo, hi = t.gershgorin()
    assert np.all(np.isfinite(eigs)) and np.all(np.diff(eigs) >= 0.0)
    assert lo - 1e-3 <= eigs[0] and eigs[-1] <= hi + 1e-3


# --- density reports -------------------------------------------------------


def test_density_counts_match_eigenvalues():
    t = truncate(instantiate("chihara"), 100)
    eigs = scipy.linalg.eigh_tridiagonal(t.diag, t.offdiag, eigvals_only=True)
    rows = density_report(instantiate("chihara"), 100, (0.0, 10.0), 1.0)
    assert len(rows) == 10
    for lo, hi, count in rows:
        assert count == int(np.sum((eigs >= lo) & (eigs < hi)))


def test_density_psd_fixture_no_negative_mass():
    rows = density_report(instantiate("chihara"), 500, (-2.0, 0.0), 0.5)
    assert all(count == 0 for _, _, count in rows)


def test_density_empty_window():
    assert density_report(instantiate("const"), 10, (1.0, 1.0), 0.5) == []
    with pytest.raises(DomainError):
        density_report(instantiate("const"), 10, (0.0, 1.0), 0.0)


@pytest.mark.parametrize("window, bin_width", [
    ((math.nan, 1.0), 0.5),
    ((0.0, 1.0), math.nan),
    ((0.0, math.inf), 0.5),
    ((0.0, 1e300), 1e-300),  # the bin count overflows binary64
])
def test_density_rejects_nonfinite_inputs(window, bin_width):
    with pytest.raises(DomainError):
        density_report(instantiate("const"), 10, window, bin_width)


def test_density_bin_count_is_capped():
    seq = instantiate("const")
    assert len(density_report(seq, 5, (0.0, float(_MAX_BINS)), 1.0)) == _MAX_BINS
    for hi in (_MAX_BINS + 1.0, 1e12):  # 1e12 bins would need ~8 TB of edges
        with pytest.raises(DomainError):
            density_report(seq, 5, (0.0, hi), 1.0)


# --- Gauss measure ---------------------------------------------------------


def test_gauss_const_two_points():
    t = truncate(instantiate("const"), 2)
    g = eigenvalues(t, tol=1e-14, weights=True)
    assert g.eigenvalues == pytest.approx([-1.0, 1.0], abs=1e-13)
    assert g.weights == pytest.approx([0.5, 0.5], abs=1e-12)


def test_gauss_moments_match_matrix_entries():
    # sum w x = b(0); sum w x**2 = b(0)**2 + a(0)**2
    for text in CATALOG:
        seq = instantiate(text)
        g = eigenvalues(truncate(seq, 12), tol=1e-14, weights=True)
        w, x = g.weights, g.eigenvalues
        scale = max(1.0, float(np.max(np.abs(x))))
        assert np.sum(w) == pytest.approx(1.0, abs=1e-12)
        assert np.sum(w * x) == pytest.approx(seq.b(0), abs=1e-10 * scale)
        assert np.sum(w * x * x) == pytest.approx(
            seq.b(0) ** 2 + seq.a(0) ** 2, abs=1e-10 * scale ** 2)


def _per_node_gauss_weights(t, nodes):
    """Weights of the log-scaled scalar recurrence, one poly_eval per node:
    the accuracy baseline that the vectorised weights must beat."""
    seq = SequencePair(
        lambda n: t.offdiag[n] if n < t.order - 1 else 1.0,
        lambda n: t.diag[n], name="truncation", length=t.order,
    )
    weights = np.empty(len(nodes))
    for k, x in enumerate(nodes):
        if t.order == 1:
            weights[k] = 1.0
            continue
        trace = poly_eval(seq, x, t.order - 1)
        weights[k] = math.exp(-np.logaddexp.reduce(2.0 * trace.log_abs))
    return weights


def _longdouble_gauss_weights(t, nodes):
    """Reference weights: the same recurrence in np.longdouble.

    The pair is divided by the power of two of its larger entry at every
    step, up or down, and the sum with it; longdouble's exponent range
    keeps that sum finite for every truncation here.  The weight is
    rounded to binary64 once, at the end.
    """
    ld = np.longdouble
    nodes = np.asarray(nodes, dtype=ld)
    if t.order == 1:
        return np.ones(len(nodes))
    a = np.concatenate((t.offdiag, [1.0])).astype(ld)
    b = t.diag.astype(ld)
    x, y = np.ones(len(nodes), dtype=ld), (nodes - b[0]) / a[0]
    s, e = x.copy(), np.zeros(len(nodes), dtype=np.int64)
    with np.errstate(under="ignore"):
        for n in range(1, t.order):
            k = np.frexp(np.maximum(np.abs(x), np.abs(y)))[1]
            e += k
            x, y, s = np.ldexp(x, -k), np.ldexp(y, -k), np.ldexp(s, -2 * k)
            s += y * y
            x, y = y, ((nodes - b[n]) * y - a[n - 1] * x) / a[n]
        return np.ldexp(1 / s, -2 * e).astype(float)


def _relative_errors(weights, reference):
    """|w - ref| / ref where ref is above the subnormal range."""
    normal = reference > 1e-280
    return np.abs(weights[normal] - reference[normal]) / reference[normal]


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                    reason="np.longdouble is not the x87 80-bit format here")
@pytest.mark.parametrize("order", [1, 2, 7, 8, 60])
@pytest.mark.parametrize("text", [
    "const", "pow:alpha=0.5", "pow:alpha=2",
    "paired:eps=0.01,inner=pow,alpha=1", "chihara",
])
def test_gauss_weights_match_longdouble_recurrence(text, order):
    t = truncate(instantiate(text), order)
    # 0.0 makes p_1 an exact zero for const; far nodes underflow to weight 0
    nodes = np.concatenate(
        [eigenvalues(t).eigenvalues, [0.0, -0.0, 1e3, -1e6, 1e150]])
    got = _gauss_weights(t, nodes)
    reference = _longdouble_gauss_weights(t, nodes)
    assert np.all(got[reference == 0.0] == 0.0)
    if order == 60:
        assert np.any(reference == 0.0)
    errors = _relative_errors(got, reference)
    # largest seen: 2.7e-14 (const, order 60, at a band-edge node)
    assert np.max(errors) < 6e-14
    if order >= 7:
        parent = _relative_errors(_per_node_gauss_weights(t, nodes),
                                  reference)
        assert np.median(errors) < np.median(parent)


@pytest.mark.parametrize("diag, offdiag, nodes", [
    # b alternating +-1e300 or +-1e200 with a = 1: each step multiplies
    # the pair by ~2|b|, so p_n passes binary64's range within two rows
    pytest.param(1e300 * (-1.0) ** np.arange(20), np.ones(19), None,
                 id="b-1e300"),
    pytest.param(1e200 * (-1.0) ** np.arange(20), np.ones(19), None,
                 id="b-1e200"),
    # a alternating 1, 1e150 at the node 0: p_2n = 1e-150**n, p_odd = 0, so
    # the pair shrinks far below p_0 = 1 and the weight is 1
    pytest.param(np.zeros(7), np.array([1.0, 1e150] * 3), [0.0],
                 id="a-1e150-node-0"),
])
def test_gauss_weights_silent_and_bounded_on_extreme_coefficients(
        diag, offdiag, nodes):
    t = Truncation(diag, offdiag)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if nodes is None:
            nodes = eigenvalues(t).eigenvalues
            # weights that sum to 0, not 1, are an error, not an output
            with pytest.raises(DomainError, match="sum to 0.0, not 1"):
                eigenvalues(t, weights=True)
            weights = _gauss_weights(t, nodes)
        else:
            weights = _gauss_weights(t, np.array(nodes))
            assert weights[0] == 1.0
    assert np.all(np.isfinite(weights))
    assert np.all((weights >= 0.0) & (weights <= 1.0))


def _true_node_and_weight(a, b, x):
    """Eigenvalue of the float truncation (a, b) nearest x, and its weight.

    Runs in the current mpmath precision on the exact binary64 entries:
    Newton on the monic characteristic polynomial q_N from the node x,
    then the weight 1 / sum_{j<N} p_j**2 of the orthonormal polynomials
    there.
    """
    mpf = mpmath.mpf
    a, b = [mpf(float(v)) for v in a], [mpf(float(v)) for v in b]
    lam, eps = mpf(float(x)), mpf(10) ** (5 - mpmath.mp.dps)
    for _ in range(20):
        # (q_{n-1}, q_n) and their derivatives in lam
        q0, q1, dq0, dq1 = mpf(1), lam - b[0], mpf(0), mpf(1)
        for n in range(1, len(b)):
            q0, q1, dq0, dq1 = (q1, (lam - b[n]) * q1 - a[n - 1] ** 2 * q0,
                                dq1, q1 + (lam - b[n]) * dq1
                                - a[n - 1] ** 2 * dq0)
        step = q1 / dq1
        lam -= step
        if abs(step) <= eps * max(1, abs(lam)):
            break
    else:
        raise AssertionError("Newton on q_N did not converge from %r" % x)
    p0, p1 = mpf(1), (lam - b[0]) / a[0]
    total = 1 + p1 ** 2
    for n in range(1, len(b) - 1):
        p0, p1 = p1, ((lam - b[n]) * p1 - a[n - 1] * p0) / a[n]
        total += p1 ** 2
    return lam, 1 / total


@pytest.mark.parametrize("family", sorted(test_golden.FAMILIES))
def test_golden_weights_against_true_eigenvalues(family, tmp_path,
                                                 monkeypatch):
    # the spectrum-weights-<family> golden job, against its float
    # truncation's true eigenvalues and weights at 40 digits.  Bisection
    # nodes (tol 1e-12 of the radius) were off by up to 1.1e-13 of the
    # radius and their weights by up to 4e-10; polished nodes are off by
    # at most 8e-17 of the radius and their weights by at most 3e-15.
    monkeypatch.chdir(tmp_path)
    test_golden._write_inputs(str(tmp_path))
    argv = test_golden.JOBS["spectrum-weights-" + family]
    assert cli.main(argv + ["--out", "out"]) == 0
    rows = (tmp_path / "out" / "spectrum.csv").read_text().splitlines()[1:]
    _, nodes, weights = np.array([r.split(",") for r in rows], dtype=float).T
    t = truncate(instantiate(test_golden.FAMILIES[family]), len(nodes))
    radius = max(1.0, *map(abs, t.gershgorin()))
    with mpmath.workdps(40):
        true = [_true_node_and_weight(t.offdiag, t.diag, x) for x in nodes]
        lams = [lam for lam, _ in true]
        assert all(x < y for x, y in zip(lams, lams[1:]))
        node_err = max(abs(mpmath.mpf(float(x)) - lam)
                       for x, lam in zip(nodes, lams))
        weight_err = max(abs(mpmath.mpf(float(w)) - tw)
                         for w, (_, tw) in zip(weights, true))
    assert node_err <= 2.5e-16 * radius
    assert weight_err <= 1e-14


def test_gauss_discrete_orthonormality():
    seq = instantiate("chihara")
    N = 15
    g = eigenvalues(truncate(seq, N), tol=1e-14, weights=True)
    P = np.array([poly_eval(seq, x, N - 1).values() for x in g.eigenvalues])
    gram = P.T @ (g.weights[:, None] * P)
    assert np.max(np.abs(gram - np.eye(N))) < 1e-8


# --- export ----------------------------------------------------------------


def test_write_spectrum_csv(tmp_path):
    t = truncate(instantiate("const"), 3)
    path = tmp_path / "spec.csv"
    write_spectrum_csv(str(path), eigenvalues(t, weights=True))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "k,eigenvalue,weight"
    assert len(lines) == 4
    path2 = tmp_path / "spec2.csv"
    write_spectrum_csv(str(path2), eigenvalues(t))
    assert path2.read_text().splitlines()[0] == "k,eigenvalue"


def test_write_density_csv(tmp_path):
    rows = density_report(instantiate("const"), 10, (-2.0, 2.0), 1.0)
    path = tmp_path / "dens.csv"
    write_density_csv(str(path), rows)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "bin_lo,bin_hi,count"
    assert sum(int(line.split(",")[2]) for line in lines[1:]) == 10
