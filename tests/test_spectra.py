"""Tests for truncation spectra: Sturm counts, bisection, Gauss measures."""

import math

import numpy as np
import pytest
import scipy.linalg

from jacobi_spectra import (
    DomainError,
    density_report,
    eigenvalues,
    gauss_measure,
    instantiate,
    poly_eval,
    sturm_count,
    truncate,
)
from jacobi_spectra.sequences import SequencePair
from jacobi_spectra.spectra import (
    Truncation,
    _MAX_BINS,
    _gauss_weights,
    _pivmin,
    _sturm_counts_vec,
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


def _sturm_counts_index_loop(diag, off2, shifts, pivmin):
    """Reference Sturm sweep: index loop, np.where pivot substitution."""
    shifts = np.asarray(shifts, dtype=float)
    d = diag[0] - shifts
    d = np.where(np.abs(d) < pivmin, -pivmin, d)
    count = (d < 0.0).astype(np.int64)
    for i in range(1, len(diag)):
        d = (diag[i] - shifts) - off2[i - 1] / d
        d = np.where(np.abs(d) < pivmin, -pivmin, d)
        count += d < 0.0
    return count


def test_sturm_counts_match_index_loop():
    cases = [truncate(instantiate(text), 40)
             for text in CATALOG + ["paired:eps=0.01,inner=pow,alpha=1"]]
    # ones on both diagonals: at shift 0 the pivots run 1, 0, 1, 1, 0, ...
    cases += [Truncation(np.ones(k), np.ones(k - 1)) for k in (2, 5, 8)]
    for t in cases:
        off2 = t.offdiag ** 2
        # a shift equal to diag[0] makes the first pivot exactly zero
        shifts = np.concatenate(
            [t.diag, [0.0], np.linspace(*t.gershgorin(), 61)])
        got = _sturm_counts_vec(t.diag, off2, shifts, _pivmin(t))
        expected = _sturm_counts_index_loop(t.diag, off2, shifts, _pivmin(t))
        assert np.array_equal(got, expected)


def test_sturm_count_monotone_through_exact_eigenvalue():
    t = Truncation(np.zeros(3), np.ones(2))  # eigenvalues -sqrt2, 0, sqrt2
    xs = [-2.0, -math.sqrt(2.0), -1.0, 0.0, 1.0, math.sqrt(2.0), 2.0]
    counts = [sturm_count(t, x) for x in xs]
    assert counts == sorted(counts)
    assert counts[0] == 0 and counts[-1] == 3


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
    g = gauss_measure(t, tol=1e-14)
    assert g.eigenvalues == pytest.approx([-1.0, 1.0], abs=1e-13)
    assert g.weights == pytest.approx([0.5, 0.5], abs=1e-12)


def test_gauss_moments_match_matrix_entries():
    # sum w x = b(0); sum w x**2 = b(0)**2 + a(0)**2
    for text in CATALOG:
        seq = instantiate(text)
        g = gauss_measure(truncate(seq, 12), tol=1e-14)
        w, x = g.weights, g.eigenvalues
        scale = max(1.0, float(np.max(np.abs(x))))
        assert np.sum(w) == pytest.approx(1.0, abs=1e-12)
        assert np.sum(w * x) == pytest.approx(seq.b(0), abs=1e-10 * scale)
        assert np.sum(w * x * x) == pytest.approx(
            seq.b(0) ** 2 + seq.a(0) ** 2, abs=1e-10 * scale ** 2)


def _per_node_gauss_weights(t, nodes):
    """Reference weights: one scalar poly_eval per node."""
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


@pytest.mark.parametrize("order", [1, 2, 7, 8, 60])
@pytest.mark.parametrize("text", [
    "const", "pow:alpha=0.5", "pow:alpha=2",
    "paired:eps=0.01,inner=pow,alpha=1", "chihara",
])
def test_gauss_weights_bitwise_match_per_node_recurrence(text, order):
    t = truncate(instantiate(text), order)
    # 0.0 makes p_1 an exact zero for const; far nodes underflow to weight 0
    nodes = np.concatenate(
        [eigenvalues(t).eigenvalues, [0.0, -0.0, 1e3, -1e6, 1e150]])
    got = _gauss_weights(t, nodes)
    expected = _per_node_gauss_weights(t, nodes)
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))
    if order == 60:
        assert np.any(got == 0.0)


def test_gauss_discrete_orthonormality():
    seq = instantiate("chihara")
    N = 15
    g = gauss_measure(truncate(seq, N), tol=1e-14)
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
