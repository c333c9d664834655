"""Tests for flip/square transforms and birth-death conversion."""

import math

import numpy as np
import pytest
import scipy.linalg

from jacobi_spectra import (
    DomainError,
    ParseError,
    bd_check_theorem_51,
    bd_interleaved,
    bd_square_root_route,
    bd_to_jacobi,
    flip,
    instantiate,
    parse_rates,
    poly_eval,
    square_even,
    square_odd,
    truncate,
)
from jacobi_spectra.transforms import (
    BirthDeathRates,
    PiWeights,
    shift,
)


def by_id(verdicts, cond_id):
    return next(v for v in verdicts if v.condition == cond_id)


# --- flip ------------------------------------------------------------------


def test_flip_values():
    seq = flip(instantiate("chihara"))
    assert seq.a(2) == 3.0
    assert seq.b(0) == -1.0
    assert seq.b(2) == -5.0


def test_flip_negates_spectrum():
    seq = instantiate("chihara")
    t = truncate(seq, 30)
    tf = truncate(flip(seq), 30)
    eigs = scipy.linalg.eigh_tridiagonal(t.diag, t.offdiag, eigvals_only=True)
    eigs_f = scipy.linalg.eigh_tridiagonal(tf.diag, tf.offdiag,
                                           eigvals_only=True)
    assert np.allclose(eigs_f, -eigs[::-1], atol=1e-10)


# --- even/odd restrictions of the square -----------------------------------


def test_square_even_values_linear_a():
    even = square_even(instantiate("pow:alpha=1"))
    assert even.a(0) == 2.0                    # 1 * 2
    assert even.b(0) == 1.0                    # a(-1)**2 + a(0)**2 = 0 + 1
    assert even.b(1) == 13.0                   # 2**2 + 3**2


def test_square_odd_values_linear_a():
    odd = square_odd(instantiate("pow:alpha=1"))
    assert odd.a(0) == 6.0                     # 2 * 3
    assert odd.b(0) == 5.0                     # 1**2 + 2**2


def test_square_requires_zero_diagonal():
    with pytest.raises(DomainError):
        square_even(instantiate("chihara")).a(0)
    with pytest.raises(DomainError):
        square_odd(instantiate("chihara")).b(0)


def test_square_odd_vs_shifted_even():
    # identical except b(0), where the dropped a(0) contributes a(0)**2
    seq = instantiate("pow:alpha=0.5")
    odd = square_odd(seq)
    shifted = square_even(shift(seq))
    for n in range(1, 20):
        assert odd.a(n) == pytest.approx(shifted.a(n), rel=1e-15)
        assert odd.b(n) == pytest.approx(shifted.b(n), rel=1e-15)
    assert odd.a(0) == pytest.approx(shifted.a(0), rel=1e-15)
    assert odd.b(0) - shifted.b(0) == pytest.approx(seq.a(0) ** 2, rel=1e-15)


@pytest.mark.parametrize("text", ["pow:alpha=1", "factorial-staircase"])
def test_even_square_polynomial_identity(text):
    # p_{2n}(x) = p^e_n(x**2) for the b == 0 families
    seq = instantiate(text)
    even = square_even(seq)
    rng = np.random.default_rng(13)
    for x in rng.uniform(-3.0, 3.0, size=10):
        full = poly_eval(seq, float(x), 40)
        half = poly_eval(even, float(x) ** 2, 20)
        for n in range(21):
            assert np.array_equal(full.signs[2 * n], half.signs[n])
            if full.signs[2 * n] != 0:
                assert full.log_abs[2 * n] == pytest.approx(
                    half.log_abs[n], abs=1e-9)


def test_square_spectra_relation():
    # eigenvalues of the full matrix squared split across even/odd parts
    seq = instantiate("pow:alpha=1")
    N = 40
    t = truncate(seq, 2 * N)
    sq = np.sort(scipy.linalg.eigh_tridiagonal(
        t.diag, t.offdiag, eigvals_only=True) ** 2)
    te = truncate(square_even(seq), N)
    eigs_e = scipy.linalg.eigh_tridiagonal(te.diag, te.offdiag,
                                           eigvals_only=True)
    # even-restriction eigenvalues interlace the squared full spectrum;
    # a loose containment check is enough at truncation level
    assert eigs_e[0] > sq[0] - 1e-6
    assert eigs_e[-1] < sq[-1] + 1e-6


# --- birth-death conversion ------------------------------------------------


def linear_rates():
    return parse_rates("lam=linear,mu=linear")


def test_rates_validation():
    bad = BirthDeathRates(lambda n: -1.0, lambda n: float(n))
    with pytest.raises(DomainError):
        bad.lam(0)
    negmu = BirthDeathRates(lambda n: 1.0, lambda n: -1.0)
    with pytest.raises(DomainError):
        negmu.mu(0)
    zero_inner = BirthDeathRates(lambda n: 1.0, lambda n: 0.0)
    assert zero_inner.mu(0) == 0.0
    with pytest.raises(DomainError):
        zero_inner.mu(3)


def test_bd_to_jacobi_linear_fixture():
    pair, pi = bd_to_jacobi(linear_rates())
    for n in range(6):
        assert pair.a(n) == pytest.approx(n + 1.0)       # sqrt((n+1)(n+1))
        assert pair.b(n) == -(2.0 * n + 1.0)             # -(lam + mu)
        assert pi.pi(n) == pytest.approx(1.0)


def test_pi_weights_log_recursion():
    rates = parse_rates("lam=linear,mu=quadratic")
    pi = PiWeights(rates)
    for n in range(8):
        assert pi.sqrt_ratio(n) == pytest.approx(
            math.sqrt(rates.lam(n) / rates.mu(n + 1)), rel=1e-14)


def test_pi_past_binary64_is_inf():
    # pi(n) = n! for these rates, and 200! is beyond binary64
    pi = PiWeights(parse_rates("lam=quadratic,mu=linear"))
    assert pi.pi(200) == math.inf


def test_bd_similarity_to_generator():
    # C = P Q P^{-1} with P = diag(sqrt(pi)): recover Q as P^{-1} C P
    rates = parse_rates("lam=linear,mu=quadratic")
    pair, pi = bd_to_jacobi(rates)
    N = 12
    C = truncate(pair, N).dense()
    P = np.diag([math.sqrt(pi.pi(n)) for n in range(N)])
    Q = np.zeros((N, N))
    for n in range(N):
        Q[n, n] = -(rates.lam(n) + rates.mu(n))
        if n + 1 < N:
            Q[n, n + 1] = rates.lam(n)
            Q[n + 1, n] = rates.mu(n + 1)
    assert np.max(np.abs(np.linalg.inv(P) @ C @ P - Q)) < 1e-12 * np.max(np.abs(Q))


def test_bd_interleaved_linear():
    inter = bd_interleaved(linear_rates())
    # (mu(1), lam(1), mu(2), lam(2), ...) = (1, 2, 2, 3, 3, 4, ...)
    assert [inter.a(n) for n in range(6)] == [1.0, 2.0, 2.0, 3.0, 3.0, 4.0]
    assert inter.b(3) == 0.0


def test_bd_square_root_route_even():
    # mu(0) = 0: even restriction of the square of the b = 0 matrix
    rates = linear_rates()
    route, root = bd_square_root_route(rates)
    assert route == "even"
    pair, _ = bd_to_jacobi(rates)
    even = square_even(root)
    for n in range(10):
        assert even.a(n) == pytest.approx(pair.a(n), rel=1e-14)
        assert even.b(n) == pytest.approx(-pair.b(n), rel=1e-14)


def test_bd_square_root_route_odd():
    rates = BirthDeathRates(lambda n: n + 1.0, lambda n: n + 0.5)
    route, root = bd_square_root_route(rates)
    assert route == "odd"
    assert root.a(0) == pytest.approx(math.sqrt(0.5))
    pair, _ = bd_to_jacobi(rates)
    odd = square_odd(root)
    for n in range(10):
        assert odd.a(n) == pytest.approx(pair.a(n), rel=1e-14)
        assert odd.b(n) == pytest.approx(-pair.b(n), rel=1e-14)


def test_theorem_51_checker_fixtures():
    verdicts, conclusion = bd_check_theorem_51(linear_rates(), 5000)
    assert all(v.verdict == "pass" for v in verdicts)
    assert conclusion == "sigma(Q) = (-inf, 0]"
    verdicts_q, conclusion_q = bd_check_theorem_51(
        parse_rates("lam=quadratic,mu=quadratic"), 5000)
    assert by_id(verdicts_q, "Thm51.b").verdict == "fail"
    assert conclusion_q is None


def test_parse_rates_rejects_unknown():
    with pytest.raises(ParseError):
        parse_rates("lam=cubic,mu=linear")
    for text in ["lam=linear,mu=linear,zz=1",
                 "lam=linear,lam=quadratic,mu=linear", "lam=linear,,mu=linear"]:
        with pytest.raises(ParseError):
            parse_rates(text)


def test_parse_rates_strips_prefix():
    rates = parse_rates("bd:lam=linear,mu=linear")
    assert rates.lam(3) == 4.0
    assert rates.mu(3) == 3.0


# a UTF-8 byte-order mark, as a spreadsheet writes, reads the same
@pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["plain", "bom"])
def test_rates_read_table(bom, tmp_path):
    p = tmp_path / "rates.csv"
    p.write_text(bom + "n,lambda,mu\n1,2.0,1.0\n0,1.0,0.0\n2,3.0,2.0\n",
                 encoding="utf-8")
    rates = BirthDeathRates.read_table(str(p))
    assert rates.lam(0) == 1.0
    assert rates.mu(2) == 2.0
    assert rates.length == 3
    empty = tmp_path / "empty.csv"
    empty.write_text("n,lambda,mu\n")
    with pytest.raises(DomainError):
        BirthDeathRates.read_table(str(empty))
