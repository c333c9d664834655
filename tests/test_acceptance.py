"""Acceptance suite: twelve go/no-go criteria with fixed tolerances.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or on
failure) and asserts the stated tolerance.  Criteria with runtime limits
measure wall-clock time and assert it too.
"""

import math
import time

import numpy as np

from jacobi_spectra import (
    EigvecInit,
    SequencePair,
    WeightSequence,
    check_corollary_B,
    check_corollary_C,
    check_theorem_42,
    check_theorem_43,
    check_theorem_A,
    bd_check_theorem_51,
    density_report,
    eigenvalues,
    flip,
    instantiate,
    iterlog_g,
    iterlog_g_prime,
    l2_partial_sums,
    overall_verdict,
    parse_rates,
    poly_eval,
    poly_init,
    s_sequence,
    square_even,
    sturm_count,
    bd_to_jacobi,
    truncate,
    w_bounds,
)

CATALOG = [
    "const",
    "pow:alpha=0.5",
    "pow:alpha=1",
    "factorial-staircase",
    "chihara",
    "iterlog:k=1,m=16",
]


def report(num, ok, detail):
    print("criterion %02d: %s  (%s)" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, detail


def by_id(verdicts, cond_id):
    return next(v for v in verdicts if v.condition == cond_id)


def test_criterion_01_dual_form_identity():
    """S(n) via both closed forms agrees to 1e-10 relative; >=100 cases, <5 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    cases = 0
    for _ in range(100):
        seq = instantiate(str(rng.choice(CATALOG)))
        lam = float(rng.uniform(-5.0, 5.0))
        init = EigvecInit(1.0, float(rng.uniform(-2.0, 2.0)))
        alpha = (WeightSequence.from_a(seq) if rng.choice(["a", "one"]) == "a"
                 else WeightSequence.ones())
        trace = s_sequence(seq, alpha, lam, init, 500)
        keep = np.abs(trace.s_over_shat) > 1e-8 * trace.a_alpha
        # relative to the natural scale of the form: max(|S|, a alpha); just
        # above the exclusion cutoff plain relative error is rounding-limited
        denom = np.maximum(np.abs(trace.s_over_shat), trace.a_alpha)[keep]
        rel = np.abs(trace.s31_over_shat[keep] - trace.s_over_shat[keep]) \
            / denom
        worst = max(worst, float(np.max(rel)))
        cases += 1
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and cases >= 100 and elapsed < 5.0
    report(1, ok, "max rel dev %.3g over %d cases, %.2f s" %
           (worst, cases, elapsed))


def test_criterion_02_w_bound_oracle():
    """w bounds match 2x2 eigenvalue oracle to 1e-12; >=1000 instances, <1 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(1000):
        a0, a1, al0, al1 = rng.uniform(0.1, 10.0, size=4)
        b1 = float(rng.uniform(-5.0, 5.0))
        lam = float(rng.uniform(-5.0, 5.0))
        seq = SequencePair.from_table([a0, a1], [0.0, b1])
        alpha = WeightSequence.from_table([al0, al1])
        lo, hi = w_bounds(seq, alpha, lam, 1)
        B = a1 * al1
        A = (al0 / a0) * a1 * a1
        C = -(al0 / a0) * a1 * (lam - b1)
        eigs = np.linalg.eigvalsh(np.array([[B, C / 2.0], [C / 2.0, A]]))
        scale = max(1.0, abs(eigs[0]), abs(eigs[1]))
        worst = max(worst, abs(lo - eigs[0]) / scale, abs(hi - eigs[1]) / scale)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 1.0
    report(2, ok, "max dev %.3g over 1000 instances, %.2f s" % (worst, elapsed))


def test_criterion_03_free_matrix_eigenvalues():
    """const N=200: eigenvalues = 2cos(k pi/201) within 1e-10; <1 s."""
    start = time.perf_counter()
    N = 200
    eigs = eigenvalues(truncate(instantiate("const"), N)).eigenvalues
    k = np.arange(1, N + 1)
    expected = np.sort(2.0 * np.cos(k * math.pi / (N + 1)))
    err = float(np.max(np.abs(eigs - expected)))
    elapsed = time.perf_counter() - start
    ok = err < 1e-10 and elapsed < 1.0
    report(3, ok, "max abs err %.3g, %.2f s" % (err, elapsed))


def test_criterion_04_squared_restriction_identity():
    """p_{2n}(x) = p^e_n(x^2) to 1e-9 relative, n<=50, 50 random x; <2 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    worst = 0.0
    for text in ["pow:alpha=1", "factorial-staircase"]:
        seq = instantiate(text)
        even = square_even(seq)
        for x in rng.uniform(-3.0, 3.0, size=50):
            full = poly_eval(seq, float(x), 100)
            half = poly_eval(even, float(x) ** 2, 50)
            for n in range(51):
                if full.signs[2 * n] == 0 and half.signs[n] == 0:
                    continue
                # relative deviation via the log magnitudes
                dev = abs(math.expm1(half.log_abs[n] - full.log_abs[2 * n]))
                if full.signs[2 * n] != half.signs[n]:
                    dev = 1.0
                worst = max(worst, dev)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 2.0
    report(4, ok, "max rel dev %.3g, %.2f s" % (worst, elapsed))


def test_criterion_05_flip_covariance():
    """flipped polys satisfy p^(n)(lam) = (-1)^n p_n(-lam) to 1e-10 relative."""
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(100):
        seq = instantiate(str(rng.choice(CATALOG)))
        lam = float(rng.uniform(-5.0, 5.0))
        orig = poly_eval(seq, -lam, 500)
        flipped = poly_eval(flip(seq), lam, 500)
        parity = np.where(np.arange(501) % 2 == 0, 1, -1)
        sign_ok = np.array_equal(flipped.signs,
                                 (orig.signs * parity).astype(np.int8))
        nz = orig.signs != 0
        dev = float(np.max(np.abs(np.expm1(
            flipped.log_abs[nz] - orig.log_abs[nz]))))
        if not sign_ok:
            dev = 1.0
        worst = max(worst, dev)
    ok = worst < 1e-10
    report(5, ok, "max rel dev %.3g over 100 cases" % worst)


def test_criterion_06_sandwich_in_action():
    """pow:alpha=0.5, alpha=a, lam=1: normalized S spread <= 20 on [100,2000];
    sum of F^- grows by < 1e-3 over [1e3,1e4]."""
    seq = instantiate("pow:alpha=0.5")
    alpha = WeightSequence.from_a(seq)
    trace = s_sequence(seq, alpha, 1.0, poly_init(seq, 1.0), 10_000)
    window = (trace.n >= 100) & (trace.n <= 2000)
    normalized = trace.normalized()[window]
    spread = float(np.max(normalized) / np.min(normalized))
    sfm = trace.sum_F_minus
    increase = float(sfm[9999 - 1] - sfm[1000 - 1])
    ok = np.min(normalized) > 0.0 and spread <= 20.0 and increase < 1e-3
    report(6, ok, "spread %.4g (<= 20), sum F^- increase %.3g (< 1e-3)" %
           (spread, increase))


def test_criterion_07_theorem_51_evidence():
    """linear birth-death rates: N=2000 truncation negative semidefinite with
    top eigenvalue approaching 0; < 30 s."""
    start = time.perf_counter()
    pair, _ = bd_to_jacobi(parse_rates("lam=linear,mu=linear"))
    eigs = eigenvalues(truncate(pair, 2000)).eigenvalues
    top = float(eigs[-1])
    elapsed = time.perf_counter() - start
    ok = np.all(eigs <= 1e-10) and top > -0.05 and elapsed < 30.0
    report(7, ok, "top eigenvalue %.3g (in (-0.05, 1e-10]), %.1f s" %
           (top, elapsed))


def test_criterion_08_chihara_evidence():
    """chihara: no spectrum below 0 at N=2000, every 0.5-bin of [0,8]
    populated, and the quarter-ratio holds at n=1e4."""
    seq = instantiate("chihara")
    t = truncate(seq, 2000)
    below = sturm_count(t, -1e-6)
    rows = density_report(seq, 2000, (0.0, 8.0), 0.5)
    min_count = min(count for _, _, count in rows)
    n = 10_000
    ratio = seq.a(n) ** 2 / (seq.b(n) * seq.b(n + 1))
    ratio_err = abs(ratio - 0.25)
    ok = below == 0 and len(rows) == 16 and min_count >= 1 and ratio_err < 1e-4
    report(8, ok, "count below -1e-6: %d, min bin count %d, ratio err %.3g" %
           (below, min_count, ratio_err))


def test_criterion_09_eigenvalue_dichotomy():
    """paired family at lam=0: inner k gives an l2 eigenvector (partial sums
    plateau), inner sqrt(k) does not (sums keep growing)."""
    conv = instantiate("paired:eps=1,inner=pow,alpha=1")
    L = l2_partial_sums(poly_eval(conv, 0.0, 20_000))
    sums = np.exp(L)
    max_step = float(np.max(np.diff(sums[10_000:])))
    div = instantiate("paired:eps=1,inner=pow,alpha=0.5")
    Ld = l2_partial_sums(poly_eval(div, 0.0, 100_000))
    growth = float(np.exp(Ld[100_000]) - np.exp(Ld[1000]))
    ok = max_step < 1e-6 and growth > 1.0
    report(9, ok, "plateau step %.3g (< 1e-6), sum growth %.3g (> 1)" %
           (max_step, growth))


def test_criterion_10_checker_soundness():
    """Every analytic fixture yields its stated verdict."""
    failures = []

    def expect(label, cond):
        if not cond:
            failures.append(label)

    s05 = instantiate("pow:alpha=0.5")
    expect("ThmA pass pow0.5", overall_verdict(check_theorem_A(
        s05, WeightSequence.from_a(s05), 10_000)) == "pass")
    s1 = instantiate("pow:alpha=1")
    expect("ThmA.e fail pow1", by_id(check_theorem_A(
        s1, WeightSequence.from_a(s1), 10_000), "ThmA.e").verdict == "fail")
    fs = instantiate("factorial-staircase")
    expect("ThmA pass staircase", overall_verdict(check_theorem_A(
        fs, WeightSequence.from_a(fs), 10_000)) == "pass")

    expect("CorB pass pow0.5",
           overall_verdict(check_corollary_B(s05, 10_000)) == "pass")
    expect("CorB.b fail pow0.75", by_id(check_corollary_B(
        instantiate("pow:alpha=0.75"), 10_000), "CorB.b").verdict == "fail")
    expect("CorB.c fail pow-shifted", by_id(check_corollary_B(
        instantiate("pow-shifted:alpha=0.5"), 10_000),
        "CorB.c").verdict == "fail")

    rc = check_corollary_C(instantiate("chihara"), 10_000)
    expect("CorC pass chihara", overall_verdict(rc.verdicts) == "pass"
           and abs(rc.M) < 1e-12 and abs(rc.ratio_tail - 0.25) < 1e-4)
    expect("CorC.d fail b==0", by_id(check_corollary_C(
        s05, 10_000).verdicts, "CorC.d").verdict == "fail")

    expect("Thm42 pass pow0.5",
           overall_verdict(check_theorem_42(s05, 10_000)) == "pass")
    expect("Thm42.c fail pow-shifted", by_id(check_theorem_42(
        instantiate("pow-shifted:alpha=0.5"), 10_000),
        "Thm42.c").verdict == "fail")
    expect("Thm42.a fail const", by_id(check_theorem_42(
        instantiate("const"), 10_000), "Thm42.a").verdict == "fail")

    expect("Thm43 pass iterlog", overall_verdict(check_theorem_43(
        instantiate("iterlog:k=1,m=16"), 1, 10_000)) == "pass")
    expect("Thm43.b fail pow2", by_id(check_theorem_43(
        instantiate("pow:alpha=2"), 1, 10_000), "Thm43.b").verdict == "fail")
    expect("Thm43.a fail const", by_id(check_theorem_43(
        instantiate("const"), 1, 10_000), "Thm43.a").verdict == "fail")

    v51, concl = bd_check_theorem_51(parse_rates("lam=linear,mu=linear"), 5000)
    expect("Thm51 pass linear", overall_verdict(v51) == "pass"
           and concl == "sigma(Q) = (-inf, 0]")
    vq, _ = bd_check_theorem_51(parse_rates("lam=quadratic,mu=quadratic"), 5000)
    expect("Thm51.b fail quadratic", by_id(vq, "Thm51.b").verdict == "fail")

    ok = not failures
    report(10, ok, "16/16 fixtures correct" if ok
           else "wrong verdicts: %s" % ", ".join(failures))


def test_criterion_11_gauss_measure():
    """Discrete orthonormality within 1e-8 (i,j < N <= 30); weights sum to 1
    within 1e-10, on random catalog sequences."""
    rng = np.random.default_rng(111)
    worst_gram = 0.0
    worst_sum = 0.0
    for _ in range(6):
        seq = instantiate(str(rng.choice(CATALOG)))
        N = int(rng.integers(5, 31))
        g = eigenvalues(truncate(seq, N), tol=1e-14, weights=True)
        worst_sum = max(worst_sum, abs(float(np.sum(g.weights)) - 1.0))
        P = np.array([poly_eval(seq, x, N - 1).values()
                      for x in g.eigenvalues])
        gram = P.T @ (g.weights[:, None] * P)
        worst_gram = max(worst_gram, float(np.max(np.abs(gram - np.eye(N)))))
    ok = worst_gram < 1e-8 and worst_sum < 1e-10
    report(11, ok, "max gram dev %.3g (< 1e-8), max weight-sum dev %.3g "
           "(< 1e-10)" % (worst_gram, worst_sum))


def test_criterion_12_iterlog_derivative():
    """Closed-form g_K' matches centered differences to 1e-6 relative."""
    worst = 0.0
    for K in (1, 2, 3):
        for x in (1e2, 1e4):
            h = 1e-5 * x
            numeric = (iterlog_g(K, x + h) - iterlog_g(K, x - h)) / (2.0 * h)
            exact = iterlog_g_prime(K, x)
            worst = max(worst, abs(exact - numeric) / abs(numeric))
    ok = worst < 1e-6
    report(12, ok, "max rel dev %.3g over K in {1,2,3}, x in {1e2,1e4}" % worst)
