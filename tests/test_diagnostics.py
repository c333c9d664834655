"""Tests for the commutator diagnostics and the theorem checkers."""

import math

import numpy as np
import pytest

from jacobi_spectra import (
    DomainError,
    EigvecInit,
    SequencePair,
    WeightSequence,
    check_corollary_B,
    check_corollary_C,
    check_theorem_42,
    check_theorem_43,
    check_theorem_A,
    instantiate,
    liminf_estimate,
    overall_verdict,
    poly_init,
    propagate,
    s_sequence,
    verdicts_to_json,
    w_bounds,
)
from jacobi_spectra.diagnostics import (
    ConditionVerdict,
    negative_part,
    write_trace_csv,
)
from jacobi_spectra.recurrence import propagate
from jacobi_spectra.transforms import flip

CATALOG = [
    "const",
    "pow:alpha=0.5",
    "pow:alpha=1",
    "factorial-staircase",
    "chihara",
    "iterlog:k=1,m=16",
]


def alpha_a(seq):
    return WeightSequence.from_a(seq)


def by_id(verdicts, cond_id):
    return next(v for v in verdicts if v.condition == cond_id)


# --- hand-checked S values -------------------------------------------------


def test_s_hand_values_linear_a():
    # a = n+1, b = 0, alpha = a, lam = 0, polynomial init: S1 = 1, S2 = 9/4
    seq = instantiate("pow:alpha=1")
    trace = s_sequence(seq, alpha_a(seq), 0.0, poly_init(seq, 0.0), 4)
    raw = trace.raw_s()
    assert raw[0] == pytest.approx(1.0, rel=1e-12)
    assert raw[1] == pytest.approx(9.0 / 4.0, rel=1e-12)


def test_s_collapses_when_r_is_one_and_lam_hits_b():
    # alpha = a and lam = b(n): S(n) = a(n) alpha(n) Shat(n) exactly
    seq = instantiate("const")
    trace = s_sequence(seq, alpha_a(seq), 0.0, EigvecInit(0.3, 0.9), 50)
    assert trace.normalized() == pytest.approx(np.ones(50), rel=1e-12)


def test_dual_forms_agree_randomized():
    rng = np.random.default_rng(11)
    for _ in range(40):
        seq = instantiate(str(rng.choice(CATALOG)))
        lam = float(rng.uniform(-5.0, 5.0))
        init = EigvecInit(1.0, float(rng.uniform(-2.0, 2.0)))
        choice = rng.choice(["a", "one"])
        alpha = alpha_a(seq) if choice == "a" else WeightSequence.ones()
        trace = s_sequence(seq, alpha, lam, init, 200)
        keep = np.abs(trace.s_over_shat) > 1e-8 * trace.a_alpha
        # tolerance relative to max(|S|, a alpha): near the exclusion cutoff
        # plain relative agreement is limited by rounding in either form
        denom = np.maximum(np.abs(trace.s_over_shat), trace.a_alpha)[keep]
        dev = np.abs(trace.s31_over_shat[keep] - trace.s_over_shat[keep])
        assert np.all(dev <= 1e-10 * denom)


def test_s_sequence_needs_two_steps():
    seq = instantiate("const")
    with pytest.raises(DomainError):
        s_sequence(seq, alpha_a(seq), 0.0, poly_init(seq, 0.0), 1)


def _s_sequence_reference(seq, alpha, lam, init, N, f_exclusion):
    """The per-n scalar definition of every DiagnosticsTrace field."""
    fields = {k: np.empty(N) for k in
              ("s32", "s31", "log_shat", "a_alpha", "w_lo", "w_hi", "inv")}
    prev = None
    for state in propagate(seq, lam, init, N):
        n = state.n
        if n == 0:
            prev = state
            continue
        a_n, b_n, a_nm1 = seq.a(n), seq.b(n), seq.a(n - 1)
        al_n, al_nm1 = alpha(n), alpha(n - 1)
        x, y = state.x, state.y
        ratio = al_nm1 / a_nm1
        fields["s32"][n - 1] = (ratio * a_n * a_n * y * y
                                + a_n * al_n * x * x
                                - ratio * a_n * (lam - b_n) * y * x)
        rho = math.exp(prev.logscale - state.logscale)
        um1, u = prev.x * rho, prev.y * rho
        fields["s31"][n - 1] = (a_nm1 * al_nm1 * um1 * um1
                                + a_n * al_n * u * u
                                - (lam - b_n) * al_nm1 * um1 * u)
        fields["log_shat"][n - 1] = 2.0 * state.logscale
        fields["a_alpha"][n - 1] = a_n * al_n
        fields["inv"][n - 1] = 1.0 / (a_n * al_n)
        r = (al_nm1 / al_n) * (a_n / a_nm1)
        t = (lam - b_n) / a_n
        root = math.hypot(1.0 - r, r * t)
        scale = 0.5 * a_n * al_n
        fields["w_lo"][n - 1] = scale * (1.0 + r - root)
        fields["w_hi"][n - 1] = scale * (1.0 + r + root)
        prev = state
    s32, log_shat = fields["s32"], fields["log_shat"]
    F = np.full(N, np.nan)
    sum_F_minus = np.zeros(N)
    excluded, running = 0, 0.0
    for i in range(N - 1):
        if abs(s32[i]) < f_exclusion * fields["a_alpha"][i]:
            excluded += 1
        else:
            growth = math.exp(log_shat[i + 1] - log_shat[i])
            F[i] = (s32[i + 1] * growth) / s32[i] - 1.0
            running += -F[i] if F[i] < 0.0 else 0.0
        sum_F_minus[i] = running
    sum_F_minus[N - 1] = running
    return dict(n=np.arange(1, N + 1), s_over_shat=s32,
                s31_over_shat=fields["s31"], log_shat=log_shat,
                a_alpha=fields["a_alpha"], w_min=fields["w_lo"],
                w_max=fields["w_hi"], F=F, sum_F_minus=sum_F_minus,
                sum_inv_a_alpha=np.cumsum(fields["inv"]), excluded=excluded)


@pytest.mark.parametrize("text", ["const", "pow:alpha=0.5", "chihara",
                                  "paired:eps=0.01,inner=pow,alpha=1"])
@pytest.mark.parametrize("lam", [-1.5, 0.0, 0.7, 3.0])
@pytest.mark.parametrize("choice", ["a", "one"])
def test_s_sequence_bitwise_matches_scalar_reference(text, lam, choice):
    seq = instantiate(text)
    alpha = alpha_a(seq) if choice == "a" else WeightSequence.ones()
    init = poly_init(seq, lam)
    # f_exclusion = 0.5 excludes part of the entries; 1e-12 is the default
    for f_exclusion in (1e-12, 0.5):
        trace = s_sequence(seq, alpha, lam, init, 300, f_exclusion=f_exclusion)
        ref = _s_sequence_reference(seq, alpha, lam, init, 300, f_exclusion)
        assert trace.lam == lam
        assert trace.excluded == ref.pop("excluded")
        for name, want in ref.items():
            got = getattr(trace, name)
            assert got.dtype == want.dtype, name
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), name


def test_s_sequence_keeps_its_propagation_states():
    seq = instantiate("chihara")
    init = poly_init(seq, 0.7)
    trace = s_sequence(seq, alpha_a(seq), 0.7, init, 200)
    want = np.array([(s.x, s.y, s.logscale)
                     for s in propagate(seq, 0.7, init, 200)])
    assert trace.states.shape == (201, 3)
    assert np.array_equal(trace.states.view(np.uint64), want.view(np.uint64))


def test_s_sequence_exclusion_case_excludes_some_entries():
    seq = instantiate("const")
    trace = s_sequence(seq, alpha_a(seq), -1.5, poly_init(seq, -1.5), 300,
                       f_exclusion=0.5)
    assert 0 < trace.excluded < 299
    assert np.sum(np.isnan(trace.F)) == trace.excluded + 1


def test_negative_part_edges():
    out = negative_part(np.array([np.nan, -0.0, 0.0, -2.0, 3.0, -np.inf]))
    assert out.tolist() == [0.0, 0.0, 0.0, 2.0, 0.0, np.inf]
    assert not np.any(np.signbit(out))


# --- w bounds --------------------------------------------------------------


def test_w_bounds_hand_value():
    # a = n+1, alpha = a, b = 0, lam = 0, n = 1: r = 1 -> w = a(1)alpha(1) = 4
    seq = instantiate("pow:alpha=1")
    lo, hi = w_bounds(seq, alpha_a(seq), 0.0, 1)
    assert lo == pytest.approx(4.0, rel=1e-14)
    assert hi == pytest.approx(4.0, rel=1e-14)


def test_w_bounds_degenerate_when_root_vanishes():
    seq = instantiate("const")
    lo, hi = w_bounds(seq, alpha_a(seq), 0.0, 5)
    assert lo == hi == pytest.approx(1.0)


def test_w_bounds_match_2x2_eigenvalues():
    rng = np.random.default_rng(3)
    for _ in range(300):
        a0, a1 = rng.uniform(0.1, 10.0, size=2)
        al0, al1 = rng.uniform(0.1, 10.0, size=2)
        b1 = float(rng.uniform(-5.0, 5.0))
        lam = float(rng.uniform(-5.0, 5.0))
        seq = SequencePair.from_table([a0, a1], [0.0, b1])
        alpha = WeightSequence.from_table([al0, al1])
        lo, hi = w_bounds(seq, alpha, lam, 1)
        # quadratic form of S in the variables (u(n), u(n+1))
        B = a1 * al1
        A = (al0 / a0) * a1 * a1
        C = -(al0 / a0) * a1 * (lam - b1)
        eigs = np.linalg.eigvalsh(np.array([[B, C / 2.0], [C / 2.0, A]]))
        assert lo == pytest.approx(eigs[0], rel=1e-12, abs=1e-12)
        assert hi == pytest.approx(eigs[1], rel=1e-12, abs=1e-12)


def test_w_bounds_need_positive_index():
    seq = instantiate("const")
    with pytest.raises(DomainError):
        w_bounds(seq, alpha_a(seq), 0.0, 0)


def test_sandwich_holds_along_trace():
    rng = np.random.default_rng(5)
    for text in CATALOG:
        seq = instantiate(text)
        lam = float(rng.uniform(-3.0, 3.0))
        trace = s_sequence(seq, alpha_a(seq), lam, poly_init(seq, lam), 300)
        slack = 1e-10 * trace.a_alpha
        assert np.all(trace.s_over_shat >= trace.w_min - slack)
        assert np.all(trace.s_over_shat <= trace.w_max + slack)


# --- liminf evidence -------------------------------------------------------


def test_liminf_flipped_chihara_positive():
    seq = flip(instantiate("chihara"))
    trace = s_sequence(seq, alpha_a(seq), 1.0, poly_init(seq, 1.0), 10_000)
    est = liminf_estimate(trace, (1000, 10_000))
    assert est.tail_min > 0.0
    assert est.sum_F_minus < 1e-3


def test_liminf_paired_eigenvalue_family_decays():
    # lam = 0 is an eigenvalue: raw S (alpha = 1) decays toward 0
    seq = instantiate("paired:eps=1,inner=pow,alpha=1")
    trace = s_sequence(seq, WeightSequence.ones(), 0.0,
                       poly_init(seq, 0.0), 5000)
    est = liminf_estimate(trace, (1000, 5000))
    assert 0.0 < est.tail_min_raw < 1e-3


def test_liminf_degenerate_window():
    seq = instantiate("pow:alpha=0.5")
    trace = s_sequence(seq, alpha_a(seq), 1.0, poly_init(seq, 1.0), 50)
    est = liminf_estimate(trace, (7, 7))
    assert est.tail_min == pytest.approx(trace.normalized()[6])


def test_liminf_window_validation():
    seq = instantiate("const")
    trace = s_sequence(seq, alpha_a(seq), 0.5, poly_init(seq, 0.5), 20)
    with pytest.raises(DomainError):
        liminf_estimate(trace, (5, 3))
    with pytest.raises(DomainError):
        liminf_estimate(trace, (1, 99))


# --- checker fixtures ------------------------------------------------------


def test_theorem_A_passes_on_sqrt_power():
    seq = instantiate("pow:alpha=0.5")
    verdicts = check_theorem_A(seq, alpha_a(seq), 10_000)
    assert overall_verdict(verdicts) == "pass"


def test_theorem_A_fails_e_on_linear_power():
    seq = instantiate("pow:alpha=1")
    verdicts = check_theorem_A(seq, alpha_a(seq), 10_000)
    assert by_id(verdicts, "ThmA.e").verdict == "fail"


def test_theorem_A_passes_on_factorial_staircase():
    seq = instantiate("factorial-staircase")
    verdicts = check_theorem_A(seq, alpha_a(seq), 10_000)
    assert overall_verdict(verdicts) == "pass"
    # (f) is the ratio (alpha(n-1)/alpha(n))(a(n)/a(n-1)) == 1 when alpha = a
    assert by_id(verdicts, "ThmA.f").verdict == "pass"


def test_corollary_B_fixtures():
    assert overall_verdict(
        check_corollary_B(instantiate("pow:alpha=0.5"), 10_000)) == "pass"
    v75 = check_corollary_B(instantiate("pow:alpha=0.75"), 10_000)
    assert by_id(v75, "CorB.b").verdict == "fail"
    vs = check_corollary_B(instantiate("pow-shifted:alpha=0.5"), 10_000)
    assert by_id(vs, "CorB.c").verdict == "fail"


def test_corollary_C_chihara():
    result = check_corollary_C(instantiate("chihara"), 10_000)
    assert overall_verdict(result.verdicts) == "pass"
    assert result.M == pytest.approx(0.0, abs=1e-12)
    assert result.M_dispersion == pytest.approx(0.0, abs=1e-12)
    assert result.ratio_tail == pytest.approx(0.25, abs=1e-4)
    assert result.ratio[0] == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert result.undefined_ratios == 0


def test_corollary_C_fails_d_when_b_is_zero():
    result = check_corollary_C(instantiate("pow:alpha=0.5"), 10_000)
    assert by_id(result.verdicts, "CorC.d").verdict == "fail"
    assert result.undefined_ratios > 0


def test_theorem_42_fixtures():
    assert overall_verdict(
        check_theorem_42(instantiate("pow:alpha=0.5"), 10_000)) == "pass"
    vs = check_theorem_42(instantiate("pow-shifted:alpha=0.5"), 10_000)
    assert by_id(vs, "Thm42.c").verdict == "fail"
    vc = check_theorem_42(instantiate("const"), 10_000)
    assert by_id(vc, "Thm42.a").verdict == "fail"
    assert "note" in by_id(vc, "Thm42.d").evidence


def test_theorem_43_fixtures():
    assert overall_verdict(
        check_theorem_43(instantiate("iterlog:k=1,m=16"), 1, 10_000)) == "pass"
    v2 = check_theorem_43(instantiate("pow:alpha=2"), 1, 10_000)
    assert by_id(v2, "Thm43.b").verdict == "fail"
    vc = check_theorem_43(instantiate("const"), 1, 10_000)
    assert by_id(vc, "Thm43.a").verdict == "fail"


def test_checker_rejects_short_runs():
    seq = instantiate("const")
    with pytest.raises(DomainError):
        check_corollary_B(seq, 50)
    with pytest.raises(DomainError):  # the K=4 envelope starts at 3814280
        check_theorem_43(seq, 4, 200)


# --- verdict machinery -----------------------------------------------------


def test_overall_verdict_precedence():
    p = ConditionVerdict("x", "pass")
    f = ConditionVerdict("y", "fail")
    i = ConditionVerdict("z", "inconclusive")
    assert overall_verdict([p, p]) == "pass"
    assert overall_verdict([p, i]) == "inconclusive"
    assert overall_verdict([p, i, f]) == "fail"
    assert bool(p) and not bool(f)


def test_verdicts_to_json_sanitizes():
    v = ConditionVerdict("q", "pass", {"x": float("nan"),
                                       "y": np.float64(2.0),
                                       "k": np.int64(3)})
    report = verdicts_to_json([v], extra={"n": 100})
    assert report["overall"] == "pass"
    cond = report["conditions"][0]
    assert cond["evidence"]["x"] is None
    assert cond["evidence"]["y"] == 2.0
    assert cond["evidence"]["k"] == 3
    assert report["n"] == 100


# --- export ----------------------------------------------------------------


def test_write_trace_csv(tmp_path):
    seq = instantiate("pow:alpha=0.5")
    trace = s_sequence(seq, alpha_a(seq), 0.5, poly_init(seq, 0.5), 10)
    path = tmp_path / "diag.csv"
    write_trace_csv(str(path), trace)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,S_over_Shat,F,sumFminus,sum_inv_a_alpha,wmin,wmax"
    assert len(lines) == 11
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[1]) == pytest.approx(trace.s_over_shat[0])
