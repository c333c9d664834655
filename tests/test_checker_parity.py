"""Byte parity of the theorem checkers with their earlier form.

The reference below is the grading layer as it was while the thresholds
lived in a ``CheckerConfig`` dataclass: graders took an explicit index
grid and the config, and every checker built the grids it passed.  The
current checkers must give the same verdict JSON, byte for byte, and for
Corollary C the same bits in every result field; a checker that raises
must raise the same exception class and message.
"""

import json
import math
from dataclasses import dataclass

import numpy as np
import pytest

from jacobi_spectra import (
    ConditionVerdict,
    DomainError,
    WeightSequence,
    bd_check_theorem_51,
    bd_interleaved,
    check_corollary_B,
    check_corollary_C,
    check_theorem_42,
    check_theorem_43,
    check_theorem_A,
    instantiate,
    overall_verdict,
    parse_rates,
    verdicts_to_json,
)
from jacobi_spectra.diagnostics import negative_part
from jacobi_spectra.recurrence import _elementwise
from jacobi_spectra.sequences import _first_iterlog_valid, _iterlogs

PASS, FAIL, INCONCLUSIVE = "pass", "fail", "inconclusive"


# --- the reference grading layer -------------------------------------------


@dataclass(frozen=True)
class RefConfig:
    summable_decrease: float = 1.25
    summable_slope: float = -1.1
    divergent_ratio: float = 0.98
    growth_factor: float = 1.2
    flat_factor: float = 1.02
    limit_osc_tol: float = 1e-3
    limsup_margin: float = 1e-3
    f_exclusion: float = 1e-12


CFG = RefConfig()


def ref_dyadic_windows(ns):
    N = int(ns[-1])
    lo = max(int(ns[0]), N // 4)
    mid = N // 2
    return (ns >= lo) & (ns < mid), ns >= mid


def ref_loglog_slope(ns, terms):
    mask = (terms > 0.0) & (ns >= int(ns[-1]) // 4)
    if np.sum(mask) < 5:
        return float("nan")
    x = np.log(ns[mask].astype(float))
    y = np.log(terms[mask])
    return float(np.polyfit(x, y, 1)[0])


def ref_summable(ns, terms, cfg):
    ns = np.asarray(ns, dtype=float)
    terms = np.asarray(terms, dtype=float)
    N = int(ns[-1])
    edges = [N // 16, N // 8, N // 4, N // 2, N]
    sums = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        sel = (ns >= max(lo, ns[0])) & (ns < hi) if hi != N else \
              (ns >= max(lo, ns[0]))
        sums.append(float(np.sum(terms[sel])))
    slope = ref_loglog_slope(ns, terms)
    ratios = [sums[i + 1] / sums[i] for i in range(len(sums) - 1)
              if sums[i] > 0.0 and sums[i + 1] > 0.0]
    evidence = {"window_sums": sums, "window_edges": edges, "ratios": ratios,
                "slope": slope, "total": float(np.sum(terms))}
    if sums[-1] == 0.0:
        return PASS, evidence
    if not ratios:
        return INCONCLUSIVE, evidence
    median_ratio = float(np.median(ratios))
    evidence["median_ratio"] = median_ratio
    if median_ratio >= cfg.divergent_ratio:
        return FAIL, evidence
    if median_ratio <= 1.0 / cfg.summable_decrease and \
            (math.isnan(slope) or slope <= cfg.summable_slope):
        return PASS, evidence
    return INCONCLUSIVE, evidence


def ref_divergent(ns, terms, cfg):
    verdict, evidence = ref_summable(ns, terms, cfg)
    return {PASS: FAIL, FAIL: PASS, INCONCLUSIVE: INCONCLUSIVE}[verdict], evidence


def ref_growth_to_inf(ns, values, cfg):
    ns = np.asarray(ns, dtype=float)
    values = np.asarray(values, dtype=float)
    w1, w2 = ref_dyadic_windows(ns)
    m1, m2 = float(np.max(values[w1])), float(np.max(values[w2]))
    evidence = {"window_maxima": [m1, m2]}
    if m1 > 0.0 and m2 >= cfg.growth_factor * m1:
        return PASS, evidence
    if m2 <= cfg.flat_factor * m1:
        return FAIL, evidence
    return INCONCLUSIVE, evidence


def ref_limit(ns, values, cfg, target=None):
    values = np.asarray(values, dtype=float)
    tail = values[3 * len(values) // 4:]
    osc = float(np.max(tail) - np.min(tail))
    estimate = float(np.mean(tail))
    evidence = {"tail_oscillation": osc, "estimate": estimate}
    err = 0.0 if target is None else abs(estimate - target)
    tol = cfg.limit_osc_tol
    if osc < tol and err < tol:
        return PASS, evidence
    if osc > 100 * tol or err > 100 * tol:
        return FAIL, evidence
    return INCONCLUSIVE, evidence


def ref_limsup_below(ns, values, bound, cfg):
    values = np.asarray(values, dtype=float)
    m = float(np.max(values[3 * len(values) // 4:]))
    evidence = {"tail_max": m, "bound": bound}
    if m < bound * (1.0 - cfg.limsup_margin):
        return PASS, evidence
    if m >= bound:
        return FAIL, evidence
    return INCONCLUSIVE, evidence


def ref_bounded(ns, values, cfg):
    values = np.abs(np.asarray(values, dtype=float))
    w1, w2 = ref_dyadic_windows(np.asarray(ns, dtype=float))
    m1, m2 = float(np.max(values[w1])), float(np.max(values[w2]))
    evidence = {"window_maxima": [m1, m2]}
    if m2 == 0.0 or (m1 > 0.0 and m2 <= cfg.flat_factor * m1):
        return PASS, evidence
    if m1 > 0.0 and m2 >= cfg.growth_factor * m1:
        return FAIL, evidence
    return INCONCLUSIVE, evidence


def ref_verdict(cond_id, graded):
    return ConditionVerdict(cond_id, *graded)


def ref_size(n_max, config):
    if n_max < 100:
        raise DomainError("n_max must be >= 100")
    return config or CFG, int(n_max)


def ref_theorem_A(seq, alpha, n_max, config=None):
    cfg, N = ref_size(n_max, config)
    a, b = seq.a_array(N + 2), seq.b_array(N + 2)
    al = alpha.array(N + 2)
    ns1 = np.arange(1, N)
    terms_b = negative_part((a[2: N + 1] / a[1:N]) * (al[2: N + 1] / al[1:N])
                            - (a[1:N] / a[: N - 1]) * (al[: N - 1] / al[1:N]))
    ns_c = np.arange(1, N + 1)
    terms_c = np.abs(a[:N] / a[1: N + 1] - al[:N] / al[1: N + 1]) / a[:N]
    ns_d = np.arange(1, N + 1)
    terms_d = np.abs(b[2: N + 2] / a[1: N + 1]
                     - (b[1: N + 1] / a[:N]) * (al[:N] / al[1: N + 1]))
    ns_e = np.arange(0, N + 1)
    terms_e = 1.0 / (a[: N + 1] * al[: N + 1])
    ratio_f = (al[:N] / al[1: N + 1]) * (a[1: N + 1] / a[:N])
    return [
        ref_verdict("ThmA.a", ref_growth_to_inf(ns_e, a[: N + 1], cfg)),
        ref_verdict("ThmA.b", ref_summable(ns1, terms_b, cfg)),
        ref_verdict("ThmA.c", ref_summable(ns_c, terms_c, cfg)),
        ref_verdict("ThmA.d", ref_summable(ns_d, terms_d, cfg)),
        ref_verdict("ThmA.e", ref_divergent(ns_e, terms_e, cfg)),
        ref_verdict("ThmA.f", ref_limit(ns_c, ratio_f, cfg, target=1.0)),
        ref_verdict("ThmA.g", ref_limsup_below(
            ns_e, np.abs(b[: N + 1]) / a[: N + 1], 2.0, cfg)),
    ]


def ref_corollary_B(seq, n_max, config=None):
    cfg, N = ref_size(n_max, config)
    a, b = seq.a_array(N + 2), seq.b_array(N + 2)
    ns = np.arange(0, N + 1)
    terms_c = negative_part(
        _elementwise(lambda r: r ** 2, a[1: N + 2] / a[: N + 1]) - 1.0)
    terms_e = np.abs(b[1: N + 2] - b[: N + 1]) / a[: N + 1]
    return [
        ref_verdict("CorB.a", ref_growth_to_inf(ns, a[: N + 1], cfg)),
        ref_verdict("CorB.b", ref_divergent(ns, 1.0 / a[: N + 1] ** 2, cfg)),
        ref_verdict("CorB.c", ref_summable(ns, terms_c, cfg)),
        ref_verdict("CorB.d", ref_limsup_below(
            ns, np.abs(b[: N + 1]) / a[: N + 1], 2.0, cfg)),
        ref_verdict("CorB.e", ref_summable(ns, terms_e, cfg)),
    ]


def ref_corollary_C(seq, n_max, config=None):
    """(verdicts, M, M_dispersion, ratio, ratio_tail, undefined_ratios)."""
    cfg, N = ref_size(n_max, config)
    a, b = seq.a_array(N + 2), seq.b_array(N + 2)
    ns = np.arange(0, N + 1)
    terms_c = negative_part(a[1: N + 2] / a[: N + 1] - 1.0)
    ns_d = np.arange(1, N + 1)
    m_terms = a[:N] - b[1: N + 1] + a[1: N + 1]
    verdicts = [
        ref_verdict("CorC.a", ref_growth_to_inf(ns, a[: N + 1], cfg)),
        ref_verdict("CorC.b", ref_divergent(ns, 1.0 / a[: N + 1], cfg)),
        ref_verdict("CorC.c", ref_summable(ns, terms_c, cfg)),
        ref_verdict("CorC.d", ref_limit(ns_d, m_terms, cfg)),
    ]
    denom = b[: N + 1] * b[1: N + 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(denom > 0.0, a[: N + 1] ** 2 / denom, np.nan)
    valid = np.isfinite(ratio)
    ratio_tail = float(ratio[valid][-1]) if np.any(valid) else float("nan")
    tail = m_terms[3 * len(m_terms) // 4:]
    return (verdicts, float(np.mean(tail)), float(np.max(tail) - np.min(tail)),
            ratio, ratio_tail, int(np.sum(~valid)))


def ref_theorem_42(seq, n_max, config=None):
    cfg, N = ref_size(n_max, config)
    a, b = seq.a_array(N + 2), seq.b_array(N + 2)
    ns = np.arange(0, N + 1)
    bv_sets = {
        "a_ratio": np.abs(np.diff(a[: N + 1] / a[1: N + 2])),
        "inv_a": np.abs(np.diff(1.0 / a[: N + 2])),
        "b_over_a": np.abs(np.diff(b[: N + 2] / a[: N + 2])),
    }
    bv_grades = {k: ref_summable(np.arange(1, len(t) + 1), t, cfg)
                 for k, t in bv_sets.items()}
    bv_verdict = overall_verdict(
        [ConditionVerdict(k, g[0], g[1]) for k, g in bv_grades.items()])
    graded_d = ref_limsup_below(ns, np.abs(b[: N + 1]) / a[: N + 1], 2.0, cfg)
    d_evidence = dict(graded_d[1])
    d_evidence["note"] = "limsup graded where the source states a limit"
    return [
        ref_verdict("Thm42.a", ref_growth_to_inf(ns, a[: N + 1], cfg)),
        ref_verdict("Thm42.b", ref_divergent(ns, 1.0 / a[: N + 1], cfg)),
        ConditionVerdict("Thm42.c", bv_verdict,
                         {k: {"verdict": g[0], **g[1]}
                          for k, g in bv_grades.items()}),
        ConditionVerdict("Thm42.d", graded_d[0], d_evidence),
    ]


def ref_theorem_43(seq, K, n_max, n_start=None, config=None):
    cfg, N = ref_size(n_max, config)
    K = int(K)
    if n_start is None:
        n_start = max(2, _first_iterlog_valid(K))
    if n_start > N:
        raise DomainError("the K=%d envelope starts at n=%d, past n_max=%d"
                          % (K, n_start, N))
    a, b = seq.a_array(N + 2), seq.b_array(N + 2)
    ns_all = np.arange(0, N + 1)
    ns_b = np.arange(n_start, N + 1)
    ratio = a[n_start: N + 1] / a[n_start - 1: N]
    envelope = 1.0 + 1.0 / ns_b
    for g_j in _iterlogs(ns_b.astype(float), K)[1:]:
        envelope += 1.0 / (ns_b * g_j)
    slack = np.maximum(0.0, np.maximum(1.0 - ratio, ratio - envelope))
    terms_bv = np.abs(b[1: N + 2] - b[: N + 1]) / a[: N + 1]
    graded_bounded = ref_bounded(ns_all, b[: N + 1], cfg)
    graded_bv = ref_summable(ns_all, terms_bv, cfg)
    c_verdict = overall_verdict([
        ConditionVerdict("bounded", graded_bounded[0], graded_bounded[1]),
        ConditionVerdict("bv", graded_bv[0], graded_bv[1]),
    ])
    ns_d = np.arange(1, N + 1)
    terms_d = 1.0 / (ns_d * a[1: N + 1])
    return [
        ref_verdict("Thm43.a", ref_growth_to_inf(ns_all, a[: N + 1], cfg)),
        ref_verdict("Thm43.b", ref_summable(ns_b, slack, cfg)),
        ConditionVerdict("Thm43.c", c_verdict,
                         {"bounded": graded_bounded[1], "bv": graded_bv[1]}),
        ref_verdict("Thm43.d", ref_summable(ns_d, terms_d, cfg)),
    ]


def ref_theorem_51(rates, n_max, config=None):
    cfg, N = ref_size(n_max, config)
    a = bd_interleaved(rates).a_array(N + 2)
    ns = np.arange(0, N + 1)
    terms_c = negative_part(a[1: N + 2] / a[: N + 1] - 1.0)
    verdicts = [
        ConditionVerdict("Thm51.a", *ref_growth_to_inf(ns, a[: N + 1], cfg)),
        ConditionVerdict("Thm51.b", *ref_divergent(ns, 1.0 / a[: N + 1], cfg)),
        ConditionVerdict("Thm51.c", *ref_summable(ns, terms_c, cfg)),
    ]
    conclusion = ("sigma(Q) = (-inf, 0]" if overall_verdict(verdicts) == "pass"
                  else None)
    return verdicts, conclusion


# --- comparison ------------------------------------------------------------


def outcome(run):
    """The verdict JSON of run(), or the class and message it raised."""
    try:
        verdicts = run()
    except DomainError as exc:
        return type(exc), str(exc)
    return json.dumps(verdicts_to_json(verdicts), sort_keys=True)


def bits(value):
    return np.asarray(value, dtype=float).view(np.int64).tolist()


SIZES = [100, 101, 257, 30000]
# a decreasing a (alpha < 0) puts the window maxima at the window starts
FAMILIES = ["const", "pow:alpha=0.3", "pow:alpha=0.7", "pow:alpha=2",
            "pow:alpha=-0.3",
            "chihara", "factorial-staircase",
            "paired:eps=0.01,inner=pow,alpha=1", "table"]


@pytest.fixture(scope="module")
def table_spec(tmp_path_factory):
    # positive a with a wobble and a nonzero, sign-changing b
    rows = "".join("%d,%r,%r\n" % (n, n + 1.0 + 0.3 * math.sin(n),
                                    0.5 * math.cos(0.7 * n))
                   for n in range(max(SIZES) + 2))
    path = tmp_path_factory.mktemp("parity") / "coeffs.csv"
    path.write_text("n,a,b\n" + rows)
    return "table:%s" % path


@pytest.mark.parametrize("N", SIZES)
@pytest.mark.parametrize("text", FAMILIES)
def test_checkers_match_reference(text, N, table_spec):
    seq = instantiate(table_spec if text == "table" else text)
    alphas = [WeightSequence.from_a(seq), WeightSequence.ones(),
              WeightSequence.iterlog_weight(seq, 1)]
    for alpha in alphas:
        assert outcome(lambda: check_theorem_A(seq, alpha, N)) == \
            outcome(lambda: ref_theorem_A(seq, alpha, N))
    assert outcome(lambda: check_corollary_B(seq, N)) == \
        outcome(lambda: ref_corollary_B(seq, N))
    assert outcome(lambda: check_theorem_42(seq, N)) == \
        outcome(lambda: ref_theorem_42(seq, N))
    for K in range(4):
        assert outcome(lambda: check_theorem_43(seq, K, N)) == \
            outcome(lambda: ref_theorem_43(seq, K, N))


@pytest.mark.parametrize("N", SIZES)
@pytest.mark.parametrize("text", FAMILIES)
def test_corollary_C_matches_reference(text, N, table_spec):
    seq = instantiate(table_spec if text == "table" else text)
    result = check_corollary_C(seq, N)
    verdicts, M, M_dispersion, ratio, ratio_tail, undefined = \
        ref_corollary_C(seq, N)
    assert outcome(lambda: result.verdicts) == outcome(lambda: verdicts)
    assert bits(result.M) == bits(M)
    assert bits(result.M_dispersion) == bits(M_dispersion)
    assert bits(result.ratio) == bits(ratio)
    assert bits(result.ratio_tail) == bits(ratio_tail)
    assert result.undefined_ratios == undefined


@pytest.mark.parametrize("N", SIZES)
@pytest.mark.parametrize("spec", ["lam=linear,mu=linear",
                                  "lam=quadratic,mu=quadratic",
                                  "lam=quadratic,mu=linear"])
def test_theorem_51_matches_reference(spec, N):
    rates = parse_rates(spec)
    verdicts, conclusion = bd_check_theorem_51(rates, N)
    ref_verdicts, ref_conclusion = ref_theorem_51(rates, N)
    assert outcome(lambda: verdicts) == outcome(lambda: ref_verdicts)
    assert conclusion == ref_conclusion


def test_checkers_reject_short_runs_like_reference():
    seq = instantiate("const")
    assert outcome(lambda: check_corollary_B(seq, 99)) == \
        outcome(lambda: ref_corollary_B(seq, 99))
    # the K=4 envelope starts at n = 3814280
    assert outcome(lambda: check_theorem_43(seq, 4, 100)) == \
        outcome(lambda: ref_theorem_43(seq, 4, 100))
