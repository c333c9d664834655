"""Commutator-sequence diagnostics and numerical hypothesis checkers.

For a generalized eigenvector u at spectral parameter lam and a positive
weight sequence alpha, the central quantity is

    S(n) = a(n-1) alpha(n-1) u(n-1)**2 + a(n) alpha(n) u(n)**2
           - (lam - b(n)) alpha(n-1) u(n-1) u(n)                  (n >= 1)

together with the equivalent form obtained by eliminating u(n-1),

    S(n) = (alpha(n-1)/a(n-1)) a(n)**2 u(n+1)**2 + a(n) alpha(n) u(n)**2
           - (alpha(n-1)/a(n-1)) a(n) (lam - b(n)) u(n+1) u(n).

A positive lim inf of S(n), combined with divergence of sum 1/(a alpha),
forces the eigenvector out of l2, which is the engine behind the
continuous-spectrum statements this package probes.  Everything here is
computed scale-free as S(n)/Shat(n) with Shat(n) = u(n)**2 + u(n+1)**2, so
exponential eigenvector growth is harmless.

The theorem checkers grade *numerical evidence* for asymptotic hypotheses
(summability, divergence, limits).  They cannot prove anything; verdicts
are pass / fail / inconclusive with the thresholds documented in
:class:`CheckerConfig`.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .recurrence import _elementwise, _state_rows, _write_columns, propagate
from .sequences import SequencePair, _first_iterlog_valid, _iterlogs, _slices

__all__ = [
    "DiagnosticsTrace",
    "ConditionVerdict",
    "CheckerConfig",
    "LiminfEstimate",
    "CorollaryCResult",
    "s_sequence",
    "w_bounds",
    "liminf_estimate",
    "check_theorem_A",
    "check_corollary_B",
    "check_corollary_C",
    "check_theorem_42",
    "check_theorem_43",
    "overall_verdict",
    "verdicts_to_json",
    "write_trace_csv",
]

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


def negative_part(x):
    """Elementwise max(-x, 0); NaN and -0.0 map to +0.0."""
    return np.where(x < 0.0, -x, 0.0)


# --- the S sequence --------------------------------------------------------


@dataclass
class DiagnosticsTrace:
    """Per-n record of the commutator diagnostics, n = 1 .. N.

    All S values are scale-free ratios S(n)/Shat(n); the raw magnitude is
    recoverable through ``log_shat`` while it stays representable.  ``F``
    is (S(n+1) - S(n))/S(n) and is NaN at its final index and wherever the
    near-zero exclusion rule applied.  ``states`` is the propagation it
    was computed from, which :func:`recurrence.write_trace_csv` writes.
    """

    lam: float
    n: np.ndarray
    states: np.ndarray             # (N+1, 3) rows (x, y, logscale), n = 0..N
    s_over_shat: np.ndarray        # from the u(n), u(n+1) form
    s31_over_shat: np.ndarray      # from the u(n-1), u(n) form
    log_shat: np.ndarray
    a_alpha: np.ndarray            # a(n) * alpha(n)
    w_min: np.ndarray
    w_max: np.ndarray
    F: np.ndarray
    sum_F_minus: np.ndarray        # cumulative, exclusions skipped
    sum_inv_a_alpha: np.ndarray    # cumulative sum of 1/(a alpha)
    excluded: int

    def normalized(self):
        """S(n)/(a(n) alpha(n) Shat(n)), the scale of the two-sided bound."""
        return self.s_over_shat / self.a_alpha

    def raw_s(self):
        """S(n) itself; overflows to inf where Shat does."""
        with np.errstate(over="ignore"):
            return self.s_over_shat * np.exp(self.log_shat)


def _w_bounds(a, al, b, lam):
    """w-bounds at n = 1..m from a(0..m), alpha(0..m) and b(1..m) arrays."""
    r = (al[:-1] / al[1:]) * (a[1:] / a[:-1])
    t = (lam - b) / a[1:]
    root = _elementwise(math.hypot, 1.0 - r, r * t)
    scale = 0.5 * a[1:] * al[1:]
    return scale * (1.0 + r - root), scale * (1.0 + r + root)


def w_bounds(seq, alpha, lam, n):
    """Extremes of the quadratic form S(n) on the circle Shat(n) = 1.

    Closed form: with r = (alpha(n-1)/alpha(n)) (a(n)/a(n-1)) and
    t = (lam - b(n))/a(n),

        2 w / (a(n) alpha(n)) = 1 + r -+ sqrt((1 - r)**2 + (r t)**2).
    """
    if n < 1:
        raise DomainError("w_bounds needs n >= 1")
    lo, hi = _w_bounds(np.array([seq.a(n - 1), seq.a(n)]),
                       np.array([alpha(n - 1), alpha(n)]),
                       np.array([seq.b(n)]), lam)
    return float(lo[0]), float(hi[0])


def s_sequence(seq, alpha, lam, init, n_max, f_exclusion=1e-12):
    """Compute the diagnostics trace for n = 1 .. n_max.

    Both closed forms of S(n) are evaluated: the (u(n), u(n+1)) form
    directly from the current normalized state, and the (u(n-1), u(n))
    form from the previous state rescaled to the current magnitude.  Their
    agreement is a correctness invariant checked by the test-suite.
    """
    if n_max < 2:
        raise DomainError("n_max must be >= 2")
    lam = float(lam)
    N = n_max
    a = seq.a_array(N + 1)
    b_all = seq.b_array(N + 1)
    # propagate over the coefficients just built, not a second evaluation
    table = SequencePair.from_builders(_slices(a), _slices(b_all),
                                       name=seq.name, length=N + 1)
    states = _state_rows(propagate(table, lam, init, N), N + 1)
    x, y, logscale = states.T
    b = b_all[1:]
    al = alpha.array(N + 1)
    a_n, a_nm1, al_n, al_nm1 = a[1:], a[:-1], al[1:], al[:-1]
    lam_b = lam - b

    ratio = al_nm1 / a_nm1
    s32 = (ratio * a_n * a_n * y[1:] * y[1:]
           + a_n * al_n * x[1:] * x[1:]
           - ratio * a_n * lam_b * y[1:] * x[1:])
    rho = _elementwise(math.exp, logscale[:-1] - logscale[1:])
    um1 = x[:-1] * rho
    u = y[:-1] * rho
    s31 = (a_nm1 * al_nm1 * um1 * um1
           + a_n * al_n * u * u
           - lam_b * al_nm1 * um1 * u)
    log_shat = 2.0 * logscale[1:]
    a_alpha = a_n * al_n
    w_lo, w_hi = _w_bounds(a, al, b, lam)

    # F(n) = S(n+1)/S(n) - 1 with the Shat rescaling between steps; the
    # comparison is negated so that a NaN S(n) is kept, not excluded
    F = np.full(N, np.nan)
    kept = np.flatnonzero(~(np.abs(s32[:-1]) < f_exclusion * a_alpha[:-1]))
    growth = _elementwise(math.exp, log_shat[kept + 1] - log_shat[kept])
    F[kept] = (s32[kept + 1] * growth) / s32[kept] - 1.0

    return DiagnosticsTrace(
        lam=lam,
        n=np.arange(1, N + 1),
        states=states,
        s_over_shat=s32,
        s31_over_shat=s31,
        log_shat=log_shat,
        a_alpha=a_alpha,
        w_min=w_lo,
        w_max=w_hi,
        F=F,
        sum_F_minus=np.cumsum(negative_part(F)),
        sum_inv_a_alpha=np.cumsum(1.0 / a_alpha),
        excluded=N - 1 - len(kept),
    )


@dataclass
class LiminfEstimate:
    """Tail evidence for lim inf S(n) > 0 over a window of indices."""

    window: tuple
    tail_min: float          # min of S(n)/(a(n) alpha(n) Shat(n))
    tail_min_raw: float      # min of raw S(n); NaN once Shat overflows
    sum_F_minus: float       # sum of F(n)^- over the window
    excluded: int


def liminf_estimate(trace, window):
    """Window evidence for the positive-lim-inf criterion.

    ``window`` is an inclusive (n_lo, n_hi) index range into the trace.
    """
    n_lo, n_hi = window
    if n_hi < n_lo:
        raise DomainError("empty window")
    if n_lo < int(trace.n[0]) or n_hi > int(trace.n[-1]):
        raise DomainError("window outside trace range")
    sel = (trace.n >= n_lo) & (trace.n <= n_hi)
    normalized = trace.normalized()[sel]
    raw = trace.raw_s()[sel]
    F = trace.F[sel]
    finite = np.isfinite(F)
    sum_F_minus = float(np.sum(np.maximum(-F[finite], 0.0)))
    return LiminfEstimate(
        window=(n_lo, n_hi),
        tail_min=float(np.min(normalized)),
        tail_min_raw=float(np.min(raw)) if np.all(np.isfinite(raw))
        else float("nan"),
        sum_F_minus=sum_F_minus,
        excluded=int(np.sum(~finite)),
    )


# --- verdict machinery -----------------------------------------------------


@dataclass(frozen=True)
class ConditionVerdict:
    condition: str
    verdict: str
    evidence: dict = field(default_factory=dict)

    def __bool__(self):
        return self.verdict == PASS


@dataclass(frozen=True)
class CheckerConfig:
    """Thresholds for grading asymptotic evidence from finite data.

    A nonnegative series is graded *divergent* when the median ratio of
    successive geometric window sums is at least ``divergent_ratio``
    (essentially nondecreasing window sums); *summable* when that median
    ratio is at most 1/``summable_decrease`` and the log-log slope of its
    terms is at most ``summable_slope``; anything else is inconclusive.
    """

    summable_decrease: float = 1.25
    summable_slope: float = -1.1
    divergent_ratio: float = 0.98
    growth_factor: float = 1.2
    flat_factor: float = 1.02
    limit_osc_tol: float = 1e-3
    limsup_margin: float = 1e-3
    f_exclusion: float = 1e-12


DEFAULT_CONFIG = CheckerConfig()


def _dyadic_windows(ns):
    N = int(ns[-1])
    lo = max(int(ns[0]), N // 4)
    mid = N // 2
    w1 = (ns >= lo) & (ns < mid)
    w2 = ns >= mid
    return w1, w2


def _loglog_slope(ns, terms):
    mask = (terms > 0.0) & (ns >= int(ns[-1]) // 4)
    if np.sum(mask) < 5:
        return float("nan")
    x = np.log(ns[mask].astype(float))
    y = np.log(terms[mask])
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)


def _grade_summable(ns, terms, cfg):
    """Evidence verdict for sum(terms) < infinity, terms >= 0.

    Window sums are taken over four geometric windows ending at N; the
    *median* of successive window-sum ratios drives the verdict, which
    keeps staircase-shaped term sequences (constant over long stretches,
    with rare jumps) from fooling a single dyadic comparison.
    """
    ns = np.asarray(ns, dtype=float)
    terms = np.asarray(terms, dtype=float)
    N = int(ns[-1])
    edges = [N // 16, N // 8, N // 4, N // 2, N]
    sums = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        sel = (ns >= max(lo, ns[0])) & (ns < hi) if hi != N else \
              (ns >= max(lo, ns[0]))
        sums.append(float(np.sum(terms[sel])))
    slope = _loglog_slope(ns, terms)
    ratios = [sums[i + 1] / sums[i] for i in range(len(sums) - 1)
              if sums[i] > 0.0 and sums[i + 1] > 0.0]
    evidence = {
        "window_sums": sums,
        "window_edges": edges,
        "ratios": ratios,
        "slope": slope,
        "total": float(np.sum(terms)),
    }
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


def _grade_divergent(ns, terms, cfg):
    """Evidence verdict for sum(terms) = infinity (terms >= 0)."""
    verdict, evidence = _grade_summable(ns, terms, cfg)
    flipped = {PASS: FAIL, FAIL: PASS, INCONCLUSIVE: INCONCLUSIVE}[verdict]
    return flipped, evidence


def _grade_growth_to_inf(ns, values, cfg):
    ns = np.asarray(ns, dtype=float)
    values = np.asarray(values, dtype=float)
    w1, w2 = _dyadic_windows(ns)
    m1 = float(np.max(values[w1]))
    m2 = float(np.max(values[w2]))
    evidence = {"window_maxima": [m1, m2]}
    if m1 > 0.0 and m2 >= cfg.growth_factor * m1:
        return PASS, evidence
    if m2 <= cfg.flat_factor * m1:
        return FAIL, evidence
    return INCONCLUSIVE, evidence


def _grade_limit(ns, values, cfg, target=None):
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


def _grade_limsup_below(ns, values, bound, cfg):
    values = np.asarray(values, dtype=float)
    tail = values[3 * len(values) // 4:]
    m = float(np.max(tail))
    evidence = {"tail_max": m, "bound": bound}
    if m < bound * (1.0 - cfg.limsup_margin):
        return PASS, evidence
    if m >= bound:
        return FAIL, evidence
    return INCONCLUSIVE, evidence


def _grade_bounded(ns, values, cfg):
    values = np.abs(np.asarray(values, dtype=float))
    w1, w2 = _dyadic_windows(np.asarray(ns, dtype=float))
    m1 = float(np.max(values[w1]))
    m2 = float(np.max(values[w2]))
    evidence = {"window_maxima": [m1, m2]}
    if m2 == 0.0 or (m1 > 0.0 and m2 <= cfg.flat_factor * m1):
        return PASS, evidence
    if m1 > 0.0 and m2 >= cfg.growth_factor * m1:
        return FAIL, evidence
    return INCONCLUSIVE, evidence


def overall_verdict(verdicts):
    """Conjunction: fail dominates, then inconclusive, then pass."""
    kinds = {v.verdict for v in verdicts}
    if FAIL in kinds:
        return FAIL
    if INCONCLUSIVE in kinds:
        return INCONCLUSIVE
    return PASS


def _verdict(cond_id, graded):
    verdict, evidence = graded
    return ConditionVerdict(cond_id, verdict, evidence)


# --- theorem checkers ------------------------------------------------------


def _checker_size(n_max, config):
    """(config, N) of a checker graded on n = 0..N; N >= 100."""
    if n_max < 100:
        raise DomainError("n_max must be >= 100")
    return config or DEFAULT_CONFIG, int(n_max)


def check_theorem_A(seq, alpha, n_max, config=None):
    """Grade the seven hypotheses of the main continuous-spectrum theorem."""
    cfg, N = _checker_size(n_max, config)
    a, b = seq.a_array(N + 2), seq.b_array(N + 2)
    al = alpha.array(N + 2)

    ns1 = np.arange(1, N)      # terms needing n-1 and n+1
    terms_b = negative_part((a[2: N + 1] / a[1:N]) * (al[2: N + 1] / al[1:N])
                            - (a[1:N] / a[: N - 1]) * (al[: N - 1] / al[1:N]))
    ns_c = np.arange(1, N + 1)
    terms_c = np.abs(a[:N] / a[1: N + 1] - al[:N] / al[1: N + 1]) / a[:N]
    ns_d = np.arange(1, N + 1)  # the n = 0 summand vanishes (alpha(-1) = 0)
    terms_d = np.abs(b[2: N + 2] / a[1: N + 1]
                     - (b[1: N + 1] / a[:N]) * (al[:N] / al[1: N + 1]))
    ns_e = np.arange(0, N + 1)
    terms_e = 1.0 / (a[: N + 1] * al[: N + 1])
    ratio_f = (al[:N] / al[1: N + 1]) * (a[1: N + 1] / a[:N])

    verdicts = [
        _verdict("ThmA.a", _grade_growth_to_inf(ns_e, a[: N + 1], cfg)),
        _verdict("ThmA.b", _grade_summable(ns1, terms_b, cfg)),
        _verdict("ThmA.c", _grade_summable(ns_c, terms_c, cfg)),
        _verdict("ThmA.d", _grade_summable(ns_d, terms_d, cfg)),
        _verdict("ThmA.e", _grade_divergent(ns_e, terms_e, cfg)),
        _verdict("ThmA.f", _grade_limit(ns_c, ratio_f, cfg, target=1.0)),
        _verdict("ThmA.g", _grade_limsup_below(
            ns_e, np.abs(b[: N + 1]) / a[: N + 1], 2.0, cfg)),
    ]
    return verdicts


def check_corollary_B(seq, n_max, config=None):
    """The alpha = a specialization: five directly checkable hypotheses."""
    cfg, N = _checker_size(n_max, config)
    a, b = seq.a_array(N + 2), seq.b_array(N + 2)
    ns = np.arange(0, N + 1)

    terms_c = negative_part(
        _elementwise(lambda r: r ** 2, a[1: N + 2] / a[: N + 1]) - 1.0)
    terms_e = np.abs(b[1: N + 2] - b[: N + 1]) / a[: N + 1]

    verdicts = [
        _verdict("CorB.a", _grade_growth_to_inf(ns, a[: N + 1], cfg)),
        _verdict("CorB.b", _grade_divergent(ns, 1.0 / a[: N + 1] ** 2, cfg)),
        _verdict("CorB.c", _grade_summable(ns, terms_c, cfg)),
        _verdict("CorB.d", _grade_limsup_below(
            ns, np.abs(b[: N + 1]) / a[: N + 1], 2.0, cfg)),
        _verdict("CorB.e", _grade_summable(ns, terms_e, cfg)),
    ]
    return verdicts


@dataclass
class CorollaryCResult:
    verdicts: list
    M: float
    M_dispersion: float
    ratio: np.ndarray          # a(n)**2 / (b(n) b(n+1)); NaN where undefined
    ratio_tail: float
    undefined_ratios: int


def check_corollary_C(seq, n_max, config=None):
    """Essential-spectrum half-line evidence, plus the one-quarter ratio."""
    cfg, N = _checker_size(n_max, config)
    a, b = seq.a_array(N + 2), seq.b_array(N + 2)
    ns = np.arange(0, N + 1)

    terms_c = negative_part(a[1: N + 2] / a[: N + 1] - 1.0)
    ns_d = np.arange(1, N + 1)
    m_terms = a[:N] - b[1: N + 1] + a[1: N + 1]

    graded_d = _grade_limit(ns_d, m_terms, cfg)
    verdicts = [
        _verdict("CorC.a", _grade_growth_to_inf(ns, a[: N + 1], cfg)),
        _verdict("CorC.b", _grade_divergent(ns, 1.0 / a[: N + 1], cfg)),
        _verdict("CorC.c", _grade_summable(ns, terms_c, cfg)),
        _verdict("CorC.d", graded_d),
    ]

    denom = b[: N + 1] * b[1: N + 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(denom > 0.0, a[: N + 1] ** 2 / denom, np.nan)
    valid = np.isfinite(ratio)
    ratio_tail = float(ratio[valid][-1]) if np.any(valid) else float("nan")
    tail = m_terms[3 * len(m_terms) // 4:]
    return CorollaryCResult(
        verdicts=verdicts,
        M=float(np.mean(tail)),
        M_dispersion=float(np.max(tail) - np.min(tail)),
        ratio=ratio,
        ratio_tail=ratio_tail,
        undefined_ratios=int(np.sum(~valid)),
    )


def check_theorem_42(seq, n_max, config=None):
    """Bounded-variation hypotheses (the alpha == 1 specialization).

    The source result states a plain limit in its last hypothesis; we grade
    a limsup for uniformity with the main theorem and record that choice in
    the evidence.
    """
    cfg, N = _checker_size(n_max, config)
    a, b = seq.a_array(N + 2), seq.b_array(N + 2)
    ns = np.arange(0, N + 1)

    def bv_terms(values):
        return np.abs(np.diff(values))

    bv_sets = {
        "a_ratio": bv_terms(a[: N + 1] / a[1: N + 2]),
        "inv_a": bv_terms(1.0 / a[: N + 2]),
        "b_over_a": bv_terms(b[: N + 2] / a[: N + 2]),
    }
    bv_grades = {k: _grade_summable(np.arange(1, len(t) + 1), t, cfg)
                 for k, t in bv_sets.items()}
    bv_verdict = overall_verdict(
        [ConditionVerdict(k, g[0], g[1]) for k, g in bv_grades.items()])

    graded_d = _grade_limsup_below(ns, np.abs(b[: N + 1]) / a[: N + 1], 2.0, cfg)
    d_evidence = dict(graded_d[1])
    d_evidence["note"] = "limsup graded where the source states a limit"

    verdicts = [
        _verdict("Thm42.a", _grade_growth_to_inf(ns, a[: N + 1], cfg)),
        _verdict("Thm42.b", _grade_divergent(ns, 1.0 / a[: N + 1], cfg)),
        ConditionVerdict("Thm42.c", bv_verdict,
                         {k: {"verdict": g[0], **g[1]}
                          for k, g in bv_grades.items()}),
        ConditionVerdict("Thm42.d", graded_d[0], d_evidence),
    ]
    return verdicts


def check_theorem_43(seq, K, n_max, n_start=None, config=None):
    """Iterated-log envelope hypotheses.

    The envelope slack c(n) is reconstructed as the positive excess of
    a(n)/a(n-1) outside [1 - c, 1 + 1/n + sum_j 1/(n g_j(n)) + c] and its
    summability graded.
    """
    cfg, N = _checker_size(n_max, config)
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
    graded_bounded = _grade_bounded(ns_all, b[: N + 1], cfg)
    graded_bv = _grade_summable(ns_all, terms_bv, cfg)
    c_verdict = overall_verdict([
        ConditionVerdict("bounded", graded_bounded[0], graded_bounded[1]),
        ConditionVerdict("bv", graded_bv[0], graded_bv[1]),
    ])

    ns_d = np.arange(1, N + 1)
    terms_d = 1.0 / (ns_d * a[1: N + 1])

    verdicts = [
        _verdict("Thm43.a", _grade_growth_to_inf(ns_all, a[: N + 1], cfg)),
        _verdict("Thm43.b", _grade_summable(ns_b, slack, cfg)),
        ConditionVerdict("Thm43.c", c_verdict,
                         {"bounded": graded_bounded[1], "bv": graded_bv[1]}),
        _verdict("Thm43.d", _grade_summable(ns_d, terms_d, cfg)),
    ]
    return verdicts


# --- export ----------------------------------------------------------------


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, np.floating):
        return _json_safe(float(value))
    if isinstance(value, np.integer):
        return int(value)
    return value


def verdicts_to_json(verdicts, extra=None):
    """Serializable report: one entry per condition plus the conjunction."""
    report = {
        "overall": overall_verdict(verdicts),
        "conditions": [
            {"condition": v.condition, "verdict": v.verdict,
             "evidence": _json_safe(v.evidence)}
            for v in verdicts
        ],
    }
    if extra:
        report.update(_json_safe(extra))
    return report


def write_trace_csv(path, trace):
    """DiagnosticsTrace CSV: (n, S_over_Shat, F, sumFminus, sum_inv_a_alpha, wmin, wmax)."""
    _write_columns(path, ["n", "S_over_Shat", "F", "sumFminus",
                          "sum_inv_a_alpha", "wmin", "wmax"],
                   trace.n, trace.s_over_shat, trace.F, trace.sum_F_minus,
                   trace.sum_inv_a_alpha, trace.w_min, trace.w_max)
