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
are pass / fail / inconclusive with the thresholds documented at the
module constants ``SUMMABLE_DECREASE`` .. ``LIMSUP_MARGIN``.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .recurrence import (_LOG_HUGE, _elementwise, _propagate_rows,
                         _write_columns)
# unused here; perfbench/tracing.py patches diagnostics.propagate
from .recurrence import propagate  # noqa: F401
from .sequences import _first_iterlog_valid, _iterlogs, _power

__all__ = [
    "DiagnosticsTrace",
    "ConditionVerdict",
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
    states: np.ndarray             # _propagate_rows (x, y, logscale), n = 0..N
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


def _check_finite(a, al, lam_b, factors):
    """DomainError at the first n = 1..N where one of the named factors,
    (name, array over n = 1..N) pairs, is not finite."""
    bad = [(int(np.argmin(np.isfinite(v))), name, v) for name, v in factors
           if not np.isfinite(v).all()]
    if bad:
        i, name, values = min(bad, key=lambda entry: entry[0])
        n = i + 1
        raise DomainError(
            "diagnostics overflow at n = %d: %s is %r, with a(%d) = %r, "
            "a(%d) = %r, alpha(%d) = %r, alpha(%d) = %r and lam - b(%d) = %r"
            % (n, name, float(values[i]), n - 1, float(a[n - 1]), n,
               float(a[n]), n - 1, float(al[n - 1]), n, float(al[n]), n,
               float(lam_b[i])))


def s_sequence(seq, alpha, lam, init, n_max, f_exclusion=1e-12):
    """Compute the diagnostics trace for n = 1 .. n_max.

    Both closed forms of S(n) are evaluated: the (u(n), u(n+1)) form
    directly from the current normalized state, and the (u(n-1), u(n))
    form from the previous state rescaled to the current magnitude.  Their
    agreement is a correctness invariant checked by the test-suite.

    The state-free factors of both forms and the w-bounds are checked
    before any arithmetic on the states, and the growth of Shat from n to
    n + 1 before F is scaled by it: a :class:`DomainError` names the first
    n where one of them is beyond binary64.  A non-finite state (from a
    NaN or infinite ``init``) is carried through as NaN.
    """
    if n_max < 2:
        raise DomainError("n_max must be >= 2")
    lam, N = float(lam), n_max
    a, b_all = seq.a_array(N + 1), seq.b_array(N + 1)
    states = _propagate_rows(a, b_all, lam, init.u0, init.u1)
    x, y, logscale = states.T
    b = b_all[1:]
    al = alpha.array(N + 1)
    a_n, a_nm1, al_nm1 = a[1:], a[:-1], al[:-1]

    with np.errstate(all="ignore"):
        lam_b = lam - b
        a_al = a * al                    # a(n) alpha(n), n = 0..N
        ratio_a = al_nm1 / a_nm1 * a_n
        c_yy, c_xy = ratio_a * a_n, ratio_a * lam_b
        c_um1_u = lam_b * al_nm1
        w_lo, w_hi = _w_bounds(a, al, b, lam)
    _check_finite(a, al, lam_b, [
        ("a(n-1) alpha(n-1)", a_al[:-1]),
        ("a(n) alpha(n)", a_al[1:]),
        ("(alpha(n-1)/a(n-1)) a(n)**2", c_yy),
        ("(alpha(n-1)/a(n-1)) a(n) (lam - b(n))", c_xy),
        ("(lam - b(n)) alpha(n-1)", c_um1_u),
        ("w_min(n)", w_lo),
        ("w_max(n)", w_hi)])
    a_alpha = a_al[1:]

    s32 = (c_yy * y[1:] * y[1:]
           + a_alpha * x[1:] * x[1:]
           - c_xy * y[1:] * x[1:])
    rho = _elementwise(math.exp, logscale[:-1] - logscale[1:])
    um1 = x[:-1] * rho
    u = y[:-1] * rho
    s31 = (a_al[:-1] * um1 * um1
           + a_alpha * u * u
           - c_um1_u * um1 * u)
    # F reads none of these: freed, they lower the traced peak of
    # s_sequence at n = 20000 from 4.5 to 3.4 MB
    del ratio_a, c_yy, c_xy, c_um1_u, rho, um1, u
    log_shat = 2.0 * logscale[1:]

    # F(n) = S(n+1)/S(n) - 1 with the Shat rescaling between steps; the
    # comparison is negated so that a NaN S(n) is kept, not excluded
    F = np.full(N, np.nan)
    kept = np.flatnonzero(~(np.abs(s32[:-1]) < f_exclusion * a_alpha[:-1]))
    log_growth = log_shat[kept + 1] - log_shat[kept]
    over = log_growth > _LOG_HUGE
    if over.any():
        raise DomainError("diagnostics overflow at n = %d: Shat(n+1)/Shat(n) "
                          "is beyond binary64" % (kept[np.argmax(over)] + 1))
    growth = _elementwise(math.exp, log_growth)
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


# Thresholds for grading asymptotic evidence from finite data.  A
# nonnegative series is graded *divergent* when the median ratio of
# successive geometric window sums is at least DIVERGENT_RATIO; *summable*
# when it is at most 1/SUMMABLE_DECREASE and the log-log slope of its terms
# is at most SUMMABLE_SLOPE.  Window maxima grade growth (GROWTH_FACTOR) and
# flatness (FLAT_FACTOR), and the tail's oscillation grades a limit
# (LIMIT_OSC_TOL) and its maximum a limsup (LIMSUP_MARGIN).
SUMMABLE_DECREASE = 1.25
SUMMABLE_SLOPE = -1.1
DIVERGENT_RATIO = 0.98
GROWTH_FACTOR = 1.2
FLAT_FACTOR = 1.02
LIMIT_OSC_TOL = 1e-3
LIMSUP_MARGIN = 1e-3


def _window_maxima(values):
    """Maxima of values at n = 0..N over [N/4, N/2) and [N/2, N]."""
    N = len(values) - 1
    return (float(np.max(values[N // 4: N // 2])),
            float(np.max(values[N // 2:])))


def _tail(values):
    """The last quarter of the values, where limits are graded."""
    return values[3 * len(values) // 4:]


def _loglog_slope(ns, terms):
    mask = (terms > 0.0) & (ns >= int(ns[-1]) // 4)
    if np.sum(mask) < 5:
        return float("nan")
    slope = np.polyfit(np.log(ns[mask]), np.log(terms[mask]), 1)[0]
    return float(slope)


def _grade_summable(terms, first=0):
    """Evidence verdict for sum(terms) < infinity, terms >= 0 at n = first..N.

    Window sums are taken over four geometric windows ending at N; the
    *median* of successive window-sum ratios drives the verdict, which
    keeps staircase-shaped term sequences (constant over long stretches,
    with rare jumps) from fooling a single dyadic comparison.
    """
    ns = np.arange(first, first + len(terms), dtype=float)
    N = int(ns[-1])
    edges = [N // 16, N // 8, N // 4, N // 2, N]
    sums = [float(np.sum(terms[(ns >= lo) & ((ns < hi) | (hi == N))]))
            for lo, hi in zip(edges[:-1], edges[1:])]
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
    if median_ratio >= DIVERGENT_RATIO:
        return FAIL, evidence
    if median_ratio <= 1.0 / SUMMABLE_DECREASE and \
            (math.isnan(slope) or slope <= SUMMABLE_SLOPE):
        return PASS, evidence
    return INCONCLUSIVE, evidence


def _grade_divergent(terms):
    """Evidence verdict for sum(terms) = infinity (terms >= 0 from n = 0)."""
    verdict, evidence = _grade_summable(terms)
    flipped = {PASS: FAIL, FAIL: PASS, INCONCLUSIVE: INCONCLUSIVE}[verdict]
    return flipped, evidence


def _grade_growth_to_inf(values):
    m1, m2 = _window_maxima(values)
    evidence = {"window_maxima": [m1, m2]}
    if m1 > 0.0 and m2 >= GROWTH_FACTOR * m1:
        return PASS, evidence
    if m2 <= FLAT_FACTOR * m1:
        return FAIL, evidence
    return INCONCLUSIVE, evidence


def _grade_bounded(values):
    m1, m2 = _window_maxima(np.abs(values))
    evidence = {"window_maxima": [m1, m2]}
    if m2 == 0.0 or (m1 > 0.0 and m2 <= FLAT_FACTOR * m1):
        return PASS, evidence
    if m1 > 0.0 and m2 >= GROWTH_FACTOR * m1:
        return FAIL, evidence
    return INCONCLUSIVE, evidence


def _grade_limit(values, target=None):
    tail = _tail(values)
    osc = float(np.max(tail) - np.min(tail))
    estimate = float(np.mean(tail))
    evidence = {"tail_oscillation": osc, "estimate": estimate}
    err = 0.0 if target is None else abs(estimate - target)
    if osc < LIMIT_OSC_TOL and err < LIMIT_OSC_TOL:
        return PASS, evidence
    if osc > 100 * LIMIT_OSC_TOL or err > 100 * LIMIT_OSC_TOL:
        return FAIL, evidence
    return INCONCLUSIVE, evidence


def _grade_limsup_below(values, bound):
    m = float(np.max(_tail(values)))
    evidence = {"tail_max": m, "bound": bound}
    if m < bound * (1.0 - LIMSUP_MARGIN):
        return PASS, evidence
    if m >= bound:
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


# --- theorem checkers ------------------------------------------------------


def _checker_size(n_max):
    """N of a checker graded on n = 0..N; N >= 100."""
    if n_max < 100:
        raise DomainError("n_max must be >= 100")
    return int(n_max)


def check_theorem_A(seq, alpha, n_max):
    """Grade the seven hypotheses of the main continuous-spectrum theorem."""
    N = _checker_size(n_max)
    a, b = seq.a_array(N + 2), seq.b_array(N + 2)
    al = alpha.array(N + 2)

    # terms at n = 1..N-1, needing n-1 and n+1
    terms_b = negative_part((a[2: N + 1] / a[1:N]) * (al[2: N + 1] / al[1:N])
                            - (a[1:N] / a[: N - 1]) * (al[: N - 1] / al[1:N]))
    terms_c = np.abs(a[:N] / a[1: N + 1] - al[:N] / al[1: N + 1]) / a[:N]
    # from n = 1: the n = 0 summand vanishes (alpha(-1) = 0)
    terms_d = np.abs(b[2: N + 2] / a[1: N + 1]
                     - (b[1: N + 1] / a[:N]) * (al[:N] / al[1: N + 1]))
    # a * al may overflow to inf: 1/inf = 0.0 is the graded term, and the
    # true one is below 5.6e-309
    with np.errstate(over="ignore"):
        terms_e = 1.0 / (a[: N + 1] * al[: N + 1])
    ratio_f = (al[:N] / al[1: N + 1]) * (a[1: N + 1] / a[:N])

    return [
        ConditionVerdict("ThmA.a", *_grade_growth_to_inf(a[: N + 1])),
        ConditionVerdict("ThmA.b", *_grade_summable(terms_b, first=1)),
        ConditionVerdict("ThmA.c", *_grade_summable(terms_c, first=1)),
        ConditionVerdict("ThmA.d", *_grade_summable(terms_d, first=1)),
        ConditionVerdict("ThmA.e", *_grade_divergent(terms_e)),
        ConditionVerdict("ThmA.f", *_grade_limit(ratio_f, target=1.0)),
        ConditionVerdict("ThmA.g", *_grade_limsup_below(
            np.abs(b[: N + 1]) / a[: N + 1], 2.0)),
    ]


def check_corollary_B(seq, n_max):
    """The alpha = a specialization: five directly checkable hypotheses."""
    N = _checker_size(n_max)
    a, b = seq.a_array(N + 2), seq.b_array(N + 2)

    # a ratio r >= 1, inf included, has no negative part of r**2 - 1:
    # clamped at 1, its square cannot overflow (r > 1.34e154 did)
    with np.errstate(over="ignore"):
        terms_c = negative_part(
            _power(np.minimum(a[1: N + 2] / a[: N + 1], 1.0), 2.0) - 1.0)
    terms_e = np.abs(b[1: N + 2] - b[: N + 1]) / a[: N + 1]
    # a**2 may overflow to inf: 1/inf = 0.0 is the graded term, and the
    # true one is below 5.6e-309
    with np.errstate(over="ignore"):
        terms_b = 1.0 / a[: N + 1] ** 2

    return [
        ConditionVerdict("CorB.a", *_grade_growth_to_inf(a[: N + 1])),
        ConditionVerdict("CorB.b", *_grade_divergent(terms_b)),
        ConditionVerdict("CorB.c", *_grade_summable(terms_c)),
        ConditionVerdict("CorB.d", *_grade_limsup_below(
            np.abs(b[: N + 1]) / a[: N + 1], 2.0)),
        ConditionVerdict("CorB.e", *_grade_summable(terms_e)),
    ]


@dataclass
class CorollaryCResult:
    verdicts: list
    M: float
    M_dispersion: float
    ratio: np.ndarray          # a(n)**2 / (b(n) b(n+1)); NaN where undefined
    ratio_tail: float
    undefined_ratios: int


def _grade_slow_growth(a, N, prefix):
    """Hypotheses a-c of Corollary C and of Theorem 5.1, on a(0..N+1).

    a(n) -> inf, sum 1/a(n) = inf, and the negative parts of
    a(n+1)/a(n) - 1 summable; verdict ids are ``prefix`` + ".a" to ".c".
    """
    terms_c = negative_part(a[1: N + 2] / a[: N + 1] - 1.0)
    return [
        ConditionVerdict(prefix + ".a", *_grade_growth_to_inf(a[: N + 1])),
        ConditionVerdict(prefix + ".b", *_grade_divergent(1.0 / a[: N + 1])),
        ConditionVerdict(prefix + ".c", *_grade_summable(terms_c)),
    ]


def check_corollary_C(seq, n_max):
    """Essential-spectrum half-line evidence, plus the one-quarter ratio."""
    N = _checker_size(n_max)
    a, b = seq.a_array(N + 2), seq.b_array(N + 2)

    m_terms = a[:N] - b[1: N + 1] + a[1: N + 1]     # n = 1..N
    verdicts = _grade_slow_growth(a, N, "CorC") + [
        ConditionVerdict("CorC.d", *_grade_limit(m_terms))]

    denom = b[: N + 1] * b[1: N + 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(denom > 0.0, a[: N + 1] ** 2 / denom, np.nan)
    valid = np.isfinite(ratio)
    ratio_tail = float(ratio[valid][-1]) if np.any(valid) else float("nan")
    limit = verdicts[-1].evidence
    return CorollaryCResult(
        verdicts=verdicts,
        M=limit["estimate"],
        M_dispersion=limit["tail_oscillation"],
        ratio=ratio,
        ratio_tail=ratio_tail,
        undefined_ratios=int(np.sum(~valid)),
    )


def check_theorem_42(seq, n_max):
    """Bounded-variation hypotheses (the alpha == 1 specialization).

    The source result states a plain limit in its last hypothesis; we grade
    a limsup for uniformity with the main theorem and record that choice in
    the evidence.
    """
    N = _checker_size(n_max)
    a, b = seq.a_array(N + 2), seq.b_array(N + 2)

    bv_sets = {
        "a_ratio": a[: N + 1] / a[1: N + 2],
        "inv_a": 1.0 / a[: N + 2],
        "b_over_a": b[: N + 2] / a[: N + 2],
    }
    # bounded variation: the terms |v(n) - v(n-1)| from n = 1
    bv_grades = {k: _grade_summable(np.abs(np.diff(v)), first=1)
                 for k, v in bv_sets.items()}
    bv_verdict = overall_verdict(
        [ConditionVerdict(k, *g) for k, g in bv_grades.items()])

    d_verdict, d_evidence = _grade_limsup_below(np.abs(b[: N + 1]) / a[: N + 1],
                                                2.0)
    d_evidence["note"] = "limsup graded where the source states a limit"

    return [
        ConditionVerdict("Thm42.a", *_grade_growth_to_inf(a[: N + 1])),
        ConditionVerdict("Thm42.b", *_grade_divergent(1.0 / a[: N + 1])),
        ConditionVerdict("Thm42.c", bv_verdict,
                         {k: {"verdict": g[0], **g[1]}
                          for k, g in bv_grades.items()}),
        ConditionVerdict("Thm42.d", d_verdict, d_evidence),
    ]


def check_theorem_43(seq, K, n_max, n_start=None):
    """Iterated-log envelope hypotheses.

    The envelope slack c(n) is reconstructed as the positive excess of
    a(n)/a(n-1) outside [1 - c, 1 + 1/n + sum_j 1/(n g_j(n)) + c] and its
    summability graded.
    """
    N = _checker_size(n_max)
    K = int(K)
    if n_start is None:
        n_start = max(2, _first_iterlog_valid(K))
    if n_start > N:
        raise DomainError("the K=%d envelope starts at n=%d, past n_max=%d"
                          % (K, n_start, N))
    a, b = seq.a_array(N + 2), seq.b_array(N + 2)

    ns_b = np.arange(n_start, N + 1)
    ratio = a[n_start: N + 1] / a[n_start - 1: N]
    envelope = 1.0 + 1.0 / ns_b
    for g_j in _iterlogs(ns_b.astype(float), K)[1:]:
        envelope += 1.0 / (ns_b * g_j)
    slack = np.maximum(0.0, np.maximum(1.0 - ratio, ratio - envelope))

    terms_bv = np.abs(b[1: N + 2] - b[: N + 1]) / a[: N + 1]
    graded_bounded = _grade_bounded(b[: N + 1])
    graded_bv = _grade_summable(terms_bv)
    c_verdict = overall_verdict([ConditionVerdict("bounded", *graded_bounded),
                                 ConditionVerdict("bv", *graded_bv)])

    terms_d = 1.0 / (np.arange(1, N + 1) * a[1: N + 1])

    return [
        ConditionVerdict("Thm43.a", *_grade_growth_to_inf(a[: N + 1])),
        ConditionVerdict("Thm43.b", *_grade_summable(slack, first=n_start)),
        ConditionVerdict("Thm43.c", c_verdict,
                         {"bounded": graded_bounded[1], "bv": graded_bv[1]}),
        ConditionVerdict("Thm43.d", *_grade_summable(terms_d, first=1)),
    ]


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
