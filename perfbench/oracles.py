"""Correctness checks for the outputs of one pass.

* Spectra: eigenvalues against ``scipy.linalg.eigh_tridiagonal`` on
  coefficients built here from the families' closed forms, so the oracle
  shares no code with the package; weights must sum to 1.
* Densities: per-bin counts against the scipy eigenvalues.
* Eigenvector traces: the normalised direction of (u(n), u(n+1)) against
  a plain three-term recurrence written here; the diagnostics trace must
  hold exactly the S(n) values of ``diagnostics.s_sequence`` on the same
  inputs, whose two closed forms must agree (the dual-form gap).
* Transforms: every table entry against its closed form.
* Checks: every verdict against the one the seed commit gave
  (``verdicts.json``).

Each check returns {"ok": bool, "values": {name: number}, "detail": str}.
"""

import csv
import functools
import json
import math

import numpy as np
from scipy.linalg import eigh_tridiagonal

from workloads import option, verdict_key

# the bound each recorded value must stay within for the job to count as correct
TOLERANCES = {
    "eig_err": 1e-10,        # max |lam_k - lam_k(scipy)| / Gershgorin radius
    "weight_sum_err": 1e-6,  # |sum of Gauss weights - 1|
    "density_miss": 0,       # bins whose count differs from scipy's (edge ties excused)
    "eigvec_err": 1e-8,      # max |direction - plain recurrence direction|
    "dual_gap": 1e-10,       # max |S32 - S31| / max(|S|, a alpha)
    "s_mismatch": 0,         # diagnostics rows that differ from s_sequence
    "transform_err": 1e-10,  # max |entry - closed form| / max(1, |closed form|)
    "verdict_mismatch": 0,   # conditions graded differently from the seed commit
}


def _read_columns(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], list(zip(*rows[1:]))


def coefficients(spec, n):
    """(a, b) for indices 0..n-1 of the catalog families the workloads use."""
    family, _, rest = spec.partition(":")
    params = dict(item.split("=", 1) for item in rest.split(",")) if rest else {}
    k = np.arange(n, dtype=float)
    b = np.zeros(n)
    if family == "chihara":
        a, b = k + 1.0, 2.0 * k + 1.0
    elif family == "pow":
        a = (k + 1.0) ** float(params["alpha"])
    elif family == "paired" and params.get("inner") == "pow":
        # a(0) = eps, a(2j-1) = a(2j) = j**alpha
        a = np.floor((k + 1.0) / 2.0) ** float(params["alpha"])
        a[0] = float(params["eps"])
    else:
        raise ValueError("no closed form for family %r" % spec)
    return a, b


def _result(values, ok, detail=""):
    return {"ok": bool(ok), "values": values, "detail": detail}


def _within(values):
    bad = [k for k, v in values.items() if not v <= TOLERANCES[k]]
    return not bad, ", ".join("%s=%r" % (k, values[k]) for k in bad)


@functools.lru_cache(maxsize=1)
def _reference_spectrum(spec, size):
    """scipy eigenvalues and Gershgorin radius of the order-``size`` truncation.

    Cached because every pass of a run checks the same truncation; at
    order 20000 this takes seconds.
    """
    a, b = coefficients(spec, size)
    off = np.concatenate(([0.0], a[:-1], [0.0]))
    radius = float(np.max(np.abs(b) + off[:-1] + off[1:]))
    # sterf: values only, the fastest LAPACK path for a full spectrum
    return eigh_tridiagonal(b, a[:-1], eigvals_only=True,
                            lapack_driver="sterf"), radius


def check_spectrum(job_dir, argv):
    spec, size = option(argv, "--seq"), int(option(argv, "--size"))
    ref, radius = _reference_spectrum(spec, size)
    if option(argv, "--window") is not None:
        return _check_density(job_dir, ref, radius)
    _, cols = _read_columns(job_dir / "spectrum.csv")
    x = np.array(cols[1], dtype=float)
    if len(x) != size:
        return _result({}, False, "%d eigenvalues for order %d" % (len(x), size))
    values = {"eig_err": float(np.max(np.abs(x - ref))) / radius}
    if "--weights" in argv:
        w = np.array(cols[2], dtype=float)
        values["weight_sum_err"] = abs(math.fsum(w) - 1.0)
        # weights of nodes far out in the tail underflow to exactly 0
        if not np.all(np.isfinite(w) & (w >= 0.0)):
            return _result(values, False, "negative or non-finite weight")
    return _result(values, *_within(values))


def _check_density(job_dir, ref, radius):
    _, cols = _read_columns(job_dir / "density.csv")
    lo = np.array(cols[0], dtype=float)
    hi = np.array(cols[1], dtype=float)
    counts = np.array(cols[2], dtype=int)
    edges = np.append(lo, hi[-1])
    ref_counts = np.diff(np.searchsorted(ref, edges, side="left"))
    # an eigenvalue within rounding of an edge may fall on either side
    near = np.min(np.abs(ref[:, None] - edges[None, :]), axis=0) <= 1e-12 * radius
    excused = near[:-1] | near[1:]
    miss = int(np.sum((counts != ref_counts) & ~excused))
    if not np.all(hi[:-1] == lo[1:]):
        return _result({"density_miss": miss}, False, "bins are not contiguous")
    values = {"density_miss": miss}
    return _result(values, *_within(values))


def _plain_directions(a, b, lam, n):
    """Direction of (u(k), u(k+1)) for k < n from u(0) = 1, u(1) = (lam - b0)/a0."""
    out = np.empty(n)
    u_prev, u = 1.0, (lam - b[0]) / a[0]
    for k in range(n):
        r = math.hypot(u_prev, u)
        out[k] = u_prev / r
        u_prev, u = u / r, ((lam - b[k + 1]) * u - a[k] * u_prev) / (r * a[k + 1])
    return out


def check_analyze(job_dir, argv):
    from jacobi_spectra import diagnostics, recurrence, sequences
    spec, n = option(argv, "--seq"), int(option(argv, "--n"))
    alpha_choice = option(argv, "--alpha", "a")
    a, b = coefficients(spec, n + 2)
    seq = sequences.instantiate(spec)
    alpha = (sequences.WeightSequence.ones() if alpha_choice == "one"
             else sequences.WeightSequence.from_a(seq))
    values = {"eigvec_err": 0.0, "dual_gap": 0.0, "s_mismatch": 0}
    for text in option(argv, "--lambda").split(","):
        lam = float(text)
        tag = ("%g" % lam).replace("-", "m").replace(".", "p")
        _, cols = _read_columns(job_dir / ("eigvec_lambda_%s.csv" % tag))
        if len(cols[0]) != n + 1:
            return _result(values, False, "eigvec trace has %d rows" % len(cols[0]))
        sign = np.array(cols[1], dtype=float)
        log_abs = np.array(cols[2], dtype=float)
        with np.errstate(invalid="ignore"):
            half_norm = 0.5 * np.logaddexp(2.0 * log_abs[:-1], 2.0 * log_abs[1:])
            direction = np.where(sign[:-1] == 0.0, 0.0,
                                 sign[:-1] * np.exp(log_abs[:-1] - half_norm))
        ref = _plain_directions(a, b, lam, n)
        values["eigvec_err"] = max(values["eigvec_err"],
                                   float(np.max(np.abs(direction - ref))))

        trace = diagnostics.s_sequence(seq, alpha, lam,
                                       recurrence.poly_init(seq, lam), n)
        gap = np.abs(trace.s_over_shat - trace.s31_over_shat) / np.maximum(
            np.abs(trace.s_over_shat), trace.a_alpha)
        values["dual_gap"] = max(values["dual_gap"], float(np.max(gap)))
        _, cols = _read_columns(job_dir / ("diagnostics_lambda_%s.csv" % tag))
        written = cols[1]
        expected = ["%.17g" % s for s in trace.s_over_shat]
        values["s_mismatch"] += (sum(x != y for x, y in zip(written, expected))
                                 + abs(len(written) - len(expected)))
    return _result(values, *_within(values))


def check_verdict(job_dir, argv, expected):
    with open(job_dir / "verdict.json") as fh:
        report = json.load(fh)
    got = {"overall": report["overall"],
           "conditions": {c["condition"]: c["verdict"] for c in report["conditions"]}}
    want = expected.get(verdict_key(argv))
    if want is None:
        return _result({}, False, "no recorded verdict for %s" % verdict_key(argv))
    miss = int(got["overall"] != want["overall"]) + sum(
        got["conditions"].get(k) != v for k, v in want["conditions"].items())
    miss += len(set(got["conditions"]) - set(want["conditions"]))
    values = {"verdict_mismatch": miss}
    ok, detail = _within(values)
    return {"ok": ok, "values": values, "detail": detail, "verdict": got}


_RATES = {"linear": (lambda k: k + 1.0, lambda k: k),
          "quadratic": (lambda k: (k + 1.0) ** 2, lambda k: k ** 2)}


def _transform_reference(kind, argv, n):
    k = np.arange(n, dtype=float)
    if kind == "bd":
        fields = dict(item.split("=") for item in option(argv, "--bd").split(","))
        lam, mu = _RATES[fields["lam"]][0], _RATES[fields["mu"]][1]
        steps = np.log(lam(k)) - np.log(mu(k + 1.0))
        log_pi = np.concatenate(([0.0], np.cumsum(steps)[:-1]))
        return [np.sqrt(lam(k) * mu(k + 1.0)), -(lam(k) + mu(k)), log_pi]
    a, b = coefficients(option(argv, "--seq"), 2 * n + 3)
    if kind == "flip":
        return [a[:n], -b[:n]]
    a_prev = np.concatenate(([0.0], a))  # a(-1) = 0
    even, odd = 2 * k.astype(int), 2 * k.astype(int) + 1
    if kind == "even":
        return [a[even] * a[odd], a_prev[even] ** 2 + a[even] ** 2]
    return [a[odd] * a[odd + 1], a[even] ** 2 + a[odd] ** 2]


def check_transform(job_dir, argv):
    kind, n = argv[1], int(option(argv, "--n"))
    _, cols = _read_columns(job_dir / ("%s.csv" % kind))
    if len(cols[0]) != n:
        return _result({}, False, "%d rows for n=%d" % (len(cols[0]), n))
    err = 0.0
    for col, ref in zip(cols[1:], _transform_reference(kind, argv, n)):
        got = np.array(col, dtype=float)
        err = max(err, float(np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref)))))
    values = {"transform_err": err}
    return _result(values, *_within(values))


def check_job(job_dir, argv, expected_verdicts):
    """Dispatch on the command; a check that raises is a failed check."""
    try:
        command = argv[0]
        if command == "spectrum":
            return check_spectrum(job_dir, argv)
        if command == "analyze":
            return check_analyze(job_dir, argv)
        if command == "check":
            return check_verdict(job_dir, argv, expected_verdicts)
        if command == "transform":
            return check_transform(job_dir, argv)
        return _result({}, False, "no oracle for command %r" % command)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return _result({}, False, "%s: %s" % (type(exc).__name__, exc))
