"""Structural transformations of Jacobi matrices.

Three constructions:

* sign flip: (a, b) -> (a, -b), which conjugates the operator to its
  negative via the diagonal matrix diag((-1)**n), so spectra reflect;
* even/odd restrictions of the square: for b == 0, the square of the
  operator leaves the even and odd coordinate subspaces invariant and the
  restrictions are again Jacobi matrices with

      a_e(n) = a(2n)   a(2n+1),    b_e(n) = a(2n-1)**2 + a(2n)**2,
      a_o(n) = a(2n+1) a(2n+2),    b_o(n) = a(2n)**2  + a(2n+1)**2,

  with the global convention a(-1) = 0 entering b_e(0);
* birth-death conversion: the generator Q built from rates (lambda, mu)
  is similar, via the diagonal sqrt(pi) weights, to the symmetric Jacobi
  matrix with abar(n) = sqrt(lambda(n) mu(n+1)), bbar(n) = -(lambda(n) +
  mu(n)).

The even/odd spectral identities need 0 to be a non-eigenvalue of both the
matrix and its first-coefficient-dropped variant; this package can only
gather l2 partial-sum evidence for that side condition (see
``recurrence.l2_partial_sums``), it does not assert it.
"""

import csv
import math

import numpy as np

from .errors import DomainError, ParseError
from . import diagnostics as _diag
from .diagnostics import ConditionVerdict, overall_verdict
from .sequences import SequencePair

__all__ = [
    "BirthDeathRates",
    "PiWeights",
    "flip",
    "shift",
    "square_even",
    "square_odd",
    "bd_to_jacobi",
    "bd_interleaved",
    "bd_square_root_route",
    "bd_check_theorem_51",
    "load_rates_csv",
    "parse_rates",
]


def flip(seq):
    """Negate the diagonal: spectra of the result are the negated spectra."""
    return SequencePair(seq.a, lambda n: -seq.b(n),
                        name="flip(%s)" % seq.name, length=seq.length)


def shift(seq):
    """Drop a(0): the variant with coefficients a(n+1) and the same b."""
    length = None if seq.length is None else seq.length - 1
    return SequencePair(lambda n: seq.a(n + 1), seq.b,
                        name="shift(%s)" % seq.name, length=length)


def _require_b_zero(seq, n):
    if seq.b(n) != 0.0:
        raise DomainError(
            "even/odd restriction requires b == 0; b(%d) = %r" % (n, seq.b(n)))


def square_even(seq):
    """Even restriction of the squared operator (requires b == 0)."""

    def a_fn(n):
        _require_b_zero(seq, 2 * n)
        _require_b_zero(seq, 2 * n + 1)
        return seq.a(2 * n) * seq.a(2 * n + 1)

    def b_fn(n):
        _require_b_zero(seq, 2 * n)
        prev = seq.a(2 * n - 1) if n > 0 else 0.0  # a(-1) = 0 convention
        return prev ** 2 + seq.a(2 * n) ** 2

    length = None if seq.length is None else seq.length // 2
    return SequencePair(a_fn, b_fn, name="even(%s)" % seq.name, length=length)


def square_odd(seq):
    """Odd restriction of the squared operator (requires b == 0).

    Agrees with ``square_even(shift(seq))`` in every entry except b(0),
    where the dropped leading coefficient contributes an extra a(0)**2.
    """

    def a_fn(n):
        _require_b_zero(seq, 2 * n + 1)
        _require_b_zero(seq, 2 * n + 2)
        return seq.a(2 * n + 1) * seq.a(2 * n + 2)

    def b_fn(n):
        _require_b_zero(seq, 2 * n + 1)
        return seq.a(2 * n) ** 2 + seq.a(2 * n + 1) ** 2

    length = None if seq.length is None else (seq.length - 1) // 2
    return SequencePair(a_fn, b_fn, name="odd(%s)" % seq.name, length=length)


# --- birth-death processes -------------------------------------------------


class BirthDeathRates:
    """Birth rates lambda(n) > 0 and death rates mu with mu(0) >= 0."""

    def __init__(self, lam_fn, mu_fn, name="rates", length=None):
        self._lam_fn = lam_fn
        self._mu_fn = mu_fn
        self.name = name
        self.length = length

    def lam(self, n):
        value = float(self._lam_fn(n))
        if not value > 0.0:
            raise DomainError("lambda(%d) = %r must be positive" % (n, value))
        return value

    def mu(self, n):
        value = float(self._mu_fn(n))
        if n == 0:
            if value < 0.0:
                raise DomainError("mu(0) must be >= 0, got %r" % value)
        elif not value > 0.0:
            raise DomainError("mu(%d) = %r must be positive" % (n, value))
        return value

    @classmethod
    def from_tables(cls, lam_values, mu_values, name="rates"):
        lam_values = [float(v) for v in lam_values]
        mu_values = [float(v) for v in mu_values]
        n = min(len(lam_values), len(mu_values))
        return cls(lam_values.__getitem__, mu_values.__getitem__,
                   name=name, length=n)


class PiWeights:
    """The weights pi(0) = 1, pi(n) = prod lambda / prod mu, stored as logs.

    The exact ratio recursion pi(n+1)/pi(n) = lambda(n)/mu(n+1) holds in
    log arithmetic, which survives geometric growth or decay.
    """

    def __init__(self, rates):
        self._rates = rates
        self._log_pi = [0.0]

    def log_pi(self, n):
        while len(self._log_pi) <= n:
            k = len(self._log_pi) - 1
            self._log_pi.append(
                self._log_pi[-1]
                + math.log(self._rates.lam(k)) - math.log(self._rates.mu(k + 1)))
        return self._log_pi[n]

    def pi(self, n):
        return math.exp(self.log_pi(n))

    def sqrt_ratio(self, n):
        """sqrt(pi(n+1)/pi(n)), the entry ratio of the similarity diagonal."""
        return math.exp(0.5 * (self.log_pi(n + 1) - self.log_pi(n)))


def bd_to_jacobi(rates):
    """Symmetrize the generator: returns (SequencePair, PiWeights).

    The returned matrix has abar(n) = sqrt(lambda(n) mu(n+1)) and
    bbar(n) = -(lambda(n) + mu(n)); it is similar to the generator via the
    diagonal sqrt(pi) isometry, so spectra agree.
    """
    length = None if rates.length is None else rates.length - 1

    def a_fn(n):
        return math.sqrt(rates.lam(n) * rates.mu(n + 1))

    def b_fn(n):
        return -(rates.lam(n) + rates.mu(n))

    pair = SequencePair(a_fn, b_fn, name="bd(%s)" % rates.name, length=length)
    return pair, PiWeights(rates)


def bd_interleaved(rates):
    """The interleaved sequence (mu(1), lambda(1), mu(2), lambda(2), ...)."""

    def a_fn(n):
        k = n // 2 + 1
        return rates.mu(k) if n % 2 == 0 else rates.lam(k)

    length = None
    if rates.length is not None:
        length = 2 * (rates.length - 1)
    return SequencePair(a_fn, lambda n: 0.0,
                        name="interleaved(%s)" % rates.name, length=length)


def bd_square_root_route(rates):
    """Which squared-restriction realizes the symmetrized generator.

    Returns ("even", seq) when mu(0) = 0: the generator is the even
    restriction of the square of the b == 0 matrix with coefficients
    (sqrt(lambda(0)), sqrt(mu(1)), sqrt(lambda(1)), ...).  Returns
    ("odd", seq) when mu(0) > 0, with the extra leading sqrt(mu(0)).
    """
    mu0 = rates.mu(0)

    if mu0 == 0.0:
        def a_fn(n):
            k, odd = divmod(n, 2)
            return math.sqrt(rates.lam(k) if not odd else rates.mu(k + 1))
        route = "even"
    else:
        def a_fn(n):
            if n == 0:
                return math.sqrt(mu0)
            k, odd = divmod(n - 1, 2)
            return math.sqrt(rates.lam(k) if not odd else rates.mu(k + 1))
        route = "odd"

    length = None if rates.length is None else 2 * rates.length - 1
    return route, SequencePair(a_fn, lambda n: 0.0,
                               name="bd-root(%s)" % rates.name, length=length)


def bd_check_theorem_51(rates, n_max, config=None):
    """Grade the generator-spectrum hypotheses on the interleaved sequence.

    On an overall pass the predicted conclusion is that the generator is
    self-adjoint with no eigenvalues and spectrum (-inf, 0].
    """
    cfg = config or _diag.DEFAULT_CONFIG
    if n_max < 100:
        raise DomainError("n_max must be >= 100")
    N = int(n_max)
    a = bd_interleaved(rates).a_array(N + 2)
    ns = np.arange(0, N + 1)
    terms_c = _diag.negative_part(a[1: N + 2] / a[: N + 1] - 1.0)
    verdicts = [
        ConditionVerdict("Thm51.a",
                         *_diag._grade_growth_to_inf(ns, a[: N + 1], cfg)),
        ConditionVerdict("Thm51.b",
                         *_diag._grade_divergent(ns, 1.0 / a[: N + 1], cfg)),
        ConditionVerdict("Thm51.c", *_diag._grade_summable(ns, terms_c, cfg)),
    ]
    conclusion = ("sigma(Q) = (-inf, 0]" if overall_verdict(verdicts) == "pass"
                  else None)
    return verdicts, conclusion


# --- rates input -----------------------------------------------------------

_RATE_FAMILIES = {
    # canonical named rate sequences for the bd mini-language extension
    "linear": (lambda n: n + 1.0, lambda n: float(n)),
    "quadratic": (lambda n: (n + 1.0) ** 2, lambda n: float(n) ** 2),
}


def parse_rates(text):
    """Parse the bd mini-language extension ``lam=<name>,mu=<name>``.

    Named rate sequences: ``linear`` (lambda(n) = n+1, mu(n) = n) and
    ``quadratic`` (lambda(n) = (n+1)**2, mu(n) = n**2).  Arbitrary rates
    go through :func:`load_rates_csv` instead.
    """
    text = text.removeprefix("bd:")
    fields = dict(
        item.partition("=")[::2] for item in text.split(",") if item)
    unknown = sorted(set(fields) - {"lam", "mu"})
    if unknown:
        raise ParseError("unknown rates key(s) %s in %r"
                         % (", ".join(unknown), text))
    lam_name = fields.get("lam")
    mu_name = fields.get("mu")
    if lam_name not in _RATE_FAMILIES or mu_name not in _RATE_FAMILIES:
        raise DomainError(
            "rates must name one of %s for both lam and mu; got %r"
            % (sorted(_RATE_FAMILIES), text))
    lam_fn = _RATE_FAMILIES[lam_name][0]
    mu_fn = _RATE_FAMILIES[mu_name][1]
    return BirthDeathRates(lam_fn, mu_fn, name="bd:lam=%s,mu=%s" % (lam_name, mu_name))


def load_rates_csv(path):
    """Rates from CSV with columns (n, lambda, mu)."""
    rows = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or not row[0].strip().isdigit():
                continue
            rows.append((int(row[0]), float(row[1]), float(row[2])))
    if not rows:
        raise DomainError("empty rates table %r" % path)
    rows.sort()
    return BirthDeathRates.from_tables(
        [r[1] for r in rows], [r[2] for r in rows], name="table:%s" % path)
