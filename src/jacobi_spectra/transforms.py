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
from .recurrence import _elementwise
from .sequences import (SequencePair, _arange, _checked, _per_index, _power,
                        _read_lines, _slices, _zeros)

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
    return SequencePair.from_builders(
        lambda lo, hi: seq.a_array(hi, start=lo),
        lambda lo, hi: -seq.b_array(hi, start=lo),
        name="flip(%s)" % seq.name, length=seq.length)


def shift(seq):
    """Drop a(0): the variant with coefficients a(n+1) and the same b."""
    length = None if seq.length is None else seq.length - 1
    return SequencePair.from_builders(
        lambda lo, hi: seq.a_array(hi + 1, start=lo + 1),
        lambda lo, hi: seq.b_array(hi, start=lo),
        name="shift(%s)" % seq.name, length=length)


def _square_restriction(seq, s, kind):
    """Restriction of the squared operator to the indices of parity s.

    a(n) = a(2n+s) a(2n+s+1) and b(n) = a(2n+s-1)**2 + a(2n+s)**2, with
    a(-1) = 0; b == 0 is checked wherever the entries use it.
    """
    def zero_b(lo, hi, step=1):
        b = seq.b_array(hi, start=lo)[::step]
        if b.any():
            i = int(np.flatnonzero(b)[0])
            raise DomainError("even/odd restriction requires b == 0; b(%d) = %r"
                              % (lo + step * i, float(b[i])))

    def a(lo, hi):
        zero_b(2 * lo + s, 2 * hi + s)
        parent = seq.a_array(2 * hi + s, start=2 * lo + s)
        return parent[0::2] * parent[1::2]

    def b(lo, hi):
        zero_b(2 * lo + s, 2 * hi + s - 1, 2)
        first = max(2 * lo + s - 1, 0)
        parent = seq.a_array(2 * hi + s - 1, start=first)
        at = 2 * lo + s - first             # where a(2n+s) starts
        prev = _power(parent[1 - at::2], 2.0)
        values = _power(parent[at::2], 2.0)
        values[len(values) - len(prev):] += prev
        return values

    length = None if seq.length is None else (seq.length - s) // 2
    return SequencePair.from_builders(a, b, name="%s(%s)" % (kind, seq.name),
                                      length=length)


def square_even(seq):
    """Even restriction of the squared operator (requires b == 0)."""
    return _square_restriction(seq, 0, "even")


def square_odd(seq):
    """Odd restriction of the squared operator (requires b == 0).

    Agrees with ``square_even(shift(seq))`` in every entry except b(0),
    where the dropped leading coefficient contributes an extra a(0)**2.
    """
    return _square_restriction(seq, 1, "odd")


# --- birth-death processes -------------------------------------------------


class BirthDeathRates:
    """Birth rates lambda(n) > 0 and death rates mu with mu(0) >= 0.

    Built like :class:`SequencePair`: ``lam_array``/``mu_array`` build and
    check index ranges, ``lam(n)``/``mu(n)`` are single-index views, and
    the constructor takes per-index callables.
    """

    def __init__(self, lam_fn, mu_fn, name="rates", length=None):
        self._lam, self._mu = _per_index(lam_fn), _per_index(mu_fn)
        self.name, self.length = name, length

    @classmethod
    def _from_builders(cls, lam, mu, name, length=None):
        rates = cls(None, None, name, length)
        rates._lam, rates._mu = lam, mu
        return rates

    def _values(self, build, lo, hi, valid, reject):
        if lo < 0 or (self.length is not None and hi > self.length):
            raise DomainError("rates %d..%d requested from %r of length %s"
                              % (lo, hi - 1, self.name, self.length))
        return _checked(build, lo, hi, valid, reject)

    def lam_array(self, stop, start=0):
        return self._values(self._lam, start, stop, lambda v: v > 0.0,
                            lambda n, v: "lambda(%d) = %r must be positive"
                            % (n, v))

    def mu_array(self, stop, start=0):
        def valid(values):
            ok = values > 0.0
            if start == 0 and len(ok):
                ok[0] = not values[0] < 0.0     # mu(0) = 0 is allowed
            return ok

        def reject(n, value):
            if n == 0:
                return "mu(0) must be >= 0, got %r" % value
            return "mu(%d) = %r must be positive" % (n, value)

        return self._values(self._mu, start, stop, valid, reject)

    def lam(self, n):
        return float(self.lam_array(n + 1, start=n)[0])

    def mu(self, n):
        return float(self.mu_array(n + 1, start=n)[0])

    @classmethod
    def from_tables(cls, lam_values, mu_values, name="rates"):
        return cls._from_builders(_slices(np.array(lam_values, dtype=float)),
                                  _slices(np.array(mu_values, dtype=float)),
                                  name, min(len(lam_values), len(mu_values)))


class PiWeights:
    """The weights pi(0) = 1, pi(n) = prod lambda / prod mu, stored as logs.

    The exact ratio recursion pi(n+1)/pi(n) = lambda(n)/mu(n+1) holds in
    log arithmetic, which survives geometric growth or decay.  The logs
    are one running sum, extended as far as the largest index asked for.
    """

    def __init__(self, rates):
        self._rates = rates
        self._log_pi = np.zeros(1)

    def log_pi(self, n):
        """log pi(n); ``n`` may also be an array of indices."""
        done, last = len(self._log_pi) - 1, int(np.max(n, initial=0))
        if last > done:
            # (lp + log lambda(k)) - log mu(k+1), summed in that order
            entries = _checked(_rate_sequence(self._rates), 2 * done + 1,
                               2 * last + 1)
            steps = np.empty(len(entries) + 1)
            steps[0] = self._log_pi[-1]
            steps[1:] = _elementwise(math.log, entries)
            np.negative(steps[2::2], out=steps[2::2])
            with np.errstate(invalid="ignore"):     # inf - inf, as floats
                sums = np.cumsum(steps)[2::2]
            self._log_pi = np.concatenate((self._log_pi, sums))
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

    def a(lo, hi):
        lam = rates.lam_array(hi, start=lo)
        return np.sqrt(lam * rates.mu_array(hi + 1, start=lo + 1))

    def b(lo, hi):
        lam = rates.lam_array(hi, start=lo)
        return -(lam + rates.mu_array(hi, start=lo))

    pair = SequencePair.from_builders(a, b, name="bd(%s)" % rates.name,
                                      length=length)
    return pair, PiWeights(rates)


def _rate_sequence(rates):
    """The builder of (mu(0), lambda(0), mu(1), lambda(1), ...)."""
    def build(lo, hi):
        values = np.empty(hi - lo)
        mu, lam = values[lo % 2::2], values[1 - lo % 2::2]
        k, j = (lo + 1) // 2, lo // 2
        mu[:] = rates.mu_array(k + len(mu), start=k)
        lam[:] = rates.lam_array(j + len(lam), start=j)
        return values
    return build


def bd_interleaved(rates):
    """The interleaved sequence (mu(1), lambda(1), mu(2), lambda(2), ...)."""
    entries = _rate_sequence(rates)
    length = None if rates.length is None else 2 * (rates.length - 1)
    return SequencePair.from_builders(
        lambda lo, hi: entries(lo + 2, hi + 2), _zeros,
        name="interleaved(%s)" % rates.name, length=length)


def bd_square_root_route(rates):
    """Which squared-restriction realizes the symmetrized generator.

    Returns ("even", seq) when mu(0) = 0: the generator is the even
    restriction of the square of the b == 0 matrix with coefficients
    (sqrt(lambda(0)), sqrt(mu(1)), sqrt(lambda(1)), ...).  Returns
    ("odd", seq) when mu(0) > 0, with the extra leading sqrt(mu(0)).
    """
    entries = _rate_sequence(rates)
    route, skip = ("even", 1) if rates.mu(0) == 0.0 else ("odd", 0)
    length = None if rates.length is None else 2 * rates.length - 1
    return route, SequencePair.from_builders(
        lambda lo, hi: np.sqrt(entries(lo + skip, hi + skip)), _zeros,
        name="bd-root(%s)" % rates.name, length=length)


def bd_check_theorem_51(rates, n_max, config=None):
    """Grade the generator-spectrum hypotheses on the interleaved sequence.

    On an overall pass the predicted conclusion is that the generator is
    self-adjoint with no eigenvalues and spectrum (-inf, 0].
    """
    cfg, N = _diag._checker_size(n_max, config)
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
    # canonical named rate sequences for the bd mini-language extension,
    # as builders of (lambda, mu) over an index range
    "linear": (lambda lo, hi: _arange(lo + 1, hi + 1), _arange),
    "quadratic": (lambda lo, hi: _power(_arange(lo + 1, hi + 1), 2.0),
                  lambda lo, hi: _power(_arange(lo, hi), 2.0)),
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
    return BirthDeathRates._from_builders(
        _RATE_FAMILIES[lam_name][0], _RATE_FAMILIES[mu_name][1],
        "bd:lam=%s,mu=%s" % (lam_name, mu_name))


def load_rates_csv(path):
    """Rates from CSV with columns (n, lambda, mu)."""
    lines = _read_lines(path, "rates table")
    try:
        rows = sorted((int(r[0]), float(r[1]), float(r[2]))
                      for r in csv.reader(lines) if r and r[0].strip().isdigit())
    except (ValueError, IndexError) as exc:
        raise ParseError("malformed rates table %r: %s" % (path, exc)) from None
    if not rows:
        raise DomainError("empty rates table %r" % path)
    return BirthDeathRates.from_tables(
        [r[1] for r in rows], [r[2] for r in rows], name="table:%s" % path)
