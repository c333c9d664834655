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

A derived sequence has no length: its entries exist where the entries it
reads do, and reading past a table's end raises that table's error.

The even/odd spectral identities need 0 to be a non-eigenvalue of both the
matrix and its first-coefficient-dropped variant; this package can only
gather l2 partial-sum evidence for that side condition (see
``recurrence.l2_partial_sums``), it does not assert it.
"""

import math

import numpy as np

from .errors import DomainError, ParseError
from . import diagnostics as _diag
from .diagnostics import overall_verdict
from .recurrence import _elementwise, _exp_signed
from .sequences import (SequencePair, _Sequences, _arange, _checked, _items,
                        _power, _zeros)

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
    "parse_rates",
]


def flip(seq):
    """Negate the diagonal: spectra of the result are the negated spectra."""
    return SequencePair.from_builders(
        lambda lo, hi: seq.a_array(hi, start=lo),
        lambda lo, hi: -seq.b_array(hi, start=lo),
        name="flip(%s)" % seq.name)


def shift(seq):
    """Drop a(0): the variant with coefficients a(n+1) and the same b."""
    return SequencePair.from_builders(
        lambda lo, hi: seq.a_array(hi + 1, start=lo + 1),
        lambda lo, hi: seq.b_array(hi, start=lo),
        name="shift(%s)" % seq.name)


def _square_restriction(seq, s, kind):
    """Restriction of the squared operator to the indices of parity s.

    a(n) = a(2n+s) a(2n+s+1) and b(n) = a(2n+s-1)**2 + a(2n+s)**2, with
    a(-1) = 0; b == 0 is checked wherever the entries use it.  Each builder
    reads only the parent entries it uses, in index order, so it meets the
    parent's first fault where the per-index definition does: a reads
    a(2lo+s..2hi+s-1), and b reads a(2lo+s-1) on its own and then
    a(2lo+s..2hi+s-2), a view of the range a read.
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
        first = 2 * lo + s - 1              # pairs a(2n+s-1), a(2n+s)
        head = seq.a(first) if first >= 0 else 0.0     # a(-1) = 0
        squares = _power(np.concatenate(
            ([head], seq.a_array(2 * hi + s - 1, start=first + 1))), 2.0)
        return squares[1::2] + squares[0::2]

    return SequencePair.from_builders(a, b, name="%s(%s)" % (kind, seq.name))


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


def _mu_valid(values, lo):
    ok = values > 0.0
    if lo == 0 and len(ok):
        ok[0] = not values[0] < 0.0     # mu(0) = 0 is allowed
    return ok


class BirthDeathRates(_Sequences):
    """Birth rates lambda(n) > 0 and death rates mu with mu(0) >= 0.

    Built like :class:`SequencePair`: ``lam_array``/``mu_array`` build and
    check index ranges, ``lam(n)``/``mu(n)`` are single-index views, and
    the constructor takes per-index callables.
    """

    name = "rates"
    _table_word = "rates table"
    _rules = {
        "lambda": (lambda values, lo: values > 0.0, lambda n, v, name:
                   "lambda(%d) = %r must be positive" % (n, v)),
        "mu": (_mu_valid, lambda n, v, name: "mu(0) must be >= 0, got %r" % v
               if n == 0 else "mu(%d) = %r must be positive" % (n, v)),
    }

    def lam_array(self, stop, start=0):
        return self._values("lambda", start, stop)

    def mu_array(self, stop, start=0):
        return self._values("mu", start, stop)

    def lam(self, n):
        return float(self.lam_array(n + 1, start=n)[0])

    def mu(self, n):
        return float(self.mu_array(n + 1, start=n)[0])


class PiWeights:
    """The weights pi(0) = 1, pi(n) = prod lambda / prod mu, stored as logs.

    The exact ratio recursion pi(n+1)/pi(n) = lambda(n)/mu(n+1) holds in
    log arithmetic, which survives geometric growth or decay.  The logs
    are one running sum up to the largest index asked for, accumulated in
    place in the array of rate logs, where the partial sums that end on a
    mu are log pi(1), log pi(2), ...
    """

    def __init__(self, rates):
        self._rates = rates

    def log_pi(self, n):
        """log pi(n); ``n`` may also be an array of indices."""
        first, last = int(np.min(n, initial=0)), int(np.max(n, initial=0))
        if first < 0:
            raise DomainError("sequence index must be >= 0, got %d" % first)
        # (lp + log lambda(k)) - log mu(k+1), summed in that order in place
        logs = _elementwise(math.log, _checked(
            _rate_sequence(self._rates), 1, 2 * last + 1))
        np.negative(logs[1::2], out=logs[1::2])
        with np.errstate(invalid="ignore"):     # inf - inf, as floats
            np.cumsum(logs, out=logs)
        return np.concatenate(([0.0], logs[1::2]))[n]

    def pi(self, n):
        return _exp_signed(1.0, self.log_pi(n))

    def sqrt_ratio(self, n):
        """sqrt(pi(n+1)/pi(n)), the entry ratio of the similarity diagonal."""
        return _exp_signed(1.0, 0.5 * (self.log_pi(n + 1) - self.log_pi(n)))


def bd_to_jacobi(rates):
    """Symmetrize the generator: returns (SequencePair, PiWeights).

    The returned matrix has abar(n) = sqrt(lambda(n) mu(n+1)) and
    bbar(n) = -(lambda(n) + mu(n)); it is similar to the generator via the
    diagonal sqrt(pi) isometry, so spectra agree.
    """
    def a(lo, hi):
        lam = rates.lam_array(hi, start=lo)
        return np.sqrt(lam * rates.mu_array(hi + 1, start=lo + 1))

    def b(lo, hi):
        lam = rates.lam_array(hi, start=lo)
        mu = np.concatenate(([rates.mu(lo)], rates.mu_array(hi, start=lo + 1)))
        return -(lam + mu)

    pair = SequencePair.from_builders(a, b, name="bd(%s)" % rates.name)
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
    return SequencePair.from_builders(
        lambda lo, hi: entries(lo + 2, hi + 2), _zeros,
        name="interleaved(%s)" % rates.name)


def bd_square_root_route(rates):
    """Which squared-restriction realizes the symmetrized generator.

    Returns ("even", seq) when mu(0) = 0: the generator is the even
    restriction of the square of the b == 0 matrix with coefficients
    (sqrt(lambda(0)), sqrt(mu(1)), sqrt(lambda(1)), ...).  Returns
    ("odd", seq) when mu(0) > 0, with the extra leading sqrt(mu(0)).
    """
    entries = _rate_sequence(rates)
    route, skip = ("even", 1) if rates.mu(0) == 0.0 else ("odd", 0)
    return route, SequencePair.from_builders(
        lambda lo, hi: np.sqrt(entries(lo + skip, hi + skip)), _zeros,
        name="bd-root(%s)" % rates.name)


def bd_check_theorem_51(rates, n_max):
    """Grade the generator-spectrum hypotheses on the interleaved sequence.

    On an overall pass the predicted conclusion is that the generator is
    self-adjoint with no eigenvalues and spectrum (-inf, 0].
    """
    with _diag._checker_arrays(bd_interleaved(rates), n_max) as (N, a, _):
        verdicts = _diag._grade_slow_growth(a, N, "Thm51")
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
    ``quadratic`` (lambda(n) = (n+1)**2, mu(n) = n**2).  Keys are
    case-insensitive and may be given once.  Arbitrary rates go through
    :meth:`BirthDeathRates.read_table` instead.
    """
    rest = text.removeprefix("bd:")
    fields = {key: value for key, value, _ in _items(
        rest, len(text) - len(rest), ("lam", "mu"), "the rates spec")}
    lam_name = fields.get("lam")
    mu_name = fields.get("mu")
    if lam_name not in _RATE_FAMILIES or mu_name not in _RATE_FAMILIES:
        raise ParseError(
            "rates must name one of %s for both lam and mu; got %r"
            % (sorted(_RATE_FAMILIES), rest))
    return BirthDeathRates.from_builders(
        _RATE_FAMILIES[lam_name][0], _RATE_FAMILIES[mu_name][1],
        name="bd:lam=%s,mu=%s" % (lam_name, mu_name))

