"""Jacobi coefficient sequences and the textual mini-language describing them.

A Jacobi matrix is determined by an off-diagonal sequence ``a`` (positive)
and a diagonal sequence ``b`` (real).  :class:`SequencePair` wraps both as
lazily evaluable maps from index to value.  A small flat mini-language
("family specs") names the catalog of concrete sequence families used
throughout the package:

==================== =======================================================
family               entries
==================== =======================================================
const                a == 1, b == 0
pow                  a(n) = (n+1)**alpha, b == 0
pow-shifted          a(n) = n**alpha + c(n), c = 1,0,1,0,..., b == 0
paired               a(0) = eps, a(2k-1) = a(2k) = inner(k-1) for k >= 1
factorial-staircase  a(0) = 1, a(n) = sqrt(k!) for k! <= n < (k+1)!
iterlog              a(n) = (n+M) * g_K(n+M), b == 0
chihara              a(n) = n+1, b(n) = a(n-1) + a(n)
table                finite explicit table (``table:<csv path>``)
==================== =======================================================

Grammar (ASCII)::

    spec   = family (":" param ("," param)*)?
    param  = key "=" number
    key    = [a-z][a-z0-9_]*
    number = decimal or scientific notation

Two documented special forms: ``table:<path>`` takes a file path instead of
parameters, and ``paired`` takes ``inner=<family>`` after which the
remaining parameters belong to the inner family, e.g.
``paired:eps=1,inner=pow,alpha=0.5``.

Indices are 0-based.  There is no arithmetic-expression syntax on purpose:
the catalog stays small and auditable, and composition happens only through
the ``paired`` sub-spec mechanism.
"""

import csv
import math
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ParseError

__all__ = [
    "SequencePair",
    "WeightSequence",
    "FamilySpec",
    "parse_family",
    "render_family",
    "instantiate",
    "iterlog_g",
    "iterlog_g_prime",
    "CATALOG_FAMILIES",
]

CATALOG_FAMILIES = (
    "const",
    "pow",
    "pow-shifted",
    "paired",
    "factorial-staircase",
    "iterlog",
    "chihara",
    "table",
)


class SequencePair:
    """The Jacobi data {a(n) > 0}, {b(n) real}, evaluable by index.

    Instances are immutable and deterministic: repeated queries at the same
    index return bit-identical values.  ``length`` is None for infinite
    families and the table size for finite ones.
    """

    def __init__(self, a_fn, b_fn, name="custom", length=None):
        self._a_fn = a_fn
        self._b_fn = b_fn
        self.name = name
        self.length = length

    def _check_index(self, n):
        if n < 0:
            raise DomainError("sequence index must be >= 0, got %d" % n)
        if self.length is not None and n >= self.length:
            raise DomainError(
                "index %d out of range for finite sequence of length %d"
                % (n, self.length)
            )

    def _eval(self, fn, label, n):
        self._check_index(n)
        try:
            return float(fn(n))
        except OverflowError:
            raise DomainError("%s(%d) overflows for family %r"
                              % (label, n, self.name)) from None

    def a(self, n):
        value = self._eval(self._a_fn, "a", n)
        if not value > 0.0 or not math.isfinite(value):
            raise DomainError(
                "a(%d) = %r violates positivity for family %r" % (n, value, self.name)
            )
        return value

    def b(self, n):
        return self._eval(self._b_fn, "b", n)

    def a_array(self, n_max):
        """a(0..n_max-1) as a float array, each entry checked by :meth:`a`."""
        return np.fromiter(map(self.a, range(n_max)), float, n_max)

    def b_array(self, n_max):
        """b(0..n_max-1) as a float array."""
        return np.fromiter(map(self.b, range(n_max)), float, n_max)

    def __repr__(self):
        return "SequencePair(%r)" % self.name

    @classmethod
    def from_table(cls, a_values, b_values=None, name="table"):
        a_values = [float(v) for v in a_values]
        if b_values is None:
            b_values = [0.0] * len(a_values)
        b_values = [float(v) for v in b_values]
        if len(b_values) != len(a_values):
            raise DomainError("a and b tables must have equal length")
        return cls(a_values.__getitem__, b_values.__getitem__, name=name,
                   length=len(a_values))


class WeightSequence:
    """A positive weight sequence with the fixed convention alpha(-1) = 0."""

    def __init__(self, fn, name="custom"):
        self._fn = fn
        self.name = name

    def __call__(self, n):
        if n == -1:
            return 0.0
        if n < -1:
            raise DomainError("weight index must be >= -1, got %d" % n)
        value = float(self._fn(n))
        if not value > 0.0 or not math.isfinite(value):
            raise DomainError("alpha(%d) = %r is not positive" % (n, value))
        return value

    def __repr__(self):
        return "WeightSequence(%r)" % self.name

    @classmethod
    def ones(cls):
        return cls(lambda n: 1.0, name="one")

    @classmethod
    def from_a(cls, seq):
        """alpha(n) = a(n), the choice behind the a**2 summability variant."""
        return cls(seq.a, name="a")

    @classmethod
    def from_table(cls, values, name="table"):
        values = [float(v) for v in values]

        def fn(n):
            if n >= len(values):
                raise DomainError("weight table %r has %d entries, alpha(%d) "
                                  "requested" % (name, len(values), n))
            return values[n]

        return cls(fn, name=name)

    @classmethod
    def iterlog_weight(cls, seq, K, cutoff=None):
        """alpha(n) = n*g_K(n)/a(n) past a cutoff, 1 below it.

        The cutoff defaults to the first index where every iterated log in
        g_K is positive.
        """
        K = int(K)
        if K < 0:
            raise DomainError("K must be >= 0")
        if cutoff is None:
            cutoff = _first_iterlog_valid(K)

        def fn(n):
            if n < cutoff:
                return 1.0
            return n * iterlog_g(K, float(n)) / seq.a(n)

        return cls(fn, name="iterlog-K%d" % K)


def _first_iterlog_valid(K):
    """First n >= 1 at which every iterated log in g_K(n) is positive.

    The j-th iterated log of n is positive exactly when n exceeds exp
    applied j-1 times to 1, so the answer is the first integer above that
    tower for j = K.  Past K = 4 the tower overflows binary64.
    """
    if K < 0:
        raise DomainError("iterated-log order must be >= 0, got %d" % K)
    if K == 0:
        return 1
    tower = 1.0
    try:
        for _ in range(K - 1):
            tower = math.exp(tower)
    except OverflowError:
        raise DomainError("no valid starting index for K=%d" % K) from None
    return math.floor(tower) + 1


def iterlog_g(j, x):
    """Product of iterated logarithms log(x) * loglog(x) * ... (j factors).

    ``j = 0`` returns 1 (the empty product), so the ``iterlog`` family
    degenerates to a(n) = n + M there.
    """
    j = int(j)
    if j < 0:
        raise DomainError("iterated-log order must be >= 0, got %d" % j)
    x = float(x)
    product = 1.0
    level = x
    for _ in range(j):
        level = math.log(level) if level > 0.0 else float("nan")
        if not level > 0.0:
            raise DomainError("iterated log of %r hit a nonpositive level" % x)
        product *= level
    return product


def iterlog_g_prime(K, x):
    """Closed-form derivative of ``iterlog_g(K, .)`` at x.

    Equals g_K(x) times the sum over j <= K of 1/(x * g_j(x)).
    """
    K = int(K)
    x = float(x)
    gK = iterlog_g(K, x)
    total = 0.0
    for j in range(1, K + 1):
        total += 1.0 / (x * iterlog_g(j, x))
    return gK * total


# --- mini-language ---------------------------------------------------------

_KEY_RE = re.compile(r"[a-z][a-z0-9_]*\Z")
_NUMBER_RE = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?\Z")


@dataclass(frozen=True)
class FamilySpec:
    """Parsed form of a sequence-family expression."""

    family: str
    params: tuple = ()
    inner: "FamilySpec | None" = None
    path: str | None = field(default=None)

    def get(self, key, default=None):
        for k, v in self.params:
            if k == key:
                return v
        return default

    def require(self, key):
        value = self.get(key)
        if value is None:
            raise ParseError("family %r requires parameter %r" % (self.family, key))
        return value


def _parse_number(text, offset):
    if not _NUMBER_RE.match(text):
        raise ParseError("invalid number %r" % text, position=offset)
    try:
        return int(text)
    except ValueError:
        return float(text)


def parse_family(text):
    """Parse mini-language text into a :class:`FamilySpec`.

    Unknown families and malformed parameters are errors; there is no
    fallback interpretation.
    """
    if not isinstance(text, str) or not text:
        raise ParseError("empty sequence spec", position=0)
    head, sep, rest = text.partition(":")
    family = head.strip()
    if family not in CATALOG_FAMILIES:
        raise ParseError("unknown family %r" % family, position=0)

    if family == "table":
        if not sep or not rest:
            raise ParseError("table family needs a file path", position=len(head))
        return FamilySpec("table", path=rest)

    params = []
    inner_spec = None
    offset = len(head) + 1
    if sep and not rest:
        raise ParseError("trailing ':' without parameters", position=len(head))
    if rest:
        items = rest.split(",")
        pos = offset
        i = 0
        while i < len(items):
            item = items[i]
            key, eq, value = item.partition("=")
            if not eq:
                raise ParseError("expected key=value, got %r" % item, position=pos)
            key = key.strip().lower()  # keys are case-insensitive (K == k)
            if not _KEY_RE.match(key):
                raise ParseError("invalid key %r" % key, position=pos)
            if not value:
                raise ParseError("missing value for key %r" % key, position=pos)
            if key == "inner":
                if family != "paired":
                    raise ParseError("'inner' is only valid for the paired family",
                                     position=pos)
                inner_text = value
                tail = items[i + 1:]
                if tail:
                    inner_text += ":" + ",".join(tail)
                inner_spec = parse_family(inner_text)
                break
            params.append((key, _parse_number(value, pos + len(key) + 1)))
            pos += len(item) + 1
            i += 1

    spec = FamilySpec(family, tuple(params), inner=inner_spec)
    _validate_spec(spec)
    return spec


def render_family(spec):
    """Canonical textual form; inverse of :func:`parse_family`."""
    if spec.family == "table":
        return "table:%s" % spec.path
    parts = ["%s=%s" % (k, repr(v)) for k, v in spec.params]
    if spec.inner is not None:
        inner_text = render_family(spec.inner)
        head, _, inner_rest = inner_text.partition(":")
        parts.append("inner=%s" % head)
        if inner_rest:
            parts.append(inner_rest)
    if not parts:
        return spec.family
    return "%s:%s" % (spec.family, ",".join(parts))


def _validate_spec(spec):
    fam = spec.family
    if fam == "pow":
        spec.require("alpha")
    elif fam == "pow-shifted":
        alpha = spec.require("alpha")
        if not 0 < alpha <= 2.0 / 3.0:
            warnings.warn(
                "pow-shifted is documented for 0 < alpha <= 2/3; "
                "got alpha=%r (the gap statement may not apply)" % alpha,
                stacklevel=3,
            )
    elif fam == "paired":
        eps = spec.get("eps", 1.0)
        if not eps > 0:
            raise ParseError("paired eps must be positive, got %r" % eps)
        if spec.inner is None:
            raise ParseError("paired family requires an inner sub-spec")
    elif fam == "iterlog":
        K = spec.require("k")
        spec.require("m")
        if int(K) < 0:
            raise ParseError("iterlog K must be >= 0, got %r" % K)


def _factorial_staircase_a(n):
    if n == 0:
        return 1.0
    k = 1
    while math.factorial(k + 1) <= n:
        k += 1
    return math.sqrt(math.factorial(k))


def instantiate(spec):
    """Build the :class:`SequencePair` described by a :class:`FamilySpec`."""
    if isinstance(spec, str):
        spec = parse_family(spec)
    fam = spec.family
    name = render_family(spec)

    if fam == "const":
        return SequencePair(lambda n: 1.0, lambda n: 0.0, name=name)

    if fam == "pow":
        alpha = float(spec.require("alpha"))
        return SequencePair(lambda n: (n + 1.0) ** alpha, lambda n: 0.0, name=name)

    if fam == "pow-shifted":
        alpha = float(spec.require("alpha"))

        def a_fn(n):
            return float(n) ** alpha + (1.0 if n % 2 == 0 else 0.0)

        return SequencePair(a_fn, lambda n: 0.0, name=name)

    if fam == "paired":
        eps = float(spec.get("eps", 1.0))
        inner = instantiate(spec.inner)

        def a_fn(n):
            if n == 0:
                return eps
            k = (n + 1) // 2  # a(2k-1) = a(2k) = inner(k-1)
            return inner.a(k - 1)

        return SequencePair(a_fn, lambda n: 0.0, name=name)

    if fam == "factorial-staircase":
        return SequencePair(_factorial_staircase_a, lambda n: 0.0, name=name)

    if fam == "iterlog":
        K = int(spec.require("k"))
        M = spec.require("m")
        if K < 0:
            raise DomainError("iterlog needs K >= 0")
        try:
            g_at_M = iterlog_g(K, float(M))
        except DomainError:
            raise DomainError("iterlog requires every iterated log of M=%r "
                              "to be positive" % M)
        if not g_at_M > 0.0:
            raise DomainError("iterlog requires g_K(M) > 0")

        def a_fn(n):
            return (n + M) * iterlog_g(K, float(n + M))

        return SequencePair(a_fn, lambda n: 0.0, name=name)

    if fam == "chihara":
        # b(n) = a(n-1) + a(n) with the a(-1) = 0 convention.
        return SequencePair(lambda n: n + 1.0,
                            lambda n: (2.0 * n + 1.0) if n > 0 else 1.0,
                            name=name)

    if fam == "table":
        return load_table(spec.path)

    raise ParseError("unknown family %r" % fam)


def _read_lines(path, what):
    """The lines of a table file; an unreadable or non-UTF-8 one is a ParseError."""
    try:
        with open(path, newline="") as fh:
            return fh.readlines()
    except OSError as exc:
        raise ParseError("cannot read %s %r: %s"
                         % (what, path, exc.strerror or exc)) from None
    except UnicodeDecodeError as exc:
        raise ParseError("malformed %s %r: %s" % (what, path, exc)) from None


def load_table(path):
    """Read a finite sequence table from CSV with columns n,a[,b]."""
    rows = [row for row in csv.reader(_read_lines(path, "sequence table"))
            if row and row[0].strip().lower() not in ("n", "#", "")]
    if not rows:
        raise DomainError("empty sequence table %r" % path)
    try:
        rows.sort(key=lambda r: int(r[0]))
        a_values = [float(r[1]) for r in rows]
        b_values = [float(r[2]) if len(r) > 2 else 0.0 for r in rows]
    except (ValueError, IndexError) as exc:
        raise ParseError("malformed sequence table %r: %s"
                         % (path, exc)) from None
    return SequencePair.from_table(a_values, b_values, name="table:%s" % path)
