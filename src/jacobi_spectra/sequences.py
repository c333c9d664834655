"""Jacobi coefficient sequences and the textual mini-language describing them.

A Jacobi matrix is determined by an off-diagonal sequence ``a`` (positive)
and a diagonal sequence ``b`` (real).  :class:`SequencePair` holds each as
one builder that maps an index range to a float array: ``a_array`` and
``b_array`` are the path from a family to numbers, and ``a(n)``/``b(n)``
are single-index views of the same builders.  A custom
``SequencePair(a_fn, b_fn)`` built from per-index callables keeps working
through a per-index builder.  The Jacobi data, the weights alpha of
:class:`WeightSequence` and the birth-death rates of
``transforms.BirthDeathRates`` share one checked path, ``_Sequences``:
one index policy, one range check per rule and one wording of faults; it
keeps each label's longest checked range and hands out read-only arrays.  A
small flat mini-language ("family specs") names the catalog of concrete
sequence families used throughout the package:

==================== =======================================================
family               entries
==================== =======================================================
const                a == 1, b == 0
pow                  a(n) = (n+1)**alpha, b == 0
pow-shifted          a(n) = n**alpha + c(n), c = 1,0,1,0,..., b == 0;
                     documented for 0 < alpha <= 2/3 (the gap statement)
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

import functools
import itertools
import math
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ParseError
from .recurrence import _elementwise

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

# family -> the parameter keys it takes
CATALOG_FAMILIES = {
    "const": (),
    "pow": ("alpha",),
    "pow-shifted": ("alpha",),
    "paired": ("eps", "inner"),
    "factorial-staircase": (),
    "iterlog": ("k", "m"),
    "chihara": (),
    "table": (),
}


def _per_index(fn):
    """The builder of a sequence given by a per-index callable fn(n).

    A single-index view of another pair (``seq.a``, ``seq.b``) gives back
    that pair's builder, so wrapping a pair does not make it per-index.
    """
    if getattr(fn, "__func__", None) in (SequencePair.a, SequencePair.b):
        return functools.partial(fn.__self__._values, fn.__name__)
    return lambda lo, hi: _elementwise(fn, range(lo, hi))


def _positive(values, lo):
    return (values > 0.0) & (values < np.inf)


def _checked(build, lo, hi, valid=None, reject=None,
             fault=lambda n, what: "entry %d %s" % (
                 n, "overflows binary64" if what == "overflows" else what)):
    """build(lo, hi), the entries lo..hi-1 as a float array, checked whole.

    The first entry that ``valid(values, lo)`` rejects raises
    ``DomainError(reject(index, value))``.  A build may meet a later fault
    before an earlier one (a parent's overflow before an inf product), so a
    failing range is bisected to its first failing index: the fault raised
    is the one that evaluating the entries in index order meets first, and
    an OverflowError or ZeroDivisionError becomes
    ``DomainError(fault(index, what))``, with ``what`` "overflows" or
    "is undefined (<message>)".
    """
    if hi < lo:
        raise DomainError("index range stop %d is below its start %d" % (hi, lo))

    def check(stop):
        # inf and NaN entries are faults to report, not numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            values = build(lo, stop) if stop > lo else np.empty(0)
        if values.shape != (stop - lo,):
            raise RuntimeError("a builder gave shape %r for %d entries"
                               % (values.shape, stop - lo))
        if valid is not None:
            ok = valid(values, lo)
            if not ok.all():
                i = int(np.argmin(ok))
                raise DomainError(reject(lo + i, float(values[i])))
        return values

    try:
        return check(hi)
    except (DomainError, ArithmeticError) as exc:
        error = exc
    good, bad = lo, hi          # check(good) passes, check(bad) raises error
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            check(mid)
            good = mid
        except (DomainError, ArithmeticError) as exc:
            bad, error = mid, exc
    if isinstance(error, ArithmeticError):
        raise DomainError(fault(bad - 1, "overflows" if isinstance(
            error, OverflowError) else "is undefined (%s)" % error)) from None
    raise error


def _number(convert, cell):
    """int(cell) or float(cell), failing, as they fail, on "_" or non-ASCII."""
    if "_" in cell or not cell.strip().isascii():
        raise ValueError({int: "invalid literal for int() with base 10: %.200r",
                          float: "could not convert string to float: %r"}[convert]
                         % cell)
    return convert(cell)


class _Sequences:
    """Sequences held as named builders, each mapping an index range lo..hi-1
    to a float array, with one checked path from builders to arrays.

    A subclass is data.  ``_rules`` maps each label, in constructor order,
    to ``(valid, reject)``: ``valid(values, lo)`` marks the good entries of
    a range that starts at ``lo``, and ``reject(n, value, name)`` words the
    first bad one.  Only a table has a ``length``, and ``_past_end`` words a
    read past it; a derived sequence ends where the entries it reads end.
    The constructor takes fn(n), :meth:`from_builders` a builder, and
    :meth:`from_table` and :meth:`read_table` (a CSV file) a column per label.
    """

    name = "custom"
    _rules = {}
    _past_end = "%(label)s(%(n)d) requested from %(name)r of length %(length)d"
    _table_word = "table"       # what read_table's messages call the file
    _optional_columns = 0       # trailing labels a row may leave out, as 0

    def __init__(self, *fns, name=None, length=None):
        if len(fns) != len(self._rules):
            raise TypeError("%s takes %d callables (%s), got %d" % (
                type(self).__name__, len(self._rules),
                " and ".join(self._rules), len(fns)))
        self._build = dict(zip(self._rules, map(_per_index, fns)))
        self._kept = {}             # label -> (start, stop, checked array)
        if name is not None:
            self.name = name
        self.length = length

    @classmethod
    def from_builders(cls, *builders, name=None, length=None):
        seqs = cls(*builders, name=name, length=length)
        seqs._build = dict(zip(cls._rules, builders))    # not per-index
        return seqs

    @classmethod
    def from_table(cls, *columns, name="table"):
        """The finite sequence with one column of values per label."""
        if len(columns) != len(cls._rules):
            raise TypeError("%s.from_table takes %d columns, got %d"
                            % (cls.__name__, len(cls._rules), len(columns)))
        columns = [np.array(values, dtype=float) for values in columns]
        if len({len(values) for values in columns}) > 1:
            raise DomainError("%s tables must have equal length"
                              % " and ".join(cls._rules))
        for values in columns:
            values.setflags(write=False)    # the builders hand out views
        builders = [lambda lo, hi, v=values: v[lo:hi] for values in columns]
        return cls.from_builders(*builders, name=name, length=len(columns[0]))

    @classmethod
    def read_table(cls, path):
        """The table in the UTF-8 CSV file at ``path``: rows n, v_1, v_2, ...
        with n = 0..m-1 once each, in any order, skipping rows whose first
        cell is empty or ``n`` or starts with ``#``.  A malformed, unreadable
        or non-UTF-8 file is a ParseError, an empty table a DomainError."""
        import csv  # tables are the only CSV the package reads
        what, width, rows = cls._table_word, 1 + len(cls._rules), []
        required = width - cls._optional_columns
        try:
            with open(path, newline="", encoding="utf-8-sig") as fh:
                for row in csv.reader(fh):
                    first = row[0].strip() if row else ""
                    if first.lower() in ("", "n") or first.startswith("#"):
                        continue
                    if not required <= len(row) <= width:
                        raise ValueError("row %r: expected %s cells, got %d" % (
                            ",".join(row), " or ".join(
                                map(str, range(required, width + 1))), len(row)))
                    n = _number(int, first)
                    rows.append((n, [_number(float, c) for c in row[1:]]
                                 + [0.0] * (width - len(row))))
        except OSError as exc:
            raise ParseError("cannot read %s %r: %s"
                             % (what, path, exc.strerror or exc)) from None
        except (ValueError, csv.Error) as exc:  # a UnicodeDecodeError too
            raise ParseError("malformed %s %r: %s" % (what, path, exc)) from None
        if not rows:
            raise DomainError("empty %s %r" % (what, path))
        rows.sort(key=lambda row: row[0])
        if [n for n, _ in rows] != list(range(len(rows))):
            raise ParseError("malformed %s %r: n must run over 0..%d, each once"
                             % (what, path, len(rows) - 1))
        return cls.from_table(*zip(*(cells for _, cells in rows)),
                              name="table:%s" % path)

    def _values(self, label, lo, hi):
        """Entries lo..hi-1 of ``label`` as a read-only array: the finite
        part is read and checked whole first, so an entry that breaks its
        rule, or whose arithmetic faults, is reported before a range past
        ``length``.

        The longest range checked so far is kept per label, and a range
        inside it is a view of it.  Any other range is built and checked
        whole; it is kept only if it is at least as long, so single-index
        reads do not evict a long range, and a run of them builds each
        entry once.
        """
        kept = self._kept.get(label)
        if kept is not None and kept[0] <= lo <= hi <= kept[1]:
            return kept[2][lo - kept[0]: hi - kept[0]]
        if lo < 0:
            raise DomainError("sequence index must be >= 0, got %d" % lo)
        end = hi if self.length is None else min(hi, max(lo, self.length))
        valid, reject = self._rules[label]
        values = _checked(self._build[label], lo, end, valid,
                          lambda n, v: reject(n, v, self.name),
                          lambda n, what: "%s(%d) %s for family %r"
                          % (label, n, what, self.name))
        if end < hi:
            raise DomainError(self._past_end % {
                "label": label, "n": end, "name": self.name,
                "length": self.length})
        values.setflags(False)      # write=False; positional is the faster call
        if kept is None or hi - lo >= kept[1] - kept[0]:
            self._kept[label] = (lo, hi, values)
        return values

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, self.name)


class SequencePair(_Sequences):
    """The Jacobi data {a(n) > 0}, {b(n) real}, each entry finite.

    a and b are each one builder, validated as a whole by
    :meth:`a_array`/:meth:`b_array`; :meth:`a`/:meth:`b` are single-index
    views of them.  ``SequencePair(a_fn, b_fn, name=, length=)`` takes
    per-index callables for custom sequences.
    """

    _table_word = "sequence table"
    _optional_columns = 1       # b, read as 0
    _rules = {
        "a": (_positive, lambda n, v, name:
              "a(%d) = %r violates positivity for family %r" % (n, v, name)),
        "b": (lambda values, lo: np.isfinite(values), lambda n, v, name:
              "b(%d) = %r is not finite for family %r" % (n, v, name)),
    }

    def a(self, n):
        return float(self._values("a", n, n + 1)[0])

    def b(self, n):
        return float(self._values("b", n, n + 1)[0])

    def a_array(self, stop, start=0):
        """a(start..stop-1) as a float array."""
        return self._values("a", start, stop)

    def b_array(self, stop, start=0):
        """b(start..stop-1) as a float array."""
        return self._values("b", start, stop)


class WeightSequence(_Sequences):
    """A positive weight sequence with the fixed convention alpha(-1) = 0.

    Built like :class:`SequencePair`: :meth:`array` is the path to numbers
    and ``alpha(n)`` a single-index view; the constructor takes fn(n).
    """

    _table_word = "alpha table"
    _rules = {"alpha": (_positive, lambda n, v, name:
                        "alpha(%d) = %r is not positive" % (n, v))}

    def __call__(self, n):
        return 0.0 if n == -1 else float(self.array(n + 1, start=n)[0])

    def array(self, stop, start=0):
        """alpha(start..stop-1) as a float array."""
        return self._values("alpha", start, stop)

    @classmethod
    def ones(cls):
        return cls.from_builders(lambda lo, hi: np.ones(hi - lo), name="one")

    @classmethod
    def from_a(cls, seq):
        """alpha(n) = a(n), the choice behind the a**2 summability variant."""
        return cls.from_builders(lambda lo, hi: seq.a_array(hi, start=lo),
                                 name="a")

    @classmethod
    def iterlog_weight(cls, seq, K):
        """alpha(n) = n*g_K(n)/a(n) from the cutoff on, 1 below it; the
        cutoff is the first n where every iterated log in g_K is positive."""
        K = int(K)
        cutoff = _first_iterlog_valid(K)

        def build(lo, hi):
            values, first = np.ones(hi - lo), max(lo, cutoff)
            if first < hi:
                n = _arange(first, hi)
                values[first - lo:] = (n * _iterlogs(n, K)[K]
                                       / seq.a_array(hi, start=first))
            return values

        return cls.from_builders(build, name="iterlog-K%d" % K)


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


def _iterlogs(x, K):
    """[g_0, g_1, ..., g_K] at the float array x, in one pass.

    g_j is the product of the first j iterated logarithms of x, multiplied
    in the order of :func:`iterlog_g`, and g_0 = 1.  A level's logarithm
    is positive exactly when the level is above 1; the first entry of the
    shallowest level that is not names the error.  Along increasing x the
    failing entries form a prefix, so it is also the first x at which the
    per-index definition fails.
    """
    if K < 0:
        raise DomainError("iterated-log order must be >= 0, got %d" % K)
    gs = [np.ones(len(x))]
    level = x
    for _ in range(K):
        above_one = level > 1.0
        if not above_one.all():
            raise DomainError("iterated log of %r hit a nonpositive level"
                              % float(x[np.argmin(above_one)]))
        level = _elementwise(math.log, level)
        gs.append(gs[-1] * level)
    return gs


def iterlog_g(j, x):
    """Product of iterated logarithms log(x) * loglog(x) * ... (j factors).

    ``j = 0`` returns 1 (the empty product), so the ``iterlog`` family
    degenerates to a(n) = n + M there.
    """
    return float(_iterlogs(np.array([float(x)]), int(j))[-1][0])


def iterlog_g_prime(K, x):
    """Closed-form derivative of ``iterlog_g(K, .)`` at x.

    Equals g_K(x) times the sum over j <= K of 1/(x * g_j(x)).
    """
    x = float(x)
    gs = [float(g[0]) for g in _iterlogs(np.array([x]), int(K))]
    total = 0.0
    for g in gs[1:]:
        total += 1.0 / (x * g)
    return gs[-1] * total


# --- mini-language ---------------------------------------------------------

_NUMBER_RE = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?\Z", re.ASCII)


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
        value = int(text)
    except ValueError:
        return float(text)
    if abs(value) > sys.float_info.max:
        raise ParseError("integer of %d digits is outside the binary64 range"
                         % len(text.lstrip("+-")), position=offset)
    return value


def _items(text, offset, keys, owner):
    """(key, value, position) for each ``key=value`` item of a comma list
    found at ``offset`` of the input.

    Keys are case-insensitive (K == k).  A malformed item, a key not in
    ``keys`` or one given twice is a ParseError at its position.
    """
    seen, position = set(), offset
    for item in text.split(","):
        key, eq, value = item.partition("=")
        key = key.strip().lower()
        if not eq:
            raise ParseError("expected key=value, got %r" % item,
                             position=position)
        if key not in keys:
            raise ParseError("%s takes no parameter %r" % (owner, key),
                             position=position)
        if key in seen:
            raise ParseError("parameter %r given twice" % key,
                             position=position)
        seen.add(key)
        yield key, value, position
        position += len(item) + 1


def parse_family(text):
    """Parse mini-language text into a :class:`FamilySpec`.

    Unknown families and malformed parameters, including a key the family
    does not take or one given twice, are errors; there is no fallback
    interpretation.
    """
    return _parse_family(text, 0)


def _parse_family(text, offset):
    """:func:`parse_family` of ``text`` found at ``offset`` of the input."""
    if not isinstance(text, str) or not text:
        raise ParseError("empty sequence spec", position=offset)
    head, sep, rest = text.partition(":")
    family = head.strip()
    if family not in CATALOG_FAMILIES:
        raise ParseError("unknown family %r" % family, position=offset)

    if family == "table":
        if not rest:
            raise ParseError("table family needs a file path",
                             position=offset + len(head))
        return FamilySpec("table", path=rest)

    params = []
    inner_spec = None
    start = offset + len(head) + 1
    items = (_items(rest, start, CATALOG_FAMILIES[family], "family %r" % family)
             if sep else ())
    for key, value, position in items:
        if key == "inner":
            # the inner spec is the rest of the text; a ',' before any ':'
            # is its ':' (a table path keeps its commas)
            at = rest.index("=", position - start) + 1
            inner = rest[at:]
            if ":" not in inner.partition(",")[0]:
                inner = inner.replace(",", ":", 1)
            inner_spec = _parse_family(inner, start + at)
            break
        params.append((key, _parse_number(value, position + len(key) + 1)))

    spec = FamilySpec(family, tuple(params), inner=inner_spec)
    _validate_spec(spec)
    return spec


def _render_number(value):
    """repr(value), but an infinity as the literal that parses back to it."""
    if math.isinf(value):
        return "-1e999" if value < 0 else "1e999"
    return repr(value)


def render_family(spec):
    """Canonical textual form; inverse of :func:`parse_family`."""
    if spec.family == "table":
        return "table:%s" % spec.path
    parts = ["%s=%s" % (k, _render_number(v)) for k, v in spec.params]
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
    if fam in ("pow", "pow-shifted"):
        spec.require("alpha")
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


def _arange(lo, hi):
    return np.arange(lo, hi, dtype=float)


_ZERO = np.zeros(1)
_ZERO.setflags(write=False)


def _zeros(lo, hi):
    # one read-only zero seen hi - lo times, so a kept zero diagonal costs
    # no memory (np.broadcast_to gives the same array ten times slower)
    return np.ndarray((hi - lo,), float, _ZERO, strides=(0,))


def _power(base, alpha):
    """base ** alpha, entry by entry, with the bits of ``float.__pow__``.

    numpy's ** differs in the last bit, and libm pow(x, 2) is not always
    x*x.  ``math.pow`` calls the same libm pow as ``float.__pow__`` for the
    finite, non-negative bases passed here, through a faster C call.  When
    it raises (ValueError for 0.0 ** -0.5, OverflowError), the entries are
    recomputed with ``float.__pow__``, so the fault is raised with the
    exception and message of Python's **, e.g. ZeroDivisionError "0.0
    cannot be raised to a negative power", which :func:`_checked` and its
    callers word into their errors.
    """
    try:
        return _elementwise(math.pow, base, itertools.repeat(alpha))
    except (ValueError, OverflowError):
        return _elementwise(float.__pow__, base, itertools.repeat(alpha))


def _factorial_staircase(lo, hi):
    values = np.ones(hi - lo)          # a(0) = 1 and a(1) = sqrt(1!)
    k = 2
    while math.factorial(k) < hi:
        start, stop = math.factorial(k) - lo, math.factorial(k + 1) - lo
        values[max(start, 0): max(stop, 0)] = math.sqrt(math.factorial(k))
        k += 1
    return values


def instantiate(spec):
    """Build the :class:`SequencePair` described by a :class:`FamilySpec`.

    Each family is one builder per coefficient, mapping an index range to
    a float array with the builtins of the closed forms in the table
    above.
    """
    if isinstance(spec, str):
        spec = parse_family(spec)
    fam = spec.family
    name = render_family(spec)

    def pair(build_a, build_b=_zeros):
        return SequencePair.from_builders(build_a, build_b, name=name)

    if fam == "const":
        return pair(lambda lo, hi: np.ones(hi - lo))

    if fam == "pow":
        alpha = float(spec.require("alpha"))
        return pair(lambda lo, hi: _power(_arange(lo + 1, hi + 1), alpha))

    if fam == "pow-shifted":
        alpha = float(spec.require("alpha"))

        def a(lo, hi):
            values = _power(_arange(lo, hi), alpha)
            values[lo % 2::2] += 1.0          # c(n) = 1 at even n
            return values

        return pair(a)

    if fam == "paired":
        eps = float(spec.get("eps", 1.0))
        inner = instantiate(spec.inner)

        def a(lo, hi):
            # a(n) = inner(k-1) with k = (n+1)//2, i.e. inner((n-1)//2)
            first = max(lo, 1)
            inner_a = inner.a_array((hi - 2) // 2 + 1, start=(first - 1) // 2)
            values = np.repeat(inner_a, 2)[(first - 1) % 2:][: hi - first]
            return np.concatenate(([eps], values)) if lo == 0 else values

        return pair(a)

    if fam == "factorial-staircase":
        return pair(_factorial_staircase)

    if fam == "iterlog":
        K = int(spec.require("k"))
        M = spec.require("m")
        try:
            iterlog_g(K, float(M))
        except DomainError:
            raise DomainError("iterlog requires every iterated log of M=%r "
                              "to be positive" % M)

        def a(lo, hi):
            x = np.fromiter((float(n + M) for n in range(lo, hi)), float, hi - lo)
            return x * _iterlogs(x, K)[K]

        return pair(a)

    if fam == "chihara":
        # b(n) = a(n-1) + a(n) = 2n + 1 with the a(-1) = 0 convention
        return pair(lambda lo, hi: _arange(lo + 1, hi + 1),
                    lambda lo, hi: np.arange(2 * lo + 1, 2 * hi, 2, dtype=float))

    if fam == "table":
        return SequencePair.read_table(spec.path)

    raise ParseError("unknown family %r" % fam)
