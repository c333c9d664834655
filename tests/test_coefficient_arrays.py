"""Bitwise parity of the array builders with the per-index definitions.

The reference below is the index-by-index evaluation the package used
before coefficients were built as arrays: one closure per family and per
transform, each entry checked on its own.  Only a table has a length: a
derived sequence ends where the entries it reads end, in both paths.
Every builder must give the same bits (compared through
``.view(np.int64)``), and on bad input the same exception class and
message.
"""

import math

import numpy as np
import pytest

from jacobi_spectra import (
    DomainError,
    SequencePair,
    WeightSequence,
    bd_interleaved,
    bd_square_root_route,
    bd_to_jacobi,
    check_theorem_43,
    check_theorem_A,
    flip,
    instantiate,
    iterlog_g,
    iterlog_g_prime,
    parse_family,
    parse_rates,
    render_family,
    shift,
    square_even,
    square_odd,
    truncate,
)
from jacobi_spectra.transforms import BirthDeathRates, PiWeights
from test_recurrence import traced_peak

# an inf or NaN entry is a fault to report, never a numpy warning
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

SIZES = [0, 1, 2, 3, 30001]
TABLE_ROWS = 60010


# --- the per-index reference -----------------------------------------------


def past_end(label, name, length):
    """The one end-of-table message; it names the first index past the end,
    as the array path reports it."""
    return "%s(%d) requested from %r of length %d" % (label, length, name,
                                                      length)


class RefPair:
    def __init__(self, a_fn, b_fn, name="custom", length=None):
        self._a_fn, self._b_fn, self.name, self.length = a_fn, b_fn, name, length

    def _eval(self, fn, label, n):
        if n < 0:
            raise DomainError("sequence index must be >= 0, got %d" % n)
        if self.length is not None and n >= self.length:
            raise DomainError(past_end(label, self.name, self.length))
        try:
            return float(fn(n))
        except OverflowError:
            raise DomainError("%s(%d) overflows for family %r"
                              % (label, n, self.name)) from None

    def a(self, n):
        value = self._eval(self._a_fn, "a", n)
        if not value > 0.0 or not math.isfinite(value):
            raise DomainError("a(%d) = %r violates positivity for family %r"
                              % (n, value, self.name))
        return value

    def b(self, n):
        return self._eval(self._b_fn, "b", n)

    def a_array(self, n):
        return np.fromiter(map(self.a, range(n)), float, n)

    def b_array(self, n):
        return np.fromiter(map(self.b, range(n)), float, n)


def ref_iterlog_g(j, x):
    x = float(x)
    product, level = 1.0, x
    for _ in range(j):
        level = math.log(level) if level > 0.0 else float("nan")
        if not level > 0.0:
            raise DomainError("iterated log of %r hit a nonpositive level" % x)
        product *= level
    return product


def ref_family(text, table=None):
    spec = parse_family(text)
    fam, name = spec.family, render_family(spec)
    zero = lambda n: 0.0  # noqa: E731
    if fam == "const":
        return RefPair(lambda n: 1.0, zero, name)
    if fam == "pow":
        alpha = float(spec.require("alpha"))
        return RefPair(lambda n: (n + 1.0) ** alpha, zero, name)
    if fam == "pow-shifted":
        alpha = float(spec.require("alpha"))
        return RefPair(lambda n: float(n) ** alpha
                       + (1.0 if n % 2 == 0 else 0.0), zero, name)
    if fam == "paired":
        eps = float(spec.get("eps", 1.0))
        inner = ref_family(render_family(spec.inner))
        return RefPair(lambda n: eps if n == 0 else inner.a((n + 1) // 2 - 1),
                       zero, name)
    if fam == "factorial-staircase":
        def a_fn(n):
            if n == 0:
                return 1.0
            k = 1
            while math.factorial(k + 1) <= n:
                k += 1
            return math.sqrt(math.factorial(k))
        return RefPair(a_fn, zero, name)
    if fam == "iterlog":
        K, M = int(spec.require("k")), spec.require("m")
        return RefPair(lambda n: (n + M) * ref_iterlog_g(K, float(n + M)),
                       zero, name)
    if fam == "chihara":
        return RefPair(lambda n: n + 1.0,
                       lambda n: (2.0 * n + 1.0) if n > 0 else 1.0, name)
    if fam == "table":
        a_values, b_values = table
        return RefPair(a_values.__getitem__, b_values.__getitem__,
                       "table:%s" % spec.path, len(a_values))
    raise AssertionError(fam)


def ref_flip(seq):
    return RefPair(seq.a, lambda n: -seq.b(n), "flip(%s)" % seq.name)


def ref_shift(seq):
    return RefPair(lambda n: seq.a(n + 1), seq.b, "shift(%s)" % seq.name)


def _require_b_zero(seq, n):
    if seq.b(n) != 0.0:
        raise DomainError(
            "even/odd restriction requires b == 0; b(%d) = %r" % (n, seq.b(n)))


def ref_even(seq):
    def a_fn(n):
        _require_b_zero(seq, 2 * n)
        _require_b_zero(seq, 2 * n + 1)
        return seq.a(2 * n) * seq.a(2 * n + 1)

    def b_fn(n):
        _require_b_zero(seq, 2 * n)
        prev = seq.a(2 * n - 1) if n > 0 else 0.0
        return prev ** 2 + seq.a(2 * n) ** 2

    return RefPair(a_fn, b_fn, "even(%s)" % seq.name)


def ref_odd(seq):
    def a_fn(n):
        _require_b_zero(seq, 2 * n + 1)
        _require_b_zero(seq, 2 * n + 2)
        return seq.a(2 * n + 1) * seq.a(2 * n + 2)

    def b_fn(n):
        _require_b_zero(seq, 2 * n + 1)
        return seq.a(2 * n) ** 2 + seq.a(2 * n + 1) ** 2

    return RefPair(a_fn, b_fn, "odd(%s)" % seq.name)


class RefRates:
    def __init__(self, lam_fn, mu_fn, name="rates", length=None):
        self._lam_fn, self._mu_fn, self.name, self.length = (
            lam_fn, mu_fn, name, length)

    def _eval(self, fn, label, n):
        if self.length is not None and n >= self.length:
            raise DomainError(past_end(label, self.name, self.length))
        return float(fn(n))

    def lam(self, n):
        value = self._eval(self._lam_fn, "lambda", n)
        if not value > 0.0:
            raise DomainError("lambda(%d) = %r must be positive" % (n, value))
        return value

    def mu(self, n):
        value = self._eval(self._mu_fn, "mu", n)
        if n == 0:
            if value < 0.0:
                raise DomainError("mu(0) must be >= 0, got %r" % value)
        elif not value > 0.0:
            raise DomainError("mu(%d) = %r must be positive" % (n, value))
        return value


class RefPi:
    def __init__(self, rates):
        self._rates, self._log_pi = rates, [0.0]

    def log_pi(self, n):
        while len(self._log_pi) <= n:
            k = len(self._log_pi) - 1
            self._log_pi.append(
                self._log_pi[-1]
                + math.log(self._rates.lam(k)) - math.log(self._rates.mu(k + 1)))
        return self._log_pi[n]


def ref_bd_to_jacobi(rates):
    return RefPair(lambda n: math.sqrt(rates.lam(n) * rates.mu(n + 1)),
                   lambda n: -(rates.lam(n) + rates.mu(n)),
                   "bd(%s)" % rates.name)


def ref_interleaved(rates):
    def a_fn(n):
        k = n // 2 + 1
        return rates.mu(k) if n % 2 == 0 else rates.lam(k)

    return RefPair(a_fn, lambda n: 0.0, "interleaved(%s)" % rates.name)


def ref_root(rates):
    mu0 = rates.mu(0)

    def root(n):
        k, odd = divmod(n, 2)
        return math.sqrt(rates.lam(k) if not odd else rates.mu(k + 1))

    a_fn = root if mu0 == 0.0 else (
        lambda n: math.sqrt(mu0) if n == 0 else root(n - 1))
    return RefPair(a_fn, lambda n: 0.0, "bd-root(%s)" % rates.name)


class RefWeight:
    def __init__(self, fn):
        self._fn = fn

    def __call__(self, n):
        value = float(self._fn(n))
        if not value > 0.0 or not math.isfinite(value):
            raise DomainError("alpha(%d) = %r is not positive" % (n, value))
        return value

    def array(self, n):
        return np.fromiter(map(self, range(n)), float, n)


def ref_weight_table(values, name="table"):
    def fn(n):
        if n >= len(values):
            raise DomainError(past_end("alpha", name, len(values)))
        return values[n]
    return RefWeight(fn)


def ref_iterlog_weight(seq, K, cutoff):
    return RefWeight(lambda n: 1.0 if n < cutoff
                     else n * ref_iterlog_g(K, float(n)) / seq.a(n))


# --- helpers ---------------------------------------------------------------


def same_bits(new, ref, n):
    assert len(new) == n
    assert new.dtype == np.float64
    assert np.array_equal(new.view(np.int64), ref.view(np.int64))


def same_fault(new_call, ref_call):
    with pytest.raises(Exception) as ref:
        ref_call()
    with pytest.raises(type(ref.value)) as new:
        new_call()
    assert type(new.value) is type(ref.value)
    assert str(new.value) == str(ref.value)


def same_outcome(new_call, ref_call, n):
    """The same fault, or the same bits when the per-index path succeeds."""
    try:
        want = ref_call()
    except DomainError:
        same_fault(new_call, ref_call)
    else:
        same_bits(new_call(), want, n)


def table_values(n_rows):
    k = np.arange(n_rows, dtype=float)
    return (np.sqrt(k + 1.0) + 1.0 / (k + 2.0)).tolist(), [0.0] * n_rows


@pytest.fixture(scope="module")
def table_path(tmp_path_factory):
    a, _ = table_values(TABLE_ROWS)
    path = tmp_path_factory.mktemp("arrays") / "coeffs.csv"
    path.write_text("n,a,b\n" + "".join("%d,%r,0\n" % (n, v)
                                        for n, v in enumerate(a)))
    return str(path)


FAMILIES = [
    "const",
    "pow:alpha=0.5",
    "pow:alpha=-0.3",
    "pow-shifted:alpha=0.5",
    "paired:eps=0.01,inner=pow,alpha=1",
    "paired:eps=2,inner=paired,eps=0.5,inner=iterlog,k=1,m=3",
    "factorial-staircase",
    "iterlog:k=2,m=16",
    "iterlog:k=0,m=5",
    "iterlog:k=1,m=2.5",
    "chihara",
    "table",
]


def pair_and_ref(text, table_path):
    if text == "table":
        spec = "table:" + table_path
        return instantiate(spec), ref_family(spec, table_values(TABLE_ROWS))
    return instantiate(text), ref_family(text)


# --- families and transforms -----------------------------------------------


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("text", FAMILIES)
def test_family_arrays_match_per_index(text, n, table_path):
    seq, ref = pair_and_ref(text, table_path)
    same_bits(seq.a_array(n), ref.a_array(n), n)
    same_bits(seq.b_array(n), ref.b_array(n), n)


@pytest.mark.parametrize("text", FAMILIES)
def test_single_index_views_match_per_index(text, table_path):
    seq, ref = pair_and_ref(text, table_path)
    for n in (0, 1, 2, 5, 6, 23, 24, 719, 720, 5040, 30000):
        assert seq.a(n) == ref.a(n) and type(seq.a(n)) is float
        assert seq.b(n) == ref.b(n) and type(seq.b(n)) is float


TRANSFORMS = [(flip, ref_flip), (shift, ref_shift), (square_even, ref_even),
              (square_odd, ref_odd)]


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("new_t, ref_t", TRANSFORMS,
                         ids=["flip", "shift", "even", "odd"])
@pytest.mark.parametrize("text", [f for f in FAMILIES if f != "chihara"])
def test_transform_arrays_match_per_index(text, new_t, ref_t, n, table_path):
    seq, ref = pair_and_ref(text, table_path)
    new, old = new_t(seq), ref_t(ref)
    same_bits(new.a_array(n), old.a_array(n), n)
    same_bits(new.b_array(n), old.b_array(n), n)


@pytest.mark.parametrize("start", [0, 1, 2, 3, 7])
@pytest.mark.parametrize("new_t, ref_t", TRANSFORMS,
                         ids=["flip", "shift", "even", "odd"])
def test_transform_ranges_match_per_index(new_t, ref_t, start):
    seq, ref = instantiate("pow:alpha=0.7"), ref_family("pow:alpha=0.7")
    new, old = new_t(seq), ref_t(ref)
    for stop in range(start, start + 6):
        want = np.array([old.a(n) for n in range(start, stop)], dtype=float)
        same_bits(new.a_array(stop, start=start), want, stop - start)
        want = np.array([old.b(n) for n in range(start, stop)], dtype=float)
        same_bits(new.b_array(stop, start=start), want, stop - start)


def test_chihara_flip_and_composed_transforms():
    seq, ref = instantiate("chihara"), ref_family("chihara")
    same_bits(flip(seq).b_array(30001), ref_flip(ref).b_array(30001), 30001)
    for new_t, ref_t in TRANSFORMS[2:]:          # b != 0 fed to even/odd
        same_fault(lambda: new_t(seq).a_array(5), lambda: ref_t(ref).a_array(5))
        same_fault(lambda: new_t(seq).b_array(5), lambda: ref_t(ref).b_array(5))
    pow_seq, pow_ref = instantiate("pow:alpha=0.4"), ref_family("pow:alpha=0.4")
    new = flip(square_odd(shift(flip(pow_seq))))
    old = ref_flip(ref_odd(ref_shift(ref_flip(pow_ref))))
    same_bits(new.a_array(5000), old.a_array(5000), 5000)
    same_bits(new.b_array(5000), old.b_array(5000), 5000)


RATES = [("lam=linear,mu=linear", lambda n: n + 1.0, lambda n: float(n)),
         ("lam=quadratic,mu=quadratic", lambda n: (n + 1.0) ** 2,
          lambda n: float(n) ** 2),
         ("lam=linear,mu=quadratic", lambda n: n + 1.0,
          lambda n: float(n) ** 2),
         ("lam=quadratic,mu=linear", lambda n: (n + 1.0) ** 2,
          lambda n: float(n))]


def rates_and_ref(spec, lam_fn, mu_fn):
    rates = parse_rates(spec)
    return rates, RefRates(lam_fn, mu_fn, name=rates.name)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("spec, lam_fn, mu_fn", RATES, ids=[r[0] for r in RATES])
def test_bd_arrays_match_per_index(spec, lam_fn, mu_fn, n):
    rates, ref = rates_and_ref(spec, lam_fn, mu_fn)
    pair, pi = bd_to_jacobi(rates)
    ref_pair, ref_pi = ref_bd_to_jacobi(ref), RefPi(ref)
    same_bits(pair.a_array(n), ref_pair.a_array(n), n)
    same_bits(pair.b_array(n), ref_pair.b_array(n), n)
    log_pi = np.fromiter(map(ref_pi.log_pi, range(n)), float, n)
    same_bits(pi.log_pi(np.arange(n)), log_pi, n)
    same_bits(bd_interleaved(rates).a_array(n),
              ref_interleaved(ref).a_array(n), n)
    route, root = bd_square_root_route(rates)
    assert route == "even"
    same_bits(root.a_array(n), ref_root(ref).a_array(n), n)


@pytest.mark.parametrize("start", [0, 1, 2, 3, 7])
@pytest.mark.parametrize("spec, lam_fn, mu_fn", RATES, ids=[r[0] for r in RATES])
def test_bd_ranges_match_per_index(spec, lam_fn, mu_fn, start):
    rates, ref = rates_and_ref(spec, lam_fn, mu_fn)
    new, old = bd_to_jacobi(rates)[0], ref_bd_to_jacobi(ref)
    for stop in range(start, start + 6):
        want = np.array([old.a(n) for n in range(start, stop)], dtype=float)
        same_bits(new.a_array(stop, start=start), want, stop - start)
        want = np.array([old.b(n) for n in range(start, stop)], dtype=float)
        same_bits(new.b_array(stop, start=start), want, stop - start)


@pytest.mark.parametrize("n", SIZES)
def test_bd_odd_route_and_tables_match_per_index(n):
    lam, mu = [k + 1.0 for k in range(n + 2)], [k + 0.5 for k in range(n + 2)]
    rates = BirthDeathRates.from_table(lam, mu, name="rates")
    ref = RefRates(lam.__getitem__, mu.__getitem__, length=n + 2)
    route, root = bd_square_root_route(rates)
    assert route == "odd"
    same_bits(root.a_array(n), ref_root(ref).a_array(n), n)
    same_bits(bd_to_jacobi(rates)[0].a_array(n),
              ref_bd_to_jacobi(ref).a_array(n), n)
    same_bits(bd_interleaved(rates).a_array(n),
              ref_interleaved(ref).a_array(n), n)


@pytest.mark.parametrize("mu0", [0.0, 0.5], ids=["even", "odd"])
@pytest.mark.parametrize("L", [1, 2, 5])
def test_bd_entries_end_where_the_rates_do(L, mu0):
    lam = [k + 1.0 for k in range(L)]
    mu = [mu0] + [k + 0.5 for k in range(1, L)]
    rates = BirthDeathRates.from_table(lam, mu, name="rates")
    ref = RefRates(lam.__getitem__, mu.__getitem__, length=L)
    pair, ref_pair = bd_to_jacobi(rates)[0], ref_bd_to_jacobi(ref)
    t = truncate(pair, L)
    same_bits(t.diag, ref_pair.b_array(L), L)
    same_bits(t.offdiag, ref_pair.a_array(L - 1), L - 1)
    route, root = bd_square_root_route(rates)
    assert route == ("odd" if mu0 else "even")
    size = 2 * L if mu0 else 2 * L - 1
    same_bits(root.a_array(size), ref_root(ref).a_array(size), size)
    # one entry more reads past the table, and both paths say so alike
    for new, old, n in ((pair.a_array, ref_pair.a_array, L),
                        (pair.b_array, ref_pair.b_array, L + 1),
                        (root.a_array, ref_root(ref).a_array, size + 1)):
        same_fault(lambda: new(n), lambda: old(n))


def test_pi_weights_extend_one_running_sum():
    rates, ref = rates_and_ref(*RATES[2])
    pi, ref_pi = PiWeights(rates), RefPi(ref)
    for n in (0, 3, 1, 17, 16, 30000):
        assert pi.log_pi(n) == ref_pi.log_pi(n)
    want = np.fromiter(map(ref_pi.log_pi, range(30001)), float, 30001)
    same_bits(pi.log_pi(np.arange(30001)), want, 30001)
    assert len(pi.log_pi(np.arange(0))) == 0


def test_pi_weights_peak_memory():
    pi, n = PiWeights(parse_rates("lam=linear,mu=linear")), np.arange(100000)
    pi.log_pi(n)                        # builds the rates' kept ranges
    assert traced_peak(pi.log_pi, n) <= 40 * len(n)


# --- weights and iterated logs ---------------------------------------------


def weights_and_ref(kind):
    seq, ref = instantiate("pow:alpha=0.5"), ref_family("pow:alpha=0.5")
    if kind == "a":
        return WeightSequence.from_a(seq), RefWeight(ref.a)
    if kind == "one":
        return WeightSequence.ones(), RefWeight(lambda n: 1.0)
    if kind.startswith("iterlog"):
        K = int(kind[-1])
        cutoff = {1: 2, 2: 3}[K]
        return (WeightSequence.iterlog_weight(seq, K),
                ref_iterlog_weight(ref, K, cutoff))
    values = [1.0 + 0.5 * math.sin(k) for k in range(30001)]
    return WeightSequence.from_table(values), ref_weight_table(values)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", ["a", "one", "iterlog:1", "iterlog:2", "table"])
def test_weight_arrays_match_per_index(kind, n):
    alpha, ref = weights_and_ref(kind)
    same_bits(alpha.array(n), ref.array(n), n)
    if n:
        assert alpha(n - 1) == ref(n - 1)


@pytest.mark.parametrize("K", [0, 1, 2, 3])
def test_iterated_logs_match_per_index(K):
    start = max(2, [1, 2, 3, 16][K])
    for x in [float(n) for n in range(start, start + 50)] + [1e6, 1e300, start + 0.5]:
        assert iterlog_g(K, x) == ref_iterlog_g(K, x)
        total = 0.0
        for j in range(1, K + 1):
            total += 1.0 / (x * ref_iterlog_g(j, x))
        assert iterlog_g_prime(K, x) == ref_iterlog_g(K, x) * total


# --- the same fault as the per-index path ----------------------------------


def test_negative_array_length_is_a_domain_error():
    seq = instantiate("const")
    pi = PiWeights(parse_rates("lam=linear,mu=linear"))
    for call in (lambda: seq.a_array(-5), lambda: seq.b_array(-1),
                 lambda: square_even(seq).a_array(-2),
                 lambda: WeightSequence.ones().array(-3),
                 lambda: seq.a_array(2, start=-1),
                 lambda: WeightSequence.ones().array(2, start=-1),
                 lambda: WeightSequence.from_table([1.0, 2.0, 3.0]).array(
                     2, start=-1),
                 lambda: WeightSequence.ones()(-2),
                 lambda: parse_rates("lam=linear,mu=linear").mu_array(
                     2, start=-1),
                 lambda: pi.log_pi(-1), lambda: pi.pi(-1),
                 lambda: pi.sqrt_ratio(-1), lambda: pi.log_pi(np.array([-5]))):
        with pytest.raises(DomainError):
            call()
    assert WeightSequence.ones()(-1) == 0.0     # the alpha(-1) = 0 convention
    with pytest.raises(DomainError,
                       match=r"^sequence index must be >= 0, got -5$"):
        pi.log_pi(np.array([3, -5, -2]))


@pytest.mark.filterwarnings("ignore:pow-shifted is documented")
@pytest.mark.parametrize("text", ["pow:alpha=400", "pow:alpha=200",
                                  "pow-shifted:alpha=300",
                                  "paired:eps=1e999,inner=pow,alpha=400",
                                  "paired:eps=1,inner=pow,alpha=400",
                                  "iterlog:k=1,m=1e308"])
@pytest.mark.parametrize("transform", ["none", "flip", "even", "odd"])
def test_overflow_faults_match_per_index(text, transform):
    seq, ref = instantiate(text), ref_family(text)
    new_t, ref_t = {"none": (lambda s: s, lambda s: s), "flip": TRANSFORMS[0],
                    "even": TRANSFORMS[2], "odd": TRANSFORMS[3]}[transform]
    new, old = new_t(seq), ref_t(ref)
    same_fault(lambda: new.a_array(40), lambda: old.a_array(40))
    same_outcome(lambda: new.b_array(40), lambda: old.b_array(40), 40)


def write_table(tmp_path, rows):
    path = tmp_path / "t.csv"
    path.write_text("n,a,b\n" + "".join("%d,%s,%s\n" % r for r in rows))
    return "table:%s" % path


@pytest.mark.parametrize("rows, n", [
    ([(k, 1.0 + k, 0) for k in range(5)], 9),                  # short
    ([(k, 1.0 if k != 3 else -1.0, 0) for k in range(12)], 10),  # a <= 0
    ([(k, 1.0 if k != 4 else "nan", 0) for k in range(12)], 10),
    ([(k, 1.0 if k != 7 else "inf", 0) for k in range(12)], 10),
    # b != 0 at 5, a <= 0 at 3: the per-index path meets which first
    ([(k, 1.0 if k != 3 else 0.0, 1.0 if k == 5 else 0) for k in range(12)], 5),
    ([(k, 1.0 if k != 6 else 0.0, 1.0 if k == 3 else 0) for k in range(12)], 5),
    ([(k, 1.0, 2.0 if k == 0 else 0) for k in range(12)], 5),
])
@pytest.mark.parametrize("transform", ["none", "flip", "shift", "even", "odd"])
def test_table_faults_match_per_index(rows, n, transform, tmp_path):
    spec = write_table(tmp_path, rows)
    a_values = [float(r[1]) for r in rows]
    b_values = [float(r[2]) for r in rows]
    seq, ref = instantiate(spec), ref_family(spec, (a_values, b_values))
    new_t, ref_t = {"none": (lambda s: s, lambda s: s), "flip": TRANSFORMS[0],
                    "shift": TRANSFORMS[1], "even": TRANSFORMS[2],
                    "odd": TRANSFORMS[3]}[transform]
    new, old = new_t(seq), ref_t(ref)
    same_outcome(lambda: new.a_array(n), lambda: old.a_array(n), n)
    same_outcome(lambda: new.b_array(n), lambda: old.b_array(n), n)


# a 5-row table and the entries each transform of it reads: (a, b)
@pytest.mark.parametrize("new_t, ref_t, counts", [
    (flip, ref_flip, (5, 5)), (shift, ref_shift, (4, 5)),
    (square_even, ref_even, (2, 3)), (square_odd, ref_odd, (2, 2))],
    ids=["flip", "shift", "even", "odd"])
def test_transform_entries_end_where_the_table_does(new_t, ref_t, counts,
                                                    tmp_path):
    a_values = [1.0 + k for k in range(5)]
    spec = write_table(tmp_path, [(k, v, 0) for k, v in enumerate(a_values)])
    new = new_t(instantiate(spec))
    old = ref_t(ref_family(spec, (a_values, [0.0] * 5)))
    for array, ref_array, n in ((new.a_array, old.a_array, counts[0]),
                                (new.b_array, old.b_array, counts[1])):
        same_bits(array(n), ref_array(n), n)
        same_fault(lambda: array(n + 1), lambda: ref_array(n + 1))


@pytest.mark.parametrize("lam, mu", [
    ([1.0, 2.0, -1.0, 4.0, 5.0, 6.0], [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]),
    ([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [-1.0, 1.0, 2.0, 3.0, 4.0, 5.0]),
    ([1.0, 2.0, 3.0, 4.0, 5.0, 0.0], [0.0, 1.0, 2.0, 0.0, 4.0, 5.0]),
    ([1.0, 2.0, 3.0, 0.0, 5.0, 6.0], [0.0, 1.0, 2.0, 3.0, 0.0, 5.0]),
    ([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [0.0, 1.0, float("nan"), 3.0, 4.0, 5.0]),
])
def test_rate_faults_match_per_index(lam, mu):
    rates = BirthDeathRates.from_table(lam, mu, name="rates")
    ref = RefRates(lam.__getitem__, mu.__getitem__, length=len(lam))
    # a range past the tables reports an in-range fault first
    for label, array, ref_at in (("lambda", rates.lam_array, ref.lam),
                                 ("mu", rates.mu_array, ref.mu)):
        try:
            [ref_at(k) for k in range(len(lam))]
        except DomainError as exc:
            want = str(exc)
        else:
            want = "%s(%d) requested from 'rates' of length %d" % (
                label, len(lam), len(lam))
        with pytest.raises(DomainError) as fault:
            array(len(lam) + 2)
        assert str(fault.value) == want
    custom = BirthDeathRates(lam.__getitem__, mu.__getitem__)
    for r in (rates, custom):
        pair, pi = bd_to_jacobi(r)
        ref_pair, ref_pi = ref_bd_to_jacobi(ref), RefPi(ref)
        same_outcome(lambda: pair.a_array(5), lambda: ref_pair.a_array(5), 5)
        same_outcome(lambda: pair.b_array(5), lambda: ref_pair.b_array(5), 5)
        same_outcome(lambda: pi.log_pi(np.arange(6)),
                     lambda: np.array([ref_pi.log_pi(k) for k in range(6)]), 6)
        same_outcome(lambda: bd_interleaved(r).a_array(10),
                     lambda: ref_interleaved(ref).a_array(10), 10)
        same_outcome(lambda: bd_square_root_route(r)[1].a_array(11),
                     lambda: ref_root(ref).a_array(11), 11)


def test_weight_faults_match_per_index():
    short = [1.0, 2.0, 3.0]
    same_fault(lambda: WeightSequence.from_table(short).array(10),
               lambda: ref_weight_table(short).array(10))
    bad = [1.0, 2.0, 0.0, 4.0]
    same_fault(lambda: WeightSequence.from_table(bad).array(10),
               lambda: ref_weight_table(bad).array(10))
    table_seq = instantiate("pow:alpha=400")
    same_fault(lambda: WeightSequence.iterlog_weight(table_seq, 1).array(9),
               lambda: ref_iterlog_weight(ref_family("pow:alpha=400"), 1,
                                          2).array(9))
    # a custom weight that overflows names alpha, as a pair names a(n)
    with pytest.raises(DomainError,
                       match=r"^alpha\(4\) overflows for family 'custom'$"):
        WeightSequence(lambda n: 10.0 ** (100 * n)).array(9)


def test_custom_rate_overflow_names_the_label():
    overflow = lambda n: 10.0 ** (100 * n)  # noqa: E731
    for rates, label in ((BirthDeathRates(overflow, float), "lambda"),
                         (BirthDeathRates(lambda n: 1.0, overflow), "mu")):
        with pytest.raises(DomainError,
                           match=r"^%s\(4\) overflows for family 'rates'$"
                           % label):
            bd_to_jacobi(rates)[0].a_array(9)


def test_iterlog_nonpositive_level_matches_per_index():
    same_fault(lambda: iterlog_g(2, 2.0), lambda: ref_iterlog_g(2, 2.0))
    same_fault(lambda: iterlog_g(-1, 2.0), lambda: iterlog_g(-1, 2.0))


def test_custom_sequences_keep_the_per_index_path():
    calls = []

    def a_fn(n):
        calls.append(n)
        return n + 1.0

    seq = SequencePair(a_fn, lambda n: 0.0, name="custom")
    same_bits(seq.a_array(50), np.arange(1.0, 51.0), 50)
    assert calls == list(range(50))
    assert seq.a(7) == 8.0
    assert square_even(seq).a(1) == 12.0
    overflow = SequencePair(lambda n: 10.0 ** (100 * n), lambda n: 0.0)
    ref = RefPair(lambda n: 10.0 ** (100 * n), lambda n: 0.0)
    same_fault(lambda: overflow.a_array(9), lambda: ref.a_array(9))


def test_wrapped_views_use_the_builder_unless_overridden():
    seq, ref = instantiate("pow:alpha=400"), ref_family("pow:alpha=400")
    wrapped = SequencePair(seq.a, seq.b, name=seq.name)
    assert wrapped._build["a"].func == seq._values
    same_bits(wrapped.a_array(5), ref.a_array(5), 5)
    same_fault(lambda: wrapped.a_array(9), lambda: ref.a_array(9))
    calls = []

    class Counting(SequencePair):
        def a(self, n):
            calls.append(n)
            return super().a(n)

    counting = Counting.from_builders(seq._build["a"], seq._build["b"])
    same_bits(SequencePair(counting.a, counting.b).a_array(4),
              ref.a_array(4), 4)
    assert calls == [0, 1, 2, 3]


# --- the kept range -----------------------------------------------------------


def counting_pair():
    """a(n) = n + 1 and b == 0, with the ranges its a builder was asked for."""
    built = []

    def a(lo, hi):
        built.append(hi - lo)
        return np.arange(lo + 1, hi + 1, dtype=float)

    return SequencePair.from_builders(a, lambda lo, hi: np.zeros(hi - lo)), built


def test_a_checked_range_is_built_once_per_sequence():
    # a of even reads a(0..1999) of the parent and b a view of a(0..1998);
    # a of odd reads a(1..2000), and b a(0) on its own and a view of the rest
    for new_t, lengths in ((square_even, [2000]), (square_odd, [2000, 1])):
        seq, built = counting_pair()
        restricted = new_t(seq)
        restricted.a_array(1000)
        restricted.b_array(1000)
        assert built == lengths
    seq, built = counting_pair()
    check_theorem_A(seq, WeightSequence.from_a(seq), 100)
    assert built == [102]               # a(0..N+1), alpha = a a view of it
    built = {"lambda": [], "mu": []}

    def counting(label, build):
        def counted(lo, hi):
            built[label].append((lo, hi))
            return build(lo, hi)
        return counted

    rates = BirthDeathRates.from_builders(
        counting("lambda", lambda lo, hi: np.arange(lo + 1, hi + 1, dtype=float)),
        counting("mu", lambda lo, hi: np.arange(lo, hi, dtype=float)))
    pair, pi = bd_to_jacobi(rates)
    pair.a_array(1000)
    pair.b_array(1000)
    pi.log_pi(np.arange(1000))
    # a reads mu(1..1000); b reads mu(0) on its own and a view of the rest
    assert built == {"lambda": [(0, 1000)], "mu": [(1, 1001), (0, 1)]}


def test_single_index_reads_build_each_entry_once():
    seq, built = counting_pair()
    for k in range(2000):
        assert seq.a(k) == k + 1.0
    assert sum(built) == 2000           # not the union of the ranges so far


def test_every_array_path_is_read_only():
    seq = instantiate("pow:alpha=0.5")
    rates = parse_rates("lam=linear,mu=linear")
    alpha = WeightSequence.from_table([1.0, 2.0])
    reads = [lambda: seq.a_array(10), lambda: seq.b_array(10),
             lambda: seq.a_array(5, start=2),
             lambda: square_even(seq).a_array(4),
             lambda: flip(seq).b_array(4),
             lambda: WeightSequence.from_a(seq).array(6),
             lambda: alpha.array(1), lambda: rates.lam_array(4),
             lambda: rates.mu_array(4, start=1)]
    for read in reads + reads:          # built, then a view of the kept range
        values = read()
        assert not values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 1.0


def fresh_reads(kind, tmp_path):
    """The array reads of a new object of ``kind`` over a 5-row table."""
    if kind == "bd":
        pair, pi = bd_to_jacobi(BirthDeathRates.from_table(
            [k + 1.0 for k in range(5)], [k + 0.5 for k in range(5)]))
        return [pair.a_array, pair.b_array, lambda n: pi.log_pi(np.arange(n))]
    spec = write_table(tmp_path, [(k, 1.0 + k, 0) for k in range(5)])
    new_t = {"even": square_even, "odd": square_odd}[kind]
    derived = new_t(instantiate(spec))
    return [derived.a_array, derived.b_array]


@pytest.mark.parametrize("kind", ["even", "odd", "bd"])
def test_a_warmed_sequence_ends_as_a_fresh_one(kind, tmp_path):
    warmed = fresh_reads(kind, tmp_path)
    for read in warmed:
        read(2)
    # b of even ends at 3, a and b of odd and a of even at 2; a of bd at 4,
    # its b and log pi at 5
    for n in (3, 4, 5, 6):
        for i, read in enumerate(warmed):
            same_outcome(lambda: read(n),
                         lambda: fresh_reads(kind, tmp_path)[i](n), n)


def test_a_warmed_sequence_faults_as_a_fresh_one():
    warmed = instantiate("pow:alpha=400")
    warmed.a_array(5)                   # a(5) = 6**400 overflows
    for n in (6, 40):
        same_fault(lambda: warmed.a_array(n),
                   lambda: instantiate("pow:alpha=400").a_array(n))
