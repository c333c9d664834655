"""Bitwise parity of the array builders with the per-index definitions.

The reference below is the index-by-index evaluation the package used
before coefficients were built as arrays: one closure per family and per
transform, each entry checked on its own.  Every builder must give the
same bits (compared through ``.view(np.int64)``), the same length, and on
bad input the same exception class and message.
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
)
from jacobi_spectra.transforms import BirthDeathRates, PiWeights

# an inf or NaN entry is a fault to report, never a numpy warning
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

SIZES = [0, 1, 2, 3, 30001]
TABLE_ROWS = 60010


# --- the per-index reference -----------------------------------------------


class RefPair:
    def __init__(self, a_fn, b_fn, name="custom", length=None):
        self._a_fn, self._b_fn, self.name, self.length = a_fn, b_fn, name, length

    def _eval(self, fn, label, n):
        if n < 0:
            raise DomainError("sequence index must be >= 0, got %d" % n)
        if self.length is not None and n >= self.length:
            raise DomainError(
                "index %d out of range for finite sequence of length %d"
                % (n, self.length))
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
    return RefPair(seq.a, lambda n: -seq.b(n), "flip(%s)" % seq.name,
                   seq.length)


def ref_shift(seq):
    length = None if seq.length is None else seq.length - 1
    return RefPair(lambda n: seq.a(n + 1), seq.b, "shift(%s)" % seq.name,
                   length)


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

    length = None if seq.length is None else seq.length // 2
    return RefPair(a_fn, b_fn, "even(%s)" % seq.name, length)


def ref_odd(seq):
    def a_fn(n):
        _require_b_zero(seq, 2 * n + 1)
        _require_b_zero(seq, 2 * n + 2)
        return seq.a(2 * n + 1) * seq.a(2 * n + 2)

    def b_fn(n):
        _require_b_zero(seq, 2 * n + 1)
        return seq.a(2 * n) ** 2 + seq.a(2 * n + 1) ** 2

    length = None if seq.length is None else (seq.length - 1) // 2
    return RefPair(a_fn, b_fn, "odd(%s)" % seq.name, length)


class RefRates:
    def __init__(self, lam_fn, mu_fn, name="rates", length=None):
        self._lam_fn, self._mu_fn, self.name, self.length = (
            lam_fn, mu_fn, name, length)

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
    length = None if rates.length is None else rates.length - 1
    return RefPair(lambda n: math.sqrt(rates.lam(n) * rates.mu(n + 1)),
                   lambda n: -(rates.lam(n) + rates.mu(n)),
                   "bd(%s)" % rates.name, length)


def ref_interleaved(rates):
    def a_fn(n):
        k = n // 2 + 1
        return rates.mu(k) if n % 2 == 0 else rates.lam(k)

    length = None if rates.length is None else 2 * (rates.length - 1)
    return RefPair(a_fn, lambda n: 0.0, "interleaved(%s)" % rates.name, length)


def ref_root(rates):
    mu0 = rates.mu(0)

    def root(n):
        k, odd = divmod(n, 2)
        return math.sqrt(rates.lam(k) if not odd else rates.mu(k + 1))

    a_fn = root if mu0 == 0.0 else (
        lambda n: math.sqrt(mu0) if n == 0 else root(n - 1))
    length = None if rates.length is None else 2 * rates.length - 1
    return RefPair(a_fn, lambda n: 0.0, "bd-root(%s)" % rates.name, length)


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
            raise DomainError("weight table %r has %d entries, alpha(%d) "
                              "requested" % (name, len(values), n))
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


@pytest.mark.parametrize("n", SIZES)
def test_bd_odd_route_and_tables_match_per_index(n):
    lam, mu = [k + 1.0 for k in range(n + 2)], [k + 0.5 for k in range(n + 2)]
    rates = BirthDeathRates.from_tables(lam, mu)
    ref = RefRates(lam.__getitem__, mu.__getitem__, length=n + 2)
    route, root = bd_square_root_route(rates)
    assert route == "odd"
    same_bits(root.a_array(n), ref_root(ref).a_array(n), n)
    same_bits(bd_to_jacobi(rates)[0].a_array(n),
              ref_bd_to_jacobi(ref).a_array(n), n)
    same_bits(bd_interleaved(rates).a_array(n),
              ref_interleaved(ref).a_array(n), n)


def test_pi_weights_extend_one_running_sum():
    rates, ref = rates_and_ref(*RATES[2])
    pi, ref_pi = PiWeights(rates), RefPi(ref)
    for n in (0, 3, 1, 17, 16, 30000):
        assert pi.log_pi(n) == ref_pi.log_pi(n)
    want = np.fromiter(map(ref_pi.log_pi, range(30001)), float, 30001)
    same_bits(pi.log_pi(np.arange(30001)), want, 30001)
    assert len(pi.log_pi(np.arange(0))) == 0


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
    for call in (lambda: seq.a_array(-5), lambda: seq.b_array(-1),
                 lambda: square_even(seq).a_array(-2),
                 lambda: WeightSequence.ones().array(-3)):
        with pytest.raises(DomainError):
            call()


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


@pytest.mark.parametrize("lam, mu", [
    ([1.0, 2.0, -1.0, 4.0, 5.0, 6.0], [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]),
    ([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [-1.0, 1.0, 2.0, 3.0, 4.0, 5.0]),
    ([1.0, 2.0, 3.0, 4.0, 5.0, 0.0], [0.0, 1.0, 2.0, 0.0, 4.0, 5.0]),
    ([1.0, 2.0, 3.0, 0.0, 5.0, 6.0], [0.0, 1.0, 2.0, 3.0, 0.0, 5.0]),
    ([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [0.0, 1.0, float("nan"), 3.0, 4.0, 5.0]),
])
def test_rate_faults_match_per_index(lam, mu):
    rates = BirthDeathRates.from_tables(lam, mu)
    ref = RefRates(lam.__getitem__, mu.__getitem__, length=len(lam))
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
    seq, ref = instantiate("const"), ref_family("const")
    # below the valid cutoff the iterated log reaches a nonpositive level
    same_fault(lambda: WeightSequence.iterlog_weight(seq, 2, cutoff=1).array(9),
               lambda: ref_iterlog_weight(ref, 2, 1).array(9))
    table_seq = instantiate("pow:alpha=400")
    same_fault(lambda: WeightSequence.iterlog_weight(table_seq, 1).array(9),
               lambda: ref_iterlog_weight(ref_family("pow:alpha=400"), 1,
                                          2).array(9))


def test_theorem_43_nonpositive_level_matches_per_index():
    seq = instantiate("pow:alpha=1")

    def ref_scan():                    # the K scans of the checker, in order
        for j in range(1, 4):
            for n in range(2, 301):
                ref_iterlog_g(j, n)

    same_fault(lambda: check_theorem_43(seq, 3, 300, n_start=2), ref_scan)
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
