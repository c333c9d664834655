"""Tests for the sequence catalog and the family mini-language."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from jacobi_spectra import (
    DomainError,
    ParseError,
    SequencePair,
    WeightSequence,
    instantiate,
    iterlog_g,
    iterlog_g_prime,
    parse_family,
    render_family,
)
from jacobi_spectra.sequences import _first_iterlog_valid, load_table


# --- parsing ---------------------------------------------------------------


def test_parse_simple():
    spec = parse_family("pow:alpha=0.5")
    assert spec.family == "pow"
    assert spec.get("alpha") == 0.5


def test_parse_no_params():
    assert parse_family("const").family == "const"
    assert parse_family("chihara").params == ()


def test_parse_keys_case_insensitive():
    spec = parse_family("iterlog:K=2,M=16")
    assert spec.get("k") == 2
    assert spec.get("m") == 16


def test_parse_paired_inner():
    spec = parse_family("paired:eps=1,inner=pow,alpha=0.5")
    assert spec.family == "paired"
    assert spec.get("eps") == 1
    assert spec.inner.family == "pow"
    assert spec.inner.get("alpha") == 0.5


def test_parse_table_special_form(tmp_path):
    p = tmp_path / "seq.csv"
    p.write_text("n,a,b\n0,1.5,0\n1,2.5,1\n")
    spec = parse_family("table:%s" % p)
    assert spec.family == "table"
    assert spec.path == str(p)
    seq = instantiate(spec)
    assert seq.a(0) == 1.5
    assert seq.b(1) == 1.0
    assert seq.length == 2


@pytest.mark.parametrize("text", [
    "", "bogus", "pow", "pow:alpha", "pow:alpha=", "pow:=1",
    "pow:alpha=abc", "const:", "table:", "paired:eps=1",
    "const:inner=pow", "paired:eps=0,inner=pow,alpha=0.5",
    # integers outside the binary64 range
    pytest.param("pow:alpha=1" + "0" * 400, id="pow-huge-integer"),
    pytest.param("iterlog:k=1,m=-1" + "0" * 400, id="iterlog-huge-integer"),
    # keys the family does not take, and repeated keys
    "paired:epsilon=0.01,inner=pow,alpha=1", "const:alpha=2", "chihara:eps=5",
    "pow:alpha=1,alpha=3", "iterlog:K=2,k=3,m=16",
])
def test_parse_rejects(text):
    with pytest.raises(ParseError):
        parse_family(text)


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as exc:
        parse_family("bogus:x=1")
    assert exc.value.position == 0


@pytest.mark.parametrize("text, position", [
    ("paired:epsilon=0.01,inner=pow,alpha=1", 7), ("const:alpha=2", 6),
    ("pow:alpha=1,alpha=3", 12), ("iterlog:k=2,m=16,M=3", 17),
])
def test_unknown_or_repeated_key_reports_its_position(text, position):
    with pytest.raises(ParseError) as exc:
        parse_family(text)
    assert exc.value.position == position


def test_render_round_trip():
    for text in ["const", "pow:alpha=0.5", "iterlog:k=1,m=16",
                 "paired:eps=1,inner=pow,alpha=0.5", "chihara"]:
        spec = parse_family(text)
        assert parse_family(render_family(spec)) == spec


@settings(max_examples=25, deadline=None)
@given(alpha=st.floats(min_value=0.01, max_value=5.0,
                       allow_nan=False, allow_infinity=False))
def test_render_round_trip_pow(alpha):
    spec = parse_family("pow:alpha=%r" % alpha)
    assert parse_family(render_family(spec)) == spec
    assert instantiate(spec).a(3) == pytest.approx(4.0 ** alpha)


# --- catalog values --------------------------------------------------------


def test_const_values():
    seq = instantiate("const")
    assert seq.a(0) == 1.0 and seq.a(100) == 1.0
    assert seq.b(17) == 0.0


def test_pow_values():
    seq = instantiate("pow:alpha=0.5")
    assert seq.a(0) == 1.0
    assert seq.a(3) == 2.0
    assert seq.b(3) == 0.0


def test_pow_shifted_alternates():
    seq = instantiate("pow-shifted:alpha=0.5")
    # c = 1, 0, 1, 0, ... added to n**alpha
    assert seq.a(0) == 1.0
    assert seq.a(1) == 1.0
    assert seq.a(2) == pytest.approx(math.sqrt(2.0) + 1.0)
    assert seq.a(3) == pytest.approx(math.sqrt(3.0))


def test_pow_shifted_negative_alpha_is_domain_error_at_zero():
    seq = instantiate("pow-shifted:alpha=-0.5")
    # a(0) = 0.0 ** -0.5 is undefined
    with pytest.raises(DomainError, match=r"^a\(0\) is undefined"):
        seq.a_array(3)


def test_paired_duplication():
    seq = instantiate("paired:eps=0.25,inner=pow,alpha=1")
    assert seq.a(0) == 0.25
    # a(2k-1) = a(2k) = inner(k-1) = k
    for k in range(1, 10):
        assert seq.a(2 * k - 1) == float(k)
        assert seq.a(2 * k) == float(k)


def test_factorial_staircase_values():
    seq = instantiate("factorial-staircase")
    assert seq.a(0) == 1.0
    assert seq.a(1) == 1.0                       # 1! <= 1 < 2!
    for n in range(2, 6):                        # 2! <= n < 3!
        assert seq.a(n) == pytest.approx(math.sqrt(2.0))
    assert seq.a(6) == pytest.approx(math.sqrt(6.0))
    assert seq.a(23) == pytest.approx(math.sqrt(6.0))
    assert seq.a(24) == pytest.approx(math.sqrt(24.0))


def test_factorial_staircase_below_sqrt_envelope():
    seq = instantiate("factorial-staircase")
    for n in range(10_001):
        assert seq.a(n) <= math.sqrt(n + 1.0)


def test_chihara_values():
    seq = instantiate("chihara")
    assert [seq.a(n) for n in range(4)] == [1.0, 2.0, 3.0, 4.0]
    assert seq.b(0) == 1.0                       # a(-1) = 0 convention
    assert [seq.b(n) for n in range(1, 4)] == [3.0, 5.0, 7.0]
    assert seq.b(2) == seq.a(1) + seq.a(2)


def test_iterlog_family_values():
    seq = instantiate("iterlog:k=1,m=16")
    assert seq.a(0) == pytest.approx(16.0 * math.log(16.0))
    assert seq.a(4) == pytest.approx(20.0 * math.log(20.0))
    k0 = instantiate("iterlog:k=0,m=16")
    assert k0.a(3) == 19.0                       # empty product degenerates


def test_iterlog_family_rejects_bad_m():
    with pytest.raises(DomainError):
        instantiate("iterlog:k=2,m=2")           # loglog(2) < 0


@pytest.mark.parametrize("text", [
    "const", "pow:alpha=0.5", "pow:alpha=0.75", "pow-shifted:alpha=0.5",
    "factorial-staircase", "iterlog:k=1,m=16", "chihara",
    "paired:eps=1,inner=pow,alpha=1",
])
def test_catalog_positivity(text):
    seq = instantiate(text)
    for n in [0, 1, 2, 17, 100, 1234, 10_000]:
        assert seq.a(n) > 0.0
        assert math.isfinite(seq.b(n))


# --- SequencePair / WeightSequence -----------------------------------------


def test_sequence_pair_rejects_nonpositive_a():
    bad = SequencePair(lambda n: -1.0, lambda n: 0.0)
    with pytest.raises(DomainError):
        bad.a(0)


def test_sequence_pair_finite_length_bounds():
    seq = SequencePair.from_table([1.0, 2.0], [0.0, 1.0])
    assert seq.a(1) == 2.0
    with pytest.raises(DomainError):
        seq.a(2)
    with pytest.raises(DomainError):
        seq.a(-1)


def test_weight_sequence_minus_one_convention():
    alpha = WeightSequence.ones()
    assert alpha(-1) == 0.0
    assert alpha(0) == 1.0
    with pytest.raises(DomainError):
        alpha(-2)


def test_weight_sequence_rejects_nonpositive():
    alpha = WeightSequence(lambda n: 0.0)
    with pytest.raises(DomainError):
        alpha(0)


def test_weight_from_a_matches_a():
    seq = instantiate("pow:alpha=0.5")
    alpha = WeightSequence.from_a(seq)
    assert alpha(7) == seq.a(7)


def test_iterlog_weight_cutoff():
    seq = instantiate("const")
    alpha = WeightSequence.iterlog_weight(seq, 1)
    assert alpha(1) == 1.0                       # below cutoff: log(1) = 0
    assert alpha(10) == pytest.approx(10.0 * math.log(10.0))


# --- iterated logarithms ---------------------------------------------------


def test_iterlog_g_basics():
    assert iterlog_g(0, 5.0) == 1.0
    assert iterlog_g(1, math.e) == pytest.approx(1.0)
    assert iterlog_g(2, 100.0) == pytest.approx(
        math.log(100.0) * math.log(math.log(100.0)))
    with pytest.raises(DomainError):
        iterlog_g(2, 2.0)
    with pytest.raises(DomainError):
        iterlog_g(-1, 10.0)


def _iterlog_valid(K, n):
    try:
        return iterlog_g(K, float(n)) > 0.0
    except DomainError:
        return False


@pytest.mark.parametrize("K", [0, 1, 2, 3, 4])
def test_first_iterlog_valid_is_the_first_valid_index(K):
    n = _first_iterlog_valid(K)
    assert _iterlog_valid(K, n)
    assert n == 1 or not _iterlog_valid(K, n - 1)
    if K <= 3:  # small enough to scan every index below
        assert not any(_iterlog_valid(K, m) for m in range(1, n))


def test_first_iterlog_valid_overflow_is_domain_error():
    with pytest.raises(DomainError):
        _first_iterlog_valid(5)


@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize("x", [100.0, 10_000.0])
def test_iterlog_g_prime_finite_difference(K, x):
    h = 1e-5 * x
    numeric = (iterlog_g(K, x + h) - iterlog_g(K, x - h)) / (2.0 * h)
    exact = iterlog_g_prime(K, x)
    assert exact == pytest.approx(numeric, rel=1e-6)


# --- table loading ---------------------------------------------------------


def test_load_table_sorts_and_defaults_b(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("n,a\n1,2.0\n0,1.0\n2,3.0\n")
    seq = load_table(str(p))
    assert seq.a_array(3).tolist() == [1.0, 2.0, 3.0]
    assert seq.b_array(3).tolist() == [0.0, 0.0, 0.0]


def test_load_table_empty_is_error(tmp_path):
    p = tmp_path / "e.csv"
    p.write_text("n,a,b\n")
    with pytest.raises(DomainError):
        load_table(str(p))
