"""Property test of the CLI contract over generated argv and spec strings.

For every input, ``cli.main`` must finish within a wall-time bound with
exit code 0, 2 or 3, and print no traceback: argparse usage errors exit 2
through ``SystemExit``, and any other exception escaping ``main`` fails
the test.  A numpy ``RuntimeWarning`` is turned into such an exception,
and a success exit writes nothing to stderr.  Sizes stay small (``--n`` <= 300, ``--size`` <= 50) and the
examples are derandomized, so the run is deterministic and takes seconds.
"""

import contextlib
import io
import os
import tempfile
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from jacobi_spectra import cli

WALL_BOUND_S = 10.0

FIXTURES = tempfile.TemporaryDirectory()
TABLES = {
    "coeffs": "n,a,b\n" + "".join("%d,%d,0\n" % (n, n + 1) for n in range(400)),
    "short": "0,1\n1,2\n",
    "huge": "0,1e308\n1,1e308\n2,1e308\n",
    "garbage": "x,y\n1,\n,\n",
    "rates": "n,lambda,mu\n" + "".join("%d,%d,%d\n" % (n, n + 1, n)
                                      for n in range(400)),
    "rates_short": "0,1,0\n1,2\n",
    "gap": "0,1\n1,2\n3,5\n",
}
for _name, _text in TABLES.items():
    with open(os.path.join(FIXTURES.name, _name + ".csv"), "w") as _fh:
        _fh.write(_text)
with open(os.path.join(FIXTURES.name, "binary.csv"), "wb") as _fh:
    _fh.write(b"0,1\n\xff\xfe,2\n")  # not UTF-8
PATHS = [os.path.join(FIXTURES.name, name + ".csv")
         for name in list(TABLES) + ["binary"]]
PATHS += [FIXTURES.name, os.path.join(FIXTURES.name, "missing.csv")]

# plain numbers two times in three, extreme or malformed ones otherwise
PLAIN = st.sampled_from(["0", "1", "-1", "0.5", "2.5", "-3", "16", "1e-9"])
NUMBERS = st.one_of(PLAIN, PLAIN, st.sampled_from([
    "400", "1e-320", "1e12", "1e300", "-1e300", "nan", "inf", "-inf", "x", "",
    "1,2", "1" + "0" * 400, "-1" + "0" * 400]))
FAMILIES = st.sampled_from(
    ["const", "pow", "pow-shifted", "paired", "factorial-staircase",
     "iterlog", "chihara", "table", "nope", ""])
KEYS = st.sampled_from(["alpha", "eps", "k", "m", "inner", "K", "zz", ""])


@st.composite
def specs(draw):
    kind = draw(st.integers(0, 9))
    if kind < 5:
        return draw(st.sampled_from(
            ["const", "pow:alpha=0.5", "chihara", "factorial-staircase",
             "paired:eps=0.01,inner=pow,alpha=1", "iterlog:k=1,m=16",
             "pow-shifted:alpha=0.5", "iterlog:k=2,m=2", "pow:alpha=400",
             "pow-shifted:alpha=-0.5", "pow:alpha=1" + "0" * 400]))
    if kind < 7:
        return "table:" + draw(st.sampled_from(PATHS))
    if kind < 9:
        family = draw(FAMILIES)
        items = draw(st.lists(st.tuples(KEYS, st.one_of(NUMBERS, FAMILIES)),
                              max_size=3))
        params = ",".join("%s=%s" % kv for kv in items)
        return family + (":" + params if draw(st.booleans()) else "")
    return draw(st.text(st.sampled_from("abcdeiklmnoprstw:=,.-+0123456789"),
                        max_size=24))


def option(flag, values):
    """``[flag, value]`` or nothing."""
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def required(flag, values):
    return values.map(lambda v: [flag, v])


def _concat(*parts):
    return st.tuples(*parts).map(lambda ps: [a for p in ps for a in p])


# integers nine times in ten, otherwise not an integer at all
N = st.one_of(*[st.integers(-3, 300).map(str)] * 9, st.just("x"))
SIZE = st.one_of(*[st.integers(-3, 50).map(str)] * 9, st.just("1e3"))
ALPHAS = st.sampled_from(["a", "one", "iterlog:1", "iterlog:2", "iterlog:x",
                          "iterlogx", "nope"] + ["table:" + p for p in PATHS])
RATES = st.one_of(st.sampled_from(["lam=linear,mu=linear",
                                   "lam=quadratic,mu=linear", "lam=linear",
                                   "lam=linear,mu=linear,zz=1",
                                   "bd:lam=nope,mu=linear", ""]),
                  st.sampled_from(PATHS))

ANALYZE = _concat(
    st.just(["analyze"]), required("--seq", specs()), required("--n", N),
    option("--lambda", st.lists(NUMBERS, max_size=3).map(",".join)),
    option("--alpha", ALPHAS),
    option("--init", st.one_of(st.just("p"),
                               st.tuples(NUMBERS, NUMBERS).map(",".join))))
CHECK = _concat(
    required("--theorem", st.sampled_from(["A", "B", "C", "42", "43", "51"])),
    required("--seq", specs()), required("--n", N), option("--alpha", ALPHAS),
    option("--k", st.integers(-2, 6).map(str)), option("--bd", RATES),
    option("--rates", RATES)).map(lambda argv: ["check"] + argv)
SPECTRUM = _concat(
    st.just(["spectrum"]), required("--seq", specs()), required("--size", SIZE),
    st.one_of(st.just([]), option("--bin", NUMBERS),
              st.tuples(NUMBERS, NUMBERS, NUMBERS).map(
                  lambda w: ["--window=%s,%s" % w[:2], "--bin", w[2]])),
    st.sampled_from([[], ["--weights"]]), option("--tol", NUMBERS))
TRANSFORM = _concat(
    st.sampled_from(["flip", "even", "odd", "bd"]).map(
        lambda k: ["transform", k]),
    option("--seq", specs()), required("--n", N), option("--bd", RATES),
    option("--rates", RATES))


def run_cli(argv):
    """(exit code, stderr, seconds) of one in-process ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, err.getvalue(), time.perf_counter() - start


# a numpy warning is an error: no input may make one, on any exit
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=400, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=st.one_of(ANALYZE, CHECK, SPECTRUM, TRANSFORM))
def test_cli_contract_holds_for_generated_input(argv):
    with tempfile.TemporaryDirectory() as out:
        code, err, seconds = run_cli(argv + ["--out", out])
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    assert seconds < WALL_BOUND_S, (argv, seconds)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=400, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=st.one_of(ANALYZE, CHECK, SPECTRUM, TRANSFORM))
def test_success_exit_writes_nothing_to_stderr(argv):
    with tempfile.TemporaryDirectory() as out:
        code, err, _ = run_cli(argv + ["--out", out])
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code == 0:
        assert err == "", (argv, err)
