"""End-to-end tests for the command-line front end."""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import jacobi_spectra
from jacobi_spectra import (ParseError, SequencePair, check_theorem_43, flip,
                            instantiate, parse_family, s_sequence, square_even,
                            square_odd, verdicts_to_json)
from jacobi_spectra.cli import _resolve_alpha, _resolve_init, build_parser, main
from jacobi_spectra.recurrence import _LOG_HUGE, _exp_signed, _sign_log_abs


def run(args):
    return main(args)


# --- analyze ---------------------------------------------------------------


def test_analyze_writes_traces_and_config(tmp_path, capsys):
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["analyze", "--seq", "pow:alpha=0.5", "--lambda",
                    "0.5,1.5", "--n", "100", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().err == ""
    names = {p.name for p in out.iterdir()}
    assert "config.json" in names
    assert "eigvec_lambda_0p5.csv" in names
    assert "diagnostics_lambda_1p5.csv" in names
    cfg = json.loads((out / "config.json").read_text())
    assert cfg["command"] == "analyze"
    assert cfg["lambdas"] == [0.5, 1.5]
    assert cfg["version"]


def read_csv(path):
    """The header and the float columns of a written CSV, '' as NaN."""
    header, *rows = path.read_text().splitlines()
    cells = [[float(c) if c else math.nan for c in row.split(",")]
             for row in rows]
    return header.split(","), np.array(cells).T


def bits(x):
    """x as int64 bit patterns; every NaN is written as ``nan``, so one NaN."""
    return np.where(np.isnan(x), np.nan, x).view(np.int64)


@pytest.mark.parametrize("seq, alpha, lam, init, n", [
    ("pow:alpha=0.5", "a", 0.5, "p", 2000),
    # u beyond binary64 at large n: its cell is blank there
    ("chihara", "one", -400.0, "p", 2000),
    # every state NaN: sign -1, log|u| NaN, u blank
    ("const", "a", 0.0, "nan,1", 20),
])
def test_analyze_csvs_read_back_bit_for_bit(seq, alpha, lam, init, n,
                                            tmp_path):
    out = tmp_path / "run"
    assert run(["analyze", "--seq", seq, "--alpha", alpha, "--lambda=%r" % lam,
                "--init", init, "--n", str(n), "--out", str(out)]) == 0
    family = instantiate(parse_family(seq))
    trace = s_sequence(family, _resolve_alpha(alpha, family), lam,
                       _resolve_init(init, family, lam), n)
    tag = ("%g" % lam).replace("-", "m").replace(".", "p")
    header, got = read_csv(out / ("diagnostics_lambda_%s.csv" % tag))
    assert header == ["n", "S_over_Shat", "F", "sumFminus",
                      "sum_inv_a_alpha", "wmin", "wmax"]
    for column, want in zip(got, [trace.n, trace.s_over_shat, trace.F,
                                  trace.sum_F_minus, trace.sum_inv_a_alpha,
                                  trace.w_min, trace.w_max]):
        assert (bits(column) == bits(want.astype(float))).all()
    header, (n_col, sign, log_abs, u) = read_csv(
        out / ("eigvec_lambda_%s.csv" % tag))
    assert header == ["n", "sign_u", "log_abs_u", "u_if_representable"]
    want_sign, want_log = _sign_log_abs(trace.states[:, 0], trace.states[:, 2])
    assert (n_col == np.arange(n + 1)).all()
    assert (sign == want_sign).all()
    assert (bits(log_abs) == bits(want_log)).all()
    # the rule: u shown where sign is 0 or |log u| < log(DBL_MAX), else blank
    blank = np.isnan(u)
    assert (blank == ((want_sign != 0) & ~(np.abs(want_log) < _LOG_HUGE))).all()
    assert (bits(u[~blank])
            == bits(_exp_signed(want_sign, want_log)[~blank])).all()
    assert blank.any() == (seq != "pow:alpha=0.5")


def test_analyze_custom_init_and_alpha(tmp_path):
    out = tmp_path / "run"
    code = run(["analyze", "--seq", "const", "--lambda", "0",
                "--n", "50", "--alpha", "one", "--init", "1,0",
                "--out", str(out)])
    assert code == 0
    lines = (out / "eigvec_lambda_0.csv").read_text().splitlines()
    assert len(lines) == 52           # header + n = 0..50


def test_analyze_bad_seq_exits_2(tmp_path, capsys):
    assert run(["analyze", "--seq", "nope", "--lambda", "1",
                "--n", "50", "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_analyze_domain_error_exits_3(tmp_path):
    # iterlog family with an M whose iterated log is nonpositive
    assert run(["analyze", "--seq", "iterlog:k=2,m=2", "--lambda", "1",
                "--n", "50", "--out", str(tmp_path)]) == 3


# --- check -----------------------------------------------------------------


def test_check_verdict_json_on_stdout(capsys):
    assert run(["check", "--theorem", "B", "--seq", "pow:alpha=0.5",
                "--n", "1000"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["overall"] == "pass"
    assert {c["condition"] for c in report["conditions"]} == {
        "CorB.a", "CorB.b", "CorB.c", "CorB.d", "CorB.e"}


def test_check_failing_verdict_still_exits_0(capsys):
    assert run(["check", "--theorem", "B", "--seq", "pow:alpha=0.75",
                "--n", "1000"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["overall"] == "fail"


def test_check_corollary_C_extras(capsys):
    assert run(["check", "--theorem", "C", "--seq", "chihara",
                "--n", "1000"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["M"] == pytest.approx(0.0, abs=1e-12)
    assert report["ratio_tail"] == pytest.approx(0.25, abs=1e-3)


def test_check_theorem_51_with_rates(capsys):
    assert run(["check", "--theorem", "51", "--bd", "lam=linear,mu=linear",
                "--n", "1000"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["overall"] == "pass"
    assert report["conclusion"] == "sigma(Q) = (-inf, 0]"


def test_check_writes_outdir(tmp_path):
    out = tmp_path / "chk"
    assert run(["check", "--theorem", "A", "--seq", "pow:alpha=0.5",
                "--alpha", "a", "--n", "500", "--out", str(out)]) == 0
    report = json.loads((out / "verdict.json").read_text())
    assert len(report["conditions"]) == 7
    assert (out / "config.json").exists()


@pytest.mark.parametrize("theorem, digest", [
    ("A", "110a562c3158fb4e5ad38c5245826dce9bb8bfe2dde40f7830555ccfd73a7f9a"),
    ("B", "d7bdbc327016ca3b50d8ca1ada7bc5c4c5610429628cfe6fd3ec5c01490ccd49"),
], ids=["A", "B"])
def test_check_overflowing_terms_are_silent(theorem, digest, tmp_path, capsys):
    # a(n) = (n+1)**100: a * alpha (ThmA.e) and a**2 (CorB.b) overflow to
    # inf, and 1/inf = 0.0 is the term graded, with no numpy warning
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["check", "--theorem", theorem, "--seq", "pow:alpha=100",
                    "--n", "200", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    verdict = (out / "verdict.json").read_bytes()
    assert hashlib.sha256(verdict).hexdigest() == digest


def test_check_missing_rates_exits_2():
    assert run(["check", "--theorem", "51", "--n", "1000"]) == 2


@pytest.mark.parametrize("argv, line", [
    (["--theorem", "B", "--seq", "const", "--alpha", "one", "--k", "5"],
     "check --theorem B does not take --alpha, got 'one'"),
    (["--theorem", "C", "--seq", "chihara", "--alpha", "one"],
     "check --theorem C does not take --alpha, got 'one'"),
    (["--theorem", "42", "--seq", "const", "--alpha", "one"],
     "check --theorem 42 does not take --alpha, got 'one'"),
    (["--theorem", "51", "--bd", "lam=linear,mu=linear", "--alpha", "one"],
     "check --theorem 51 does not take --alpha, got 'one'"),
    (["--theorem", "A", "--seq", "const", "--k", "5"],
     "check --theorem A does not take --k, got 5"),
])
def test_check_rejects_an_option_its_theorem_does_not_read(argv, line,
                                                           tmp_path, capsys):
    # --alpha is read by theorem A only and --k by 43 only; elsewhere only
    # their parser defaults are accepted, which config.json replays
    out = tmp_path / "out"
    assert run(["check"] + argv + ["--n", "200", "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: " + line]
    assert not out.exists()


def test_check_theorem_43_deep_K_exits_3_quickly(tmp_path, capsys):
    # the K=9 envelope starts past any representable index
    start = time.perf_counter()
    assert run(["check", "--theorem", "43", "--seq", "const", "--k", "9",
                "--n", "200", "--out", str(tmp_path)]) == 3
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith("error:")


def test_check_theorem_43_k_0_runs_K_0(tmp_path):
    seq_text, n = "pow:alpha=1.5", 2000
    assert run(["check", "--theorem", "43", "--seq", seq_text, "--k", "0",
                "--n", str(n), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "verdict.json").read_text())
    assert json.loads((tmp_path / "config.json").read_text())["K"] == 0
    seq = instantiate(seq_text)
    expected = verdicts_to_json(check_theorem_43(seq, 0, n))["conditions"]
    assert report["conditions"] == expected
    assert expected != verdicts_to_json(
        check_theorem_43(seq, 1, n))["conditions"]


@pytest.mark.parametrize("command, data", [
    (["check", "--theorem", "51"], "verdict.json"),
    (["transform", "bd"], "bd.csv"),
])
def test_rates_and_bd_are_one_option(command, data, tmp_path):
    # the last of --bd / --rates is the one that runs and is recorded
    both, last = tmp_path / "both", tmp_path / "last"
    rates = "lam=quadratic,mu=quadratic"
    assert run(command + ["--bd", "lam=linear,mu=linear", "--rates", rates,
                          "--n", "200", "--out", str(both)]) == 0
    assert run(command + ["--rates", rates, "--n", "200",
                          "--out", str(last)]) == 0
    assert (both / data).read_bytes() == (last / data).read_bytes()
    assert json.loads((both / "config.json").read_text())["rates"] == rates


ZEROS = "0" * 400

# table files written by the test below, by name
TABLES = {
    "bad_number": "0,1\n1,x\n",
    "bad_index": "0,1\nx,1\n",
    "one_column": "0,1\n1\n",
    "short": "0,1\n1,1\n2,1\n",
    "five": "".join("%d,%d,0\n" % (n, n + 1) for n in range(5)),
    "rates_short": "0,1,0\n1,2,1\n2,3,2\n",
    "huge": "0,1e308\n1,1e308\n2,1e308\n",
    "rates_short_row": "0,1,0\n1,2\n",
    "rates_bad_number": "0,1,0\n1,2,x\n",
    # n must be 0..m-1, each once, and an integer
    "gap": "0,1\n1,2\n3,5\n",
    "repeated": "0,1\n1,2\n1,3\n2,4\n",
    "rates_float_index": "0,1,0\n1,2,1\n2,3,2\n3.0,9,9\n",
    "rates_gap": "0,1,0\n1,2,1\n3,4,3\n",
    "rates_repeated": "0,1,0\n1,2,1\n1,3,2\n2,4,3\n",
    # int() and float() would read "_" separators and non-ASCII digits
    "underscore": "n,a,b\n0,1_5,0\n1,2,0\n2,3,0\n",
    "arabic_index": "0,1\n\u0661,2\n2,3\n3,4\n",
    "rates_arabic": "0,1,0\n1,2,1\n2,3,2\n3,4,\u0663\n",
    "rates_underscore_index": "0,1,0\n1,2,1\n2,3,2\n0_3,4,3\n",
    # a cell past the csv module's field size limit
    "big_field": '0,"' + "1" * 200000 + "\n",
    # a(3)/a(2) = 1e-200: Shat(3)/Shat(2) is about 1e400
    "drop": "".join("%d,%s,0\n" % (n, 1 if n < 3 else 1e-200)
                    for n in range(60)),
    # a(n) alpha(n) = 1e-308 from n = 1 on: the running sum of its inverse
    # passes binary64 at n = 2, every factor before it is finite
    "inv_sum": "0,1,0\n" + "".join("%d,1e-154,0\n" % n for n in range(1, 60)),
    # a(1)/a(0) = 1e200, whose square is beyond binary64
    "huge_ratio": "0,1e-100,0\n1,1e100,0\n"
                  + "".join("%d,%d,0\n" % (n, n) for n in range(2, 400)),
    # a(1)/a(0) = 1e600 overflows and a(0)**2 = 1e-600 underflows to 0
    "tiny": "0,1e-300,0\n1,1e300,0\n"
            + "".join("%d,%d,0\n" % (n, n) for n in range(2, 400)),
}


def table_paths(tmp_path):
    """Paths of the TABLES files, written to tmp_path, plus a missing file,
    a directory and a file that is not UTF-8."""
    paths = {"missing": str(tmp_path / "missing.csv"),
             "directory": str(tmp_path), "binary": str(tmp_path / "bin.csv")}
    (tmp_path / "bin.csv").write_bytes(b"0,1\n\xff\xfe,2\n")  # not UTF-8
    for name, text in TABLES.items():
        paths[name] = str(tmp_path / (name + ".csv"))
        (tmp_path / (name + ".csv")).write_text(text, encoding="utf-8")
    return paths


@pytest.mark.parametrize("argv, code", [
    (["spectrum", "--seq", "const", "--size", "10", "--window=1",
      "--bin", "0.5"], 2),
    (["check", "--theorem", "B", "--seq", "table:{missing}", "--n", "200"], 2),
    (["spectrum", "--seq", "pow:alpha=400", "--size", "10"], 3),
    (["check", "--theorem", "51", "--bd", "lam=linear,mu=linear,zz=1",
      "--n", "200"], 2),
    (["spectrum", "--seq", "const", "--size", "10", "--window=nan,1",
      "--bin", "0.5"], 2),
    (["spectrum", "--seq", "const", "--size", "10", "--window=0,1",
      "--bin", "nan"], 2),
    (["spectrum", "--seq", "const", "--size", "10", "--window=0,inf",
      "--bin", "0.5"], 2),
    (["spectrum", "--seq", "const", "--size", "10", "--window=0,1e300",
      "--bin", "1e-300"], 3),
    # a(0) = eps is subnormal: (x - b(0))/a(0) overflows in the weights
    (["spectrum", "--seq", "paired:eps=1e-320,inner=const", "--size", "7",
      "--weights"], 3),
    (["spectrum", "--seq", "paired:eps=5e-324,inner=chihara", "--size", "7",
      "--weights"], 3),
    (["check", "--theorem", "A", "--seq", "const", "--alpha",
      "table:{missing}", "--n", "200"], 2),
    (["check", "--theorem", "A", "--seq", "const", "--alpha", "iterlog:x",
      "--n", "200"], 2),
    (["check", "--theorem", "A", "--seq", "const", "--alpha",
      "table:{bad_number}", "--n", "200"], 2),
    (["check", "--theorem", "A", "--seq", "const", "--alpha",
      "table:{short}", "--n", "200"], 3),
    (["check", "--theorem", "B", "--seq", "table:{bad_number}", "--n", "200"], 2),
    (["check", "--theorem", "B", "--seq", "table:{bad_index}", "--n", "200"], 2),
    (["check", "--theorem", "B", "--seq", "table:{one_column}", "--n", "200"], 2),
    (["analyze", "--seq", "const", "--lambda", "abc", "--n", "20"], 2),
    (["analyze", "--seq", "const", "--init", "x,y", "--n", "20"], 2),
    (["analyze", "--seq", "const", "--init", "1,2,3", "--n", "20"], 2),
    # a non-finite --init stays accepted, a non-finite --lambda does not
    *[(["analyze", "--seq", "const", "--lambda=" + lam, "--n", "5"], 2)
      for lam in ("inf", "nan", "-inf")],
    (["check", "--theorem", "51", "--rates", "{rates_short_row}",
      "--n", "200"], 2),
    (["transform", "bd", "--rates", "{rates_bad_number}", "--n", "5"], 2),
    (["check", "--theorem", "51", "--rates", "{directory}", "--n", "200"], 2),
    (["spectrum", "--seq", "const", "--size", "10", "--tol", "inf"], 2),
    (["spectrum", "--seq", "chihara", "--size", "5", "--window=0,1e12",
      "--bin", "1"], 3),
    (["spectrum", "--seq", "table:{huge}", "--size", "3"], 3),
    (["check", "--theorem", "B", "--seq", "table:{binary}", "--n", "200"], 2),
    (["check", "--theorem", "A", "--seq", "const", "--alpha",
      "table:{binary}", "--n", "200"], 2),
    (["check", "--theorem", "51", "--rates", "{binary}", "--n", "200"], 2),
    # finite entries, but a(49)**2 overflows binary64
    (["spectrum", "--seq", "pow:alpha=150", "--size", "50"], 3),
    (["spectrum", "--seq", "pow:alpha=150", "--size", "50", "--window=0,1",
      "--bin", "0.5"], 3),
    # negative row counts, and faults met inside array builders: no numpy
    # warning joins the error line
    (["transform", "flip", "--seq", "const", "--n", "-5"], 2),
    (["transform", "bd", "--bd", "lam=linear,mu=linear", "--n", "-5"], 2),
    (["transform", "even", "--seq", "pow:alpha=400", "--n", "200"], 3),
    (["transform", "odd", "--seq", "pow:alpha=200", "--n", "200"], 3),
    (["check", "--theorem", "B", "--seq", "pow:alpha=400", "--n", "200"], 3),
    (["transform", "even", "--seq", "table:{huge}", "--n", "1"], 3),
    # a(0) = 0.0 ** alpha with alpha < 0
    (["transform", "even", "--seq", "pow-shifted:alpha=-0.5", "--n", "5"], 3),
    (["spectrum", "--seq", "pow-shifted:alpha=-0.5", "--size", "5"], 3),
    (["analyze", "--seq", "pow-shifted:alpha=-1", "--n", "50"], 3),
    # integer parameters outside the binary64 range
    (["spectrum", "--seq", "pow:alpha=1" + ZEROS, "--size", "5"], 2),
    (["spectrum", "--seq", "pow-shifted:alpha=1" + ZEROS, "--size", "5"], 2),
    (["spectrum", "--seq", "paired:eps=1" + ZEROS + ",inner=const",
      "--size", "5"], 2),
    (["transform", "flip", "--seq", "pow:alpha=-1" + ZEROS, "--n", "3"], 2),
    (["check", "--theorem", "B", "--seq", "iterlog:k=1,m=1" + ZEROS,
      "--n", "200"], 2),
    (["check", "--theorem", "B", "--seq", "iterlog:k=1" + ZEROS + ",m=16",
      "--n", "200"], 2),
    (["check", "--theorem", "A", "--seq", "const", "--alpha", "iterlogxyz",
      "--n", "200"], 2),
    # every table reader takes rows n = 0..m-1, each once, with n an integer
    *[(["check", "--theorem", "B", "--seq", "table:{%s}" % name, "--n", "200"], 2)
      for name in ("gap", "repeated", "rates_float_index", "big_field")],
    *[(["check", "--theorem", "A", "--seq", "const", "--alpha",
        "table:{%s}" % name, "--n", "200"], 2)
      for name in ("gap", "repeated", "rates_float_index", "one_column")],
    *[(["check", "--theorem", "51", "--rates", "{%s}" % name, "--n", "200"], 2)
      for name in ("gap", "repeated", "rates_float_index", "rates_gap",
                   "rates_repeated")],
    (["check", "--theorem", "51", "--bd", "lam=linear,lam=quadratic,mu=linear",
      "--n", "200"], 2),
    # an unknown rate name or a missing key is a spec error, like a family
    (["check", "--theorem", "51", "--bd", "lam=cubic,mu=linear", "--n", "200"], 2),
    (["check", "--theorem", "51", "--bd", "lam=linear", "--n", "200"], 2),
    (["spectrum", "--seq", "paired:eps=1,inner=pow,alpha=1,alpha=2",
      "--size", "5"], 2),
    # a(n) alpha(n) = (n+1)**200 overflows from n = 34 on
    (["analyze", "--seq", "pow:alpha=100", "--n", "50"], 3),
    (["analyze", "--seq", "table:{drop}", "--n", "50"], 3),
    # a(n) alpha(n) = (n+1)**-400 is below 1/DBL_MAX from n = 5 on: the sum
    # of its inverse overflows there, and F would divide 0/0 where it is 0
    (["analyze", "--seq", "pow:alpha=-200", "--n", "40"], 3),
    # both lams name the same pair of files
    (["analyze", "--seq", "const", "--lambda", "0.5,0.5", "--n", "20"], 2),
    # arrays of 10**15 floats (over 8 PB) cannot be allocated: numpy fails
    # at once, where a size the kernel could overcommit would not
    (["transform", "flip", "--seq", "const", "--n", "1" + "0" * 15], 3),
    (["check", "--theorem", "B", "--seq", "const", "--n", "1" + "0" * 15], 3),
    (["spectrum", "--seq", "const", "--size", "1" + "0" * 15], 3),
    # a sequence where the rates are read, and rates where the sequence is
    (["check", "--theorem", "51", "--seq", "const", "--bd",
      "lam=linear,mu=linear", "--n", "200"], 2),
    (["transform", "bd", "--seq", "const", "--bd", "lam=linear,mu=linear",
      "--n", "5"], 2),
    *[(["check", "--theorem", theorem, "--seq", "const", "--rates",
        "lam=linear,mu=linear", "--n", "200"], 2)
      for theorem in ("A", "B", "C", "42", "43")],
    *[(["transform", kind, "--seq", "const", "--bd", "lam=linear,mu=linear",
        "--n", "5"], 2) for kind in ("flip", "even", "odd")],
    # an option the spectrum mode would ignore
    (["spectrum", "--seq", "const", "--size", "5", "--bin", "0.1"], 2),
    (["spectrum", "--seq", "const", "--size", "5", "--window=0,1",
      "--bin", "0.1", "--weights"], 2),
    (["spectrum", "--seq", "const", "--size", "5", "--window=0,1",
      "--bin", "0.1", "--tol", "1e-9"], 2),
    # a number with "_" or a non-ASCII digit is malformed in every table
    (["transform", "flip", "--seq", "table:{underscore}", "--n", "3"], 2),
    (["analyze", "--seq", "const", "--alpha", "table:{arabic_index}",
      "--n", "3"], 2),
    *[(["transform", "bd", "--rates", "{%s}" % name, "--n", "3"], 2)
      for name in ("rates_arabic", "rates_underscore_index")],
    # so is a family-spec number
    *[(["transform", "flip", "--seq", seq, "--n", "3"], 2)
      for seq in ("pow:alpha=\u0661", "pow:alpha=\uff11.5",
                  "iterlog:k=\u0662,m=16")],
    # and so is a number in an option value that the commands split
    *[(["analyze", "--seq", "const", "--n", "10", option, value], 2)
      for option, value in (("--lambda", "1_5"), ("--lambda", "\u0661"),
                            ("--lambda", "0.5,1_5"), ("--init", "1_0,1"),
                            ("--init", "1,\u0661"))],
    (["spectrum", "--seq", "const", "--size", "5", "--window=0,1_0",
      "--bin", "0.5"], 2),
    *[(["check", "--theorem", "A", "--seq", "const", "--alpha", alpha,
        "--n", "200"], 2) for alpha in ("iterlog:\u0661", "iterlog:1_0")],
    # out-of-range values of the options themselves are usage errors
    *[(["spectrum", "--seq", "const", "--size", "10", "--tol", tol], 2)
      for tol in ("0", "-1", "nan")],
    *[(["spectrum", "--seq", "const", "--size", "10", "--window=0,1",
        "--bin", width], 2) for width in ("0", "-1")],
    *[(["analyze", "--seq", "const", "--n", n], 2) for n in ("1", "0", "-3")],
    *[(["check", "--theorem", theorem, "--seq", "const", "--n", "99"], 2)
      for theorem in ("A", "B", "C", "42", "43")],
    (["check", "--theorem", "51", "--bd", "lam=linear,mu=linear", "--n", "0"],
     2),
])
def test_bad_input_exits_with_one_error_line(argv, code, tmp_path, capsys):
    argv = [a.format(**table_paths(tmp_path)) for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv + ["--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert list((tmp_path / "out").glob("*.csv")) == []


# the same rule, with the whole line checked
@pytest.mark.parametrize("argv, line", [
    (["spectrum", "--seq", "const", "--size", "3", "--window=0,1",
      "--bin", "1e-300"], "1e+300 bins exceed the limit of 100000"),
    (["spectrum", "--seq", "const", "--size", "3", "--window=0,1",
      "--bin", "9.99e-6"], "100101 bins exceed the limit of 100000"),
    (["spectrum", "--seq", "const", "--size", "10", "--window=0,1e300",
      "--bin", "1e-300"], "window width / bin width = inf is not a bin count"),
    (["spectrum", "--seq", "paired:eps=1e-320,inner=const", "--size", "7",
      "--weights"], "Gauss weights sum to nan, not 1 within 1e-06"),
    (["check", "--theorem", "A", "--seq", "const", "--alpha", "iterlog:-1",
      "--n", "200"], "iterated-log order must be >= 0, got -1"),
    (["analyze", "--seq", "pow:alpha=-200", "--n", "5"],
     "diagnostics overflow at n = 5: sum_inv_a_alpha(n) is inf, with a(4) = "
     "1.6069380442589902e-140, a(5) = 2.3428793431392825e-156, alpha(4) = "
     "1.6069380442589902e-140, alpha(5) = 2.3428793431392825e-156 and "
     "lam - b(5) = 0.0"),
    (["analyze", "--seq", "table:{inv_sum}", "--n", "50"],
     "diagnostics overflow at n = 2: sum_inv_a_alpha(n) is inf, with a(1) = "
     "1e-154, a(2) = 1e-154, alpha(1) = 1e-154, alpha(2) = 1e-154 and "
     "lam - b(2) = 0.0"),
    # a read past a table's end names the entry, the table and its length,
    # also through a derived sequence
    (["check", "--theorem", "A", "--seq", "const", "--alpha",
      "table:{short}", "--n", "200"],
     "alpha(3) requested from 'table:{short}' of length 3"),
    (["transform", "bd", "--rates", "{rates_short}", "--n", "3"],
     "mu(3) requested from 'table:{rates_short}' of length 3"),
    (["check", "--theorem", "51", "--rates", "{rates_short}", "--n", "100"],
     "mu(3) requested from 'table:{rates_short}' of length 3"),
    (["spectrum", "--seq", "table:{five}", "--size", "9"],
     "b(5) requested from 'table:{five}' of length 5"),
    (["transform", "even", "--seq", "table:{five}", "--n", "3"],
     "b(5) requested from 'table:{five}' of length 5"),
    # a tol wider than the Gershgorin interval isolates with no sweep; the
    # overflow is still found
    (["spectrum", "--seq", "pow:alpha=150", "--size", "50", "--tol", "1e300"],
     "squared off-diagonal overflows binary64: max a = 3.38385702007491e+253"),
])
def test_bad_input_error_line(argv, line, tmp_path, capsys):
    paths = table_paths(tmp_path)
    argv, line = [a.format(**paths) for a in argv], line.format(**paths)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv + ["--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.splitlines() == ["error: " + line]
    assert list((tmp_path / "out").glob("*.csv")) == []


@pytest.mark.parametrize("seq, message", [
    ("pow:alpha=100", "diagnostics overflow at n = 34: a(n) alpha(n) is inf, "
     "with a(33) = 1.4056969554982675e+153, a(34) = 2.5515520672986852e+154, "
     "alpha(33) = 1.4056969554982675e+153, alpha(34) = "
     "2.5515520672986852e+154 and lam - b(34) = 0.0"),
    ("table:{drop}", "diagnostics overflow at n = 2: Shat(n+1)/Shat(n) is "
     "beyond binary64"),
])
def test_analyze_overflowing_diagnostics_name_n(seq, message, tmp_path,
                                                capsys):
    seq = seq.format(**table_paths(tmp_path))
    assert run(["analyze", "--seq", seq, "--n", "50",
                "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.splitlines() == ["error: " + message]


@pytest.mark.parametrize("argv, verdicts", [
    # CorB.c squares only ratios below 1: a(1)/a(0) = 1e200 gives the term 0
    (["check", "--theorem", "B", "--seq", "table:{huge_ratio}", "--n", "200"],
     {"CorB.a": "pass", "CorB.b": "fail", "CorB.c": "pass", "CorB.d": "pass",
      "CorB.e": "pass"}),
    # the last n before a(n) alpha(n) overflows
    (["analyze", "--seq", "pow:alpha=100", "--n", "33"], None),
    # graded as IEEE values: the ratio as inf and 1/a(0)**2 as 1/0 = inf
    (["check", "--theorem", "A", "--seq", "table:{tiny}", "--n", "200"],
     {"ThmA.a": "pass", "ThmA.b": "pass", "ThmA.c": "pass", "ThmA.d": "pass",
      "ThmA.e": "fail", "ThmA.f": "pass", "ThmA.g": "pass"}),
    (["check", "--theorem", "B", "--seq", "table:{tiny}", "--n", "200"],
     {"CorB.a": "pass", "CorB.b": "fail", "CorB.c": "pass", "CorB.d": "pass",
      "CorB.e": "pass"}),
    (["check", "--theorem", "C", "--seq", "table:{tiny}", "--n", "200"],
     {"CorC.a": "pass", "CorC.b": "pass", "CorC.c": "pass", "CorC.d": "fail"}),
    (["check", "--theorem", "42", "--seq", "table:{tiny}", "--n", "200"],
     {"Thm42.a": "pass", "Thm42.b": "pass", "Thm42.c": "pass",
      "Thm42.d": "pass"}),
    (["check", "--theorem", "43", "--seq", "table:{tiny}", "--n", "200"],
     {"Thm43.a": "pass", "Thm43.b": "pass", "Thm43.c": "pass",
      "Thm43.d": "pass"}),
])
def test_extreme_input_exits_0_silently(argv, verdicts, tmp_path, capsys):
    out = tmp_path / "out"
    argv = [a.format(**table_paths(tmp_path)) for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    if verdicts:
        report = json.loads((out / "verdict.json").read_text())
        assert {c["condition"]: c["verdict"]
                for c in report["conditions"]} == verdicts
    else:
        assert len((out / "diagnostics_lambda_0.csv").read_text()
                   .splitlines()) == 34


@pytest.mark.parametrize("argv", [
    ["transform", "flip", "--n", "2"],
    ["analyze", "--n", "2"],
    ["spectrum", "--size", "3"],
])
def test_table_with_nonfinite_b_exits_3(argv, tmp_path, capsys):
    table = tmp_path / "b_nan.csv"
    table.write_text("0,1,nan\n1,1,0\n2,1,0\n")
    out = tmp_path / "out"
    assert run(argv + ["--seq", "table:" + str(table), "--out", str(out)]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: b(0) = nan is not finite for family %r" % ("table:" + str(table))]
    assert list(out.glob("*.csv")) == []


def test_alpha_table_rows_may_come_in_any_order(tmp_path):
    rows = ["%d,%r\n" % (n, (n + 1) ** 0.5) for n in range(400)]
    reports = []
    # a UTF-8 byte-order mark, as a spreadsheet writes, reads the same
    for name, lines in (("sorted", ["n,alpha\n"] + rows),
                        ("reversed", ["n,alpha\n"] + rows[::-1]),
                        ("bom", ["\ufeffn,alpha\n"] + rows)):
        (tmp_path / (name + ".csv")).write_text("".join(lines),
                                                encoding="utf-8")
        out = tmp_path / name
        assert run(["check", "--theorem", "A", "--seq", "pow:alpha=0.5",
                    "--alpha", "table:" + str(tmp_path / (name + ".csv")),
                    "--n", "300", "--out", str(out)]) == 0
        reports.append((out / "verdict.json").read_text())
    assert reports[0] == reports[1] == reports[2]


@pytest.mark.parametrize("kind, spec", [
    ("flip", "chihara"),
    ("even", "pow:alpha=0.37"),
    ("odd", "paired:eps=0.01,inner=pow,alpha=1"),
])
def test_transform_table_reads_back_as_its_sequence(kind, spec, tmp_path):
    # transform writes n,a,b, the layout of a sequence table
    assert run(["transform", kind, "--seq", spec, "--n", "300",
                "--out", str(tmp_path)]) == 0
    table = SequencePair.read_table(str(tmp_path / (kind + ".csv")))
    derived = {"flip": flip, "even": square_even,
               "odd": square_odd}[kind](instantiate(spec))
    assert table.length == 300
    assert bits(table.a_array(300)).tolist() == bits(
        derived.a_array(300)).tolist()
    assert bits(table.b_array(300)).tolist() == bits(
        derived.b_array(300)).tolist()


def test_density_through_exact_zero_pivots_is_silent(tmp_path, capsys):
    # zero diagonal: the bin edges 0, 0.25, ... hit exact zero pivots
    out = tmp_path / "out"
    assert run(["spectrum", "--seq", "const", "--size", "300", "--window=-3,12",
                "--bin", "0.25", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert (out / "density.csv").exists()


@pytest.mark.parametrize("big", ["1e300", "1e200"])
def test_spectrum_weights_of_huge_diagonal_exit_3(big, tmp_path, capsys):
    # b alternating +-big with a = 1: p_n passes binary64's range in two
    # rows, every weight comes out 0, and weights that sum to 0 are an error
    table = tmp_path / "huge_b.csv"
    table.write_text("".join("%d,1,%s%s\n" % (n, "-" if n % 2 else "", big)
                             for n in range(20)))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["spectrum", "--seq", "table:" + str(table), "--size", "20",
                    "--weights", "--out", str(out)]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: Gauss weights sum to 0.0, not 1 within 1e-06"]
    assert list(out.glob("*")) == []


def test_analyze_underflowing_step_exits_3(tmp_path, capsys):
    # a(0)/a(1) = 1e-300/1e300 underflows: at lambda 0 with b = 0 the pair
    # (u(1), u(2)) is (0, 0) relative to u(0)
    table = tmp_path / "F.csv"
    table.write_text("0,1e-300,0\n1,1e300,0\n2,1,0\n3,1,0\n")
    out = tmp_path / "out"
    assert run(["analyze", "--seq", "table:" + str(table), "--lambda", "0",
                "--n", "3", "--out", str(out)]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: propagation underflows at n = 1: a(0)/a(1) = 1e-300/1e+300 "
        "rounds to 0, so (u(1), u(2)) is (0, 0) relative to u(0)"]
    assert list(out.glob("*.csv")) == []


def test_analyze_overflowing_step_exits_3(tmp_path, capsys):
    # a(0)/a(1) = 1e300/1e-300 overflows: u(2) is -inf relative to u(0),
    # where the pair used to turn into (0, nan) with numpy warnings
    table = tmp_path / "G.csv"
    table.write_text("0,1e300,0\n1,1e-300,0\n2,1,0\n3,1,0\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["analyze", "--seq", "table:" + str(table), "--lambda",
                    "0.5", "--n", "3", "--out", str(out)]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: propagation overflows at n = 1: u(2) is beyond binary64 "
        "relative to (u(0), u(1)), with a(0) = 1e+300, a(1) = 1e-300 and "
        "lam - b(1) = 0.5"]
    assert list(out.glob("*.csv")) == []


@pytest.mark.parametrize("argv, code", [
    # the ids of the exit-3 cases are those of the earlier argv-only form
    pytest.param(["transform", "even", "--seq", "chihara", "--n", "5"], 3,
                 id="argv0"),
    pytest.param(["transform", "bd", "--rates", "{rates}", "--n", "5"], 3,
                 id="argv1"),
    pytest.param(["analyze", "--seq", "const", "--n", "1"], 2, id="argv2"),
    pytest.param(["spectrum", "--seq", "pow:alpha=150", "--size", "50"], 3,
                 id="argv3"),
    pytest.param(["spectrum", "--seq", "pow:alpha=150", "--size", "50",
                  "--window=0,1", "--bin", "0.5"], 3, id="argv4"),
    pytest.param(["transform", "flip", "--seq", "const", "--n", "-5"], 2,
                 id="flip-negative-n"),
    pytest.param(["transform", "bd", "--bd", "lam=linear,mu=linear",
                  "--n", "-5"], 2, id="bd-negative-n"),
    pytest.param(["transform", "even", "--seq", "pow-shifted:alpha=-0.5",
                  "--n", "5"], 3, id="even-pow-shifted-negative-alpha"),
    pytest.param(["spectrum", "--seq", "pow-shifted:alpha=-0.5", "--size", "5"],
                 3, id="spectrum-pow-shifted-negative-alpha"),
    pytest.param(["analyze", "--seq", "pow-shifted:alpha=-1", "--n", "50"], 3,
                 id="analyze-pow-shifted-negative-alpha"),
    pytest.param(["spectrum", "--seq", "pow:alpha=1" + ZEROS, "--size", "5"],
                 2, id="spectrum-pow-huge-alpha"),
    pytest.param(["spectrum", "--seq", "pow-shifted:alpha=1" + ZEROS,
                  "--size", "5"], 2, id="spectrum-pow-shifted-huge-alpha"),
    pytest.param(["spectrum", "--seq", "paired:eps=1" + ZEROS + ",inner=const",
                  "--size", "5"], 2, id="spectrum-paired-huge-eps"),
    pytest.param(["transform", "flip", "--seq", "pow:alpha=-1" + ZEROS,
                  "--n", "3"], 2, id="flip-pow-huge-negative-alpha"),
    pytest.param(["check", "--theorem", "B", "--seq",
                  "iterlog:k=1,m=1" + ZEROS, "--n", "200"], 2,
                 id="check-iterlog-huge-m"),
    pytest.param(["check", "--theorem", "B", "--seq",
                  "iterlog:k=1" + ZEROS + ",m=16", "--n", "200"], 2,
                 id="check-iterlog-huge-k"),
    # lam = 0.5 is written before lam = 1e308 overflows
    pytest.param(["analyze", "--seq", "pow:alpha=100", "--n", "33",
                  "--lambda", "0.5,1e308"], 3, id="analyze-later-lambda-fails"),
    # "%g" gives both lams the tag 0p5: the second pair of files is refused
    pytest.param(["analyze", "--seq", "const", "--n", "20",
                  "--lambda", "0.5,0.50000001"], 2, id="analyze-repeated-tag"),
])
def test_error_exit_leaves_no_csv(argv, code, tmp_path):
    rates = tmp_path / "rates.csv"
    rates.write_text("0,1,0\n1,2,1\n")  # two rows: a finite bd matrix of order 1
    out = tmp_path / "out"
    argv = [a.format(rates=str(rates)) for a in argv]
    assert run(argv + ["--out", str(out)]) == code
    assert list(out.glob("*.csv")) == []


@pytest.mark.parametrize("argv", [
    ["analyze", "--seq", "bogus", "--n", "5"],
    ["check", "--theorem", "B", "--seq", "bogus", "--n", "200"],
    ["spectrum", "--seq", "const", "--size", "5", "--window=0,1"],
    ["transform", "flip", "--seq", "bogus", "--n", "5"],
], ids=lambda argv: argv[0])
def test_error_before_the_first_output_makes_no_out(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not out.exists()


COMMANDS = {
    "analyze": ["analyze", "--seq", "const", "--n", "20"],
    "check": ["check", "--theorem", "B", "--seq", "const", "--n", "200"],
    "spectrum": ["spectrum", "--seq", "const", "--size", "5"],
    "transform": ["transform", "flip", "--seq", "const", "--n", "5"],
}


@pytest.mark.parametrize("command, names", [
    ("analyze", ["config.json", "diagnostics_lambda_0.csv",
                 "eigvec_lambda_0.csv"]),
    ("spectrum", ["config.json", "spectrum.csv"]),
    ("transform", ["config.json", "flip.csv"]),
])
def test_empty_out_writes_to_the_working_directory(command, names, tmp_path,
                                                   monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(COMMANDS[command] + ["--out", ""]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    assert json.loads((tmp_path / "config.json").read_text())["out"] == ""


def test_check_with_empty_out_reports_on_stdout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(COMMANDS["check"] + ["--out", ""]) == 0
    assert json.loads(capsys.readouterr().out)["theorem"] == "B"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs /dev/full, a device whose writes fail")
def test_full_disk_exits_2_naming_the_file(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "spectrum.csv").symlink_to("/dev/full")
    assert run(COMMANDS["spectrum"] + ["--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: cannot write %s: No space left on device"
                   % (out / "spectrum.csv")]
    assert [p.name for p in out.iterdir()] == ["spectrum.csv"]
    assert os.readlink(out / "spectrum.csv") == "/dev/full"


@pytest.mark.parametrize("out", ["file", "file/sub"])
@pytest.mark.parametrize("command", list(COMMANDS))
def test_out_that_cannot_be_a_directory_exits_2(command, out, tmp_path,
                                                 capsys):
    (tmp_path / "file").write_text("kept\n")
    assert run(COMMANDS[command] + ["--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert [p.name for p in tmp_path.rglob("*")] == ["file"]
    assert (tmp_path / "file").read_text() == "kept\n"


@pytest.mark.parametrize("command, taken", [
    ("spectrum", "spectrum.csv"),
    ("transform", "config.json"),   # written last: flip.csv is removed
])
def test_output_that_is_a_directory_exits_2(command, taken, tmp_path, capsys):
    out = tmp_path / "out"
    (out / taken).mkdir(parents=True)
    assert run(COMMANDS[command] + ["--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert [p.relative_to(out) for p in out.rglob("*")] == [Path(taken)]


@pytest.mark.parametrize("command", [
    ["analyze", "--seq", "const", "--n", "20"],
    ["spectrum", "--seq", "const", "--size", "5"],
])
def test_format_option_is_rejected(command, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(command + ["--format", "json", "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--format" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, kind", [
    (["analyze", "--seq", "const", "--n", "1_0"], "int"),
    (["spectrum", "--seq", "const", "--size", "\u0665"], "int"),
    (["spectrum", "--seq", "const", "--size", "5", "--window=0,1",
      "--bin", "1_0"], "float"),
    (["spectrum", "--seq", "const", "--size", "5", "--tol", "\u0661"], "float"),
    (["check", "--theorem", "43", "--seq", "iterlog:k=2,m=16", "--k",
      "\u0662", "--n", "1000"], "int"),
    (["check", "--theorem", "43", "--seq", "iterlog:k=2,m=16",
      "--n", "1_000"], "int"),
    (["transform", "flip", "--seq", "const", "--n", "\uff15"], "int"),
])
def test_typed_option_numbers_follow_the_table_rule(argv, kind, tmp_path,
                                                    capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid %s value" % kind in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_option_numbers_keep_spaces_signs_and_non_finite_values(tmp_path):
    out = tmp_path / "out"
    assert run(["analyze", "--seq", "const", "--n", " +10 ", "--lambda",
                " +0.5, -1", "--init", " inf, 0", "--out", str(out)]) == 0
    config = json.loads((out / "config.json").read_text())
    assert config["n"] == 10 and config["lambdas"] == [0.5, -1.0]
    assert run(["spectrum", "--seq", "const", "--size", "+5", "--tol",
                " 1e-9 ", "--out", str(tmp_path / "spectrum")]) == 0


def test_resolve_alpha_choices():
    seq = instantiate("pow:alpha=0.5")
    assert _resolve_alpha("a", seq)(4) == seq.a(4)
    assert _resolve_alpha("one", seq)(4) == 1.0
    assert _resolve_alpha("iterlog:1", seq)(100) == pytest.approx(
        100.0 * math.log(100.0) / seq.a(100))
    with pytest.raises(ParseError):
        _resolve_alpha("nope", seq)


# --- spectrum --------------------------------------------------------------


def test_spectrum_eigenvalues_csv(tmp_path):
    out = tmp_path / "sp"
    assert run(["spectrum", "--seq", "const", "--size", "50",
                "--weights", "--out", str(out)]) == 0
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "k,eigenvalue,weight"
    assert len(lines) == 51


def test_spectrum_density(tmp_path):
    out = tmp_path / "dens"
    assert run(["spectrum", "--seq", "chihara", "--size", "200",
                "--window=-2,8", "--bin", "0.5", "--out", str(out)]) == 0
    lines = (out / "density.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    # PSD fixture: no eigenvalues below 0
    assert all(int(r[2]) == 0 for r in rows if float(r[1]) <= 0.0)


def test_spectrum_size_zero_exits_2(tmp_path):
    assert run(["spectrum", "--seq", "const", "--size", "0",
                "--out", str(tmp_path)]) == 2


def test_spectrum_window_without_bin_exits_2(tmp_path):
    assert run(["spectrum", "--seq", "const", "--size", "10",
                "--window=-1,1", "--out", str(tmp_path)]) == 2


def test_spectrum_subnormal_tol_runs_the_capped_sweeps(tmp_path):
    # both tolerances ask for more than the 110 bisection sweeps
    csvs = []
    for tol in ("1e-320", "1e-300"):
        out = tmp_path / tol
        assert run(["spectrum", "--seq", "const", "--size", "10", "--tol", tol,
                    "--out", str(out)]) == 0
        csvs.append((out / "spectrum.csv").read_bytes())
    assert csvs[0] == csvs[1]


def test_analyze_propagates_once_per_lambda(tmp_path, monkeypatch):
    from jacobi_spectra import diagnostics
    calls = []
    kernel = diagnostics._propagate_rows

    def counting(a, b, lam, u0, u1):
        calls.append(lam)
        return kernel(a, b, lam, u0, u1)

    # the step loop, at the name s_sequence calls it by
    monkeypatch.setattr(diagnostics, "_propagate_rows", counting)
    assert run(["analyze", "--seq", "chihara", "--lambda", "0.5,2", "--n",
                "50", "--out", str(tmp_path)]) == 0
    assert calls == [0.5, 2.0]


def test_spectrum_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["spectrum", "--seq", "pow:alpha=0.5", "--size", "80",
                    "--weights", "--out", str(out)]) == 0
    assert (a / "spectrum.csv").read_bytes() == (b / "spectrum.csv").read_bytes()


# --- transform -------------------------------------------------------------


def test_transform_flip(tmp_path):
    out = tmp_path / "tr"
    assert run(["transform", "flip", "--seq", "chihara", "--n", "4",
                "--out", str(out)]) == 0
    lines = (out / "flip.csv").read_text().splitlines()
    assert lines[0] == "n,a,b"
    assert lines[1] == "0,1,-1"


def test_transform_even_odd(tmp_path):
    out = tmp_path / "tr"
    assert run(["transform", "even", "--seq", "pow:alpha=1", "--n", "3",
                "--out", str(out)]) == 0
    assert run(["transform", "odd", "--seq", "pow:alpha=1", "--n", "3",
                "--out", str(out)]) == 0
    even = (out / "even.csv").read_text().splitlines()
    odd = (out / "odd.csv").read_text().splitlines()
    assert even[1] == "0,2,1"
    assert odd[1] == "0,6,5"


def test_transform_bd(tmp_path):
    out = tmp_path / "tr"
    assert run(["transform", "bd", "--bd", "lam=linear,mu=linear",
                "--n", "3", "--out", str(out)]) == 0
    lines = (out / "bd.csv").read_text().splitlines()
    assert lines[0] == "n,abar,bbar,log_pi"
    assert lines[1] == "0,1,-1,0"
    assert lines[2] == "1,2,-3,0"


def test_transform_even_rejects_nonzero_diagonal(tmp_path):
    assert run(["transform", "even", "--seq", "chihara", "--n", "3",
                "--out", str(tmp_path)]) == 3


# --- one process, many runs --------------------------------------------------


def test_a_run_after_a_usage_error_writes_what_it_writes_alone(tmp_path):
    argv = ["check", "--theorem", "43", "--seq", "iterlog:k=1,m=16", "--n",
            "300", "--k", "1"]
    out = tmp_path / "out"
    src = str(Path(jacobi_spectra.__file__).parents[1])
    subprocess.run([sys.executable, "-m", "jacobi_spectra.cli", *argv,
                    "--out", str(out)], check=True,
                   env=dict(os.environ, PYTHONPATH=src))
    alone = {path.name: path.read_bytes() for path in out.iterdir()}
    for path in out.iterdir():
        path.unlink()
    with pytest.raises(SystemExit) as usage:
        run(["check", "--theorem", "44", "--n", "300"])
    assert usage.value.code == 2
    assert run([*argv, "--out", str(out)]) == 0
    assert {path.name: path.read_bytes() for path in out.iterdir()} == alone
    assert build_parser() is not build_parser()
