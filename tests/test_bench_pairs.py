"""Tests of ``scripts/bench_pairs.py``: its ``--out-dir`` check, its verdict
per metric on synthetic runs, and a smoke run of one pair with the same rev
on both sides."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _in_git_checkout():
    try:
        return subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=ROOT,
                              capture_output=True).returncode == 0
    except OSError:
        return False


@pytest.mark.skipif(not _in_git_checkout(), reason="needs a git checkout")
def test_one_pair_of_the_same_rev_records_equal_outputs(tmp_path):
    proc = subprocess.run(
        [sys.executable, "scripts/bench_pairs.py", "--base", "HEAD",
         "--change", "HEAD", "--workload", "hypothesis-checks", "--seed", "3",
         "--pairs", "1", "--seconds", "0.1", "--scale", "smoke",
         "--out-dir", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    path = Path(proc.stdout.strip().splitlines()[-1])
    assert path.parent == tmp_path and path.name.startswith("BENCH_")
    record = json.loads(path.read_text())
    assert record["base"] == record["change"]
    assert "fingerprint" in record
    result = record["workloads"]["hypothesis-checks"]
    names = [m["name"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    for m in result["metrics"].values():
        assert m["pairs"] == 1 and m["change_wins"] in (0, 1)
        assert m["base"]["median"] > 0 and m["change"]["median"] > 0
    assert result["failed"] == {"base": [0], "change": [0]}
    assert result["oracles_equal"] and result["oracles"]["base"]
    assert result["digests_equal"] and all(result["digests_equal"].values())


@pytest.mark.parametrize("out_dir", ["missing", "file"])
def test_unwritable_out_dir_exits_2_before_any_pair(out_dir, tmp_path):
    (tmp_path / "file").write_text("")
    # a base rev that git cannot resolve: exit 2, not git's failure, shows
    # that the directory is checked before any rev is exported or run
    proc = subprocess.run(
        [sys.executable, "scripts/bench_pairs.py", "--base", "no-such-rev",
         "--seed", "3", "--pairs", "1", "--out-dir", str(tmp_path / out_dir)],
        cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.splitlines()[-1].endswith(
        "is not a writable directory: %s" % {
            "missing": "No such file or directory",
            "file": "Not a directory"}[out_dir])
    assert list(tmp_path.iterdir()) == [tmp_path / "file"]


def _bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(base, change):
    """Run pairs of one metric "m" with these values, and empty reports."""
    report = {"oracles": {}, "digests": {}, "jobs": []}
    return [{side: ({"failed": 0, "metrics": {"m": {"value": value}}}, report)
             for side, value in (("base", b), ("change", c))}
            for b, c in zip(base, change)]


BASE = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]


@pytest.mark.parametrize("better, change, gain, within_bound", [
    # 10/10 wins, the medians 0.10 apart against a quartile spread of 0.02
    ("lower", [v - 0.1 for v in BASE], True, True),
    ("higher", [v + 0.1 for v in BASE], True, True),
    # 10/10 wins by 0.005, inside the spread
    ("lower", [v - 0.005 for v in BASE], False, True),
    # 8/10 wins
    ("lower", [v - 0.1 for v in BASE[:8]] + [v + 0.1 for v in BASE[8:]],
     False, True),
    # worse by 20% and by 30% against a bound of 24%
    ("lower", [v * 1.2 for v in BASE], False, True),
    ("lower", [v * 1.3 for v in BASE], False, False),
    ("higher", [v * 0.7 for v in BASE], False, False),
])
def test_compare_states_each_metrics_verdict(better, change, gain,
                                             within_bound):
    metrics = [{"name": "m", "unit": "s", "better": better, "bound": 0.24}]
    record = _bench_pairs().compare(_runs(BASE, change), metrics)["metrics"]["m"]
    assert record["gain"] is gain
    assert record["within_bound"] is within_bound
