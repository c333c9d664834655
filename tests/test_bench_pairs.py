"""Tests of ``scripts/bench_pairs.py``: its ``--out-dir`` check, and a smoke
run of one pair with the same rev on both sides."""

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
