"""Alternating base/change pairs of the benchmark, recorded in a BENCH file.

Run from the root of a git checkout::

    python3 scripts/bench_pairs.py --base HEAD~1 --workload hypothesis-checks \\
        --seed 37 --pairs 10 --seconds 30

The base rev, and the change rev if ``--change`` names one, are exported
with ``git archive`` into a temporary directory; without ``--change`` the
change is this working tree.  Each pair runs ``perfbench/run.py --trace 0``
once on each side with the same arguments; the side that runs first
alternates from pair to pair.  The record goes to
``BENCH_<yyyymmdd>_<shortrev>.json`` (``shortrev`` is the base rev) in
``--out-dir``, which must be a writable directory before the first pair
runs (exit 2 otherwise).  It holds, per workload:

* the median and quartiles of every end-to-end metric on each side, and
  the pairs the change won (its value better than the base's in that
  pair);
* the oracle values of every job and whether they are equal on both sides;
* whether each job's output digest is equal on both sides;
* the failed-job counts, and the machine fingerprint of the first run.
"""

import argparse
import datetime
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("gauss-spectrum", "eigvec-trace", "hypothesis-checks")


def writable_dir(text):
    """argparse type: a directory that a file can be created in, checked
    before any pair runs."""
    try:
        with tempfile.TemporaryFile(dir=text):
            pass
    except OSError as exc:
        raise argparse.ArgumentTypeError(
            "%s is not a writable directory: %s" % (text, exc.strerror))
    return Path(text)


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev, target):
    """The committed files of ``rev`` in the new directory ``target``."""
    target.mkdir()
    archive = target.with_suffix(".tar")
    subprocess.run(["git", "archive", "--output", str(archive), rev],
                   cwd=ROOT, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(target, filter="data")
    archive.unlink()
    return target


def run_bench(checkout, workload, args):
    """One perfbench run: (stdout result, the report it wrote)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", "0", "--scale", args.scale],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit("perfbench failed in %s:\n%s" % (checkout, proc.stderr))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report = checkout / ".perfbench-out" / (
        "%s-seed%d-trace0.json" % (workload, args.seed))
    return result, json.loads(report.read_text())


def spread(values):
    q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                   else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "values": values}


def oracle_values(report):
    return {job: check["values"] for job, check in sorted(report["oracles"].items())}


def compare(runs, metrics):
    """The record of one workload from its (base, change) run pairs."""
    out = {"metrics": {}, "failed": {}}
    for side in ("base", "change"):
        out["failed"][side] = [r[side][0]["failed"] for r in runs]
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        values = {side: [r[side][0]["metrics"][name]["value"] for r in runs]
                  for side in ("base", "change")}
        wins = [(c < b) if lower else (c > b)
                for b, c in zip(values["base"], values["change"])]
        out["metrics"][name] = {"unit": m["unit"], "better": m["better"],
                                "base": spread(values["base"]),
                                "change": spread(values["change"]),
                                "change_wins": sum(wins), "pairs": len(wins)}
    reports = {side: [r[side][1] for r in runs] for side in ("base", "change")}
    first = {side: reports[side][0] for side in reports}
    out["oracles"] = {side: oracle_values(first[side]) for side in first}
    out["oracles_equal"] = all(oracle_values(rep) == out["oracles"]["base"]
                               for side in reports for rep in reports[side])
    digests = {side: [rep["digests"] for rep in reports[side]] for side in reports}
    out["digests_equal"] = {
        job: all(d[job] == digests["base"][0][job]
                 for side in digests for d in digests[side])
        for job in sorted(digests["base"][0])}
    out["jobs"] = [job["argv"] for job in first["base"]["jobs"]]
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="git rev of the base side")
    p.add_argument("--change", help="git rev of the change (default: this tree)")
    p.add_argument("--workload", action="append", choices=WORKLOADS,
                   help="repeatable; default: every workload")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--scale", choices=("full", "smoke"), default="full")
    p.add_argument("--out-dir", type=writable_dir, default=str(ROOT),
                   help="directory of the BENCH file (default: repo root)")
    args = p.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    base_rev = git("rev-parse", args.base)
    change_rev = git("rev-parse", args.change) if args.change else None
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"base": export(base_rev, Path(tmp) / "base"),
                 "change": (export(change_rev, Path(tmp) / "change")
                            if change_rev else ROOT)}
        record = {"base": base_rev,
                  "change": change_rev or "working tree at %s%s" % (
                      git("rev-parse", "HEAD"),
                      " (with uncommitted changes)" if git("status", "--porcelain") else ""),
                  "seed": args.seed, "pairs": args.pairs,
                  "seconds": args.seconds, "scale": args.scale,
                  "trace": 0, "workloads": {}}
        for workload in args.workload or WORKLOADS:
            runs = []
            for i in range(args.pairs):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                runs.append({side: run_bench(sides[side], workload, args)
                             for side in order})
                print("%s pair %d/%d done" % (workload, i + 1, args.pairs),
                      file=sys.stderr)
            record.setdefault("fingerprint", runs[0]["base"][1]["fingerprint"])
            record["workloads"][workload] = compare(runs, metrics)
    day = datetime.date.today().strftime("%Y%m%d")
    path = args.out_dir / ("BENCH_%s_%s.json" % (day, base_rev[:7]))
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
