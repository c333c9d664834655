"""Record the verdict of every ``check`` input the workloads can generate.

Usage (from the root of a checkout): python3 perfbench/record_verdicts.py

Writes ``perfbench/verdicts.json``.  The benchmark counts a job whose
verdicts differ from this record as failed, so run this only at the commit
whose verdicts are the reference, and commit the result with it.
"""

import json
import shutil
import sys
from pathlib import Path

import harness
from workloads import check_inputs, verdict_key


def main():
    cli = harness.load_cli()
    work = harness.OUT / "record-verdicts"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    table = {}
    try:
        with harness.working_dir(work):
            for i, argv in enumerate(check_inputs()):
                rc, error = harness.run_job(cli, argv + ["--out", str(i)])
                if rc != 0:
                    sys.exit("%s: exit %s %s" % (verdict_key(argv), rc, error or ""))
                report = json.loads((work / str(i) / "verdict.json").read_text())
                table[verdict_key(argv)] = {
                    "overall": report["overall"],
                    "conditions": {c["condition"]: c["verdict"]
                                   for c in report["conditions"]}}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = Path(__file__).resolve().parent / "verdicts.json"
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print("%d verdicts written to %s" % (len(table), path))


if __name__ == "__main__":
    main()
