"""One pass of a job list in a fresh interpreter, for its peak memory.

Usage: python3 perfbench/child.py JOBS_JSON PASS_DIR

Prints one JSON line: the peak resident set size after the pass (before
hashing the outputs) and the per-job results with output digests.
"""

import json
import sys
from pathlib import Path

import harness


def peak_rss_kb():
    """High-water resident set of this process image.

    Read from /proc rather than getrusage: ru_maxrss carries over the
    parent's resident set from before exec, which would make this
    measure the benchmark's own process.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main():
    jobs = [tuple(job) for job in json.loads(Path(sys.argv[1]).read_text())]
    pass_dir = Path(sys.argv[2])
    cli = harness.load_cli()
    results = harness.run_pass(cli, jobs, pass_dir)
    maxrss_kb = peak_rss_kb()
    harness.add_digests(results, pass_dir)
    print(json.dumps({"maxrss_kb": maxrss_kb, "jobs": results}))


if __name__ == "__main__":
    main()
