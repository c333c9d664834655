"""Benchmark of the ``jacobi-spectra`` command line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload gauss-spectrum --seed 1 --seconds 20 --trace 0

A single client runs the workload's job list (``workloads.py``) through
``jacobi_spectra.cli.main`` in-process, one job after the other, pass after
pass, until ``--seconds`` have been measured.  Every pass's outputs are
hashed and must match the first pass byte for byte; the first pass is
checked against scipy, closed forms and the seed commit's verdicts
(``oracles.py``).  A job fails if it exits non-zero, raises, writes other
bytes than the first pass or breaches an oracle tolerance.

``--trace 0`` reports the end-to-end metrics:

* ``scaled_wall_s``: median wall time of one pass of the job list, with
  each job's wall time scaled to a reference machine speed by the probe
  in ``speed.py``, timed right before and right after the job;
* ``setup_s``: median wall time of a fresh interpreter that imports
  ``jacobi_spectra.cli`` and builds its parser, the start-up every CLI
  call pays, scaled to a reference speed by a fresh interpreter that only
  imports numpy, timed right before and right after it (``speed.py``);
* ``peak_rss_mb``: peak resident memory of a fresh process running one pass.

``--trace 1`` reports the per-layer metrics from a traced run
(``tracing.py``): untraced and traced passes alternate, spans are kept in
memory and written when the run ends, and the difference of the two
medians of raw wall times is the tracing overhead.

The last line of stdout is the result: ``{"correct", "attempted",
"failed", "metrics"}``.  A fuller report (quartiles, sample counts,
raw wall times, per-job digests, verdicts, oracle values with their
tolerances, machine fingerprint) goes to ``.perfbench-out/`` in the checkout.
"""

import argparse
import contextlib
import json
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import harness
import speed
import tracing
from harness import OUT, ROOT, BenchError
from workloads import SIZES, WORKLOADS, jobs as make_jobs

HERE = Path(__file__).resolve().parent
MIN_PASSES = 3        # a median needs a few samples ...
DEADLINE_S = 60.0     # ... unless the measured passes already took this long
SETUP_SPAWNS = 8      # fresh interpreters; the first only warms the file cache
CHILD_TIMEOUT_S = 120


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=sorted(SIZES), default="full",
                   help="'smoke' runs tiny sizes, for the benchmark's own test")
    return p.parse_args(argv)


def summary(samples):
    """Median, quartiles and count of a list of timings."""
    q1, med, q3 = (statistics.quantiles(samples, n=4) if len(samples) > 1
                   else samples * 3)
    return {"median": statistics.median(samples), "q1": q1, "q3": q3,
            "n": len(samples), "samples": samples}


def spawn_wall(code):
    """Wall seconds of a fresh interpreter running ``code``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                            env=harness.child_env(), stdout=subprocess.DEVNULL)
    # a blocking wait: subprocess's wait(timeout) polls every 50 ms,
    # which would quantise the measurement
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        rc = proc.wait()
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    if rc != 0:
        raise BenchError("python -c %r failed (exit %d)" % (code, rc))
    return wall


def measure_setup(spawns):
    """Raw and scaled wall times of ``spawns - 1`` fresh interpreters that
    import the package; each is scaled by the reference start-up
    (``speed.SPAWN_PROBE``) timed right before and right after it."""
    code = "import jacobi_spectra.cli as cli; cli.build_parser()"
    samples, refs = [], [spawn_wall(speed.SPAWN_PROBE)]
    for _ in range(spawns):
        samples.append(spawn_wall(code))
        refs.append(spawn_wall(speed.SPAWN_PROBE))
    scaled = [speed.scaled(wall, before, after, speed.REF_SPAWN_S)
              for wall, before, after in zip(samples, refs, refs[1:])]
    return samples[1:], scaled[1:]


def fresh_process_pass(jobs, work):
    """One pass in a new interpreter: (peak RSS in MB, per-job results)."""
    jobs_file = work / "jobs.json"
    jobs_file.write_text(json.dumps(jobs))
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(jobs_file), str(work / "child")],
        env=harness.child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("fresh-process pass failed:\n" + proc.stderr)
    shutil.rmtree(work / "child")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["maxrss_kb"] / 1024.0, out["jobs"]


class Runner:
    """Runs passes of one job list and keeps what the report needs."""

    def __init__(self, cli, jobs, work):
        self.cli, self.jobs, self.work = cli, jobs, work
        self.passes = []       # per-pass {job: {"wall", "rc", "error", "digest"}}
        self.walls = []        # wall time of each timed untraced pass
        self.scaled_walls = []  # ... with its jobs' times scaled (speed.py)

    def run(self, tracer=None, counter=None, timed=True):
        """One pass; the first pass's outputs stay on disk for the oracles.

        An untraced pass counts in the timings unless ``timed`` is false.
        """
        timed = timed and tracer is None and counter is None
        index = len(self.passes)
        pass_dir = self.work / ("p%d" % index)
        on_job = None
        if tracer is not None:
            on_job = lambda name: tracer.job("p%d/%s" % (index, name))  # noqa: E731
        wrappers = tracer or counter
        with wrappers.installed() if wrappers else contextlib.nullcontext():
            results = harness.run_pass(self.cli, self.jobs, pass_dir, on_job,
                                       speed.probe if timed else None)
        harness.add_digests(results, pass_dir)
        if self.passes:
            shutil.rmtree(pass_dir)
        self.passes.append(results)
        wall = sum(r["wall"] for r in results.values())
        if timed:
            self.walls.append(wall)
            self.scaled_walls.append(sum(speed.scaled(r["wall"], *r["probes"])
                                         for r in results.values()))
        return wall


def keep_going(started, seconds, passes):
    elapsed = time.perf_counter() - started
    return elapsed < seconds or (passes < MIN_PASSES and elapsed < DEADLINE_S)


def timed_run(runner, args):
    setup, setup_scaled = measure_setup(3 if args.scale == "smoke" else SETUP_SPAWNS)
    started = time.perf_counter()
    runner.run(timed=False)            # warm-up: lazy imports, file cache
    while keep_going(started, args.seconds, len(runner.walls)):
        runner.run()
    rss_mb, child = fresh_process_pass(runner.jobs, runner.work)
    runner.passes.append(child)
    metrics = {"scaled_wall_s": statistics.median(runner.scaled_walls),
               "setup_s": statistics.median(setup_scaled),
               "peak_rss_mb": rss_mb}
    detail = {"scaled_wall_s": summary(runner.scaled_walls),
              "wall_s": summary(runner.walls),
              "setup_s": summary(setup_scaled), "raw_setup_s": summary(setup),
              "peak_rss_mb": rss_mb}
    return metrics, detail


def traced_run(runner, args, package):
    tracer = tracing.Tracer(package)
    counter = tracing.Counter(package)
    runner.run(timed=False)            # plain warm-up pass: reference bytes
    runner.run(counter=counter)        # counts only; its timings are not used
    traced_walls, per_pass, probe_s = [], [], []
    started = time.perf_counter()
    while keep_going(started, args.seconds, len(traced_walls)):
        runner.run()
        first_span = len(tracer.spans)
        traced_walls.append(runner.run(tracer=tracer))
        tracer.run_bisect_probes()
        per_pass.append(tracing.span_metrics(tracer.spans[first_span:],
                                             tracer.bisect_times))
        probe_s.append(tracing.coeff_probe(package, runner.jobs))
    metrics = {name: statistics.median(m[name] for m in per_pass)
               for name in per_pass[0]}
    untraced = statistics.median(runner.walls)
    metrics.update({
        "sequences.coeff_evals": counter.calls,
        "sequences.coeff_eval_s": statistics.median(probe_s),
        "trace.overhead_s": statistics.median(traced_walls) - untraced,
    })
    spans_path = OUT / ("spans-%s-seed%d.json" % (args.workload, args.seed))
    spans_path.write_text(json.dumps(tracer.spans))
    traced = statistics.median(traced_walls)
    shares = {name.split(".")[0]: metrics[name] / traced for name in metrics
              if name.endswith(".self_s") or name == "cli.glue_s"}
    detail = {"untraced_wall_s": summary(runner.walls),
              "traced_wall_s": summary(traced_walls),
              "self_time_share": shares,
              "spans_file": str(spans_path.relative_to(ROOT)),
              "span_count": len(tracer.spans),
              "layers": json.loads((HERE / "layers.json").read_text())}
    return metrics, detail


def tally(runner, checks):
    """(attempted, failed, failure list) over every pass of every job."""
    reference = runner.passes[0]
    failures = []
    attempted = 0
    for index, results in enumerate(runner.passes):
        for name, result in results.items():
            attempted += 1
            why = None
            if result["error"] or result["rc"] != 0:
                why = "exit %s %s" % (result["rc"], result["error"] or "")
            elif result["digest"] != reference[name]["digest"]:
                why = "output bytes differ from the first pass"
            elif not checks[name]["ok"]:
                why = "oracle: " + checks[name]["detail"]
            if why:
                failures.append({"pass": index, "job": name, "why": why})
    return attempted, len(failures), failures


def main(argv=None):
    args = parse_args(argv)
    try:
        definition = json.loads((ROOT / "BENCHMARK.json").read_text())
        expected = json.loads((HERE / "verdicts.json").read_text())
        cli = harness.load_cli()
        package = sys.modules["jacobi_spectra"]
    except (OSError, BenchError, ImportError) as exc:
        print("perfbench: cannot run here: %s" % exc, file=sys.stderr)
        return 2
    jobs = make_jobs(args.workload, args.seed, args.scale)
    OUT.mkdir(exist_ok=True)
    work = OUT / ("work-%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(cli, jobs, work)
    try:
        if args.trace:
            metrics, detail = traced_run(runner, args, package)
        else:
            metrics, detail = timed_run(runner, args)
        # scipy is imported only now, so the timed passes ran in a process
        # that holds what a CLI process holds
        import oracles
        checks = {name: oracles.check_job(work / "p0" / name, argv, expected)
                  for name, argv in jobs}
    except (BenchError, ImportError) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted, failed, failures = tally(runner, checks)

    wanted = definition["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print("perfbench: metrics not measured: %s" % ", ".join(missing),
              file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "scale": args.scale, "seconds": args.seconds,
        "fingerprint": harness.fingerprint(args.seed),
        "jobs": [{"name": name, "argv": argv} for name, argv in jobs],
        "passes": len(runner.passes),
        "digests": {name: r["digest"] for name, r in runner.passes[0].items()},
        "oracles": checks, "tolerances": oracles.TOLERANCES,
        "failures": failures, "detail": detail, "result": result,
    }
    report_path = OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    report_path.write_text(json.dumps(report, indent=1, sort_keys=True))
    print("perfbench: %s seed %d: %d/%d jobs failed; report %s"
          % (args.workload, args.seed, failed, attempted,
             report_path.relative_to(ROOT)), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
