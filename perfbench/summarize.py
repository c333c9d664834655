"""Summarise the reports of several benchmark runs.

Usage (from the root of a checkout)::

    python3 perfbench/summarize.py [--json PATH]

Reads the reports ``run.py`` wrote to ``.perfbench-out/`` and prints, per
workload and metric, the median over the runs (one per seed), the
quartiles and the spread (q3 - q1) / median.  For the end-to-end metrics
the spread is shown next to the metric's bound in ``BENCHMARK.json``; a
run-to-run comparison is only meaningful where the spread stays well
inside it.  For the traced runs it also checks ``layers.json``: a layer's
time metric must be positive on the workloads that use the layer and every
metric zero on the ones that bypass it.  ``--json`` writes the summary,
oracle maxima and fingerprints included, to PATH.
"""

import argparse
import json
import statistics
import sys

from harness import OUT, ROOT

HERE = ROOT / "perfbench"


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--json", help="also write the summary to this path")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    out, problems = {}, []
    for trace in (0, 1):
        out["per_layer" if trace else "end_to_end"] = summarize(bench, trace, problems)
    for problem in problems:
        print("layer map: " + problem)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 1 if problems else 0


def summarize(bench, trace, problems):
    """Summary of the full-size reports of one mode, keyed by workload."""
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    layers = json.loads((HERE / "layers.json").read_text())
    out = {}
    for w in (w["name"] for w in bench["workloads"]):
        reports = [json.loads(path.read_text()) for path in
                   sorted(OUT.glob("%s-seed*-trace%d.json" % (w, trace)))]
        reports = [r for r in reports if r["scale"] == "full"]
        if not reports:
            continue
        summary = {"runs": len(reports), "seeds": [r["seed"] for r in reports],
                   "failed": sum(r["result"]["failed"] for r in reports),
                   "attempted": sum(r["result"]["attempted"] for r in reports),
                   "fingerprint": reports[0]["fingerprint"], "metrics": {},
                   "oracles": {}, "tolerances": reports[0]["tolerances"]}
        print("%s, trace %d: %d runs, %d/%d jobs failed"
              % (w, trace, len(reports), summary["failed"], summary["attempted"]))
        for name in reports[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in reports]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("nan")
            summary["metrics"][name] = {"median": med, "q1": q1, "q3": q3,
                                        "spread": spread, "n": len(values)}
            bound = bounds.get(name)
            note = ""
            if bound is not None:
                note = "bound %.3f%s" % (bound, "" if spread < bound / 3 else
                                         "  <-- spread above a third of the bound")
            print("  %-28s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f %s"
                  % (name, med, q1, q3, spread, note))
            if trace and name in layers:
                uses = w in layers[name]["uses"]
                if not uses and med != 0:
                    problems.append("%s is %g on %s, which bypasses it" % (name, med, w))
                if uses and name.endswith("_s") and layers[name]["layer"] != "trace" \
                        and not med > 0:
                    problems.append("%s is %g on %s, which uses it" % (name, med, w))
        if trace:
            shares = {layer: statistics.median(r["detail"]["self_time_share"][layer]
                                               for r in reports)
                      for layer in reports[0]["detail"]["self_time_share"]}
            summary["self_time_share"] = shares
            print("  self-time shares of the traced pass: " + ", ".join(
                "%s %.0f%%" % (k, 100 * v) for k, v in
                sorted(shares.items(), key=lambda kv: -kv[1])))
        for r in reports:
            for check in r["oracles"].values():
                for key, value in check["values"].items():
                    summary["oracles"][key] = max(summary["oracles"].get(key, value), value)
        print("  oracle maxima: " + ", ".join("%s=%.3g (tol %.3g)"
                                              % (k, v, summary["tolerances"][k])
                                              for k, v in sorted(summary["oracles"].items())))
        out[w] = summary
    return out


if __name__ == "__main__":
    sys.exit(main())
