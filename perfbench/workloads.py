"""Seeded job lists for the benchmark workloads.

A workload is a fixed list of ``jacobi-spectra`` command lines, run one
after the other by a single client (a closed loop).  The seed picks
spectral parameters and family parameters inside fixed ranges; the program
only ever sees the generated argv.  Parameters of ``check`` jobs come from
small grids, so that the verdict the seed commit gave for every input the
generator can produce is on record in ``verdicts.json``.

Every choice keeps the work per job independent of the seed (same sizes,
same families, only the parameter values move), so that runs with
different seeds measure the same amount of work.
"""

import random

WORKLOADS = ("gauss-spectrum", "eigvec-trace", "hypothesis-checks")

# "full" is what the benchmark measures; "smoke" keeps the harness tested.
SIZES = {
    "full": {"weights_chihara": 500, "weights_paired": 300, "density": 20000,
             "analyze": 20000, "check": 30000, "transform": 30000},
    "smoke": {"weights_chihara": 40, "weights_paired": 30, "density": 400,
              "analyze": 300, "check": 200, "transform": 200},
}

ALPHA_GRID = ("0.3", "0.4", "0.5", "0.6", "0.7", "0.8")
POW_CHOICES = [["--seq", "pow:alpha=" + a] for a in ALPHA_GRID]

# (job name, theorem, argv choices); the seed picks one choice per job
CHECKS = (
    ("check-A", "A", POW_CHOICES),
    ("check-B", "B", POW_CHOICES),
    ("check-C", "C", [["--seq", "chihara"]]),
    ("check-42", "42", POW_CHOICES),
    ("check-43", "43", [["--seq", "iterlog:k=2,m=%d" % m, "--k", "2"]
                        for m in (16, 24, 32, 48)]),
    ("check-51", "51", [["--bd", "lam=linear,mu=linear"]]),
)

# (job name, transform kind, argv choices)
TRANSFORMS = (
    ("transform-flip", "flip", [["--seq", "chihara"]]),
    ("transform-even", "even", POW_CHOICES),
    ("transform-odd", "odd", POW_CHOICES),
    ("transform-bd", "bd", [["--bd", "lam=%s,mu=%s" % (lam, mu)]
                            for lam in ("linear", "quadratic")
                            for mu in ("linear", "quadratic")]),
)


def _lambda(rng):
    return "%.4f" % rng.uniform(0.05, 2.95)


def jobs(workload, seed, scale="full"):
    """The ordered job list of one pass: a list of (name, argv) pairs.

    The argv has no ``--out``; the runner appends ``--out <name>``.
    """
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r (choose from %s)"
                         % (workload, ", ".join(WORKLOADS)))
    size = SIZES[scale]
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "gauss-spectrum":
        n_density = size["density"]
        hi = 4 * n_density  # chihara's spectrum of order N lies in (0, 4N)
        bin_width = "%.2f" % (hi / 100.0 * rng.uniform(0.98, 1.02))
        eps = "%.5f" % rng.uniform(0.008, 0.012)
        return [
            ("weights-chihara", ["spectrum", "--seq", "chihara", "--size",
                                 str(size["weights_chihara"]), "--weights"]),
            ("weights-paired", ["spectrum", "--seq",
                                "paired:eps=%s,inner=pow,alpha=1" % eps,
                                "--size", str(size["weights_paired"]),
                                "--weights"]),
            ("density-chihara", ["spectrum", "--seq", "chihara", "--size",
                                 str(n_density), "--window=0,%d" % hi,
                                 "--bin", bin_width]),
        ]
    if workload == "eigvec-trace":
        n = str(size["analyze"])
        lams = [_lambda(rng), _lambda(rng)]
        while lams[1] == lams[0]:
            lams[1] = _lambda(rng)
        return [
            ("analyze-pow", ["analyze", "--seq", "pow:alpha=0.5", "--lambda",
                             ",".join(lams), "--n", n]),
            ("analyze-chihara", ["analyze", "--seq", "chihara", "--alpha",
                                 "one", "--lambda", _lambda(rng), "--n", n]),
        ]
    n_check, n_transform = str(size["check"]), str(size["transform"])
    out = [(name, ["check", "--theorem", theorem] + rng.choice(choices)
            + ["--n", n_check]) for name, theorem, choices in CHECKS]
    out += [(name, ["transform", kind] + rng.choice(choices)
             + ["--n", n_transform]) for name, kind, choices in TRANSFORMS]
    return out


def check_inputs():
    """Every ``check`` argv the generator can produce, at every scale."""
    return [["check", "--theorem", theorem] + choice + ["--n", str(size["check"])]
            for size in SIZES.values()
            for _, theorem, choices in CHECKS
            for choice in choices]


def option(argv, flag, default=None):
    """The value of ``flag`` in argv (``--flag v`` or ``--flag=v``)."""
    for i, item in enumerate(argv):
        if item == flag:
            return argv[i + 1]
        if item.startswith(flag + "="):
            return item.split("=", 1)[1]
    return default


def verdict_key(argv):
    """The key of a ``check`` input in ``verdicts.json``."""
    return " ".join(argv)
