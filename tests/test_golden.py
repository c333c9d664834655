"""Byte-identity gate for the CLI: recorded SHA-256 digests of every output.

Each job runs ``cli.main`` in a fresh working directory (relative paths
only, so ``config.json`` does not name the directory) and is compared with
``golden_digests.json``: the exit code, the digest of stdout and, for a
successful run, the digest of every file it wrote.  The grid covers all
four commands over the const, pow, chihara, paired, iterlog and table
families at n <= 2000, the three ``spectrum`` jobs of the gauss-spectrum
benchmark at its sizes (up to n = 20000), the check and transform jobs of
the hypothesis-checks benchmark at n = 30000, analyze, check B and
transform even on the pow-shifted and factorial-staircase families, plus
the ``--init nan,1`` and ``--init inf,0`` traces that pin the sign rule for
a NaN direction (sign -1, unlike ``np.sign``).

The digests were recorded on x86-64 Linux with glibc 2.36's libm.
``math.exp``, ``math.log`` and ``math.hypot`` come from the platform libm,
so on another libm a last-bit difference can fail this test without any
defect in the package.  Regenerate after an intended output change with

    PYTHONPATH=src python tests/test_golden.py --record

which prints one ``moved: <job> <part>`` line for each exit code, stdout
or file whose digest changed, so a re-record shows exactly what moved.

The same jobs test that a run's ``config.json`` reproduces it: the argv
rebuilt from the file reruns the job to the same data files.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from jacobi_spectra import cli

DIGESTS = Path(__file__).with_name("golden_digests.json")

TABLE = "coeffs.csv"   # n, a(n) = sqrt(n + 1) + 1/(n + 2), b(n) = 0
RATES = "rates.csv"    # n, lambda(n) = n + 1, mu(n) = n + 1/2 (mu(0) = 0)

FAMILIES = {
    "const": "const",
    "pow": "pow:alpha=0.5",
    "chihara": "chihara",
    "paired": "paired:eps=0.01,inner=pow,alpha=1",
    "iterlog": "iterlog:k=1,m=16",
    "table": "table:" + TABLE,
}


def _jobs():
    jobs = {}
    for fam, seq in FAMILIES.items():
        jobs["analyze-%s" % fam] = [
            "analyze", "--seq", seq, "--lambda", "0.5,-1.5", "--n", "2000"]
        jobs["analyze-%s-one" % fam] = [
            "analyze", "--seq", seq, "--lambda", "2.25", "--alpha", "one",
            "--init", "1,0.25", "--n", "300"]
        for theorem in ("A", "B", "C", "42"):
            jobs["check-%s-%s" % (theorem, fam)] = [
                "check", "--theorem", theorem, "--seq", seq, "--n", "1000"]
        jobs["check-43-%s" % fam] = [
            "check", "--theorem", "43", "--seq", seq, "--k", "2",
            "--n", "500", "--out", "."]
        jobs["spectrum-weights-%s" % fam] = [
            "spectrum", "--seq", seq, "--size", "60", "--weights"]
        jobs["spectrum-%s" % fam] = [
            "spectrum", "--seq", seq, "--size", "200", "--tol", "1e-9"]
        jobs["density-%s" % fam] = [
            "spectrum", "--seq", seq, "--size", "300", "--window=-3,12",
            "--bin", "0.25"]
        for kind in ("flip", "even", "odd"):
            jobs["transform-%s-%s" % (kind, fam)] = [
                "transform", kind, "--seq", seq, "--n", "200"]
    jobs.update({
        "analyze-init-nan": ["analyze", "--seq", "const", "--lambda", "0",
                             "--init", "nan,1", "--n", "20"],
        "analyze-init-inf": ["analyze", "--seq", "const", "--lambda", "0",
                             "--init", "inf,0", "--n", "20"],
        "analyze-zeros": ["analyze", "--seq", "const", "--lambda", "0",
                          "--n", "40"],
        "check-A-iterlog-alpha": ["check", "--theorem", "A", "--seq",
                                  "pow:alpha=0.5", "--alpha", "iterlog:1",
                                  "--n", "1000"],
        "check-51-linear": ["check", "--theorem", "51", "--bd",
                            "lam=linear,mu=linear", "--n", "1000"],
        "check-51-table": ["check", "--theorem", "51", "--rates", RATES,
                           "--n", "1000"],
        "transform-bd-linear": ["transform", "bd", "--bd",
                                "lam=linear,mu=quadratic", "--n", "200"],
        "transform-bd-table": ["transform", "bd", "--rates", RATES,
                               "--n", "200"],
        "density-empty": ["spectrum", "--seq", "const", "--size", "5",
                          "--window=1,0", "--bin", "0.5"],
        "spectrum-size-1": ["spectrum", "--seq", "chihara", "--size", "1",
                            "--weights"],
        # the gauss-spectrum benchmark sizes: several Sturm-sweep blocks
        "spectrum-weights-chihara-500": ["spectrum", "--seq", "chihara",
                                         "--size", "500", "--weights"],
        "spectrum-weights-paired-300": [
            "spectrum", "--seq", "paired:eps=0.01,inner=pow,alpha=1",
            "--size", "300", "--weights"],
        "density-chihara-20000": ["spectrum", "--seq", "chihara", "--size",
                                  "20000", "--window=0,80000", "--bin",
                                  "784.12"],
        # the hypothesis-checks benchmark sizes
        "check-43-iterlog-30000": ["check", "--theorem", "43", "--seq",
                                   "iterlog:k=2,m=16", "--k", "2",
                                   "--n", "30000"],
        "check-51-linear-30000": ["check", "--theorem", "51", "--bd",
                                  "lam=linear,mu=linear", "--n", "30000"],
        "transform-flip-chihara-30000": ["transform", "flip", "--seq",
                                         "chihara", "--n", "30000"],
        "transform-bd-quadratic-30000": ["transform", "bd", "--bd",
                                         "lam=quadratic,mu=quadratic",
                                         "--n", "30000"],
    })
    for theorem in ("A", "B", "42"):
        jobs["check-%s-pow-30000" % theorem] = [
            "check", "--theorem", theorem, "--seq", "pow:alpha=0.7",
            "--n", "30000"]
    for kind in ("even", "odd"):
        jobs["transform-%s-pow-30000" % kind] = [
            "transform", kind, "--seq", "pow:alpha=0.3", "--n", "30000"]
    # the two catalog families outside the grid above
    for seq in ("pow-shifted:alpha=0.5", "factorial-staircase"):
        fam = seq.partition(":")[0]
        jobs["analyze-%s" % fam] = [
            "analyze", "--seq", seq, "--lambda", "0.5,-1.5", "--n", "2000"]
        jobs["check-B-%s-30000" % fam] = [
            "check", "--theorem", "B", "--seq", seq, "--n", "30000"]
        jobs["transform-even-%s-30000" % fam] = [
            "transform", "even", "--seq", seq, "--n", "30000"]
    return jobs


JOBS = _jobs()


def _write_inputs(workdir):
    with open(os.path.join(workdir, TABLE), "w") as fh:
        fh.write("n,a,b\n")
        for n in range(2100):
            fh.write("%d,%.17g,0\n" % (n, (n + 1) ** 0.5 + 1.0 / (n + 2)))
    with open(os.path.join(workdir, RATES), "w") as fh:
        fh.write("n,lambda,mu\n")
        for n in range(1100):
            fh.write("%d,%d,%s\n" % (n, n + 1, n + 0.5 if n else 0))


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _with_out(argv, out):
    """``argv`` writing into ``out``: its ``--out`` replaced, or one added."""
    argv = list(argv)
    if "--out" in argv:
        argv[argv.index("--out") + 1] = out
    else:
        argv += ["--out", out]
    return argv


def _run_cli(argv, workdir):
    """Exit code and stdout of ``cli.main(argv)`` run inside ``workdir``."""
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    return code, stdout.getvalue()


def run_job(job_id, workdir):
    """Digests of one job run inside ``workdir``."""
    argv = JOBS[job_id]
    outdir = os.path.join(workdir, job_id)
    os.makedirs(outdir)
    if "--out" in argv or argv[0] != "check":
        argv = _with_out(argv, job_id)
    code, stdout = _run_cli(argv, workdir)
    files = {}
    if code == 0:
        files = {name: _sha(Path(outdir, name).read_bytes())
                 for name in sorted(os.listdir(outdir))}
    return {"exit": code, "stdout": _sha(stdout.encode()), "files": files}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    _write_inputs(str(path))
    return str(path)


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS.read_text())


def test_recorded_grid_matches_jobs(recorded):
    assert sorted(recorded) == sorted(JOBS)


def test_moved_names_each_changed_part():
    old = {"a": {"exit": 0, "stdout": "s", "files": {"x.csv": "1", "y.csv": "2"}},
           "b": {"exit": 0, "stdout": "s", "files": {}}}
    new = {"a": {"exit": 0, "stdout": "s", "files": {"x.csv": "1", "y.csv": "3"}},
           "b": {"exit": 3, "stdout": "s", "files": {}},
           "c": {"exit": 0, "stdout": "s", "files": {}}}
    assert moved(old, old) == []
    assert moved(old, new) == [("a", "y.csv"), ("b", "exit"), ("c", "exit"),
                               ("c", "stdout")]


@pytest.mark.parametrize("job_id", sorted(JOBS))
def test_golden(job_id, workdir, recorded):
    assert run_job(job_id, workdir) == recorded[job_id]


def _argv_from_config(config, out):
    """The argv that reruns the run ``config`` records, into ``out``.

    Each key maps to its option through the parser's own actions: a
    ``dest`` to its first option string, a positional in place.  Values
    go in ``--flag=value`` form, so ``-1.5`` or ``-3,12`` parse as values.
    """
    (commands,) = [action.choices for action in cli.build_parser()._actions
                   if isinstance(action.choices, dict)]
    actions = [action for action in commands[config["command"]]._actions
               if action.dest != "help"]
    # every recorded key is an option of the command, and every option is
    # recorded
    assert sorted(config) == sorted(
        [action.dest for action in actions] + ["command", "version"])
    argv = [config["command"]]
    for action in actions:
        value = out if action.dest == "out" else config[action.dest]
        if value is None or value is False:
            continue
        if not action.option_strings:  # transform's kind
            argv.append(value)
        elif action.nargs == 0:  # a flag such as --weights
            argv.append(action.option_strings[0])
        else:
            items = value if isinstance(value, list) else [value]
            argv += ["%s=%s" % (action.option_strings[0], item)
                     for item in items]
    return argv


@pytest.mark.parametrize("job_id", sorted(JOBS))
def test_config_json_replays_its_run(job_id, workdir):
    """A run's config.json reruns it: every data file comes out byte for
    byte, and config.json too, apart from ``out``.  A check job is given
    an ``--out`` so that it writes one."""
    first, again = job_id + ".first", job_id + ".again"
    code, _ = _run_cli(_with_out(JOBS[job_id], first), workdir)
    if code:  # an error exit writes no config.json
        assert not os.path.exists(os.path.join(workdir, first, "config.json"))
        return
    config = json.loads(Path(workdir, first, "config.json").read_text())
    assert _run_cli(_argv_from_config(config, again), workdir)[0] == 0
    names = sorted(os.listdir(os.path.join(workdir, first)))
    assert sorted(os.listdir(os.path.join(workdir, again))) == names
    for name in names:
        old, new = (Path(workdir, out, name).read_bytes()
                    for out in (first, again))
        if name == "config.json":
            old, new = (dict(json.loads(text), out=None)
                        for text in (old, new))
        assert old == new, name


def _entries(digests):
    """{(job, part): digest}, part "exit", "stdout" or a written file."""
    return {(job_id, part): value
            for job_id, d in digests.items()
            for part, value in [("exit", d["exit"]), ("stdout", d["stdout"]),
                                *d["files"].items()]}


def moved(old, new):
    """The sorted (job, part) pairs whose digest differs, appeared or went."""
    old, new = _entries(old), _entries(new)
    return sorted(key for key in old.keys() | new.keys()
                  if old.get(key) != new.get(key))


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_golden.py --record")
    with tempfile.TemporaryDirectory() as tmp:
        _write_inputs(tmp)
        digests = {job_id: run_job(job_id, tmp) for job_id in sorted(JOBS)}
    old = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for job_id, part in moved(old, digests):
        print("moved: %s %s" % (job_id, part))
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print("recorded %d jobs to %s" % (len(digests), DIGESTS.name))
