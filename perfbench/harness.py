"""Shared plumbing: loading the package from the checkout, running a pass
of jobs through ``jacobi_spectra.cli.main`` and hashing what they wrote."""

import contextlib
import hashlib
import io
import os
import platform
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or dependencies)."""


def load_cli():
    """Import ``jacobi_spectra.cli`` from this checkout's ``src`` and nothing else."""
    pkg_dir = SRC / "jacobi_spectra"
    if not (pkg_dir / "cli.py").is_file():
        raise BenchError("no package sources at %s" % pkg_dir)
    sys.path.insert(0, str(SRC))
    import jacobi_spectra.cli as cli
    if Path(cli.__file__).resolve().parent != pkg_dir.resolve():
        raise BenchError("imported %s instead of the checkout's package"
                         % cli.__file__)
    return cli


def child_env():
    """Environment for fresh interpreters that must import the checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


@contextlib.contextmanager
def working_dir(path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def run_job(cli, argv):
    """Run one CLI job in-process; returns (exit code, error text or None).

    Anything the command prints to stdout is swallowed so that the
    benchmark's own last line stays its result.
    """
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        return (exc.code if isinstance(exc.code, int) else 2), "SystemExit"
    except Exception:  # a crash is a failed job, not a failed benchmark
        return 1, traceback.format_exc()
    return rc, None


def run_pass(cli, jobs, pass_dir, on_job=None, probe=None):
    """Run every job once with ``--out <name>`` relative to ``pass_dir``.

    Returns {name: {"wall": s, "rc": code, "error": text|None}}.
    ``on_job(name)`` is a context manager entered around each job (tracing).
    ``probe()``, if given, runs before the first job and after each job,
    outside the timing; each result then also holds ``"probes"``, the
    probe times right before and right after the job.
    Output paths are relative, so ``config.json`` is the same in every pass.
    """
    pass_dir.mkdir(parents=True, exist_ok=True)
    results = {}
    last = probe() if probe else None
    with working_dir(pass_dir):
        for name, argv in jobs:
            ctx = on_job(name) if on_job else contextlib.nullcontext()
            with ctx:
                t0 = time.perf_counter()
                rc, error = run_job(cli, argv + ["--out", name])
                wall = time.perf_counter() - t0
            results[name] = {"wall": wall, "rc": rc, "error": error}
            if probe:
                before, last = last, probe()
                results[name]["probes"] = [before, last]
    return results


def add_digests(results, pass_dir):
    """Store each job's output digest in its result (outside any timing)."""
    for name, result in results.items():
        result["digest"] = dir_digest(pass_dir / name)
    return results


def dir_digest(path):
    """sha256 over the sorted relative names and bytes of every file under path."""
    if not path.is_dir():
        return None
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode() + b"\0")
        h.update(f.stat().st_size.to_bytes(8, "little"))
        with open(f, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint(seed):
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "JACOBI_SPECTRA_THREADS": os.environ.get("JACOBI_SPECTRA_THREADS"),
        "seed": seed,
    }
