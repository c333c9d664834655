"""A CLI call imports only the modules its command runs.

Each case runs in a fresh interpreter, which lists the modules loaded
when it exits: in this test process the earlier tests have loaded every
module already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import jacobi_spectra

SRC = str(Path(jacobi_spectra.__file__).parents[1])
DEFERRED = {"jacobi_spectra.diagnostics", "jacobi_spectra.spectra",
            "jacobi_spectra.transforms", "jacobi_spectra._cells", "csv"}
# runs the code, then writes the names of the loaded modules to a file
REPORT = """
import sys
try:
    exec(sys.argv.pop(1))
finally:
    with open("modules.txt", "w") as fh:
        fh.write("\\n".join(sys.modules))
"""


def imported(code, argv, cwd):
    """(exit code, modules loaded) of ``code`` in a fresh interpreter whose
    ``sys.argv[1:]`` is ``argv``."""
    proc = subprocess.run([sys.executable, "-c", REPORT, code, *argv],
                          cwd=cwd, capture_output=True,
                          env=dict(os.environ, PYTHONPATH=SRC))
    return proc.returncode, set((cwd / "modules.txt").read_text().split())


# the path of ``python -m jacobi_spectra.cli``
RUN_CLI = "import runpy; runpy.run_module('jacobi_spectra.cli', " \
          "run_name='__main__', alter_sys=True)"


@pytest.mark.parametrize("code, argv", [
    ("import jacobi_spectra.cli as cli; cli.build_parser()", []),
    (RUN_CLI, ["--help"]),
], ids=["build_parser", "help"])
def test_start_up_imports_no_command_module(code, argv, tmp_path):
    exit_code, names = imported(code, argv, tmp_path)
    assert exit_code == 0
    assert "jacobi_spectra.sequences" in names
    assert names & DEFERRED == set()


# each command's path: the package modules it imports besides sequences,
# recurrence and errors, which every command runs
@pytest.mark.parametrize("argv, modules", [
    (["spectrum", "--seq", "const", "--size", "5"], {"spectra", "_cells"}),
    (["spectrum", "--seq", "const", "--size", "5", "--window=-3,3",
      "--bin", "1"], {"spectra", "_cells"}),
    (["analyze", "--seq", "const", "--n", "5"], {"diagnostics", "_cells"}),
    (["check", "--theorem", "A", "--seq", "const", "--n", "100"],
     {"diagnostics"}),
    (["check", "--theorem", "51", "--bd", "lam=linear,mu=linear", "--n",
      "100"], {"diagnostics", "transforms"}),
    (["transform", "bd", "--bd", "lam=linear,mu=linear", "--n", "5"],
     {"diagnostics", "transforms", "_cells"}),
    (["transform", "flip", "--seq", "const", "--n", "5"],
     {"diagnostics", "transforms", "_cells"}),
], ids=lambda value: " ".join(value) if isinstance(value, list) else "")
def test_a_command_imports_the_modules_of_its_path(argv, modules, tmp_path):
    code, names = imported(RUN_CLI, argv, tmp_path)
    assert code == 0
    assert {name.partition(".")[2] for name in names
            if name.startswith("jacobi_spectra.")} == modules | {
                "errors", "sequences", "recurrence"}
    assert "csv" not in names

