"""The package's public names are its modules' ``__all__`` lists."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jacobi_spectra
from jacobi_spectra import (diagnostics, recurrence, sequences, spectra,
                            transforms)

# declared by recurrence and by diagnostics: reached through the module only
SHARED = "write_trace_csv"


@pytest.mark.parametrize("module", [
    sequences, recurrence, diagnostics, spectra, transforms],
    ids=lambda module: module.__name__)
def test_each_declared_name_is_the_package_name(module):
    # a name that a later module also declares would be the other object
    assert [name for name in module.__all__ if name != SHARED
            and getattr(jacobi_spectra, name, None)
            is not getattr(module, name)] == []


def test_shared_name_stays_module_qualified():
    assert SHARED in recurrence.__all__ and SHARED in diagnostics.__all__
    assert not hasattr(jacobi_spectra, SHARED)


# the first access in a fresh interpreter, before any module is loaded
FIRST_ACCESS = {
    "name": "jacobi_spectra.instantiate",
    "star": "exec('from jacobi_spectra import *', {})",
    "dir": "dir(jacobi_spectra)",
    "submodule": "jacobi_spectra.spectra",
    "cli": "jacobi_spectra.cli",
}
# prints what the public surface gets wrong after ``sys.argv[1]`` ran first
SURFACE = """
import json, sys
import jacobi_spectra
loaded = sorted(m for m in sys.modules if m.startswith("jacobi_spectra."))
eval(sys.argv[1])
from jacobi_spectra import diagnostics, recurrence, sequences, spectra
from jacobi_spectra import cli, transforms
modules = [sequences, recurrence, diagnostics, spectra, transforms]
star = {}
exec("from jacobi_spectra import *", star)
public = {name for module in modules for name in module.__all__} - {%r}
public |= {"JacobiError", "ParseError", "DomainError"}
try:
    jacobi_spectra.no_such_name
    unknown = "no error"
except AttributeError as exc:
    unknown = "" if "no_such_name" in str(exc) else str(exc)
print(json.dumps({
    "loaded at import": loaded,
    "other object": [name for module in modules for name in module.__all__
                     if name in public and getattr(jacobi_spectra, name)
                     is not getattr(module, name)],
    "not bound by star": sorted(public - set(star)),
    "not in dir": sorted(public - set(dir(jacobi_spectra))),
    "shared name": [%r in star, hasattr(jacobi_spectra, %r)],
    "unknown name": unknown,
    "submodules": [jacobi_spectra.spectra is sys.modules["jacobi_spectra.spectra"],
                   jacobi_spectra.cli is sys.modules["jacobi_spectra.cli"]],
}))
""" % (SHARED, SHARED, SHARED)


@pytest.mark.parametrize("first", FIRST_ACCESS.values(), ids=FIRST_ACCESS)
def test_public_surface_in_a_fresh_interpreter(first):
    # earlier tests in this process have loaded every module already
    src = str(Path(jacobi_spectra.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", SURFACE, first],
                          capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert json.loads(proc.stdout) == {
        "loaded at import": ["jacobi_spectra.errors"],
        "other object": [], "not bound by star": [], "not in dir": [],
        "shared name": [False, False], "unknown name": "",
        "submodules": [True, True]}
