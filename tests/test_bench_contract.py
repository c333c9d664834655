"""Every package name the benchmark's tracer patches must exist.

``perfbench/tracing.py`` wraps functions by (layer module, name) and
replaces that attribute in each module that calls the function through
it.  A renamed or dropped name would otherwise only show when the
benchmark runs.
"""

import importlib.util
from pathlib import Path

import jacobi_spectra
import jacobi_spectra.cli  # noqa: F401  the tracer patches names in cli too

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # tracing imports workloads
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    targets = tracing.TARGETS + tracing.GENERATORS + tracing.LAZY
    assert targets
    missing = ["%s.%s" % (module, name)
               for layer, name, where in targets
               for module in (layer,) + where
               if not hasattr(getattr(jacobi_spectra, module), name)]
    assert missing == []
