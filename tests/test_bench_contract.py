"""Every package name the benchmark's tracer patches must exist, and its
sequence wrappers must read what they wrap.

``perfbench/tracing.py`` wraps functions by (layer module, name) and
replaces that attribute in each module that calls the function through
it, and it subclasses ``SequencePair`` and ``WeightSequence``.  A renamed
or dropped name, or a constructor its subclasses no longer fit, would
otherwise only show when the benchmark runs.
"""

import importlib.util
from pathlib import Path

import numpy as np

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


def _same_bits(new, ref):
    assert new.dtype == ref.dtype == np.float64
    assert np.array_equal(new.view(np.int64), ref.view(np.int64))


def test_tracer_wrappers_give_the_same_bits(monkeypatch, tmp_path):
    """The tracer subclasses SequencePair and WeightSequence; its wrappers
    must read the same numbers as the objects they wrap."""
    tracing = _load_tracing(monkeypatch)
    seq = jacobi_spectra.instantiate("pow:alpha=0.5")
    counter = tracing.Counter(jacobi_spectra)
    watched = tracing._watched_pair(jacobi_spectra, seq, counter)
    assert isinstance(watched, jacobi_spectra.SequencePair)
    _same_bits(watched.a_array(500), seq.a_array(500))
    _same_bits(watched.b_array(500, start=7), seq.b_array(500, start=7))
    assert [watched.a(n) for n in range(9)] == [seq.a(n) for n in range(9)]
    assert counter.calls == 9

    table = tmp_path / "alpha.csv"
    table.write_text("".join("%d,%r\n" % (n, 1.0 + n / 3.0) for n in range(600)))
    for choice in (None, "one", "iterlog:1", "iterlog:2", "table:%s" % table):
        want = jacobi_spectra.cli._resolve_alpha(choice, seq)
        with counter.installed():
            alpha = jacobi_spectra.cli._resolve_alpha(choice, seq)
            assert type(alpha).__name__ == "CountedWeight"
            _same_bits(alpha.array(500), want.array(500))
            assert [alpha(n) for n in range(-1, 9)] == [
                want(n) for n in range(-1, 9)]
    assert jacobi_spectra.cli.WeightSequence is jacobi_spectra.WeightSequence
