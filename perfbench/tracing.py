"""Spans around the calls into each layer of ``jacobi_spectra``.

The program is not instrumented: :class:`Tracer` replaces module
attributes with timing wrappers, including the names that other modules
bound with ``from ... import``, and puts the originals back on exit.  A
span records (id, name, start, end, busy, parent, job) plus counts; its
``busy`` time is the time spent inside the callee, which differs from
``end - start`` only for generators (``recurrence.propagate``), whose
consumer runs between the yields.  A layer's self time is the busy time
of its spans minus the busy time of their child spans.

:class:`Counter` is the separate, untimed pass that counts coefficient
evaluations through wrappers built with the public ``SequencePair`` and
``WeightSequence`` constructors.
"""

import contextlib
import functools
import os
import time
from collections import defaultdict

from workloads import option

LAYERS = ("sequences", "recurrence", "diagnostics", "spectra", "transforms")

# (layer, function, modules whose attribute of that name is replaced);
# the modules are the ones that call the function through that name
TARGETS = (
    ("sequences", "parse_family", ("cli",)),
    ("sequences", "instantiate", ("cli",)),
    ("recurrence", "poly_init", ("recurrence",)),
    ("recurrence", "poly_eval", ("recurrence", "spectra")),
    ("recurrence", "write_trace_csv", ("recurrence",)),
    ("diagnostics", "s_sequence", ("diagnostics",)),
    ("diagnostics", "check_theorem_A", ("diagnostics",)),
    ("diagnostics", "check_corollary_B", ("diagnostics",)),
    ("diagnostics", "check_corollary_C", ("diagnostics",)),
    ("diagnostics", "check_theorem_42", ("diagnostics",)),
    ("diagnostics", "check_theorem_43", ("diagnostics",)),
    ("diagnostics", "verdicts_to_json", ("diagnostics",)),
    ("diagnostics", "write_trace_csv", ("diagnostics",)),
    ("spectra", "truncate", ("spectra",)),
    ("spectra", "eigenvalues", ("spectra",)),
    ("spectra", "density_report", ("spectra",)),
    ("spectra", "write_spectrum_csv", ("spectra",)),
    ("spectra", "write_density_csv", ("spectra",)),
    ("transforms", "parse_rates", ("transforms",)),
    ("transforms", "bd_check_theorem_51", ("transforms",)),
)
GENERATORS = (("recurrence", "propagate", ("recurrence", "diagnostics")),)
# transforms whose returned sequences are evaluated lazily by the caller
LAZY = (("transforms", "flip", ("transforms",)),
        ("transforms", "square_even", ("transforms",)),
        ("transforms", "square_odd", ("transforms",)),
        ("transforms", "bd_to_jacobi", ("transforms",)))


class _Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, obj, attr, value):
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def restore(self):
        while self._saved:
            obj, attr, value = self._saved.pop()
            setattr(obj, attr, value)


class Tracer:
    """Collects spans in memory while installed (``with tracer.installed():``)."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.bisect_probes = []   # (span id, truncation, tol) of weighted solves
        self.bisect_times = {}    # span id -> seconds of the unweighted solve
        self._stack = [None]
        self._job = None
        self._next_id = 0
        self._lazy = []

    # -- span bookkeeping ------------------------------------------------

    def _open(self):
        self._next_id += 1
        return self._next_id, self._stack[-1]

    def _record(self, span_id, parent, name, start, end, busy, **counts):
        self.spans.append(dict(id=span_id, name=name, start=start, end=end,
                               busy=busy, parent=parent, job=self._job, **counts))

    @contextlib.contextmanager
    def job(self, job_id):
        """Root span of one CLI job; layer spans inside it are its descendants."""
        self._job = job_id
        span_id, parent = self._open()
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            for lazy in self._lazy:
                lazy.close()
            self._lazy.clear()
            self._record(span_id, parent, "cli.main", start, end, end - start)
            self._job = None

    # -- wrappers --------------------------------------------------------

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id, parent = tracer._open()
            tracer._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
            counts = tracer._counts(name, args, kwargs, result, span_id)
            tracer._record(span_id, parent, name, start, end, end - start, **counts)
            return result
        return wrapper

    def _counts(self, name, args, kwargs, result, span_id):
        if name.endswith("write_trace_csv"):
            return {"bytes": os.path.getsize(args[0])}
        if name == "diagnostics.s_sequence":
            return {"f_excluded": int(result.excluded)}
        if name == "spectra.eigenvalues":
            weights = kwargs.get("weights", args[2] if len(args) > 2 else False)
            if weights:
                tol = kwargs.get("tol", args[1] if len(args) > 1 else None)
                self.bisect_probes.append((span_id, args[0], tol))
            return {"eigenvalues": int(result.order), "weights": bool(weights)}
        return {}

    def _wrap_generator(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id, parent = tracer._open()
            inner = fn(*args, **kwargs)

            def timed():
                start = time.perf_counter()
                busy, steps = 0.0, -1
                try:
                    while True:
                        t0 = time.perf_counter()
                        try:
                            item = next(inner)
                        except StopIteration:
                            busy += time.perf_counter() - t0
                            return
                        busy += time.perf_counter() - t0
                        steps += 1
                        yield item
                finally:
                    tracer._record(span_id, parent, name, start,
                                   time.perf_counter(), busy, steps=max(steps, 0))
            return timed()
        return wrapper

    def _wrap_lazy(self, fn, name):
        """Time construction plus every later evaluation of the returned sequence."""
        tracer = self
        pkg = self.package

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id, parent = tracer._open()
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            lazy = _LazySpan(tracer, span_id, parent, name, start)
            if isinstance(result, tuple):  # bd_to_jacobi: (pair, PiWeights)
                pair, pi = result
                result = (_watched_pair(pkg, pair, lazy), _WatchedPi(pi, lazy))
            else:
                result = _watched_pair(pkg, result, lazy)
            lazy.busy += time.perf_counter() - start
            tracer._lazy.append(lazy)
            return result
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        pkg = self.package
        kinds = ([(t, self._wrap) for t in TARGETS]
                 + [(t, self._wrap_generator) for t in GENERATORS]
                 + [(t, self._wrap_lazy) for t in LAZY])
        patches = _Patches()
        try:
            for (layer, fname, where), wrap in kinds:
                wrapped = wrap(getattr(getattr(pkg, layer), fname),
                               "%s.%s" % (layer, fname))
                for mod in where:
                    patches.set(getattr(pkg, mod), fname, wrapped)
            yield self
        finally:
            patches.restore()

    def run_bisect_probes(self):
        """Time ``eigenvalues(t)`` without weights for every weighted solve.

        Runs outside any span and with the tracer uninstalled, so the probe
        is not part of a job; ``spectra.gauss_weights_s`` is the weighted
        solve's time minus its probe.
        """
        eigenvalues = self.package.spectra.eigenvalues
        for span_id, truncation, tol in self.bisect_probes:
            t0 = time.perf_counter()
            eigenvalues(truncation, tol=tol)
            self.bisect_times[span_id] = time.perf_counter() - t0
        self.bisect_probes.clear()


class _LazySpan:
    def __init__(self, tracer, span_id, parent, name, start):
        self.tracer, self.span_id, self.parent = tracer, span_id, parent
        self.name, self.start, self.end = name, start, start
        self.busy = 0.0
        self.calls = 0

    def timed(self, fn, *args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.end = time.perf_counter()
            self.busy += self.end - t0
            self.calls += 1

    def close(self):
        self.tracer._record(self.span_id, self.parent, self.name, self.start,
                            self.end, self.busy, calls=self.calls)


@functools.lru_cache(maxsize=None)
def _pair_class(package):
    class WatchedPair(package.sequences.SequencePair):
        """A SequencePair that reports each a/b evaluation to ``sink.timed``."""

        def __init__(self, inner, sink):
            super().__init__(inner.a, inner.b, name=inner.name, length=inner.length)
            self._inner = inner
            self._sink = sink

        def a(self, n):
            return self._sink.timed(self._inner.a, n)

        def b(self, n):
            return self._sink.timed(self._inner.b, n)

    return WatchedPair


def _watched_pair(package, inner, sink):
    return _pair_class(package)(inner, sink)


class _WatchedPi:
    """Stands in for ``PiWeights``; the CLI reads only ``log_pi``."""

    def __init__(self, inner, sink):
        self._inner, self._sink = inner, sink

    def log_pi(self, n):
        return self._sink.timed(self._inner.log_pi, n)


class Counter:
    """Counts a/b/alpha evaluations of the sequences the CLI instantiates."""

    def __init__(self, package):
        self.package = package
        self.calls = 0

    def timed(self, fn, *args):
        self.calls += 1
        return fn(*args)

    @contextlib.contextmanager
    def installed(self):
        pkg = self.package
        counter = self
        cli = pkg.cli
        original_instantiate = cli.instantiate
        Weight = cli.WeightSequence

        class CountedWeight(Weight):
            def __call__(self, n):
                counter.calls += 1
                return super().__call__(n)

        def instantiate(spec):
            return _watched_pair(pkg, original_instantiate(spec), counter)

        patches = _Patches()
        try:
            patches.set(cli, "instantiate", instantiate)
            patches.set(cli, "WeightSequence", CountedWeight)
            yield self
        finally:
            patches.restore()


def coeff_probe(package, jobs):
    """Seconds to evaluate a(n), b(n) index by index at each job's size.

    This is the cost the per-index coefficient closures put on every layer
    that reads coefficients; it runs outside any job.
    """
    total = 0.0
    for _, argv in jobs:
        spec = option(argv, "--seq")
        if spec is None:
            continue
        size = int(option(argv, "--size") or option(argv, "--n"))
        seq = package.sequences.instantiate(spec)
        t0 = time.perf_counter()
        for n in range(size):
            seq.a(n)
            seq.b(n)
        total += time.perf_counter() - t0
    return total


_CHECKS = {"check_theorem_A": "check_A_s", "check_corollary_B": "check_B_s",
           "check_corollary_C": "check_C_s", "check_theorem_42": "check_42_s",
           "check_theorem_43": "check_43_s"}
_SUMMED = {
    "sequences.instantiate": "sequences.instantiate_s",
    "sequences.parse_family": "sequences.instantiate_s",
    "recurrence.propagate": "recurrence.propagate_s",
    "recurrence.write_trace_csv": "recurrence.write_trace_s",
    "diagnostics.write_trace_csv": "diagnostics.write_trace_s",
    "spectra.truncate": "spectra.truncate_s",
    "spectra.write_spectrum_csv": "spectra.write_s",
    "spectra.write_density_csv": "spectra.write_s",
    "transforms.flip": "transforms.table_s",
    "transforms.square_even": "transforms.table_s",
    "transforms.square_odd": "transforms.table_s",
    "transforms.bd_to_jacobi": "transforms.table_s",
    "transforms.bd_check_theorem_51": "transforms.check_51_s",
}
_SUMMED.update({"diagnostics." + k: "diagnostics." + v for k, v in _CHECKS.items()})
SPAN_METRICS = sorted(set(_SUMMED.values()) | {
    "recurrence.steps", "recurrence.bytes_written", "diagnostics.s_sequence_s",
    "diagnostics.f_excluded", "diagnostics.bytes_written", "spectra.bisect_s",
    "spectra.gauss_weights_s", "spectra.density_s", "spectra.eigenvalues",
    "cli.glue_s",
} | {layer + ".self_s" for layer in LAYERS})


def span_metrics(spans, bisect_times):
    """Per-layer metrics of one pass from its spans."""
    child_busy = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_busy[s["parent"]] += s["busy"]
    m = dict.fromkeys(SPAN_METRICS, 0.0)
    for s in spans:
        name, busy = s["name"], s["busy"]
        own = busy - child_busy[s["id"]]
        layer = name.partition(".")[0]
        if name == "cli.main":
            # the job's time outside every layer call: argparse, config.json,
            # directories, and the rows cmd_transform formats itself
            m["cli.glue_s"] += own
            continue
        m[layer + ".self_s"] += own
        if name in _SUMMED:
            m[_SUMMED[name]] += busy
        if name == "recurrence.propagate":
            m["recurrence.steps"] += s["steps"]
        elif name.endswith(".write_trace_csv"):
            m[layer + ".bytes_written"] += s["bytes"]
        elif name == "diagnostics.s_sequence":
            m["diagnostics.s_sequence_s"] += own
            m["diagnostics.f_excluded"] += s["f_excluded"]
        elif name == "spectra.eigenvalues":
            m["spectra.eigenvalues"] += s["eigenvalues"]
            bisect = bisect_times[s["id"]] if s["weights"] else own
            m["spectra.bisect_s"] += bisect
            m["spectra.gauss_weights_s"] += busy - bisect if s["weights"] else 0.0
        elif name == "spectra.density_report":
            m["spectra.density_s"] += own
    return m
