"""Command-line front end: ``jacobi-spectra <command> ...``.

Commands
--------

analyze
    Propagate a generalized eigenvector and write its trace plus the
    commutator diagnostics trace, one pair of files per spectral
    parameter.
check
    Run a theorem hypothesis checker and emit a verdict report as JSON.
    Verdicts (pass/fail/inconclusive) are data, not exit codes, so batch
    sweeps over families always complete.
spectrum
    Eigenvalues of the N x N truncation (optionally with Gauss weights),
    or per-bin eigenvalue counts when a window and bin width are given.
transform
    Derived-sequence tables: sign flip, even/odd restrictions of the
    square, or birth-death generator conversion.

Output rule, kept by :func:`_outputs` around every command: ``--out`` is a
directory or a path that can be made one, made with the run's first
output; each file name is written once per run, and ``config.json`` (the
parsed options that are :class:`RunConfig` fields, and the tool version)
comes last, on success.  An error exit leaves none of the run's files,
and no ``--out`` if it failed before the first output.  Identical runs
give byte-identical outputs: 17 significant digits, '.' decimal separator.

Exit codes: 0 success (including failing verdicts), 2 spec/usage errors,
3 domain errors and sizes that cannot be allocated.
"""

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import __version__
from .errors import JacobiError, ParseError
from . import diagnostics, recurrence, spectra, transforms
from .sequences import (WeightSequence, _read_table, instantiate,
                        parse_family)

EXIT_OK = 0
EXIT_SPEC_ERROR = 2
EXIT_DOMAIN_ERROR = 3


@dataclass
class RunConfig:
    """Everything needed to reproduce one CLI run."""

    command: str
    seq: str | None = None
    rates: str | None = None
    lambdas: list = field(default_factory=list)
    n: int | None = None
    size: int | None = None
    alpha: str | None = None
    theorem: str | None = None
    K: int | None = None
    init: str | None = None
    window: str | None = None
    bin: float | None = None
    weights: bool = False
    tol: float | None = None
    format: str = "csv"
    out: str | None = None
    version: str = __version__


def _resolve_alpha(choice, seq):
    if choice is None or choice == "a":
        return WeightSequence.from_a(seq)
    if choice == "one":
        return WeightSequence.ones()
    name, sep, arg = choice.partition(":")
    if name == "iterlog":
        try:
            K = int(arg) if sep else 1
        except ValueError:
            raise ParseError("iterlog depth must be an integer, got %r"
                             % arg) from None
        return WeightSequence.iterlog_weight(seq, K)
    if name == "table" and sep:
        (values,) = _read_table(arg, "alpha table", 1)
        return WeightSequence.from_table(values)
    raise ParseError("unknown alpha choice %r" % choice)


def _floats(text, option, count=None):
    """The comma-separated numbers of an option value, ``count`` if given."""
    try:
        values = [float(v) for v in text.split(",")]
        if count in (None, len(values)):
            return values
    except ValueError:
        pass
    raise ParseError("%s takes %s comma-separated numbers, got %r"
                     % (option, count or "one or more", text))


def _resolve_init(text, seq, lam):
    if text is None or text == "p":
        return recurrence.poly_init(seq, lam)
    return recurrence.EigvecInit(*_floats(text, "--init", 2))


def _resolve_rates(text):
    if not text:
        raise ParseError("no rates given (use --rates or --bd)")
    if os.path.exists(text):
        return transforms.load_rates_csv(text)
    return transforms.parse_rates(text)


@contextlib.contextmanager
def _outputs(args):
    """Yield ``path(name)`` for each file of a run, by the output rule above."""
    out = args.out
    if not out and args.command == "check":  # the report goes to stdout
        yield lambda name: None
        return
    handed = []

    def path(name):
        if not handed:
            try:
                os.makedirs(out or ".", exist_ok=True)
            except OSError as exc:
                raise ParseError("--out %r cannot be made a directory: %s"
                                 % (out, exc.strerror)) from None
        if os.path.join(out, name) in handed:
            raise ParseError("two outputs of this run are named %s" % name)
        handed.append(os.path.join(out, name))
        return handed[-1]

    try:
        yield path
        _emit_json(path("config.json"), asdict(RunConfig(**{
            f.name: getattr(args, f.name) for f in fields(RunConfig)
            if hasattr(args, f.name)})))
    except BaseException as exc:
        for name in filter(os.path.isfile, handed):
            os.remove(name)
        # a failed write (a full disk) names no file
        if isinstance(exc, OSError) and handed and exc.filename in (
                None, handed[-1]):
            raise ParseError("cannot write %s: %s"
                             % (handed[-1], exc.strerror)) from None
        raise


def _emit_json(path_or_none, payload):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path_or_none:
        with open(path_or_none, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- commands --------------------------------------------------------------


def cmd_analyze(args, path):
    seq = instantiate(parse_family(args.seq))
    args.lambdas = [lam for text in args.lambdas or []
                    for lam in _floats(text, "--lambda")] or [0.0]
    if not all(map(math.isfinite, args.lambdas)):
        raise ParseError("--lambda values must be finite, got %s"
                         % args.lambdas)
    alpha = _resolve_alpha(args.alpha, seq)
    for lam in args.lambdas:
        # one propagation per lam: both traces come from the same states
        init = _resolve_init(args.init, seq, lam)
        trace = diagnostics.s_sequence(seq, alpha, lam, init, args.n)
        tag = ("%g" % lam).replace("-", "m").replace(".", "p")
        recurrence.write_trace_csv(path("eigvec_lambda_%s.csv" % tag),
                                   trace.states)
        diagnostics.write_trace_csv(path("diagnostics_lambda_%s.csv" % tag),
                                    trace)
        del trace, init, tag  # nothing of this lam outlives its turn


def cmd_check(args, path):
    theorem = args.theorem
    extra = {"theorem": theorem, "n": args.n, "version": __version__}
    if theorem == "51":
        rates = _resolve_rates(args.rates)
        verdicts, conclusion = transforms.bd_check_theorem_51(rates, args.n)
        extra["rates"] = rates.name
        extra["conclusion"] = conclusion
    else:
        seq = instantiate(parse_family(args.seq))
        extra["seq"] = args.seq
        if theorem == "A":
            alpha = _resolve_alpha(args.alpha, seq)
            verdicts = diagnostics.check_theorem_A(seq, alpha, args.n)
        elif theorem == "B":
            verdicts = diagnostics.check_corollary_B(seq, args.n)
        elif theorem == "C":
            result = diagnostics.check_corollary_C(seq, args.n)
            verdicts = result.verdicts
            extra["M"] = result.M
            extra["M_dispersion"] = result.M_dispersion
            extra["ratio_tail"] = result.ratio_tail
            extra["undefined_ratios"] = result.undefined_ratios
        elif theorem == "42":
            verdicts = diagnostics.check_theorem_42(seq, args.n)
        else:  # "43"
            K = 1 if args.K is None else args.K
            verdicts = diagnostics.check_theorem_43(seq, K, args.n)
    report = diagnostics.verdicts_to_json(verdicts, extra=extra)
    _emit_json(path("verdict.json"), report)


def cmd_spectrum(args, path):
    if args.size < 1:
        raise ParseError("--size must be >= 1, got %d" % args.size)
    seq = instantiate(parse_family(args.seq))
    if args.window is not None:
        if args.bin is None:
            raise ParseError("--window requires --bin")
        window = tuple(_floats(args.window, "--window", 2))
        if not all(map(math.isfinite, window + (args.bin,))):
            raise ParseError("--window and --bin must be finite, got %r "
                             "and %r" % (args.window, args.bin))
        rows = spectra.density_report(seq, args.size, window, args.bin)
        spectra.write_density_csv(path("density.csv"), rows)
    else:
        t = spectra.truncate(seq, args.size)
        spectrum = spectra.eigenvalues(t, tol=args.tol, weights=args.weights)
        spectra.write_spectrum_csv(path("spectrum.csv"), spectrum)


def cmd_transform(args, path):
    if args.n < 0:
        raise ParseError("--n must be >= 0, got %d" % args.n)
    kind, n = args.kind, args.n
    if kind == "bd":
        pair, pi = transforms.bd_to_jacobi(_resolve_rates(args.rates))
        header = ["n", "abar", "bbar", "log_pi"]
        columns = [pair.a_array(n), pair.b_array(n), pi.log_pi(np.arange(n))]
    else:
        seq = instantiate(parse_family(args.seq))
        derived = {"flip": transforms.flip,
                   "even": transforms.square_even,
                   "odd": transforms.square_odd}[kind](seq)
        header = ["n", "a", "b"]
        columns = [derived.a_array(n), derived.b_array(n)]
    recurrence._write_columns(path("%s.csv" % kind), header, np.arange(n),
                              *columns)


# --- argument parsing ------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="jacobi-spectra",
        description="Numerical spectral analysis of semi-infinite Jacobi matrices.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="eigenvector and diagnostics traces")
    p.add_argument("--seq", required=True, help="sequence family spec")
    p.add_argument("--lambda", dest="lambdas", action="append", metavar="LAM",
                   help="spectral parameter(s), repeatable or comma-separated")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", default="a",
                   help="weight choice: a | one | iterlog:K | table:FILE")
    p.add_argument("--init", default="p", help="'p' or 'u0,u1'")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("check", help="theorem hypothesis checkers")
    p.add_argument("--theorem", required=True,
                   choices=["A", "B", "C", "42", "43", "51"])
    p.add_argument("--seq")
    p.add_argument("--rates", "--bd", dest="rates",
                   help="rates CSV file or mini-language, "
                        "e.g. lam=linear,mu=linear")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", default="a")
    p.add_argument("--k", dest="K", type=int,
                   help="iterated-log depth for theorem 43")
    p.add_argument("--out")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("spectrum", help="truncation eigenvalues / densities")
    p.add_argument("--seq", required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--window", help="x_lo,x_hi for a density report")
    p.add_argument("--bin", type=float)
    p.add_argument("--weights", action="store_true")
    p.add_argument("--tol", type=float)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("transform", help="derived-sequence tables")
    p.add_argument("kind", choices=["flip", "even", "odd", "bd"])
    p.add_argument("--seq")
    p.add_argument("--rates", "--bd", dest="rates",
                   help="rates CSV file or mini-language, "
                        "e.g. lam=linear,mu=linear")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_transform)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        with _outputs(args) as path:
            args.func(args, path)
        return EXIT_OK
    except (JacobiError, MemoryError) as exc:  # ParseError exits 2, the rest 3
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_SPEC_ERROR if isinstance(exc, ParseError) else EXIT_DOMAIN_ERROR


if __name__ == "__main__":
    sys.exit(main())
