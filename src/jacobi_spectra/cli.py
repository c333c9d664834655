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
command's parsed options, with the tool version) comes last, on success.
An error exit leaves none of the run's files, and no ``--out`` if it
failed before the first output.  Identical runs give byte-identical
outputs: 17 significant digits, '.' decimal separator.

Start-up imports only :mod:`~jacobi_spectra.sequences` and
:mod:`~jacobi_spectra.recurrence`, which every command runs; each command
imports the rest of what it runs (``diagnostics``, ``spectra``,
``transforms``) at dispatch, so a call compiles no module it does not run.

Exit codes: 0 success (including failing verdicts), 2 spec/usage errors,
3 domain errors and sizes that cannot be allocated.
"""

import argparse
import contextlib
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import JacobiError, ParseError
from . import recurrence
from .sequences import WeightSequence, _number, instantiate, parse_family

EXIT_OK = 0
EXIT_SPEC_ERROR = 2
EXIT_DOMAIN_ERROR = 3


def _resolve_alpha(choice, seq):
    if choice is None or choice == "a":
        return WeightSequence.from_a(seq)
    if choice == "one":
        return WeightSequence.ones()
    name, sep, arg = choice.partition(":")
    if name == "iterlog":
        try:
            K = _number(int, arg) if sep else 1
        except ValueError:
            raise ParseError("iterlog depth must be an integer, got %r"
                             % arg) from None
        return WeightSequence.iterlog_weight(seq, K)
    if name == "table" and sep:
        return WeightSequence.read_table(arg)
    raise ParseError("unknown alpha choice %r" % choice)


def _floats(text, option, count=None):
    """The comma-separated numbers of an option value, ``count`` if given."""
    try:
        values = [_number(float, v) for v in text.split(",")]
        if count in (None, len(values)):
            return values
    except ValueError:
        pass
    raise ParseError("%s takes %s comma-separated numbers, got %r"
                     % (option, count or "one or more", text))


def _resolve_init(text, seq, lam):
    if text == "p":
        return recurrence.poly_init(seq, lam)
    return recurrence.EigvecInit(*_floats(text, "--init", 2))


def _resolve_rates(text):
    if not text:
        raise ParseError("no rates given (use --rates or --bd)")
    from . import transforms
    if os.path.exists(text):
        return transforms.BirthDeathRates.read_table(text)
    return transforms.parse_rates(text)


def _check_source(args, from_rates, command):
    """A ParseError if ``--seq`` is given where the rates are read, or
    ``--rates``/``--bd`` where the sequence is (both default to None)."""
    given = args.seq if from_rates else args.rates
    if given is not None:
        raise ParseError("%s does not take %s, got %r" % (
            command, "--seq" if from_rates else "--rates/--bd", given))


@contextlib.contextmanager
def _outputs(args):
    """Yield ``path(name)`` for each file of a run, by the output rule above;
    ``config.json`` is ``args`` as the command leaves it, less ``func``."""
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
        config = dict(vars(args), version=__version__)
        del config["func"]
        _emit_json(path("config.json"), config)
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
    from . import diagnostics
    if args.n < 2:
        raise ParseError("--n must be >= 2, got %d" % args.n)
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
    from . import diagnostics
    if args.n < 100:
        raise ParseError("--n must be >= 100, got %d" % args.n)
    theorem = args.theorem
    _check_source(args, theorem == "51", "check --theorem %s" % theorem)
    # only A reads --alpha and only 43 --k; their parser defaults pass
    for option, value, default, reader in (("--alpha", args.alpha, "a", "A"),
                                           ("--k", args.K, 1, "43")):
        if theorem != reader and value != default:
            raise ParseError("check --theorem %s does not take %s, got %r"
                             % (theorem, option, value))
    extra = {"theorem": theorem, "n": args.n, "version": __version__}
    if theorem == "51":
        from . import transforms
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
            verdicts = diagnostics.check_theorem_43(seq, args.K, args.n)
    report = diagnostics.verdicts_to_json(verdicts, extra=extra)
    _emit_json(path("verdict.json"), report)


def cmd_spectrum(args, path):
    from . import spectra
    if args.size < 1:
        raise ParseError("--size must be >= 1, got %d" % args.size)
    density = args.window is not None
    if density != (args.bin is not None):
        raise ParseError("--window requires --bin" if density
                         else "--bin requires --window")
    if density and (args.weights or args.tol is not None):
        raise ParseError("--weights and --tol apply only without --window")
    if args.tol is not None and not 0.0 < args.tol < math.inf:
        raise ParseError("--tol must be positive and finite, got %r" % args.tol)
    seq = instantiate(parse_family(args.seq))
    if density:
        window = tuple(_floats(args.window, "--window", 2))
        if not all(map(math.isfinite, window + (args.bin,))):
            raise ParseError("--window and --bin must be finite, got %r "
                             "and %r" % (args.window, args.bin))
        if args.bin <= 0.0:
            raise ParseError("--bin must be positive, got %r" % args.bin)
        rows = spectra.density_report(seq, args.size, window, args.bin)
        spectra.write_density_csv(path("density.csv"), rows)
    else:
        t = spectra.truncate(seq, args.size)
        spectrum = spectra.eigenvalues(t, tol=args.tol, weights=args.weights)
        spectra.write_spectrum_csv(path("spectrum.csv"), spectrum)


def cmd_transform(args, path):
    from . import transforms
    if args.n < 0:
        raise ParseError("--n must be >= 0, got %d" % args.n)
    kind, n = args.kind, args.n
    _check_source(args, kind == "bd", "transform %s" % kind)
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


def _int(text):
    return _number(int, text)


def _float(text):
    return _number(float, text)


# argparse names a rejected value by its type's name: "invalid int value"
_int.__name__, _float.__name__ = "int", "float"


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
    p.add_argument("--n", type=_int, required=True)
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
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--alpha", default="a")
    p.add_argument("--k", dest="K", type=_int, default=1,
                   help="iterated-log depth for theorem 43")
    p.add_argument("--out")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("spectrum", help="truncation eigenvalues / densities")
    p.add_argument("--seq", required=True)
    p.add_argument("--size", type=_int, required=True)
    p.add_argument("--window", help="x_lo,x_hi for a density report")
    p.add_argument("--bin", type=_float)
    p.add_argument("--weights", action="store_true")
    p.add_argument("--tol", type=_float)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("transform", help="derived-sequence tables")
    p.add_argument("kind", choices=["flip", "even", "odd", "bd"])
    p.add_argument("--seq")
    p.add_argument("--rates", "--bd", dest="rates",
                   help="rates CSV file or mini-language, "
                        "e.g. lam=linear,mu=linear")
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_transform)

    return parser


@functools.cache
def _parser():
    """The one parser of this process: ``main`` may run many times."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        with _outputs(args) as path:
            args.func(args, path)
        return EXIT_OK
    except (JacobiError, MemoryError) as exc:  # ParseError exits 2, the rest 3
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_SPEC_ERROR if isinstance(exc, ParseError) else EXIT_DOMAIN_ERROR


if __name__ == "__main__":
    sys.exit(main())
