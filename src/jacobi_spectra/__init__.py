"""Numerical spectral analysis toolkit for semi-infinite Jacobi matrices.

Submodules:

* :mod:`jacobi_spectra.sequences` - coefficient sequences and the family
  mini-language;
* :mod:`jacobi_spectra.recurrence` - overflow-safe three-term recurrence
  evaluation;
* :mod:`jacobi_spectra.diagnostics` - the commutator sequence S(n) and the
  theorem hypothesis checkers;
* :mod:`jacobi_spectra.spectra` - truncation spectra by Sturm bisection and
  Gauss discretizations of the spectral measure;
* :mod:`jacobi_spectra.transforms` - sign flip, even/odd restrictions of
  the square, and birth-death generator conversion;
* :mod:`jacobi_spectra.cli` - the ``jacobi-spectra`` command-line front end.
"""

from .errors import JacobiError, ParseError, DomainError
from .sequences import (
    SequencePair,
    WeightSequence,
    FamilySpec,
    parse_family,
    render_family,
    instantiate,
    iterlog_g,
    iterlog_g_prime,
)
from .recurrence import (
    EigvecInit,
    PropagationState,
    PolyTrace,
    propagate,
    poly_eval,
    poly_init,
    l2_partial_sums,
)
from .diagnostics import (
    DiagnosticsTrace,
    ConditionVerdict,
    s_sequence,
    w_bounds,
    liminf_estimate,
    check_theorem_A,
    check_corollary_B,
    check_corollary_C,
    check_theorem_42,
    check_theorem_43,
    overall_verdict,
    verdicts_to_json,
)
from .spectra import (
    Truncation,
    TruncationSpectrum,
    truncate,
    sturm_count,
    eigenvalues,
    density_report,
)
from .transforms import (
    BirthDeathRates,
    PiWeights,
    flip,
    shift,
    square_even,
    square_odd,
    bd_to_jacobi,
    bd_interleaved,
    bd_square_root_route,
    bd_check_theorem_51,
    parse_rates,
)

__version__ = "0.1.0"
