"""Numerical spectral analysis toolkit for semi-infinite Jacobi matrices.

Submodules:

* :mod:`jacobi_spectra.sequences` - coefficient sequences and the family
  mini-language;
* :mod:`jacobi_spectra.recurrence` - overflow-safe three-term recurrence
  evaluation;
* :mod:`jacobi_spectra.diagnostics` - the commutator sequence S(n) and the
  theorem hypothesis checkers;
* :mod:`jacobi_spectra.spectra` - truncation spectra by Sturm multisection and
  Gauss discretizations of the spectral measure;
* :mod:`jacobi_spectra.transforms` - sign flip, even/odd restrictions of
  the square, and birth-death generator conversion;
* :mod:`jacobi_spectra.cli` - the ``jacobi-spectra`` command-line front end.
"""

from .errors import JacobiError, ParseError, DomainError
# the package's public names are each module's __all__
from .sequences import *  # noqa: F401,F403
from .recurrence import *  # noqa: F401,F403
from .diagnostics import *  # noqa: F401,F403
from .spectra import *  # noqa: F401,F403
from .transforms import *  # noqa: F401,F403

# recurrence and diagnostics both declare write_trace_csv: it stays
# module-qualified
del write_trace_csv  # noqa: F821

__version__ = "0.1.0"
