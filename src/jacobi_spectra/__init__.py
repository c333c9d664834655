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

Importing the package loads only :mod:`jacobi_spectra.errors`.  A submodule
is imported when it is first reached (``jacobi_spectra.spectra``), and the
package's public names, each module's ``__all__``, are published at the
first access to any of them (``from jacobi_spectra import *`` and ``dir``
included), so a command pays only for the modules it runs.
"""

from .errors import JacobiError, ParseError, DomainError

__version__ = "0.1.0"

# the modules whose __all__ are the public names; a later one wins a name
# that two declare, as with star imports
_MODULES = ("sequences", "recurrence", "diagnostics", "spectra", "transforms")


def _publish():
    """Bind each module's ``__all__`` on the package; the public names."""
    public = ["JacobiError", "ParseError", "DomainError"]
    for module in map(__getattr__, _MODULES):
        globals().update((name, getattr(module, name))
                         for name in module.__all__)
        public += module.__all__
    # recurrence and diagnostics both declare write_trace_csv: it stays
    # module-qualified
    del globals()["write_trace_csv"]
    return [name for name in dict.fromkeys(public) if name in globals()]


def __getattr__(name):
    if name in _MODULES or name == "cli":
        # __import__, unlike importlib, shows in ``python -X importtime``
        __import__(__name__ + "." + name)
        return globals()[name]
    # no public name starts with "_": after this miss, ``from . import
    # _cells`` imports the submodule
    if "__all__" not in globals() and (
            name == "__all__" or not name.startswith("_")):
        globals()["__all__"] = _publish()
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name)) from None


def __dir__():
    __getattr__("__all__")
    return list(globals())
