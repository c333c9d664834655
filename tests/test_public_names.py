"""The package's public names are its modules' ``__all__`` lists."""

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
