"""Exact-arithmetic toolkit for the algebra of knot S-equivalence.

Seifert matrices and their abelian invariants, unimodular congruence and
enlargement moves, symplectic standardization and the disk-band form,
pure-braid delta-move calculus, doubled string-link normalization, and a
braid-closure front end cross-validated by an independent reduced-Burau
oracle.  Every computation is exact; there is no floating point anywhere.

The package exports every name in every library module's __all__, and
those lists are the only declaration of the public API.  Importing the
package loads no library module: the first name looked up on it that
the package does not hold imports the seven modules and resolves the
name from their __all__ lists (PEP 562), and the package's __all__ is
their union, so `from sequiv import *` binds every exported name.  A
submodule name imports just that module.  So the command line, whose
handlers import the modules they call when they run, loads only what
the command it runs needs.
"""

import importlib

__version__ = "0.1.0"

_LIBRARY = ("intlin", "laurent", "seifert", "purebraid", "stringlink", "standardform", "braidclosure")


class InternalCheckError(RuntimeError):
    """An exactness check inside the library failed: a bug, never bad input.

    Raised explicitly rather than by assert, so the check also runs
    under python -O.  It lives here, not in intlin, which exports it, so
    that the command line can catch it without importing any library
    module.
    """


def __getattr__(name: str):
    if name in _LIBRARY:
        return importlib.import_module(f"{__name__}.{name}")
    modules = [importlib.import_module(f"{__name__}.{m}") for m in _LIBRARY]
    if name == "__all__":
        return [attr for module in modules for attr in module.__all__]
    for module in modules:
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
