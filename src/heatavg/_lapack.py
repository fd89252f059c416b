"""LAPACK routines from scipy's compiled extension, without `scipy.linalg`.

Importing `scipy.linalg` runs its whole package, about a quarter of a second
in a cold interpreter, for the few Fortran routines the oracle and the
tabulated eigensolve call.  `routines` loads the `_flapack` extension alone,
by file location, and registers it under its own name, so a later
`import scipy.linalg` reuses it.  Where no loadable extension file is found,
as under another scipy layout, it falls back to `scipy.linalg.lapack`: the
same routines, at the cost of the import.
"""

import importlib.machinery
import importlib.util
import os
import sys

_NAME = "scipy.linalg._flapack"


def _locate():
    """Spec of the extension file, found without running scipy's code, or None."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or not scipy.submodule_search_locations:
        return None
    dirs = [os.path.join(d, "linalg") for d in scipy.submodule_search_locations]
    return importlib.machinery.PathFinder.find_spec(_NAME, dirs)


def _flapack():
    if _NAME in sys.modules:
        return sys.modules[_NAME]
    spec = _locate()
    if spec is not None:
        try:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        except ImportError:  # e.g. its libraries are found only via scipy/__init__
            pass
        else:
            sys.modules[_NAME] = module
            return module
    from scipy.linalg import lapack

    return lapack


def routines(*names: str) -> tuple:
    """The named LAPACK wrappers, e.g. ``routines("dpttrf", "dpttrs")``."""
    module = _flapack()
    return tuple(getattr(module, name) for name in names)
