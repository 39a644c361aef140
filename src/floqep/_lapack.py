"""The three LAPACK routines floqep calls, ``dgtsv``, ``zgbtrf`` and
``zgbtrs``, from scipy's compiled ``scipy.linalg._flapack`` loaded by file
path: start-up then skips the ``scipy.linalg`` package (0.2-0.3 s, 18 MB).
``scipy.linalg.lapack`` exports the same function objects, and supplies
them when that file is missing or does not load.

The package imports this module first: loading the wrappers starts
OpenBLAS's thread pool, whose helpers spin for about 0.1 s before they
sleep, and the numpy import the load runs overlaps that spin instead of
the first command's solves.
"""

import importlib.machinery
import importlib.util
import operator
import os
import sys


def _flapack(name="_flapack"):
    """``scipy.linalg.<name>``, as already imported or else loaded by file
    path; ``scipy.linalg.lapack`` when that fails."""
    full = "scipy.linalg." + name
    if full in sys.modules:
        return sys.modules[full]
    root = importlib.util.find_spec("scipy").submodule_search_locations[0]
    path = os.path.join(root, "linalg", name + importlib.machinery.EXTENSION_SUFFIXES[0])
    try:
        spec = importlib.util.spec_from_file_location(full, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except ImportError:
        from scipy.linalg import lapack
        return lapack
    # filed under its dotted name without its package; a later
    # `import scipy.linalg` loads its own copy, sharing these functions
    sys.modules.pop(full, None)
    return module


dgtsv, zgbtrf, zgbtrs = operator.attrgetter("dgtsv", "zgbtrf", "zgbtrs")(_flapack())
