"""The six scipy.special ufuncs lisnoma evaluates, without scipy.special.

``import scipy.special`` spends about 0.2 s and 23 MB resident (scipy
1.17.1, two cores) in its vendored array-API layer, which clones numpy's
namespace and so loads ``numpy.f2py``, ``numpy.testing`` and ``numpy.ma``.
Every ufunc used here (``loggamma``, ``k0``, ``erf``, ``erfc``, ``exp1``,
``ndtr``) is defined in one extension, ``scipy.special._special_ufuncs``,
which needs only numpy, so this module loads that file directly and hands
out its ufuncs. It finds scipy's package directory with
``importlib.util.find_spec``, which imports nothing, so ``import
lisnoma`` leaves the ``scipy`` package itself unloaded too.

The extension initialises single-phase, so loading it registers the
module in ``sys.modules`` under its full name, and the loader pops that
entry again. Left in place, a later ``import scipy.special`` would find
its submodule already imported and never bind the package attribute
``scipy.special._special_ufuncs``; ``scipy.special.errstate`` and
``seterr`` would then raise AttributeError. The interpreter keeps a
single-phase extension's contents after its first load, so that later
import hands out these very ufunc objects: the same machine code, the
same bits, one shared error state.

Where the file is absent or lacks one of the six names (an older scipy),
the ufuncs come from ``scipy.special`` itself.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

NAMES = ("loggamma", "k0", "erf", "erfc", "exp1", "ndtr")
_MODULE = "scipy.special._special_ufuncs"


def _extension(roots):
    """The extension module, found under the package dirs ``roots``;
    None where no such file exists there."""
    module = sys.modules.get(_MODULE)
    if module is not None:          # scipy.special is already imported
        return module
    for root in roots:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "special", "_special_ufuncs" + suffix)
            if not os.path.isfile(path):
                continue
            spec = importlib.util.spec_from_file_location(_MODULE, path)
            try:
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
            finally:
                sys.modules.pop(_MODULE, None)
            return module
    return None


def _ufuncs(roots):
    """The six ufuncs in NAMES order."""
    module = _extension(roots)
    if module is None or not all(hasattr(module, n) for n in NAMES):
        from scipy import special as module
    return tuple(getattr(module, name) for name in NAMES)


def _scipy_dirs():
    """scipy's package directories, found without importing scipy."""
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    return spec.submodule_search_locations


loggamma, k0, erf, erfc, exp1, ndtr = _ufuncs(_scipy_dirs())
