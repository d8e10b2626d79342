"""The four compiled LAPACK/BLAS routines the pipeline runs on.

Stage 1 fits every curve by a pivoted QR (``dgeqp3``, ``dorgqr``,
``dtrtrs``) and the RBFN grows and scores its paths with a rank-1 update
(``dger``) and a triangular solve (``dtrtrs``). They are the routines of
scipy's f2py extension modules ``scipy.linalg._flapack`` and
``scipy.linalg._fblas``, and this module loads those two files and nothing
else of scipy. It finds scipy's ``linalg`` directory with
:func:`importlib.util.find_spec`, which reads where the package lies
without running it, so neither ``scipy/__init__.py`` nor the package init
of ``scipy.linalg`` (``scipy._lib``'s array-API layer and ``numpy.f2py``
among others) runs: a fresh ``import fdareg.selection, fdareg.cli`` holds
those two ``scipy.*`` modules and no ``scipy`` package. Importing
``scipy.linalg`` made that import take 0.34-0.60 s instead of 0.13-0.27 s.
The bare ``scipy`` package made this module's import, after numpy's, take
23 ms instead of 8 ms, and the bench's ``setup_s`` 4-8 % longer (0.145 s
instead of 0.135 s on ``spectra-bspline-rbfn``; medians, 2-vCPU Linux
host). The one exception is Windows, where scipy's wheels add the
directory of their DLLs in ``scipy/__init__.py``: there ``scipy`` is
imported first.

A module already in ``sys.modules`` under either name is reused, and a
module loaded here is registered under it, so ``scipy.linalg.lapack`` and
``scipy.linalg.blas`` wrap the very same module whichever is imported
first: ``dgeqp3 is scipy.linalg.lapack.dgeqp3`` and so on, and the numbers
are those of scipy's routines bit for bit. (When this module loads first,
the package attribute ``scipy.linalg._flapack`` stays unset; every form of
import statement still finds the registered module.) The price is a
dependency on the names of scipy's private extension modules; if scipy is
not installed, or the files are missing, the import fails with an
:class:`ImportError` that says so.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from pathlib import Path

import numpy as np

if sys.platform == "win32":
    import scipy  # noqa: F401  (its init adds the wheel's DLL directory)

_SCIPY = importlib.util.find_spec("scipy")
if _SCIPY is None:
    raise ModuleNotFoundError("fdareg needs scipy's compiled LAPACK and BLAS modules, "
                              "and scipy is not installed", name="scipy")
_LINALG = Path(_SCIPY.submodule_search_locations[0]) / "linalg"


def _extension(name: str):
    """The extension module ``scipy.linalg.<name>``, loaded from its file in
    scipy's ``linalg`` directory unless it is loaded already."""
    qualified = f"scipy.linalg.{name}"
    loaded = sys.modules.get(qualified)
    if loaded is not None:
        return loaded
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = _LINALG / f"{name}{suffix}"
        if path.is_file():
            break
    else:
        raise ImportError(f"no {name} extension module in {_LINALG}")
    spec = importlib.util.spec_from_file_location(qualified, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[qualified] = module
    return module


_flapack = _extension("_flapack")
_fblas = _extension("_fblas")

dgeqp3 = _flapack.dgeqp3
dorgqr = _flapack.dorgqr
dtrtrs = _flapack.dtrtrs
dger = _fblas.dger


def check_info(routine: str, info: int) -> None:
    """Raise on a LAPACK ``info`` code as scipy's wrappers do."""
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal {routine}")
    if info > 0:
        raise np.linalg.LinAlgError(
            f"singular matrix: resolution failed at diagonal {info - 1}"
        )
