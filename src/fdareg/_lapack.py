"""The four compiled LAPACK/BLAS routines the pipeline runs on.

Stage 1 fits every curve by a pivoted QR (``dgeqp3``, ``dorgqr``,
``dtrtrs``) and the RBFN grows and scores its paths with a rank-1 update
(``dger``) and a triangular solve (``dtrtrs``). They are the routines of
scipy's f2py extension modules ``scipy.linalg._flapack`` and
``scipy.linalg._fblas``, but this module loads those two files directly
instead of importing ``scipy.linalg``: its package init (``scipy._lib``'s
array-API layer and ``numpy.f2py`` among others) took two thirds of an
``import fdareg.selection, fdareg.cli`` and none of it is used here.

A module already in ``sys.modules`` under either name is reused, and a
module loaded here is registered under it, so ``scipy.linalg.lapack`` and
``scipy.linalg.blas`` wrap the very same module whichever is imported
first: ``dgeqp3 is scipy.linalg.lapack.dgeqp3`` and so on, and the numbers
are those of scipy's routines bit for bit. (When this module loads first,
the package attribute ``scipy.linalg._flapack`` stays unset; every form of
import statement still finds the registered module.) The price is a
dependency on the names of scipy's private extension modules; if the files
are missing, the import fails with an :class:`ImportError` naming where
they were looked for.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from pathlib import Path

import numpy as np
import scipy

_LINALG = Path(scipy.__file__).parent / "linalg"


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
