"""``fdareg._lapack`` loads scipy's compiled LAPACK and BLAS modules without
importing ``scipy.linalg``. The routines must be the very objects
``scipy.linalg.lapack`` and ``scipy.linalg.blas`` expose, whichever side is
imported first, so that no bit of a result can depend on the route."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fdareg import _lapack

SRC = Path(__file__).resolve().parent.parent / "src"

IMPORTS = {
    "fdareg": "from fdareg import _lapack\n",
    "scipy": "import scipy.linalg.blas, scipy.linalg.lapack\n",
}

IDENTITY = (
    "from scipy.linalg import blas, lapack\n"
    "from fdareg import _lapack\n"
    "pairs = [(_lapack.dgeqp3, lapack.dgeqp3), (_lapack.dorgqr, lapack.dorgqr),\n"
    "         (_lapack.dtrtrs, lapack.dtrtrs), (_lapack.dger, blas.dger)]\n"
    "print(all(ours is theirs for ours, theirs in pairs))\n"
)


@pytest.mark.parametrize("first", ["fdareg", "scipy"])
def test_routines_are_scipys_in_either_import_order(first):
    second = "scipy" if first == "fdareg" else "fdareg"
    probe = IMPORTS[first] + IMPORTS[second] + IDENTITY
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.split() == ["True"]


def test_missing_extension_file_names_where_it_was_looked_for():
    where = re.escape(f"no _nosuch extension module in {_lapack._LINALG}")
    with pytest.raises(ImportError, match=where):
        _lapack._extension("_nosuch")


def test_info_codes_raise_as_scipys_wrappers_do():
    _lapack.check_info("trtrs", 0)
    with pytest.raises(ValueError, match=r"^illegal value in 3th argument of internal trtrs$"):
        _lapack.check_info("trtrs", -3)
    with pytest.raises(np.linalg.LinAlgError,
                       match=r"^singular matrix: resolution failed at diagonal 1$"):
        _lapack.check_info("trtrs", 2)


def test_pytest_and_hypothesis_load_without_numpy():
    # conftest.py pins BLAS to one thread before its first numpy import;
    # OpenBLAS reads the pin only if nothing pytest loads first imports numpy
    probe = ("import sys, pytest, hypothesis, _hypothesis_pytestplugin\n"
             "print('numpy' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True)
    assert done.stdout.split() == ["False"]
