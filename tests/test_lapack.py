"""``fdareg._lapack`` loads scipy's compiled LAPACK and BLAS modules without
importing the ``scipy`` package, except on Windows. The routines must be the
very objects ``scipy.linalg.lapack`` and ``scipy.linalg.blas`` expose,
whichever side is imported first, so that no bit of a result can depend on
the route."""

import importlib.util
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
    "scipy-package": "import scipy\n",
}

#: Import orders, by what comes first; the bare package's init loads no
#: ``scipy.linalg`` module, so the loader still loads and registers both.
ORDERS = {
    "fdareg": ("fdareg", "scipy"),
    "scipy": ("scipy", "fdareg"),
    "scipy-package": ("scipy-package", "fdareg", "scipy"),
}

IDENTITY = (
    "from scipy.linalg import blas, lapack\n"
    "from fdareg import _lapack\n"
    "pairs = [(_lapack.dgeqp3, lapack.dgeqp3), (_lapack.dorgqr, lapack.dorgqr),\n"
    "         (_lapack.dtrtrs, lapack.dtrtrs), (_lapack.dger, blas.dger)]\n"
    "print(all(ours is theirs for ours, theirs in pairs))\n"
    "import scipy.linalg\n"
    "print(scipy.linalg.qr([[0.0, 2.0], [3.0, 0.0]], pivoting=True)[2].tolist() == [0, 1])\n"
)


@pytest.mark.parametrize("first", list(ORDERS))
def test_routines_are_scipys_in_either_import_order(first):
    probe = "".join(IMPORTS[name] for name in ORDERS[first]) + IDENTITY
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.split() == ["True", "True"]


def test_windows_imports_the_scipy_package_first():
    # numpy's init and the sysconfig cache scipy's init reads are set up
    # under the real platform; only the loader sees win32
    probe = ("import sys, sysconfig, numpy\n"
             "sysconfig.get_config_vars()\n"
             "sys.platform = 'win32'\n"
             "from fdareg import _lapack\n"
             "fblas = sys.modules['scipy.linalg._fblas']\n"
             "print('scipy' in sys.modules, _lapack.dger is fblas.dger)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.split() == ["True", "True"]


def test_missing_scipy_is_a_named_import_error(monkeypatch):
    find_spec = importlib.util.find_spec
    monkeypatch.setattr(importlib.util, "find_spec",
                        lambda name, package=None: None if name == "scipy"
                        else find_spec(name, package))
    # a fresh copy of the module, so that its loading code runs again
    spec = importlib.util.spec_from_file_location("fdareg._lapack_copy", _lapack.__file__)
    with pytest.raises(ImportError, match="scipy is not installed") as raised:
        spec.loader.exec_module(importlib.util.module_from_spec(spec))
    assert raised.value.name == "scipy"


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
