"""Every module of the package star-imports, so a stale ``__all__`` entry
(a name the module no longer defines) fails here; importing the CLI
leaves numpy.random unloaded."""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import mrc_dof_lab

MODULES = sorted(info.name for info in pkgutil.iter_modules(mrc_dof_lab.__path__))


def test_modules_found():
    assert {"analysis", "bounds", "channel", "cli", "linalg", "ssa_nc"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    exec(f"from mrc_dof_lab.{name} import *", {})


def test_cli_import_leaves_numpy_random_unloaded():
    # numpy.random loads on the first trial stream, not on import, so a
    # command's setup time does not pay for it
    src = str(Path(mrc_dof_lab.__file__).resolve().parents[1])
    code = "import sys, mrc_dof_lab.cli; print('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "False"
