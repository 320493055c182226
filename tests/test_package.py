"""Every module of the package star-imports, so a stale ``__all__`` entry
(a name the module no longer defines) fails here."""

import pkgutil

import pytest

import mrc_dof_lab

MODULES = sorted(info.name for info in pkgutil.iter_modules(mrc_dof_lab.__path__))


def test_modules_found():
    assert {"analysis", "bounds", "channel", "cli", "linalg", "ssa_nc"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    exec(f"from mrc_dof_lab.{name} import *", {})
