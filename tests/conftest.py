"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from mrc_dof_lab import analysis

LAPACK_KERNELS = ("svd", "qr", "inv", "solve")


@pytest.fixture(autouse=True)
def empty_handoff():
    """Each test starts with no stack handed from a noiseless pass to the
    MSE sweep, so no result depends on the order tests run in."""
    analysis._handoff.clear()


@pytest.fixture
def lapack_calls(monkeypatch):
    """The (kernel, shape of the first argument) of each np.linalg.svd,
    qr, inv and solve call from here on, in call order."""
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, np.shape(args[0])))
            return fn(*args, **kwargs)

        return wrapper

    for name in LAPACK_KERNELS:
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    return calls
