"""Fixtures shared by the test modules."""

import numpy as np
import pytest


@pytest.fixture
def svd_calls(monkeypatch):
    """The shapes passed to np.linalg.svd from here on, one per call."""
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls
