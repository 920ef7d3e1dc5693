"""Fixtures shared by the test modules."""

import pytest

import opcheck.linalg


@pytest.fixture
def sweep_runs(monkeypatch):
    """Counts runs of the Jacobi sweep loop behind eigh and eigvalsh; a hit in
    a campaign trial's factorization memo runs none."""
    calls = []
    original = opcheck.linalg._sweeps

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(opcheck.linalg, "_sweeps", counting)
    return calls
