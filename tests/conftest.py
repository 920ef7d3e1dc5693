"""Fixtures shared by the test modules."""

import pytest

import opcheck.linalg


@pytest.fixture
def sweep_runs(monkeypatch):
    """Counts runs of the Jacobi sweep loop behind eigh and eigvalsh, one
    per matrix: a call of _sweeps runs one, and a call of _sweeps_stack
    runs one for each matrix of its stack. A factorization handed on runs
    none, such as the SVD of Z that an instance keeps from make_instance."""
    calls = []
    original = opcheck.linalg._sweeps
    original_stack = opcheck.linalg._sweeps_stack

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    def counting_stack(a, *args, **kwargs):
        calls.extend([1] * len(a))
        return original_stack(a, *args, **kwargs)

    monkeypatch.setattr(opcheck.linalg, "_sweeps", counting)
    monkeypatch.setattr(opcheck.linalg, "_sweeps_stack", counting_stack)
    return calls
