"""Fixtures shared by the test modules."""

from typing import NamedTuple

import numpy as np
import pytest

import opcheck.linalg


@pytest.fixture
def sweep_runs(monkeypatch):
    """Counts runs of the Jacobi sweep loop behind eigh and eigvalsh, one
    per matrix: a call of _sweeps runs one, and a call of _sweeps_stack
    runs one for each matrix of its stack, unless it refuses the stack
    before any sweep, when _eig_stack runs each matrix through _sweeps. A
    factorization handed on runs none, such as the SVD of Z that an
    instance keeps from make_instance."""
    calls = []
    original = opcheck.linalg._sweeps
    original_stack = opcheck.linalg._sweeps_stack

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    def counting_stack(a, *args, **kwargs):
        calls.extend([1] * len(a))
        out = original_stack(a, *args, **kwargs)
        if out is None:
            del calls[len(calls) - len(a) :]
        return out

    monkeypatch.setattr(opcheck.linalg, "_sweeps", counting)
    monkeypatch.setattr(opcheck.linalg, "_sweeps_stack", counting_stack)
    return calls


class Trial(NamedTuple):
    """One trial's entries of a block's checks._CartesianSum record."""

    matrix: np.ndarray
    values: np.ndarray
    vectors: np.ndarray
    inv_half: np.ndarray
    inv: np.ndarray
    congruence_norm: float
    rho: float


def _split_block(record) -> list:
    fields = list(record)
    assert len({len(field) for field in fields}) == 1, "the fields cover different trials"
    return [Trial(*entries) for entries in zip(*fields)]


@pytest.fixture
def split_block():
    """Splits a block's checks._CartesianSum record into one Trial per
    trial, index i of each of its fields, so that every field is compared."""
    return _split_block
