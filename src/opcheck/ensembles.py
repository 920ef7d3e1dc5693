"""Random matrix ensembles for instance generation.

Every sampler is deterministic in its seed. The semi-hyponormal ensemble
deserves a note: in M_n the condition |Z*| <= |Z| forces equality (the two
moduli always share a spectrum, so domination with equal traces collapses),
hence every finite-dimensional semi-hyponormal matrix is normal. The sampler
therefore draws U P with P a positive spectral function of the Haar unitary U,
which commutes with U by construction.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import _operator_norm

__all__ = ["ENSEMBLES", "generate_with_rng"]

ENSEMBLES = (
    "ginibre",
    "haar_unitary",
    "wishart_psd",
    "random_normal_matrix",
    "random_contraction",
    "random_semi_hyponormal",
)


def _ginibre(n: int, rng: np.random.Generator) -> np.ndarray:
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)


def _haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(_ginibre(n, rng))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def generate_with_rng(ensemble: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """An n x n draw from the named ensemble, one of :data:`ENSEMBLES`."""
    if ensemble == "ginibre":
        return _ginibre(n, rng)
    if ensemble == "haar_unitary":
        return _haar_unitary(n, rng)
    if ensemble == "wishart_psd":
        g = _ginibre(n, rng)
        return g @ g.conj().T / n
    if ensemble == "random_normal_matrix":
        q = _haar_unitary(n, rng)
        eigs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return (q * eigs) @ q.conj().T
    if ensemble == "random_contraction":
        g = _ginibre(n, rng)
        shrink = 1.0 if rng.uniform() < 0.25 else 1.0 + rng.uniform(0.0, 1.0)
        return g / (_operator_norm(g) * shrink)
    if ensemble == "random_semi_hyponormal":
        # |Z*| <= |Z| with equal spectra forces |Z*| = |Z|, so the ensemble is
        # built as U P with commuting factors: phases and positive weights on
        # one Haar eigenbasis
        v = _haar_unitary(n, rng)
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=n))
        weights = np.abs(rng.standard_normal(n)) + 0.1
        return (v * (phases * weights)) @ v.conj().T
    raise ValueError(f"unknown ensemble {ensemble!r}; choose from {ENSEMBLES}")

