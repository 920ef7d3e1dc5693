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
from dataclasses import dataclass

import numpy as np

from .linalg import _operator_norm

__all__ = ["ENSEMBLES", "GeneratorConfig", "generate_with_rng"]

ENSEMBLES = (
    "ginibre",
    "haar_unitary",
    "wishart_psd",
    "random_normal_matrix",
    "random_contraction",
    "random_semi_hyponormal",
)


@dataclass(frozen=True)
class GeneratorConfig:
    """Which ensemble to draw from, and an overall scale factor."""

    ensemble: str
    scale: float = 1.0

    def __post_init__(self):
        if self.ensemble not in ENSEMBLES:
            raise ValueError(f"unknown ensemble {self.ensemble!r}; choose from {ENSEMBLES}")


def _ginibre(n: int, rng: np.random.Generator) -> np.ndarray:
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)


def _haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(_ginibre(n, rng))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def generate_with_rng(cfg: GeneratorConfig, n: int, rng: np.random.Generator) -> np.ndarray:
    if cfg.ensemble == "ginibre":
        sample = _ginibre(n, rng)
    elif cfg.ensemble == "haar_unitary":
        sample = _haar_unitary(n, rng)
    elif cfg.ensemble == "wishart_psd":
        g = _ginibre(n, rng)
        sample = g @ g.conj().T / n
    elif cfg.ensemble == "random_normal_matrix":
        q = _haar_unitary(n, rng)
        eigs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        sample = (q * eigs) @ q.conj().T
    elif cfg.ensemble == "random_contraction":
        g = _ginibre(n, rng)
        shrink = 1.0 if rng.uniform() < 0.25 else 1.0 + rng.uniform(0.0, 1.0)
        sample = g / (_operator_norm(g, None) * shrink)
    elif cfg.ensemble == "random_semi_hyponormal":
        # |Z*| <= |Z| with equal spectra forces |Z*| = |Z|, so the ensemble is
        # built as U P with commuting factors: phases and positive weights on
        # one Haar eigenbasis
        v = _haar_unitary(n, rng)
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=n))
        weights = np.abs(rng.standard_normal(n)) + 0.1
        sample = (v * (phases * weights)) @ v.conj().T
    else:  # pragma: no cover
        raise AssertionError(cfg.ensemble)
    return cfg.scale * sample

