"""Matrix means and majorization predicates.

The geometric mean uses the congruence formula for definite inputs and falls
back to a shrinking-regularization limit when an input is singular; callers
that need to know which route ran use :func:`geometric_mean_ex`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotIsometry, NotPositiveSemidefinite
from .linalg import (
    EigenSystem,
    LoewnerDecision,
    Tolerance,
    _tol,
    as_matrix,
    eigh,
    eigvalsh,
    hermitian_part,
    loewner_leq,
    operator_norm,
    require_hermitian,
)
from .decompose import svd_square

__all__ = [
    "MajorizationReport",
    "geometric_mean",
    "geometric_mean_ex",
    "agm_check",
    "kato_supremum",
    "power_mean",
    "q_mean",
    "weak_log_majorizes",
    "compress",
    "ando_compression_check",
]

_EPS_LADDER = (1e-4, 1e-6, 1e-8)
_LIMIT_AGREE = 1e-6


@dataclass(frozen=True)
class MajorizationReport:
    """Prefix products of descending eigenvalues for a weak log-majorization test."""

    k_products_lhs: np.ndarray
    k_products_rhs: np.ndarray
    passed: bool
    worst_ratio: float

    @property
    def slack(self) -> float:
        return 1.0 - self.worst_ratio

    def to_json(self) -> dict:
        return {
            "pass": bool(self.passed),
            "k_products_lhs": [float(x) for x in self.k_products_lhs],
            "k_products_rhs": [float(x) for x in self.k_products_rhs],
            "worst_ratio": float(self.worst_ratio),
        }


def _definite_mean(es_a: EigenSystem, b: np.ndarray, tol: Optional[Tolerance]) -> np.ndarray:
    lam = np.clip(es_a.values, 0.0, None)
    q = es_a.vectors
    a_half = (q * np.sqrt(lam)) @ q.conj().T
    a_ihalf = (q * (1.0 / np.sqrt(lam))) @ q.conj().T
    inner = hermitian_part(a_ihalf @ b @ a_ihalf)
    es_i = eigh(inner, tol)
    root = (es_i.vectors * np.sqrt(np.clip(es_i.values, 0.0, None))) @ es_i.vectors.conj().T
    return hermitian_part(a_half @ root @ a_half)


def _is_definite(values: np.ndarray, tol: Optional[Tolerance]) -> bool:
    """True for a numerically definite descending spectrum; rejects a genuinely indefinite one."""
    if not values.size:
        return False
    t = _tol(tol, values.size)
    lmax = float(values[0])
    lmin = float(values[-1])
    if lmin < -t.abs * (1.0 + abs(lmax)):
        raise NotPositiveSemidefinite(f"mean argument has eigenvalue {lmin:.3e}")
    return lmin > 1e-10 * max(1.0, lmax)


def geometric_mean_ex(a, b, tol: Optional[Tolerance] = None) -> Tuple[np.ndarray, bool]:
    """A # B plus a flag telling whether the singular-input limit was taken.

    Definite inputs use A^1/2 (A^-1/2 B A^-1/2)^1/2 A^1/2. Otherwise the mean
    is the limit of (A + eps I) # (B + eps I) over a fixed epsilon ladder,
    accepted when the last two iterates agree to 1e-6 in operator norm.
    """
    am = require_hermitian(a, tol)
    bm = require_hermitian(b, tol)
    if am.shape != bm.shape:
        raise DimensionMismatch(f"shapes {am.shape} and {bm.shape} differ")
    es_a = eigh(am, tol)
    if _is_definite(es_a.values, tol) and _is_definite(eigvalsh(bm, tol), tol):
        return _definite_mean(es_a, bm, tol), False
    eye = np.eye(am.shape[0])
    iterates = [_definite_mean(eigh(am + e * eye, tol), bm + e * eye, tol) for e in _EPS_LADDER]
    gap = operator_norm(iterates[-1] - iterates[-2], tol)
    if gap > _LIMIT_AGREE * (1.0 + operator_norm(iterates[-1], tol)):
        raise NoConvergence(f"singular-mean limit not Cauchy: gap {gap:.3e}")
    return iterates[-1], True


def geometric_mean(a, b, tol: Optional[Tolerance] = None) -> np.ndarray:
    """Matrix geometric mean A # B of two PSD matrices."""
    mean, _ = geometric_mean_ex(a, b, tol)
    return mean


def agm_check(a, b, tol: Optional[Tolerance] = None) -> LoewnerDecision:
    """Arithmetic-geometric mean comparison: A # B <= (A + B)/2."""
    mean, _ = geometric_mean_ex(a, b, tol)
    return loewner_leq(mean, (hermitian_part(a) + hermitian_part(b)) / 2.0, tol)


def _moduli_mean(z, p: float, average: bool, tol: Optional[Tolerance]) -> np.ndarray:
    """((|Z|^p + |Z*|^p)/2)^(1/p) when ``average``, else (|Z|^p + |Z*|^p)^(1/p),
    computed on the scale sigma_max = 1.

    The sum is left unscaled rather than multiplied by 1.0: a complex product
    with 1.0 can flip the sign of a zero part.
    """
    parts = svd_square(z, tol)
    sig = parts.values
    scale = float(sig.max()) if sig.size else 0.0
    if scale == 0.0:
        return np.zeros((parts.right.shape[0],) * 2, dtype=complex)
    lam = (sig / scale) ** p
    total = (parts.right * lam) @ parts.right.conj().T + (parts.left * lam) @ parts.left.conj().T
    es = eigh(hermitian_part(0.5 * total if average else total), tol)
    return hermitian_part(
        (es.vectors * (scale * np.clip(es.values, 0.0, None) ** (1.0 / p))) @ es.vectors.conj().T
    )


def power_mean(z, p: float, tol: Optional[Tolerance] = None) -> np.ndarray:
    """((|Z|^p + |Z*|^p)/2)^(1/p), computed on a common scale.

    Only reliable while (sigma_min/sigma_max)^p stays above rounding dust;
    used as a moderate-p cross-check of :func:`kato_supremum`.
    """
    return _moduli_mean(z, p, True, tol)


def kato_supremum(z, tol: Optional[Tolerance] = None) -> np.ndarray:
    """Least upper bound |Z| v |Z*| of the two moduli, the large-p limit of
    ((|Z|^p + |Z*|^p)/2)^(1/p).

    Computed in closed form as the spectral-order supremum that limit is known
    to equal: sweeping the shared singular values downward, each level
    contributes its value on the new directions the level's eigenvectors of
    |Z| and |Z*| add to the running span. This is exact where the power-mean
    iteration would stall on rounding dust, so it never fails to converge.
    """
    parts = svd_square(z, tol)
    n = parts.right.shape[0]
    sig = parts.values
    scale = float(sig.max()) if sig.size else 0.0
    if scale == 0.0:
        return np.zeros((n, n), dtype=complex)
    cluster = 1e-9 * scale
    basis: list = []
    out = np.zeros((n, n), dtype=complex)
    i = 0
    while i < n and len(basis) < n and sig[i] > 0.0:
        level = sig[i]
        j = i
        while j < n and sig[j] > level - cluster:
            j += 1
        for source in (parts.right, parts.left):
            for col in range(i, j):
                cand = source[:, col].copy()
                for b in basis:
                    cand -= b * np.vdot(b, cand)
                norm = float(np.linalg.norm(cand))
                if norm > 1e-8:
                    cand = cand / norm
                    basis.append(cand)
                    out += level * np.outer(cand, cand.conj())
        i = j
    return hermitian_part(out)


def q_mean(z, q: float, tol: Optional[Tolerance] = None) -> np.ndarray:
    """(|Z|^q + |Z*|^q)^(1/q) for q >= 1; q = 1 is literally |Z| + |Z*|."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    return _moduli_mean(z, q, False, tol)


def _clamped_spectrum(h: np.ndarray, tol: Optional[Tolerance]) -> np.ndarray:
    """Descending eigenvalues of a PSD matrix, zero off the support."""
    lam = np.clip(eigvalsh(h, tol), 0.0, None)
    lam[~_tol(tol, lam.size).support(lam)] = 0.0
    return lam


def _prefix_ratios(lhs: np.ndarray, rhs: np.ndarray, rel: float) -> Tuple[bool, float]:
    """(every lhs_k <= rhs_k (1 + rel), the largest lhs_k / rhs_k), where
    zero over zero counts as 1 and anything else over zero as inf."""
    passed = True
    worst = 0.0
    for lk, rk in zip(lhs, rhs):
        if rk == 0.0:
            ratio = 1.0 if lk == 0.0 else np.inf
        else:
            ratio = lk / rk
        worst = max(worst, ratio)
        if not lk <= rk * (1.0 + rel):
            passed = False
    return passed, float(worst)


def weak_log_majorizes(a, b, tol: Optional[Tolerance] = None) -> MajorizationReport:
    """Test A majorized by B in the weak log sense over descending spectra.

    Eigenvalues off the support are clamped to exact zero before the prefix
    products are formed, and zero-against-zero prefixes compare equal.
    """
    am = require_hermitian(a, tol)
    bm = require_hermitian(b, tol)
    if am.shape != bm.shape:
        raise DimensionMismatch(f"shapes {am.shape} and {bm.shape} differ")
    t = _tol(tol, am.shape[0])
    lhs = np.cumprod(_clamped_spectrum(am, tol))
    rhs = np.cumprod(_clamped_spectrum(bm, tol))
    passed, worst = _prefix_ratios(lhs, rhs, t.rel)
    return MajorizationReport(
        k_products_lhs=lhs, k_products_rhs=rhs, passed=passed, worst_ratio=worst
    )


def compress(a, s, tol: Optional[Tolerance] = None) -> np.ndarray:
    """Compression S* A S onto the range of an isometry S."""
    am = require_hermitian(a, tol)
    sm = np.asarray(s, dtype=complex)
    if sm.ndim != 2 or sm.shape[0] != am.shape[0]:
        raise DimensionMismatch(f"isometry shape {sm.shape} incompatible with {am.shape}")
    sm = as_matrix(sm)
    t = _tol(tol, sm.shape[1])
    # products of finite factors can still overflow: to inf or NaN, which
    # the defect test and as_matrix reject
    with np.errstate(over="ignore", invalid="ignore"):
        gram_defect = float(np.abs(sm.conj().T @ sm - np.eye(sm.shape[1])).max())
        if not gram_defect <= t.abs * 10:
            raise NotIsometry(f"columns not orthonormal: defect {gram_defect:.3e}")
        product = sm.conj().T @ am @ sm
    return hermitian_part(as_matrix(product))


def ando_compression_check(a, b, s, tol: Optional[Tolerance] = None) -> LoewnerDecision:
    """Compression of a geometric mean against the mean of the compressions."""
    mean, _ = geometric_mean_ex(a, b, tol)
    lhs = compress(mean, s, tol)
    rhs = geometric_mean(compress(a, s, tol), compress(b, s, tol), tol)
    return loewner_leq(lhs, rhs, tol)
