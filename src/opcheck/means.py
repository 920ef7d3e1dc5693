"""Matrix means and majorization predicates.

The geometric mean uses the congruence formula for definite inputs and falls
back to a shrinking-regularization limit when an input is singular; callers
that need to know which route ran use :func:`geometric_mean_ex`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import DimensionMismatch, DomainError, NoConvergence, NotPositiveSemidefinite
from .linalg import (
    EigenSystem,
    Tolerance,
    _clears,
    _eig,
    _operator_norm,
    _tol,
    hermitian_part,
    require_hermitian,
)

__all__ = [
    "MajorizationReport",
    "geometric_mean",
    "geometric_mean_ex",
    "weak_log_majorizes",
]

_EPS_LADDER = (1e-6, 1e-8)
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


def _definite_mean(es_a: EigenSystem, b: np.ndarray) -> np.ndarray:
    lam = np.maximum(es_a.values, 0.0)
    q = es_a.vectors
    a_half = (q * np.sqrt(lam)) @ q.conj().T
    a_ihalf = (q * (1.0 / np.sqrt(lam))) @ q.conj().T
    inner = hermitian_part(a_ihalf @ b @ a_ihalf)
    values, vectors = _eig(inner)
    root = (vectors * np.sqrt(np.maximum(values, 0.0))) @ vectors.conj().T
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
    is the limit of (A + eps I) # (B + eps I), taken at eps = 1e-6 and 1e-8
    and accepted when the two iterates agree to 1e-6 in operator norm.
    """
    am = require_hermitian(a, tol)
    bm = require_hermitian(b, tol)
    if am.shape != bm.shape:
        raise DimensionMismatch(f"shapes {am.shape} and {bm.shape} differ")
    return _geometric_mean(am, bm, tol)


def _geometric_mean(a, b, tol: Optional[Tolerance]) -> Tuple[np.ndarray, bool]:
    """:func:`geometric_mean_ex` of two exactly Hermitian matrices of one shape."""
    return _geometric_mean_es(EigenSystem(*_eig(a)), b, tol)


def _geometric_mean_es(es_a: EigenSystem, b, tol: Optional[Tolerance]) -> Tuple[np.ndarray, bool]:
    """:func:`_geometric_mean` of A and B, given A's eigensystem ``es_a``."""
    n = b.shape[0]
    eye = np.eye(n)
    if _is_definite(es_a.values, tol):
        # a screen pass leaves lambda_min(B) >= 3 tau - 1.5 tau, in eigvalsh's
        # values too: above _is_definite's 1e-10 max(1, lambda_max), since
        # lambda_max <= n max|b_ij|
        tau = 1e-10 * max(1.0, n * float(np.abs(b).max()))
        if _clears(b - 3.0 * tau * eye, tau) or _is_definite(_eig(b, vectors=False)[0], tol):
            return _definite_mean(es_a, b), False
    # A + eps I = V (Lambda + eps) V*: every iterate shares A's one eigensystem
    lmin, eps = float(es_a.values.min(initial=0.0)), min(_EPS_LADDER)
    if not lmin + eps > 0.0:  # the iterate's A^-1/2 would divide by zero
        raise DomainError(f"mean argument has eigenvalue {lmin:.3e}, not positive after the shift {eps:.0e}")
    iterates = [_definite_mean(EigenSystem(es_a.values + e, es_a.vectors), b + e * eye) for e in _EPS_LADDER]
    gap = _operator_norm(iterates[-1] - iterates[-2])
    if gap > _LIMIT_AGREE * (1.0 + _operator_norm(iterates[-1])):
        raise NoConvergence(f"singular-mean limit not Cauchy: gap {gap:.3e}")
    return iterates[-1], True


def geometric_mean(a, b, tol: Optional[Tolerance] = None) -> np.ndarray:
    """Matrix geometric mean A # B of two PSD matrices."""
    mean, _ = geometric_mean_ex(a, b, tol)
    return mean


def _clamped_spectrum(h: np.ndarray, tol: Optional[Tolerance]) -> np.ndarray:
    """Descending eigenvalues of a PSD matrix, zero off the support."""
    return _clamped(_eig(h, vectors=False)[0], tol)


def _clamped(values: np.ndarray, tol: Optional[Tolerance]) -> np.ndarray:
    """A copy of the descending spectrum ``values`` of a PSD matrix, zero off the support."""
    lam = np.maximum(values, 0.0)
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
    return _weak_log_majorizes(_clamped_spectrum(am, tol), _clamped_spectrum(bm, tol), tol)


def _weak_log_majorizes(a: np.ndarray, b: np.ndarray, tol: Optional[Tolerance]) -> MajorizationReport:
    """:func:`weak_log_majorizes` of two descending spectra of one size, each
    zero off its support: a :func:`_clamped_spectrum` or an SVD's values."""
    lhs = np.cumprod(a)
    rhs = np.cumprod(b)
    passed, worst = _prefix_ratios(lhs, rhs, _tol(tol, a.size).rel)
    return MajorizationReport(
        k_products_lhs=lhs, k_products_rhs=rhs, passed=passed, worst_ratio=worst
    )
