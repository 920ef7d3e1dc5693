"""Polar and Cartesian decompositions, moduli, projections.

The SVD here is derived from the Jacobi eigendecompositions of Z*Z and ZZ*,
which is accurate enough at desk scale and keeps every factor deterministic:
for singular input the unitary polar factor is completed by Gram-Schmidt
against the left Gram eigenbasis, in eigenvalue order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import NotContraction
from .linalg import (
    Tolerance,
    _remember,
    _tol,
    _trial_memo,
    as_matrix,
    eigh,
    generalized_inverse,
    hermitian_part,
    operator_norm,
    require_square,
)

__all__ = [
    "PolarParts",
    "CartesianParts",
    "SvdParts",
    "svd_square",
    "modulus",
    "comodulus",
    "polar",
    "unitary_mean_decomposition",
    "cartesian",
    "range_projection",
    "support_projection",
]


@dataclass(frozen=True)
class PolarParts:
    """Z = unitary @ modulus with a square unitary factor and PSD modulus."""

    unitary: np.ndarray
    modulus: np.ndarray


@dataclass(frozen=True)
class CartesianParts:
    """Z = re_part + 1j * im_part with both parts Hermitian."""

    re_part: np.ndarray
    im_part: np.ndarray


@dataclass(frozen=True)
class SvdParts:
    """Z = left @ diag(values) @ right.conj().T with square unitary factors.

    Singular values are sorted descending; directions whose squared singular
    value falls off the support carry deterministically completed basis
    columns instead of quotients Z q / sigma, and a zero singular value. So
    the rank decision is made once, here: ``values > 0`` is the support, and
    it holds exactly for the first ``rank`` values.
    """

    left: np.ndarray
    values: np.ndarray
    right: np.ndarray
    rank: int

    @property
    def unitary(self) -> np.ndarray:
        """The polar unitary U = left @ right*, with Z = U |Z|."""
        return self.left @ self.right.conj().T

    def modulus(self, values: Optional[np.ndarray] = None) -> np.ndarray:
        """f(|Z|) for f(sigma) = ``values`` (default sigma): ``values`` in the right basis."""
        vals = self.values if values is None else values
        return hermitian_part((self.right * vals) @ self.right.conj().T)

    def comodulus(self, values: Optional[np.ndarray] = None) -> np.ndarray:
        """g(|Z*|) for g(sigma) = ``values`` (default sigma): ``values`` in the left basis."""
        vals = self.values if values is None else values
        return hermitian_part((self.left * vals) @ self.left.conj().T)


def _complete_columns(cols: list, basis: np.ndarray, n: int) -> list:
    """Extend an orthonormal column list to a full basis, drawing from ``basis``."""
    out = list(cols)
    for j in range(basis.shape[1]):
        if len(out) == n:
            break
        cand = basis[:, j].copy()
        for c in out:
            cand -= c * np.vdot(c, cand)
        norm = float(np.linalg.norm(cand))
        if norm > 0.5:
            out.append(cand / norm)
    if len(out) < n:  # basis nearly parallel to span; fall back to coordinates
        for j in range(n):
            if len(out) == n:
                break
            cand = np.zeros(n, dtype=complex)
            cand[j] = 1.0
            for c in out:
                cand -= c * np.vdot(c, cand)
            norm = float(np.linalg.norm(cand))
            if norm > 1e-3:
                out.append(cand / norm)
    return out


def svd_square(z, tol: Optional[Tolerance] = None) -> SvdParts:
    """The SVD of a square Z; memoized inside a campaign trial, like :func:`eigh`."""
    zm = np.asarray(z, dtype=complex)
    memo, key = _trial_memo("svd_square", zm, tol)
    parts = memo.get(key) if memo is not None else None
    if parts is None:
        parts = _svd_square(require_square(zm), tol)
        _remember(memo, key, parts, (parts.left, parts.values, parts.right))
    return parts


def _svd_square(zm: np.ndarray, tol: Optional[Tolerance]) -> SvdParts:
    n = zm.shape[0]
    t = _tol(tol, n)
    right_es = eigh(hermitian_part(zm.conj().T @ zm), tol)
    lam = np.clip(right_es.values, 0.0, None)
    sigma = np.sqrt(lam)
    # the rank rule acts on sigma^2 = eigenvalues of Z*Z
    keep = t.support(lam)
    left_cols: list = []
    rank = 0
    for i in range(n):
        if not keep[i] or sigma[i] == 0.0:
            break
        cand = zm @ right_es.vectors[:, i] / sigma[i]
        for c in left_cols:
            cand = cand - c * np.vdot(c, cand)
        norm = float(np.linalg.norm(cand))
        if norm <= 0.5:
            break
        left_cols.append(cand / norm)
        rank += 1
    sigma[rank:] = 0.0
    if rank < n:
        left_es = eigh(hermitian_part(zm @ zm.conj().T), tol)
        left_cols = _complete_columns(left_cols, left_es.vectors, n)
    left = np.column_stack(left_cols) if left_cols else np.eye(n, dtype=complex)
    return SvdParts(left=left, values=sigma, right=right_es.vectors.copy(), rank=rank)


def modulus(z, tol: Optional[Tolerance] = None) -> np.ndarray:
    """|Z| = (Z* Z)^(1/2)."""
    return svd_square(z, tol).modulus()


def comodulus(z, tol: Optional[Tolerance] = None) -> np.ndarray:
    """|Z*| = (Z Z*)^(1/2)."""
    return svd_square(z, tol).comodulus()


def polar(z, tol: Optional[Tolerance] = None) -> PolarParts:
    """Z = U |Z| with U unitary; deterministic completion when Z is singular."""
    parts = svd_square(z, tol)
    return PolarParts(unitary=parts.unitary, modulus=parts.modulus())


def unitary_mean_decomposition(a, tol: Optional[Tolerance] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Write a contraction as the average of two unitaries.

    Uses W = |A| + i (I - |A|^2)^(1/2), which is unitary because it is a
    spectral function of |A|, giving A = (U W + U W*)/2 for A = U |A|.
    Inputs with norm in (1, 1 + tol] are renormalized first.
    """
    am = require_square(a)
    n = am.shape[0]
    t = _tol(tol, n)
    norm = operator_norm(am, tol)
    if norm > 1.0 + t.abs:
        raise NotContraction(f"operator norm {norm:.6g} exceeds 1")
    if norm > 1.0:
        am = am / norm
    parts = svd_square(am, tol)
    u = parts.unitary
    sig = np.clip(parts.values, 0.0, 1.0)
    # sqrt(1 - sigma^2) amplifies boundary dust, so snap sigma ~ 1 to exactly 1
    sig = np.where(sig >= 1.0 - 1e-12, 1.0, sig)
    w_eigs = sig + 1j * np.sqrt(np.clip(1.0 - sig**2, 0.0, None))
    q = parts.right
    w = (q * w_eigs) @ q.conj().T
    w_star = (q * w_eigs.conj()) @ q.conj().T
    return u @ w, u @ w_star


def cartesian(z) -> CartesianParts:
    """Z = X + iY with X = (Z + Z*)/2 and Y = (Z - Z*)/(2i).

    Raises ValueError when a part overflows, which needs an entry above half
    the largest double."""
    zm = require_square(z)
    return CartesianParts(
        re_part=as_matrix(hermitian_part(zm)),
        im_part=as_matrix(hermitian_part((zm - zm.conj().T) / 2j)),
    )


def range_projection(z, tol: Optional[Tolerance] = None) -> np.ndarray:
    """Orthogonal projection onto the column space of Z."""
    zm = require_square(z)
    return generalized_inverse(hermitian_part(zm @ zm.conj().T), 0, tol)


def support_projection(z, tol: Optional[Tolerance] = None) -> np.ndarray:
    """Orthogonal projection onto the row-space support (range of Z*)."""
    return range_projection(np.asarray(z, dtype=complex).conj().T, tol)
