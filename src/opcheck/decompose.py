"""Polar and Cartesian decompositions and moduli.

The SVD here is derived from the one Jacobi eigendecomposition of Z*Z, which
is accurate enough at desk scale and keeps every factor deterministic: for
singular input the unitary polar factor is completed by Gram-Schmidt against
the coordinate basis e_1, ..., e_n, in index order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import (
    Tolerance,
    _eig,
    _frobenius,
    _tol,
    as_matrix,
    hermitian_part,
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
    "cartesian",
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
    value falls off the support carry left columns completed from the
    coordinate basis instead of quotients Z q / sigma, and a zero singular
    value. So the rank decision is made once, here: ``values > 0`` is the
    support, and it holds exactly for the first ``rank`` values.
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


def _complete_columns(cols: list, n: int) -> list:
    """Extend orthonormal columns to a basis of C^n by Gram-Schmidt against
    e_1, ..., e_n, in index order. The 1e-3 rule cannot stop short: while
    k < n columns are held, the squared residuals of the e_j sum to n - k >= 1,
    an accepted e_j keeps 0 of it and a rejected one under 1e-6, so an
    untried e_j has a residual of about 1/sqrt(n) > 1e-3 (n < 500,000)."""
    out = list(cols)
    for cand in np.eye(n, dtype=complex):  # e_1, ..., e_n, each its own row
        if len(out) == n:
            break
        for c in out:
            cand -= c * np.vdot(c, cand)
        norm = _frobenius(cand)
        if norm > 1e-3:
            out.append(cand / norm)
    return out


def svd_square(z, tol: Optional[Tolerance] = None) -> SvdParts:
    """The SVD of a square Z, from one Jacobi eigendecomposition of Z*Z."""
    return _svd(require_square(z), tol)


def _svd(zm: np.ndarray, tol: Optional[Tolerance]) -> SvdParts:
    """:func:`svd_square` of a square complex array, which it trusts. Of the
    tolerance it reads the rank cutoff only."""
    n = zm.shape[0]
    t = _tol(tol, n)
    values, right = _eig(hermitian_part(zm.conj().T @ zm))
    lam = np.maximum(values, 0.0)
    sigma = np.sqrt(lam)
    # the rank rule acts on sigma^2 = eigenvalues of Z*Z
    keep = t.support(lam)
    left_cols: list = []
    for i in range(n):
        if not keep[i]:  # the support holds only sigma > 0
            break
        cand = zm @ right[:, i] / sigma[i]
        for c in left_cols:
            cand = cand - c * np.vdot(c, cand)
        norm = _frobenius(cand)
        if norm <= 0.5:
            break
        left_cols.append(cand / norm)
    rank = len(left_cols)
    sigma[rank:] = 0.0
    left_cols = _complete_columns(left_cols, n)
    left = np.column_stack(left_cols) if left_cols else np.eye(n, dtype=complex)
    return SvdParts(left=left, values=sigma, right=right.copy(), rank=rank)


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


def cartesian(z) -> CartesianParts:
    """Z = X + iY with X = (Z + Z*)/2 and Y = (Z - Z*)/(2i).

    Raises ValueError when a part overflows, which needs an entry above half
    the largest double."""
    parts = _cartesian(require_square(z))
    for part in (parts.re_part, parts.im_part):
        as_matrix(part)  # raises for a part that overflowed
    return parts


def _cartesian(zm: np.ndarray) -> CartesianParts:
    """:func:`cartesian` of a square complex array, or of each matrix of a
    stack (..., n, n), whose parts it does not check. A part that overflows
    is formed quietly; the caller's check of it raises."""
    with np.errstate(over="ignore", invalid="ignore"):
        im_part = hermitian_part((zm - zm.conj().swapaxes(-1, -2)) / 2j)
        return CartesianParts(re_part=hermitian_part(zm), im_part=im_part)
