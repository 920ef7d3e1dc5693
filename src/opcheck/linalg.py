"""Dense complex matrix kernel: Jacobi eigensolver, functional calculus, order predicates.

Matrices are plain ``numpy.ndarray`` values (complex128, row-major). Everything
downstream builds on :func:`eigh`, a cyclic Jacobi diagonalizer for complex
Hermitian matrices with a deterministic sweep order, so results are
reproducible bit-for-bit across runs on the same platform.
"""

from __future__ import annotations

import functools
import math
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    NoConvergence,
    NonHermitian,
)

__all__ = [
    "Tolerance",
    "EigenSystem",
    "LoewnerDecision",
    "as_matrix",
    "eigh",
    "eigvalsh",
    "matrix_function",
    "sqrtm_psd",
    "generalized_inverse",
    "loewner_leq",
    "operator_norm",
    "spectral_radius_psd_product",
    "spectral_radius",
    "hermitian_part",
    "hermitian_defect",
    "require_square",
    "require_hermitian",
]

_MAX_SWEEPS = 100

# Largest entry modulus for which H + H* and H - H* cannot overflow.
_HALF_MAX = float(np.finfo(float).max) / 2

# The factorization memo of the campaign trial being run, or None. Only
# opcheck.campaign sets it, for one trial at a time; every other caller sees
# None and nothing is kept. See _trial_memo.
_MEMO: ContextVar[Optional[dict]] = ContextVar("opcheck_trial_memo", default=None)


@dataclass(frozen=True)
class Tolerance:
    """Numerical slack used by validation, order predicates and rank cutoffs.

    ``rank_cutoff`` is relative to the largest eigenvalue of the matrix at
    hand; the dimension-aware default is ``1e-12 * n``.
    """

    abs: float = 1e-9
    rel: float = 1e-9
    rank_cutoff: float = 1e-12

    def __post_init__(self) -> None:
        if not (self.abs > 0 and self.rel > 0 and self.rank_cutoff > 0):
            raise ValueError("tolerances must be strictly positive")

    @classmethod
    def for_dim(cls, n: int, abs: float = 1e-9, rel: float = 1e-9) -> "Tolerance":
        return cls(abs=abs, rel=rel, rank_cutoff=1e-12 * max(n, 1))

    def support(self, values: np.ndarray) -> np.ndarray:
        """The rank rule: which of the nonnegative ``values`` count as nonzero.

        True where a value exceeds ``rank_cutoff`` times the largest one; the
        largest of an empty array is taken as 0.
        """
        top = float(values.max()) if values.size else 0.0
        return values > self.rank_cutoff * top


def _tol(tol: Optional[Tolerance], n: int) -> Tolerance:
    return tol if tol is not None else Tolerance.for_dim(n)


class LoewnerDecision(NamedTuple):
    holds: bool
    slack: float


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-d complex array, rejecting non-finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d array, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")
    return a


def require_square(m: np.ndarray) -> np.ndarray:
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return a


def hermitian_part(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    return 0.5 * (a + a.conj().T)


def hermitian_defect(m) -> float:
    """max-norm of M - M* for a square array; like hermitian_part, validates nothing."""
    a = np.asarray(m, dtype=complex)
    return float(np.abs(a - a.conj().T).max()) if a.size else 0.0


def require_hermitian(m, tol: Optional[Tolerance] = None) -> np.ndarray:
    """The Hermitian part of a finite square matrix that is Hermitian within ``tol``.

    Raises ValueError when the Hermitian part overflows, which needs an entry
    above half the largest double.
    """
    a = require_square(m)
    t = _tol(tol, a.shape[0])
    scale = float(np.abs(a).max()) if a.size else 0.0
    if scale <= _HALF_MAX:
        defect, h = hermitian_defect(a), hermitian_part(a)
    else:
        # H - H* and H + H* can overflow here: form them quietly, check the part below
        with np.errstate(over="ignore", invalid="ignore"):
            defect, h = hermitian_defect(a), hermitian_part(a)
    if defect > t.abs * (1.0 + scale):
        raise NonHermitian(f"Hermitian defect {defect:.3e} exceeds tolerance")
    if scale > _HALF_MAX and not math.isfinite(float(np.abs(h).max())):
        raise ValueError("Hermitian part overflows: entries exceed half the largest double")
    return h


@dataclass(frozen=True)
class EigenSystem:
    """Spectrum of a Hermitian matrix: real values sorted descending, orthonormal columns."""

    values: np.ndarray
    vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.values) @ self.vectors.conj().T

    def apply(self, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """Q f(lambda) Q* with f applied entrywise to the eigenvalues."""
        return (self.vectors * f(self.values)) @ self.vectors.conj().T

    def power(self, p: float, tol: Optional[Tolerance] = None) -> np.ndarray:
        """Generalized power H^p of the PSD matrix H this spectrum belongs to.

        Eigenvalues off the support (:meth:`Tolerance.support`) are mapped to
        zero for p <= 0 (so p = 0 yields the support projection) and kept for
        p > 0. Negative dust is clamped at zero throughout; the zero matrix maps
        to zero for p > 0 and to the zero projection for p <= 0.
        """
        lam = np.clip(self.values, 0.0, None)
        out = _generalized_power(lam, p, _tol(tol, lam.size).support(lam))
        return hermitian_part(self.apply(lambda _: out))


@functools.lru_cache(maxsize=16)
def _pivots(n: int) -> Tuple[Tuple[int, int, Tuple[int, ...]], ...]:
    """Row-major pivots (p, q) over the strict upper triangle, each with the
    other indices, which the rotation updates entry by entry."""
    return tuple(
        (p, q, tuple(i for i in range(n) if i != p and i != q)) for p in range(n - 1) for q in range(p + 1, n)
    )


def _trial_memo(kind: str, a: np.ndarray, *params) -> Tuple[Optional[dict], tuple]:
    """The active trial memo and the key of ``kind`` of ``a`` under ``params``
    in it, or (None, ()) when no campaign trial is running.

    The key holds the shape and the full bytes of ``a``, so an entry answers
    only for the very matrix it was computed from.
    """
    memo = _MEMO.get()
    if memo is None:
        return None, ()
    return memo, (kind, a.shape, a.tobytes(), *params)


def _remember(memo: Optional[dict], key: tuple, value, arrays) -> None:
    """Store ``value`` under ``key`` with its ``arrays`` made read-only, so
    that no caller can change what a later hit returns."""
    if memo is not None:
        for x in arrays:
            if x is not None:
                x.setflags(write=False)
        memo[key] = value


def _with_memo(memo: Optional[dict], fn, *args):
    """``fn(*args)`` with ``memo`` as the trial memo (None: no memo)."""
    token = _MEMO.set(memo)
    try:
        return fn(*args)
    finally:
        _MEMO.reset(token)


def _jacobi(
    h, tol: Optional[Tolerance], max_sweeps: int, vectors: bool
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """The sweep loop behind :func:`eigh` and :func:`eigvalsh`: descending
    eigenvalues, and the eigenvector columns when ``vectors`` is set.

    Inside a campaign trial the result is memoized; a values-only request is
    also answered by an entry with vectors, whose values are the same bits.
    """
    a = np.asarray(h, dtype=complex)
    memo, key = _trial_memo("jacobi", a, tol, max_sweeps)
    hit = memo.get(key) if memo is not None else None
    if hit is not None and (hit[1] is not None or not vectors):
        return hit
    out = _sweeps(require_hermitian(a, tol), max_sweeps, vectors)
    _remember(memo, key, out, out)
    return out


def _sweeps(a: np.ndarray, max_sweeps: int, vectors: bool) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Cyclic Jacobi sweeps on the Hermitian ``a``.

    The rotations read only A, so skipping the eigenvector updates leaves the
    eigenvalues bit for bit the same.
    """
    n = a.shape[0]
    v = np.eye(n, dtype=complex) if vectors else None
    if n <= 1:
        return a.real.diagonal().copy(), v

    with np.errstate(over="ignore"):
        scale = float(np.linalg.norm(a))
    shift = 0
    if not 2.0**-256 < scale < 2.0**256:
        # ||A||_F over- or underflows, or the absolute pivot skip below would
        # swallow the entries: run the sweeps on 2^shift A, with max|a_ij| in
        # [0.5, 1), and scale the eigenvalues back
        amax = float(np.abs(a).max())
        if amax == 0.0:
            return np.zeros(n), v
        shift = -math.frexp(amax)[1]
        a = np.ldexp(a.real, shift) + 1j * np.ldexp(a.imag, shift)
        scale = float(np.linalg.norm(a))
    stop = 1e-14 * scale
    tiny = 1e-300

    # The rotations run on Python complex scalars held in row lists: at these
    # sizes a numpy call on a length-n slice costs far more than its
    # arithmetic. A stays exactly Hermitian (hermitian_part made it so, and
    # IEEE multiplication commutes with conjugation), so only columns p and q
    # are updated off the (p, q) block and rows p and q receive their
    # conjugates. Without ``vectors`` there are no rows of V to rotate.
    rows = a.tolist()
    vrows = v.tolist() if vectors else []

    for _ in range(max_sweeps):
        off = math.sqrt(2.0) * math.hypot(*[abs(x) for p, row in enumerate(rows) for x in row[p + 1 :]])
        if off <= stop:
            break
        for p, q, others in _pivots(n):
            row_p = rows[p]
            row_q = rows[q]
            apq = row_p[q]
            r = abs(apq)
            if r <= tiny:
                continue
            phase = apq / r
            app = row_p[p]
            aqq = row_q[q]
            theta = 0.5 * math.atan2(2.0 * r, (aqq - app).real)
            c = math.cos(theta)
            s = math.sin(theta)
            sp = s * phase
            spc = s * phase.conjugate()
            # A <- R* A R with R embedding [[c, s*phase], [-s*conj(phase), c]]:
            # columns first, then rows, as on the full matrix
            aqp = row_q[p]
            cpp = c * app - spc * apq
            cqp = c * aqp - spc * aqq
            cpq = sp * app + c * apq
            cqq = sp * aqp + c * aqq
            row_p[p] = (c * cpp - sp * cqp).real
            row_q[q] = (spc * cpq + c * cqq).real
            row_p[q] = 0j
            row_q[p] = 0j
            for i in others:
                row_i = rows[i]
                aip = row_i[p]
                aiq = row_i[q]
                new_p = c * aip - spc * aiq
                new_q = sp * aip + c * aiq
                row_i[p] = new_p
                row_i[q] = new_q
                row_p[i] = new_p.conjugate()
                row_q[i] = new_q.conjugate()
            for vrow in vrows:
                vp = vrow[p]
                vq = vrow[q]
                vrow[p] = c * vp - spc * vq
                vrow[q] = sp * vp + c * vq
    else:
        raise NoConvergence(f"Jacobi sweep budget ({max_sweeps}) exhausted")

    values = np.ldexp([rows[i][i].real for i in range(n)], -shift)
    order = np.argsort(-values, kind="stable")
    return values[order], np.array(vrows, dtype=complex)[:, order] if vectors else None


def eigh(h, tol: Optional[Tolerance] = None, max_sweeps: int = _MAX_SWEEPS) -> EigenSystem:
    """Diagonalize a complex Hermitian matrix by cyclic Jacobi rotations.

    The pivot order is fixed (row-major over the strict upper triangle), so
    the returned eigenbasis is deterministic, including within degenerate
    eigenspaces. Raises NonHermitian for asymmetric input and NoConvergence
    if the off-diagonal mass does not vanish within the sweep budget.
    """
    values, vectors = _jacobi(h, tol, max_sweeps, vectors=True)
    return EigenSystem(values=values, vectors=vectors)


def eigvalsh(h, tol: Optional[Tolerance] = None, max_sweeps: int = _MAX_SWEEPS) -> np.ndarray:
    """The descending eigenvalues of :func:`eigh`, bit for bit, without the
    eigenvectors; same validation, sweeps and errors."""
    return _jacobi(h, tol, max_sweeps, vectors=False)[0]


def matrix_function(
    h,
    f: Callable[[np.ndarray], np.ndarray],
    tol: Optional[Tolerance] = None,
    domain_min: Optional[float] = None,
) -> np.ndarray:
    """Functional calculus Q f(lambda) Q* on a Hermitian matrix.

    When ``domain_min`` is given, eigenvalues below it are clamped up to it if
    the shortfall is rounding dust (within the relative rank cutoff) and
    rejected with DomainError otherwise.
    """
    es = eigh(h, tol)
    t = _tol(tol, es.values.size)
    lam = es.values.copy()
    if domain_min is not None:
        slack = t.rank_cutoff * max(1.0, float(np.abs(lam).max()) if lam.size else 0.0)
        if np.any(lam < domain_min - slack):
            worst = float(lam.min())
            raise DomainError(f"eigenvalue {worst:.3e} below function domain [{domain_min}, inf)")
        np.clip(lam, domain_min, None, out=lam)
    vals = np.asarray(f(lam), dtype=float)
    return hermitian_part((es.vectors * vals) @ es.vectors.conj().T)


def sqrtm_psd(h, tol: Optional[Tolerance] = None) -> np.ndarray:
    """PSD square root, clamping negative eigenvalue dust at zero."""
    return matrix_function(h, np.sqrt, tol, domain_min=0.0)


def _generalized_power(values: np.ndarray, p: float, support: np.ndarray) -> np.ndarray:
    """values^p entrywise for p > 0; for p <= 0 the power of the values on
    ``support`` and zero off it, so p = 0 gives the support indicator."""
    if p > 0:
        return values**p
    out = np.zeros_like(values)
    out[support] = 1.0 if p == 0 else values[support] ** p
    return out


def generalized_inverse(h, p: float, tol: Optional[Tolerance] = None) -> np.ndarray:
    """Generalized power H^p of a PSD matrix (:meth:`EigenSystem.power`)."""
    return eigh(h, tol).power(p, tol)


def loewner_leq(a, b, tol: Optional[Tolerance] = None) -> LoewnerDecision:
    """Decide A <= B in the Loewner order; slack is lambda_min(B - A)."""
    am = require_hermitian(a, tol)
    bm = require_hermitian(b, tol)
    if am.shape != bm.shape:
        raise DimensionMismatch(f"shapes {am.shape} and {bm.shape} differ")
    t = _tol(tol, am.shape[0])
    diff = eigvalsh(bm - am, tol)
    slack = float(diff[-1]) if diff.size else 0.0
    # -abs * (1 + s) <= -abs for every s >= 0, rounding included, so a slack
    # of at least -abs holds whatever ||B|| is: the norm is needed only below
    holds = slack >= -t.abs or slack >= -t.abs * (1.0 + operator_norm(bm))
    return LoewnerDecision(holds=holds, slack=slack)


def operator_norm(m, tol: Optional[Tolerance] = None) -> float:
    """Largest singular value, sqrt(lambda_max(M* M))."""
    a = as_matrix(m)
    if a.size == 0:
        return 0.0
    if a.shape[0] == a.shape[1] and hermitian_defect(a) <= 1e-12 * (1.0 + float(np.abs(a).max())):
        return float(np.abs(eigvalsh(hermitian_part(a), tol)).max())
    gram = hermitian_part(a.conj().T @ a)
    return math.sqrt(max(float(eigvalsh(gram, tol)[0]), 0.0))


def spectral_radius_psd_product(a, b, tol: Optional[Tolerance] = None) -> float:
    """rho(A B) for PSD A, B, computed as lambda_max(B^1/2 A B^1/2)."""
    am = require_hermitian(a, tol)
    bh = sqrtm_psd(b, tol)
    if am.shape != bh.shape:
        raise DimensionMismatch(f"shapes {am.shape} and {bh.shape} differ")
    lam = eigvalsh(hermitian_part(bh @ am @ bh), tol)
    return max(float(lam[0]), 0.0) if lam.size else 0.0


def spectral_radius(m, max_squarings: int = 40) -> float:
    """Spectral radius of a general square matrix via scaled repeated squaring.

    Uses the norm-of-powers limit ||M^(2^j)||^(1/2^j) -> rho(M), which
    approaches rho from above for any submultiplicative norm (Frobenius here),
    so the returned value is an upper bound tight to well below 1e-9 after the
    default number of squarings.
    """
    a = require_square(m)
    if a.size == 0:
        return 0.0
    log_acc = 0.0
    weight = 1.0
    t = a
    for _ in range(max_squarings):
        norm = float(np.linalg.norm(t))
        if norm == 0.0:
            return 0.0
        log_acc += weight * math.log(norm)
        t = (t / norm) @ (t / norm)
        weight *= 0.5
    norm = float(np.linalg.norm(t))
    if norm == 0.0:
        return 0.0
    log_acc += weight * math.log(norm)
    return math.exp(log_acc)

