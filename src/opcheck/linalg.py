"""Dense complex matrix kernel: Jacobi eigensolver, matrix powers, order predicates.

Matrices are plain ``numpy.ndarray`` values (complex128, row-major). Everything
downstream builds on :func:`eigh`, a cyclic Jacobi diagonalizer for complex
Hermitian matrices with a deterministic sweep order, so results are
reproducible bit-for-bit across runs on the same platform.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

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
# The sweeps stop once the off-diagonal Frobenius mass is at most _STOP
# times ||A||_F, and a pivot whose modulus is at most _TINY is skipped.
_STOP = 1e-14
_TINY = 1e-300

# Largest entry modulus for which H + H* and H - H* cannot overflow.
_HALF_MAX = float(np.finfo(float).max) / 2


def _is_finite(number) -> bool:
    """An int or float within the doubles: False for NaN, an infinity or an
    int that no double holds."""
    return abs(number) <= sys.float_info.max


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
        if not all(x > 0 and _is_finite(x) for x in (self.abs, self.rel, self.rank_cutoff)):
            raise ValueError("tolerances must be finite and strictly positive")

    @classmethod
    @functools.lru_cache(maxsize=64)
    def for_dim(cls, n: int) -> "Tolerance":
        # memoized: the class is frozen and compared by value, so each
        # tol=None call need not build and validate a new instance
        return cls(rank_cutoff=1e-12 * max(n, 1))

    def support(self, values: np.ndarray) -> np.ndarray:
        """The rank rule: which of the nonnegative ``values`` count as nonzero.

        True where a value exceeds ``rank_cutoff`` times the largest one on
        its row (the last axis); the largest of an empty row is taken as 0.
        """
        return values > self.rank_cutoff * values.max(axis=-1, keepdims=True, initial=0.0)


def _tol(tol: Optional[Tolerance], n: int) -> Tolerance:
    return tol if tol is not None else Tolerance.for_dim(n)


def _frobenius(x: np.ndarray) -> float:
    """``float(np.linalg.norm(x))`` for a complex ``x``, bit for bit: the same
    two BLAS dot products and correctly rounded square root, without numpy's
    argument dispatch. Overflow warns as there, in the dot or in the sum.
    :func:`_frobenius_stack` gives the same bits for each matrix of a stack."""
    x = x.ravel(order="K")
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _frobenius_stack(a: np.ndarray) -> np.ndarray:
    """``[_frobenius(x) for x in a]`` for a complex stack ``a`` (k, m, n), bit
    for bit, as an array.

    Each matrix is flattened in the order ``ravel(order="K")`` gives it, as a
    view or as a copy of its complex entries, so that its real and imaginary
    parts keep the stride of two doubles that a lone matrix's parts have:
    np.vecdot then makes the ddot call, with incx = 2, that ``re.dot(re)``
    makes. A contiguous copy of the parts would switch OpenBLAS to its
    unit-stride kernel, which sums in another order. A stack of C-ordered
    matrices, as every caller's is, is flattened in one call; any other is
    flattened matrix by matrix.
    """
    shape = (len(a), a.shape[-2] * a.shape[-1])
    if len(a) and a[0].flags.c_contiguous:
        flat = a.reshape(shape)
    else:
        flat = np.array([x.ravel(order="K") for x in a], dtype=complex).reshape(shape)
    re, im = flat.real, flat.imag
    return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))


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
    """(M + M*) / 2 of a square array, or of each matrix of a stack (..., n, n)."""
    a = np.asarray(m, dtype=complex)
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def hermitian_defect(m) -> float:
    """max-norm of M - M* for a square array; like hermitian_part, validates nothing."""
    a = np.asarray(m, dtype=complex)
    return float(np.abs(a - a.conj().T).max()) if a.size else 0.0


def require_hermitian(m, tol: Optional[Tolerance] = None) -> np.ndarray:
    """The Hermitian part of a finite square matrix that is Hermitian within ``tol``.

    Raises ValueError when the Hermitian part overflows, which needs an entry
    above half the largest double.
    """
    a = np.asarray(m, dtype=complex)
    square = a.ndim == 2 and a.shape[0] == a.shape[1]
    scale = float(np.abs(a).max()) if square and a.size else 0.0
    if not (square and scale <= _HALF_MAX):
        # the abs-max is also the finiteness test: NaN and inf fail the bound,
        # so only these rare inputs pay for require_square's checks and errors
        a = require_square(a)
    t = _tol(tol, a.shape[0])
    if scale <= _HALF_MAX:
        # one conjugate transpose serves hermitian_defect and hermitian_part
        ah = a.conj().T
        defect = float(np.abs(a - ah).max()) if a.size else 0.0
        hermitian = defect <= t.abs * (1.0 + scale)
        h = 0.5 * (a + ah)
    else:
        # |a_ij|, H - H* and H + H* can overflow here, and an infinite scale
        # would pass any defect: test A / 4, which cannot overflow and is
        # exact but for subnormal dust, against the bound / 4. Form the part
        # quietly, check it below
        quarter = 0.25 * a
        quarter_defect = hermitian_defect(quarter)
        hermitian = quarter_defect <= t.abs * (0.25 + float(np.abs(quarter).max()))
        defect = 4.0 * quarter_defect
        with np.errstate(over="ignore", invalid="ignore"):
            h = hermitian_part(a)
    if not hermitian:
        raise NonHermitian(f"Hermitian defect {defect:.3e} exceeds tolerance")
    if scale > _HALF_MAX and not math.isfinite(float(np.abs(h).max())):
        raise ValueError("Hermitian part overflows: entries exceed half the largest double")
    return h


@dataclass(frozen=True)
class EigenSystem:
    """Spectrum of a Hermitian matrix: real values sorted descending, orthonormal columns.

    It may also hold the spectra of a stack of them, values (..., n) and
    vectors (..., n, n); :meth:`power` then acts on each one.
    """

    values: np.ndarray
    vectors: np.ndarray

    @functools.cached_property
    def _clamped(self) -> np.ndarray:
        """The values with negative dust clamped at zero, shared by every power."""
        return np.maximum(self.values, 0.0)

    def power(self, p: float, tol: Optional[Tolerance] = None) -> np.ndarray:
        """Generalized power H^p of the PSD matrix H this spectrum belongs to.

        Eigenvalues off the support (:meth:`Tolerance.support`) are mapped to
        zero for p <= 0 (so p = 0 yields the support projection) and kept for
        p > 0. Negative dust is clamped at zero throughout; the zero matrix maps
        to zero for p > 0 and to the zero projection for p <= 0.
        """
        lam = self._clamped
        support = None if p > 0 else _tol(tol, lam.shape[-1]).support(lam)
        out = _generalized_power(lam, p, support)
        return hermitian_part((self.vectors * out[..., None, :]) @ self.vectors.conj().swapaxes(-1, -2))


@functools.lru_cache(maxsize=16)
def _pivots(n: int) -> Tuple[Tuple[int, int, Tuple[int, ...]], ...]:
    """Row-major pivots (p, q) over the strict upper triangle, each with the
    other indices, which the rotation updates entry by entry."""
    return tuple(
        (p, q, tuple(i for i in range(n) if i != p and i != q)) for p in range(n - 1) for q in range(p + 1, n)
    )


@functools.lru_cache(maxsize=16)
def _upper(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n, 1)``, read-only: the strict upper triangle in
    row-major order, as _sweeps lists the moduli."""
    rows, cols = np.triu_indices(n, 1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def _eig(h, vectors: bool = True) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """The kernel behind :func:`eigh` and :func:`eigvalsh`: descending
    eigenvalues, and the eigenvector columns when ``vectors`` is set.

    A Hermitian matrix is symmetrized once, where it is formed, and everything
    downstream trusts it. So ``h`` is exactly Hermitian: a
    :func:`require_hermitian` or :func:`hermitian_part` output, or a sum,
    difference, real multiple or entrywise product of such outputs, and the
    sweeps run on it as given. When it holds a NaN or an inf, or a real or
    imaginary part above half the largest double, where its Hermitian part
    would overflow, require_hermitian is run on ``h`` and raises the error
    the validating entry points raise. No tolerance enters: the spectrum of
    an exactly Hermitian matrix depends on nothing else. The values are the
    same bits with or without ``vectors``.
    """
    a = np.asarray(h, dtype=complex)
    out = _sweeps(a, vectors)
    if out is None:  # require_hermitian rejects what _sweeps refuses
        out = _sweeps(require_hermitian(a), vectors)
    return out


def _eig_stack(hs: np.ndarray, vectors: bool = True) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """:func:`_eig` of each matrix of ``hs`` (..., n, n), bit for bit: the
    values (..., n), and with ``vectors`` the vectors (..., n, n), each
    matrix laid out in Fortran order as :func:`_eig` returns it, so that a
    product with it makes the BLAS call the lone matrix makes.

    Two or more matrices of size n >= 2 run as one stack through
    :func:`_sweeps_stack`, unless it refuses the stack for a ||A||_F
    outside its range. Any other stack, and so any holding a NaN or an
    inf, runs :func:`_eig` on each matrix in order, and raises the error
    of the first matrix that fails.
    """
    n = hs.shape[-1]
    flat = hs.reshape((math.prod(hs.shape[:-2]),) + hs.shape[-2:])
    out = _sweeps_stack(flat, vectors) if len(flat) > 1 and n > 1 else None
    if out is not None:
        values, rows = out
    else:
        values = np.empty(flat.shape[:-1])
        rows = np.empty(flat.shape, dtype=complex) if vectors else None
        for i, h in enumerate(flat):
            values[i], v = _eig(h, vectors)
            if vectors:
                rows[i] = v.T
    return values.reshape(hs.shape[:-1]), rows.swapaxes(-1, -2).reshape(hs.shape) if vectors else None


# CPython's complex arithmetic on float64 arrays whose first axis holds the
# real and imaginary parts. A product (ar + i ai)(br + i bi) is rounded as
# (ar br - ai bi, ar bi + ai br), which is ar b + (-ai, ai) b[::-1]: in IEEE
# arithmetic x - y is x + (-y) and (-a) b is -(a b), signed zeros included.
# _CROSS turns ai into (-ai, ai); a float c enters as complex(c, 0.0), whose
# (-ai, ai) is _FLOAT_CROSS.
_CROSS = np.array([-1.0, 1.0])[:, None, None, None]
_FLOAT_CROSS = np.array([-0.0, 0.0])[:, None, None]
# z / r with the divisor (r, 0), as _Py_c_quot rounds it: its ratio is 0.0
# and its denominator r, so z / r is (zr + zi 0.0, zi - zr 0.0) / r, or
# (z + (0.0, -0.0) z[::-1]) / r
_QUOT_ZEROS = np.array([0.0, -0.0])[:, None]
# a phase's conjugate and the phase, side by side on the second axis
_CONJ_PAIR = np.array([[1.0, 1.0], [-1.0, 1.0]])[:, :, None]
# the conjugate, where the parts' axis is followed by three others: a
# product with -1.0 negates exactly, as numpy's negative does
_CONJ = np.array([1.0, -1.0])[:, None, None, None]


def _sweeps_stack(a: np.ndarray, vectors: bool) -> Optional[Tuple[np.ndarray, Optional[np.ndarray]]]:
    """:func:`_sweeps` of each matrix of the exactly Hermitian stack ``a``
    (k, n, n), bit for bit: the descending values (k, n) and, with
    ``vectors``, each matrix's vectors transposed (k, n, n), their columns
    as rows. None, before any sweep, unless every ||A||_F lies in
    (n 2^-199, 2^199), which a NaN or an inf fails.

    The thresholds ||A||_F come from :func:`_frobenius_stack`, and their
    range puts each max|a_ij| in (2^-200, 2^200), where _sweeps neither
    rescales nor refuses. The stack is held as one float64 array of real
    and imaginary parts, and :func:`_rotate_stack` repeats each of _sweeps'
    Python complex operations as CPython rounds it, in a few ufunc calls
    per pivot for the whole stack; |z| is the C hypot, and a sweep's first
    pivot (0, 1) takes its modulus from the stop rule's. atan2, cos, sin
    and the stop rule's hypot come from math, one call per matrix. A matrix
    leaves the stack at the sweep that finds it converged, and a pivot
    skips the matrices whose |a_pq| is at most _TINY. When every matrix
    converges at the same sweep, the working array is the result, uncopied.
    """
    k, n = a.shape[0], a.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        scale = _frobenius_stack(a)
    if not ((n * 2.0**-199 < scale) & (scale < 2.0**199)).all():
        return None
    stop = _STOP * scale
    # the real and imaginary parts of A's rows over V's rows, the matrix
    # index last, so that a pivot entry of every matrix is one contiguous vector
    w = np.zeros((2, 2 * n if vectors else n, n, k))
    w[0, :n] = a.real.transpose(1, 2, 0)
    w[1, :n] = a.imag.transpose(1, 2, 0)
    i = np.arange(n)
    if vectors:
        w[0, n + i, i] = 1.0
    active = np.arange(k)
    upper = (slice(None),) + _upper(n)
    for _ in range(_MAX_SWEEPS):
        moduli = np.hypot(*w[upper])
        first = moduli[0]  # |a_01|, which no rotation of this sweep has touched yet
        # math.hypot of the one modulus of a 2 x 2 matrix is that modulus
        off = first if n == 2 else np.fromiter(map(math.hypot, *moduli.tolist()), float, active.size)
        converged = math.sqrt(2.0) * off <= stop
        if converged.any():
            if active.size == k:  # the first matrices to converge
                if converged.all():
                    done = w  # every matrix converged at this sweep, none before it
                    break
                done = np.empty_like(w)
            done[..., active[converged]] = w[..., converged]
            keep = ~converged
            active, stop, first, w = active[keep], stop[keep], first[keep], w[..., keep]
            if not active.size:
                break
        for index, (p, q, _) in enumerate(_pivots(n)):
            r = np.hypot(*w[:, p, q]) if index else first
            rotating = r > _TINY
            if rotating.all():
                _rotate_stack(w, p, q, r)
            elif rotating.any():
                part = w[..., rotating]
                _rotate_stack(part, p, q, r[rotating])
                w[..., rotating] = part
    else:
        raise NoConvergence(f"Jacobi sweep budget ({_MAX_SWEEPS}) exhausted")

    diagonal = done[0, :n].diagonal()
    # descending, ties in index order, as _sweeps sorts
    order = np.argsort(-diagonal, axis=1, kind="stable")
    lead = np.arange(k)[:, None]
    values = diagonal[lead, order]
    if not vectors:
        return values, None
    # V[i, j] of matrix m is done[:, n + i, j, m]; row j of the output is V's column order[m, j]
    rows = np.empty((k, n, n), dtype=complex)
    rows.real, rows.imag = done[:, n:].transpose(0, 3, 2, 1)[:, lead, order]
    return values, rows


def _rotate_stack(w: np.ndarray, p: int, q: int, r: np.ndarray) -> None:
    """One rotation of :func:`_sweeps` at the pivot (p, q), with |a_pq| = r,
    in place on every matrix of the stack w[0] + i w[1] (2, rows, n, k), A's
    rows over V's rows, the matrix index last."""
    n = w.shape[2]
    x = w[:, p, q]
    phase = (x + _QUOT_ZEROS * x[::-1]) / r
    theta = [0.5 * t for t in map(math.atan2, (2.0 * r).tolist(), (w[0, q, q] - w[0, p, p]).tolist())]
    c = np.fromiter(map(math.cos, theta), float, len(theta))
    s = np.fromiter(map(math.sin, theta), float, len(theta))
    # coef[:, j, l] multiplies column l (p or q) for new column j:
    # [[c, spc], [sp, c]], with sp = s phase and spc = s conj(phase)
    coef = np.zeros((2, 4, len(theta)))
    coef[0, ::3] = c
    pair = phase[:, None] * _CONJ_PAIR
    coef[:, 1:3] = s * pair + _FLOAT_CROSS * pair[::-1]
    coef = coef.reshape(2, 2, 2, -1)
    cross = _CROSS * coef[1]
    # columns p and q of A and V: c x_p - spc x_q and sp x_p + c x_q;
    # the slice pq picks indices p and q as a view
    pq = slice(p, q + 1, q - p)
    cols = w[:, :, None, pq]
    prod = coef[0] * cols + cross[:, None] * cols[::-1]
    np.subtract(prod[:, :, 0, 0], prod[:, :, 0, 1], out=w[:, :, p])
    np.add(prod[:, :, 1, 0], prod[:, :, 1, 1], out=w[:, :, q])
    # the diagonal (c cpp - sp cqp).real and (spc cpq + c cqq).real, from
    # rows p and q of the new columns
    block = w[:, pq, pq]
    real = coef[0] * block[0] + cross[0] * block[1]
    # rows p and q of A receive the conjugates, then the (p, q) block is set;
    # _sweeps stores a float on the diagonal, which CPython widens to
    # complex(x, 0.0) in every later operation
    w[:, pq] = w[:, :n, pq].swapaxes(1, 2) * _CONJ
    block[...] = 0.0
    np.subtract(real[0, 0], real[1, 0], out=w[0, p, p])
    np.add(real[0, 1], real[1, 1], out=w[0, q, q])


def _sweeps(a: np.ndarray, vectors: bool) -> Optional[Tuple[np.ndarray, Optional[np.ndarray]]]:
    """Cyclic Jacobi sweeps on the exactly Hermitian ``a``; None, before any
    sweep, when ``a`` holds a NaN or an inf, or a real or imaginary part
    above half the largest double.

    The rotations read only A, so skipping the eigenvector updates leaves the
    eigenvalues bit for bit the same.
    """
    n = a.shape[0]
    rows = a.tolist()
    moduli = [abs(x) for row in rows for x in row]
    amax = max(moduli, default=0.0)
    # max skips a NaN that is not first; the sum of moduli is NaN for any
    if amax == math.inf or math.isnan(sum(moduli)):
        return None
    if n <= 1:
        return a.real.diagonal().copy(), np.eye(n, dtype=complex) if vectors else None

    shift = 0
    if 2.0**-200 < amax < 2.0**200:
        # ||A||_F lies in [amax, n * amax]: for any n below 2^56 it can neither
        # overflow nor leave (2^-256, 2^256), so np.errstate and the range
        # test below are not needed
        scale = _frobenius(a)
    else:
        if amax > _HALF_MAX and max(float(np.abs(a.real).max()), float(np.abs(a.imag).max())) > _HALF_MAX:
            return None  # 0.5 (a + a*) overflows here
        with np.errstate(over="ignore"):
            scale = _frobenius(a)
        if not 2.0**-256 < scale < 2.0**256:
            # ||A||_F over- or underflows, or the absolute pivot skip below
            # would swallow the entries: run the sweeps on 2^shift A, with
            # max|a_ij| in [0.5, 1), and scale the eigenvalues back
            if amax == 0.0:
                return np.zeros(n), np.eye(n, dtype=complex) if vectors else None
            shift = -math.frexp(amax)[1]
            a = np.ldexp(a.real, shift) + 1j * np.ldexp(a.imag, shift)
            rows = a.tolist()
            scale = _frobenius(a)
    stop = _STOP * scale

    # The rotations run on Python complex scalars held in row lists: at these
    # sizes a numpy call on a length-n slice costs far more than its
    # arithmetic. A stays exactly Hermitian (it is on entry, see _eig, and
    # IEEE multiplication commutes with conjugation), so only columns p and q
    # are updated off the (p, q) block and rows p and q receive their
    # conjugates. Without ``vectors`` there are no rows of V to rotate.
    vrows = [[complex(i == j) for j in range(n)] for i in range(n)] if vectors else []

    for _ in range(_MAX_SWEEPS):
        off = math.sqrt(2.0) * math.hypot(*[abs(x) for p, row in enumerate(rows) for x in row[p + 1 :]])
        if off <= stop:
            break
        for p, q, others in _pivots(n):
            row_p = rows[p]
            row_q = rows[q]
            apq = row_p[q]
            r = abs(apq)
            if r <= _TINY:
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
        raise NoConvergence(f"Jacobi sweep budget ({_MAX_SWEEPS}) exhausted")

    values = [rows[i][i].real for i in range(n)]
    if shift:
        values = np.ldexp(values, -shift).tolist()
    # descending, ties in index order: sorted stays stable with reverse=True
    order = sorted(range(n), key=values.__getitem__, reverse=True)
    # V's columns in that order, built as rows and transposed, so the vectors
    # are Fortran-ordered
    vectors_out = np.array([[vrow[j] for vrow in vrows] for j in order], dtype=complex).T if vectors else None
    return np.array([values[i] for i in order]), vectors_out


def eigh(h, tol: Optional[Tolerance] = None) -> EigenSystem:
    """Diagonalize a complex Hermitian matrix by cyclic Jacobi rotations.

    The pivot order is fixed (row-major over the strict upper triangle), so
    the returned eigenbasis is deterministic, including within degenerate
    eigenspaces. Raises NonHermitian for asymmetric input and NoConvergence
    if the off-diagonal mass does not vanish within the sweep budget.
    """
    return EigenSystem(*_eig(require_hermitian(h, tol)))


def eigvalsh(h, tol: Optional[Tolerance] = None) -> np.ndarray:
    """The descending eigenvalues of :func:`eigh`, bit for bit, without the
    eigenvectors; same validation, sweeps and errors."""
    return _eig(require_hermitian(h, tol), vectors=False)[0]


def _screen_admits(n: int, top, margin):
    """The Cholesky screen's a-priori bound and scale range, on floats or float64 arrays; a NaN fails."""
    shifted = top + margin
    return (1e-12 * n * n * (top + 3.0 * margin) <= 0.5 * margin) & (2.0**-200 < shifted) & (shifted < 2.0**200)


def _clears(h: np.ndarray, margin: float) -> bool:
    """True only when lambda_min(h) >= -margin is certain, up to an allowance
    of margin / 2. False decides nothing.

    True guarantees that both the exact lambda_min of the Hermitian ``h`` and
    the one :func:`eigvalsh` returns for it are >= -1.5 * margin. Input that
    is not exactly Hermitian or holds a NaN, a margin that is not positive,
    and a scale top + margin, top = max(0, max h_ii), outside
    (2^-200, 2^200) give False; a 0 x 0 ``h`` gives True.

    It factorizes h + margin * I by Cholesky on Python scalars held in row
    lists, like :func:`_sweeps`. When every pivot is positive, the computed
    factor R has R* R = h + margin * I + E with
    ||E||_2 <= gamma tr / (1 - gamma), gamma = gamma_(n+1) widened for
    complex arithmetic (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., Thm 10.5; Rump, BIT 46, 2006). As R* R is PSD,
    lambda_min(h) >= -margin - ||E||_2 and max|h_ij| <= top + margin +
    ||E||_2, while ||E||_2 < 1.2e-15 n^2 (top + margin). eigvalsh adds its
    stop rule's 1e-14 ||h||_F <= 1e-14 n max|h_ij| and the rounding of its
    rotations. The a-priori test 1e-12 n^2 (top + 3 margin) <= margin / 2
    keeps both under margin / 2, about 30 times over. In the scale range no
    square overflows and underflow stays far below that allowance; an
    overflow from a large off-diagonal entry makes a pivot -inf or NaN,
    which fails. Only IEEE + - * / and math.sqrt act on the entries, so the
    verdict does not depend on the host.
    """
    rows = h.tolist()
    # exact Hermitian symmetry; the two lists hold distinct objects, so a
    # NaN entry compares unequal
    if rows != h.T.conj().tolist():
        return False
    n = len(rows)
    top = max([0.0] + [row[i].real for i, row in enumerate(rows)])
    if not _screen_admits(n, top, margin):
        return False
    # the conjugated strict rows of the lower factor L, and its diagonal
    conj_rows: list = []
    pivots: list = []
    for i, row in enumerate(rows):
        li = []
        d = row[i].real + margin
        for j, conj_lj in enumerate(conj_rows):
            s = row[j]
            for lik, conj_ljk in zip(li, conj_lj):
                s -= lik * conj_ljk
            x = s / pivots[j]
            li.append(x)
            d -= x.real * x.real + x.imag * x.imag
        if not d > 0.0:  # a NaN pivot fails too
            return False
        conj_rows.append([x.conjugate() for x in li])
        pivots.append(math.sqrt(d))
    return True


def _clears_stack(hs: np.ndarray, margins: np.ndarray) -> np.ndarray:
    """:func:`_clears`' screen of each matrix of a stack ``hs`` (k, n, n) at its
    margin of ``margins`` (k,), by LAPACK's Cholesky, whose backward error has
    the same bound: each True keeps _clears' guarantee, though at a pivot of
    rounding dust the verdict can differ from _clears' and by host. OpenBLAS
    returns a NaN pivot's non-finite factor without an error, so the entries
    and the factor must be finite."""
    with np.errstate(all="ignore"):
        top = hs.real.diagonal(axis1=-2, axis2=-1).max(axis=-1, initial=0.0)
        cleared = (hs == hs.conj().swapaxes(-1, -2)).all(axis=(-2, -1)) & np.isfinite(hs).all(axis=(-2, -1))
        cleared &= _screen_admits(hs.shape[-1], top, margins)
        shifted = hs[cleared] + margins[cleared, None, None] * np.eye(hs.shape[-1])
        try:
            cleared[cleared] = np.isfinite(np.linalg.cholesky(shifted)).all(axis=(-2, -1))
        except np.linalg.LinAlgError:  # a failing pivot stops the stack: factor each matrix alone
            for i, h in zip(np.flatnonzero(cleared).tolist(), shifted):
                try:
                    cleared[i] = np.isfinite(np.linalg.cholesky(h)).all()
                except np.linalg.LinAlgError:
                    cleared[i] = False
    return cleared


def sqrtm_psd(h, tol: Optional[Tolerance] = None) -> np.ndarray:
    """PSD square root H^(1/2) (:meth:`EigenSystem.power`), clamping negative
    eigenvalue dust at zero.

    Raises DomainError for an eigenvalue below -rank_cutoff * max(1, max|lambda|).
    """
    es = EigenSystem(*_eig(require_hermitian(h, tol)))
    lam = es.values
    if lam.size:
        slack = _tol(tol, lam.size).rank_cutoff * max(1.0, float(np.abs(lam).max()))
        if lam[-1] < -slack:
            raise DomainError(f"eigenvalue {float(lam[-1]):.3e} below function domain [0.0, inf)")
    return es.power(0.5, tol)


def _generalized_power(values: np.ndarray, p: float, support: Optional[np.ndarray]) -> np.ndarray:
    """values^p entrywise for p > 0; for p <= 0 the power of the values on
    ``support`` and zero off it, so p = 0 gives the support indicator. The
    support is read only for p <= 0."""
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
    return _loewner_leq(am, bm, tol)


def _loewner_leq(a, b, tol: Optional[Tolerance]) -> LoewnerDecision:
    """:func:`loewner_leq` of two exactly Hermitian matrices of one shape."""
    t = _tol(tol, a.shape[0])
    diff = _eig(b - a, vectors=False)[0]
    slack = float(diff[-1]) if diff.size else 0.0
    # -abs * (1 + s) <= -abs for every s >= 0, rounding included, so a slack
    # of at least -abs holds whatever ||B|| is: the norm is needed only below
    holds = slack >= -t.abs or slack >= -t.abs * (1.0 + _operator_norm(b))
    return LoewnerDecision(holds=holds, slack=slack)


def operator_norm(m) -> float:
    """Largest singular value, sqrt(lambda_max(M* M))."""
    return _operator_norm(as_matrix(m))


def _operator_norm(a: np.ndarray) -> float:
    """:func:`operator_norm` of a finite 2-d complex array: from the spectrum
    of a's Hermitian part when ``a`` is Hermitian within
    1e-12 (1 + max|a_ij|), else from a* a's."""
    if a.size == 0:
        return 0.0
    if a.shape[0] == a.shape[1] and hermitian_defect(a) <= 1e-12 * (1.0 + float(np.abs(a).max())):
        return float(np.abs(_eig(hermitian_part(a), vectors=False)[0]).max())
    gram = hermitian_part(a.conj().T @ a)
    return math.sqrt(max(float(_eig(gram, vectors=False)[0][0]), 0.0))


def _operator_norms(cs: np.ndarray) -> list:
    """``[_operator_norm(c) for c in cs]`` for a C-contiguous stack ``cs``
    (k, m, n), bit for bit.

    A stack of one runs :func:`_operator_norm`. A larger stack takes each
    of its steps on the whole stack and chooses per matrix with the
    Hermitian mask: the abs-max reductions of the Hermitian test and the
    elementwise Hermitian parts act on each matrix as alone, the Gram
    products c* c are one zgemm call per matrix with the strides of the
    lone product, formed for the whole stack and replaced by the Hermitian
    parts where the mask is set, and the spectra come from one values-only
    :func:`_eig_stack` run.
    """
    k = len(cs)
    if k == 1:
        return [_operator_norm(cs[0])]
    if cs.size == 0:
        return [0.0] * k
    m, n = cs.shape[-2:]
    with np.errstate(over="ignore", invalid="ignore"):  # a Hermitian c's product is replaced below
        operands = hermitian_part(cs.conj().swapaxes(-1, -2) @ cs)
    if m == n:
        scale = np.abs(cs).max(axis=(-2, -1))
        defect = np.abs(cs - cs.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
        hermitian = defect <= 1e-12 * (1.0 + scale)
        operands[hermitian] = hermitian_part(cs[hermitian])
    else:
        hermitian = np.zeros(k, dtype=bool)
    values = _eig_stack(operands, vectors=False)[0]
    # max(x, 0.0) keeps x unless 0.0 > x
    largest = values[:, 0]
    roots = np.sqrt(np.where(0.0 > largest, 0.0, largest))
    return np.where(hermitian, np.abs(values).max(axis=-1), roots).tolist()


def spectral_radius_psd_product(a, b, tol: Optional[Tolerance] = None) -> float:
    """rho(A B) for PSD A, B, computed as lambda_max(B^1/2 A B^1/2)."""
    am = require_hermitian(a, tol)
    bh = sqrtm_psd(b, tol)
    if am.shape != bh.shape:
        raise DimensionMismatch(f"shapes {am.shape} and {bh.shape} differ")
    return _spectral_radius_psd_product(am, bh)


def _spectral_radius_psd_product(a, bh: np.ndarray) -> float:
    """:func:`spectral_radius_psd_product` from B^1/2 and an exactly
    Hermitian ``a`` of its shape."""
    lam = _eig(hermitian_part(bh @ a @ bh), vectors=False)[0]
    return max(float(lam[0]), 0.0) if lam.size else 0.0


def spectral_radius(m) -> float:
    """Spectral radius of a general square matrix: the largest eigenvalue
    modulus, from LAPACK ``zgeev`` (``np.linalg.eigvals``).

    ``zgeev`` balances and rescales its input, so tiny and huge entries keep
    their radius. Raises ValueError when the radius is not a finite double,
    which takes an entry or an eigenvalue modulus above the largest double.
    """
    return _spectral_radius(require_square(m))


def _spectral_radius(a: np.ndarray):
    """:func:`spectral_radius` of a square complex array, a float, or of
    each matrix of a stack (..., n, n), a list: one LAPACK call per matrix
    either way. A NaN or an inf raises :func:`as_matrix`'s ValueError here,
    never LAPACK's LinAlgError."""
    if a.shape[-1] == 0:
        return np.zeros(a.shape[:-2]).tolist()
    if not np.isfinite(a).all():
        as_matrix(a.reshape(-1, a.shape[-1]))  # raises, for a stack too
    rho = np.abs(np.linalg.eigvals(a)).max(axis=-1)
    if not np.isfinite(rho).all():
        raise ValueError("spectral radius overflows: it exceeds the largest double")
    return rho.tolist()
