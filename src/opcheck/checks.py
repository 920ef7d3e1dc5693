"""Certificate-producing checks, one per inequality family, plus the
counterexample reproductions and searches.

Every check constructs the same witness the underlying argument does: V is
the adjoint of the unitary polar factor of the mapped matrix, so
V phi(Z) = |phi(Z)|. Certificates record both sides, the witness, the signed
Loewner slack, and whether the singular-mean limit was taken.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .decompose import SvdParts, _cartesian, _svd, svd_square
from .errors import (
    ClassViolation,
    DimensionMismatch,
    HypothesisViolated,
    NotContraction,
    OpcheckError,
    SearchExhausted,
)
from .linalg import (
    EigenSystem,
    Tolerance,
    _clears,
    _eig,
    _eig_stack,
    _generalized_power,
    _loewner_leq,
    _operator_norm,
    _operator_norms,
    _spectral_radius,
    _spectral_radius_psd_product,
    _tol,
    as_matrix,
    hermitian_part,
    require_hermitian,
    require_square,
)
from .means import (
    MajorizationReport,
    _clamped,
    _clamped_spectrum,
    _geometric_mean,
    _geometric_mean_es,
    _prefix_ratios,
    _weak_log_majorizes,
)
from .posmap import (
    COMPLETELY_POSITIVE,
    TWO_POSITIVE,
    IdentityMap,
    PosMap,
    SchurMultiplier,
    _BLOCK,
    _apply,
    map_to_json,
)
from .io import _json_object, _json_value, matrix_to_json, tolerance_to_json

__all__ = [
    "FunPair",
    "Certificate",
    "GapReport",
    "ReverseProductReport",
    "CartesianReport",
    "Example28Report",
    "SharpnessReport",
    "CexSearchReport",
    "domination_holds",
    "moduli_images",
    "moduli_from_svd",
    "check_russo_dye",
    "check_arithmetic_domination",
    "check_geometric_domination",
    "check_two_positive_split",
    "check_log_majorization",
    "check_eigenvalue_gaps",
    "check_reverse_product",
    "check_cartesian_suite",
    "check_schur_remarks",
    "reproduce_counterexample_2_8",
    "reproduce_sharpness_cor2_5",
    "find_counterexamples_remarks",
]


@dataclass(frozen=True)
class FunPair:
    """Parametric pair (f, g) with f(t) g(t) = t^2 pointwise.

    Every kind is f = c t^a, g = t^b / c with a + b = 2 (:attr:`exponents`):
    ``power`` is (1+p, 1-p, 1); ``range`` is (2, 0, 1), so g is the support
    indicator; ``scaled`` is (1, 1, sqrt(rho)). Powers are generalized: t^0
    is the support indicator and a negative power vanishes off the support.
    """

    kind: str
    p: float = 0.0
    rho: float = 1.0

    def __post_init__(self):
        if self.kind not in ("power", "range", "scaled"):
            raise ValueError(f"unknown FunPair kind {self.kind!r}")
        if self.kind == "scaled" and not self.rho > 0:
            raise ValueError("scaled pair needs rho > 0")

    @classmethod
    def power(cls, p: float) -> "FunPair":
        return cls(kind="power", p=float(p))

    @classmethod
    def range_pair(cls) -> "FunPair":
        return cls(kind="range")

    @classmethod
    def scaled(cls, rho: float) -> "FunPair":
        return cls(kind="scaled", rho=float(rho))

    @property
    def exponents(self) -> Tuple[float, float, float]:
        """(a, b, c) with f(t) = c t^a and g(t) = t^b / c."""
        if self.kind == "power":
            return 1.0 + self.p, 1.0 - self.p, 1.0
        if self.kind == "range":
            return 2.0, 0.0, 1.0
        return 1.0, 1.0, math.sqrt(self.rho)

    def f_sigma(self, sig: np.ndarray) -> np.ndarray:
        """f entrywise on the singular values of an SVD record, whose support
        is sigma > 0 (see :class:`SvdParts`)."""
        a, _, c = self.exponents
        return c * _generalized_power(sig, a, sig > 0)

    def g_sigma(self, sig: np.ndarray) -> np.ndarray:
        """g entrywise on singular values, as :meth:`f_sigma`."""
        _, b, c = self.exponents
        return _generalized_power(sig, b, sig > 0) / c

    def describe(self) -> str:
        if self.kind == "power":
            return f"power(p={self.p:g})"
        if self.kind == "range":
            return "range"
        return f"scaled(rho={self.rho:g})"

    def to_json(self) -> dict:
        return {"kind": self.kind, "p": self.p, "rho": self.rho}

    @classmethod
    def from_json(cls, obj: dict) -> "FunPair":
        _json_object(obj, "funpair", ("kind", "p", "rho"))
        return cls(
            kind=_json_value(obj["kind"], str, "funpair kind"),
            p=_json_value(obj.get("p", 0.0), float, "funpair p"),
            rho=_json_value(obj.get("rho", 1.0), float, "funpair rho"),
        )


@dataclass(frozen=True)
class Certificate:
    """Outcome of one inequality check: both sides, witness, signed slack."""

    check_id: str
    lhs: np.ndarray
    rhs: np.ndarray
    witness_v: Optional[np.ndarray]
    slack: float
    passed: bool
    used_singular_mean_limit: bool
    tolerances: Tolerance
    notes: str
    inputs: dict

    def to_json(self) -> dict:
        return {
            "check_id": self.check_id,
            "pass": bool(self.passed),
            "slack": float(self.slack),
            "witness_V": matrix_to_json(self.witness_v) if self.witness_v is not None else None,
            "used_singular_mean_limit": bool(self.used_singular_mean_limit),
            "inputs": self.inputs,
            "inputs_digest": hashlib.sha256(json.dumps(self.inputs, sort_keys=True).encode()).hexdigest(),
            "tolerances": tolerance_to_json(self.tolerances),
            "notes": self.notes,
        }


def _certificate(
    check_id: str,
    inputs: dict,
    lhs: np.ndarray,
    rhs: np.ndarray,
    witness_v: Optional[np.ndarray],
    tol: Optional[Tolerance],
    used_limit: bool = False,
    notes: str = "",
    extra_ok: bool = True,
) -> Certificate:
    dec = _loewner_leq(lhs, rhs, tol)
    t = _tol(tol, lhs.shape[0])
    return Certificate(
        check_id=check_id,
        lhs=lhs,
        rhs=rhs,
        witness_v=witness_v,
        slack=dec.slack,
        passed=bool(dec.holds and extra_ok),
        used_singular_mean_limit=used_limit,
        tolerances=t,
        notes=notes,
        inputs=inputs,
    )


def _polar_witness_and_modulus(parts: SvdParts) -> Tuple[np.ndarray, np.ndarray]:
    """(V, |W|) from the SVD of W, with V the adjoint polar unitary, so V W = |W|."""
    return parts.unitary.conj().T, parts.modulus()


def moduli_images(z, fp: FunPair, tol: Optional[Tolerance] = None) -> Tuple[np.ndarray, np.ndarray]:
    """(f(|Z|), g(|Z*|)) from a single SVD of Z."""
    return moduli_from_svd(svd_square(z, tol), fp)


def moduli_from_svd(parts: SvdParts, fp: FunPair) -> Tuple[np.ndarray, np.ndarray]:
    """(f(|Z|), g(|Z*|)) from the SVD of Z: both moduli share singular values,
    so f and g act entrywise on them in the right and left bases."""
    return parts.modulus(fp.f_sigma(parts.values)), parts.comodulus(fp.g_sigma(parts.values))


def _moduli_radius(parts: SvdParts) -> float:
    """rho(|Z*| |Z|^-1) = lambda_max(|Z|^-1/2 |Z*| |Z|^-1/2) from the SVD of an invertible Z."""
    inv_half = (parts.right * parts.values**-0.5) @ parts.right.conj().T
    return _spectral_radius_psd_product(parts.comodulus(), inv_half)


def domination_holds(z, j, fp: FunPair, tol: Optional[Tolerance] = None) -> bool:
    """f(|Z|) <= J and g(|Z*|) <= J, both in the Loewner order."""
    return _images_dominated(require_hermitian(j, tol), *moduli_images(z, fp, tol), tol)


def _dominated_inputs(phi: PosMap, z, j, fp: FunPair, tol, z_parts) -> Tuple[np.ndarray, np.ndarray, SvdParts]:
    """Z and J as complex arrays and the SVD of phi(Z) for a check's private
    core ``_check_*``, once Z and J are validated as :func:`domination_holds`
    validates them and f(|Z|) <= J and g(|Z*|) <= J hold; HypothesisViolated
    otherwise. ``z_parts``, if not None, is Z's SVD at the rank cutoff of
    ``tol``. An IdentityMap image is a copy of Z, bit for bit, and shares
    Z's SVD; it is formed all the same, to check Z's shape and its entries."""
    jm = require_hermitian(j, tol)
    zm = require_square(z)
    parts = z_parts if z_parts is not None else _svd(zm, tol)
    if not _images_dominated(jm, *moduli_from_svd(parts, fp), tol):
        raise HypothesisViolated("f(|Z|) <= J and g(|Z*|) <= J required")
    image = _apply(phi, zm)
    return zm, np.asarray(j, dtype=complex), parts if isinstance(phi, IdentityMap) else _svd(image, tol)


def _images_dominated(jm, f_mod, g_comod, tol: Optional[Tolerance]) -> bool:
    """f_mod <= J and g_comod <= J for a Hermitian J, both in the Loewner
    order of :func:`loewner_leq`, which decides what the screen leaves open;
    DimensionMismatch for images of another shape than J's."""
    if f_mod.shape != jm.shape:
        raise DimensionMismatch(f"shapes {f_mod.shape} and {jm.shape} differ")
    if jm.size == 0:
        return True
    # loewner_leq holds at slack >= -abs (1 + ||J||). A screen pass leaves
    # slack >= -0.75 abs (1 + max|J_ij|), and ||J|| >= max|J_ij|
    margin = 0.5 * _tol(tol, jm.shape[0]).abs * (1.0 + float(np.abs(jm).max()))
    return all(_clears(jm - image, margin) or _loewner_leq(image, jm, tol).holds for image in (f_mod, g_comod))


def _std_inputs(phi: PosMap, z, j=None, fp: Optional[FunPair] = None, **extra) -> dict:
    inputs = {"phi": map_to_json(phi), "Z": matrix_to_json(np.asarray(z, dtype=complex))}
    if j is not None:
        inputs["J"] = matrix_to_json(np.asarray(j, dtype=complex))
    if fp is not None:
        inputs["funpair"] = fp.to_json()
    inputs.update(extra)
    return inputs


def check_russo_dye(phi: PosMap, a, tol: Optional[Tolerance] = None) -> Certificate:
    """Norm attained at the identity: ||phi(A)|| <= ||phi(I)|| for contractions."""
    am = as_matrix(a)
    image = _apply(phi, am)  # checks A's shape before its norm
    t = _tol(tol, am.shape[0])
    norm_a = _operator_norm(am)
    if norm_a > 1.0 + t.abs:
        raise NotContraction(f"operator norm {norm_a:.6g} exceeds 1")
    # an IdentityMap image is a copy of A, bit for bit, and so has A's norm
    lhs = np.array([[norm_a if isinstance(phi, IdentityMap) else _operator_norm(image)]], dtype=complex)
    rhs = np.array([[_operator_norm(_apply(phi, np.eye(phi.in_dim, dtype=complex)))]], dtype=complex)
    inputs = {"phi": map_to_json(phi), "A": matrix_to_json(am)}
    return _certificate("check_russo_dye", inputs, lhs, rhs, None, tol)


def check_arithmetic_domination(
    phi: PosMap, z, j, fp: FunPair, tol: Optional[Tolerance] = None
) -> Certificate:
    """|phi(Z)| against the arithmetic mean of phi(J) and its witness conjugate."""
    return _check_arithmetic_domination(phi, z, j, fp, tol, None)


def _check_arithmetic_domination(phi, z, j, fp, tol, z_parts) -> Certificate:
    zm, jm, w_parts = _dominated_inputs(phi, z, j, fp, tol, z_parts)
    v, lhs = _polar_witness_and_modulus(w_parts)
    phj = hermitian_part(_apply(phi, jm))
    rhs = hermitian_part(0.5 * (phj + v @ phj @ v.conj().T))
    inputs = _std_inputs(phi, zm, jm, fp)
    return _certificate(
        "check_arithmetic_domination", inputs, lhs, rhs, v, tol, notes=fp.describe()
    )


def check_geometric_domination(
    phi: PosMap, z, j, fp: FunPair, tol: Optional[Tolerance] = None
) -> Certificate:
    """|phi(Z)| against phi(J) # V phi(J) V*, the geometric sharpening.

    Also asserts the sharpening itself: the geometric right-hand side must not
    exceed the arithmetic one.
    """
    return _check_geometric_domination(phi, z, j, fp, tol, None)


def _check_geometric_domination(phi, z, j, fp, tol, z_parts) -> Certificate:
    zm, jm, w_parts = _dominated_inputs(phi, z, j, fp, tol, z_parts)
    v, lhs = _polar_witness_and_modulus(w_parts)
    phj = hermitian_part(_apply(phi, jm))
    conj = hermitian_part(v @ phj @ v.conj().T)
    rhs, used_limit = _geometric_mean(phj, conj, tol)
    arith = 0.5 * (phj + conj)
    agm = _loewner_leq(rhs, arith, tol)
    notes = f"{fp.describe()}; agm_slack={agm.slack:.3e}"
    inputs = _std_inputs(phi, zm, jm, fp)
    return _certificate(
        "check_geometric_domination",
        inputs,
        lhs,
        rhs,
        v,
        tol,
        used_limit=used_limit,
        notes=notes,
        extra_ok=agm.holds,
    )


def check_two_positive_split(
    phi: PosMap, z, p: float, tol: Optional[Tolerance] = None
) -> Certificate:
    """|phi(Z)| against phi(|Z|^(1+p)) # V phi(|Z*|^(1-p)) V* for 2-positive maps.

    Powers outside [0, inf) on singular moduli are generalized inverses; the
    zeroth power is the support (resp. range) projection.
    """
    if phi.declared_class not in (TWO_POSITIVE, COMPLETELY_POSITIVE):
        raise ClassViolation(
            f"map declared {phi.declared_class!r}; the split bound needs 2-positivity"
        )
    zm = as_matrix(z)
    w_parts = _svd(_apply(phi, zm), tol)
    v, lhs = _polar_witness_and_modulus(w_parts)
    # an IdentityMap image is a copy of Z, bit for bit, and so has Z's SVD
    z_parts = w_parts if isinstance(phi, IdentityMap) else _svd(zm, tol)
    f_mod, g_comod = moduli_from_svd(z_parts, FunPair.power(p))
    left = hermitian_part(_apply(phi, f_mod))
    right = hermitian_part(v @ _apply(phi, g_comod) @ v.conj().T)
    rhs, used_limit = _geometric_mean(left, right, tol)
    inputs = _std_inputs(phi, zm, p=p)
    return _certificate(
        "check_two_positive_split",
        inputs,
        lhs,
        rhs,
        v,
        tol,
        used_limit=used_limit,
        notes=f"split exponents 1+p={1 + p:g}, 1-p={1 - p:g}",
    )


def check_log_majorization(
    phi: PosMap, z, j, fp: FunPair, tol: Optional[Tolerance] = None
) -> MajorizationReport:
    """|phi(Z)| weakly log-majorized by phi(J) under the domination hypothesis."""
    return _check_log_majorization(phi, z, j, fp, tol, None)


def _check_log_majorization(phi, z, j, fp, tol, z_parts) -> MajorizationReport:
    zm, jm, w_parts = _dominated_inputs(phi, z, j, fp, tol, z_parts)
    rhs_vals = _clamped_spectrum(hermitian_part(_apply(phi, jm)), tol)
    return _weak_log_majorizes(w_parts.values, rhs_vals, tol)


@dataclass(frozen=True)
class GapReport:
    """Grid of sub-top eigenvalue bounds lambda_{j+k+1} <= sqrt(lambda_{j+1} lambda_{k+1})."""

    passed: bool
    checked: int
    worst_margin: float
    notes: str = ""

    @property
    def slack(self) -> float:
        return self.worst_margin

    def to_json(self) -> dict:
        return {
            "pass": bool(self.passed),
            "checked": self.checked,
            "worst_margin": float(self.worst_margin),
            "notes": self.notes,
        }


def check_eigenvalue_gaps(
    phi: PosMap, z, j, fp: FunPair, tol: Optional[Tolerance] = None
) -> GapReport:
    """Eigenvalue gap grid for |phi(Z)| against phi(J), all index pairs.

    For a Schur multiplier S and a scalar weight J = lam I, phi(J) = lam diag(S)
    is diagonal, and the Jacobi kernel returns a diagonal matrix's entries
    without a rotation: the grid is then the Schur specialization, against lam
    times the sorted diagonal of S. For every Schur multiplier the two
    diagonal-entry bounds for the expansive factor against its inverse and the
    contractive factor against itself are folded in.
    """
    return _check_eigenvalue_gaps(phi, z, j, fp, tol, None)


def _check_eigenvalue_gaps(phi, z, j, fp, tol, z_parts) -> GapReport:
    zm, jm, w_parts = _dominated_inputs(phi, z, j, fp, tol, z_parts)
    t = _tol(tol, phi.out_dim)
    lhs_vals = w_parts.values
    # clamped at 0 but not cut at the rank rule: each bound is sqrt(lam_j lam_k),
    # so a kept lam_k below rank_cutoff * lam_0 still bounds by up to sqrt(rank_cutoff) * lam_0
    rhs_vals = np.maximum(_eig(hermitian_part(_apply(phi, jm)), vectors=False)[0], 0.0)
    m = lhs_vals.size
    scale = float(rhs_vals[0]) if m else 0.0
    slackstep = t.abs * (1.0 + scale)
    checked = 0
    worst = math.inf
    passed = True
    notes = ""
    if isinstance(phi, SchurMultiplier):
        remarks = _schur_remarks(phi.factor, tol)
        checked = 2
        passed = remarks.passed
        worst = min(worst, remarks.worst_margin_expansive, remarks.worst_margin_contractive)
        notes = "schur factor variants included"
    for jj in range(m):
        for kk in range(m - jj):
            bound = math.sqrt(max(rhs_vals[jj] * rhs_vals[kk], 0.0))
            margin = bound - lhs_vals[jj + kk]
            worst = min(worst, margin)
            checked += 1
            if margin < -slackstep:
                passed = False
    return GapReport(passed=passed, checked=checked, worst_margin=worst, notes=notes)


@dataclass(frozen=True)
class ReverseProductReport:
    """Squared ascending prefix products against mixed ascending/descending ones."""

    passed: bool
    products_lhs_squared: np.ndarray
    products_mixed: np.ndarray
    worst_ratio: float

    @property
    def slack(self) -> float:
        return 1.0 - self.worst_ratio

    def to_json(self) -> dict:
        return {
            "pass": bool(self.passed),
            "products_lhs_squared": [float(x) for x in self.products_lhs_squared],
            "products_mixed": [float(x) for x in self.products_mixed],
            "worst_ratio": float(self.worst_ratio),
        }


def check_reverse_product(
    phi: PosMap, z, j, fp: FunPair, tol: Optional[Tolerance] = None
) -> ReverseProductReport:
    """Products of the k smallest eigenvalues of |phi(Z)|, squared, bounded by
    the mixed smallest-times-largest products of phi(J)."""
    return _check_reverse_product(phi, z, j, fp, tol, None)


def _check_reverse_product(phi, z, j, fp, tol, z_parts) -> ReverseProductReport:
    zm, jm, w_parts = _dominated_inputs(phi, z, j, fp, tol, z_parts)
    t = _tol(tol, phi.out_dim)
    lhs_vals = w_parts.values
    rhs_vals = _clamped_spectrum(hermitian_part(_apply(phi, jm)), tol)
    lhs_sq = np.cumprod(lhs_vals[::-1]) ** 2
    mixed = np.cumprod(rhs_vals[::-1] * rhs_vals)
    passed, worst = _prefix_ratios(lhs_sq, mixed, t.rel * lhs_sq.size)
    return ReverseProductReport(
        passed=passed,
        products_lhs_squared=lhs_sq,
        products_mixed=mixed,
        worst_ratio=worst,
    )


@dataclass(frozen=True)
class CartesianReport:
    """Joint report for the Cartesian-decomposition consequences."""

    passed: bool
    mean_certificate: Certificate
    majorization: MajorizationReport
    norm_value: float
    rho_value: float
    singular_cartesian_sum: bool

    @property
    def slack(self) -> float:
        return self.mean_certificate.slack

    def to_json(self) -> dict:
        return {
            "pass": bool(self.passed),
            "mean_certificate": self.mean_certificate.to_json(),
            "majorization": self.majorization.to_json(),
            "norm_value": float(self.norm_value),
            "rho_value": float(self.rho_value),
            "singular_cartesian_sum": bool(self.singular_cartesian_sum),
        }


def check_cartesian_suite(phi: PosMap, z, tol: Optional[Tolerance] = None) -> CartesianReport:
    """All four Cartesian-sum statements for K = |X| + |Y|.

    The geometric-mean certificate and the log-majorization involve phi; the
    norm bound ||K^-1/2 Z K^-1/2|| <= 1 and the spectral-radius bound
    rho(Z K^-1) <= 1 are map-independent. A kernel in K (always inside the
    kernel of Z) is flagged and handled by generalized inverses.
    """
    zm = require_square(z)  # _cartesian_sum raises for a part that overflows
    t = _tol(tol, zm.shape[0])
    k_sum = _cartesian_sum(zm[None], tol)[0]
    lmax = float(k_sum.values[0]) if k_sum.values.size else 0.0
    singular = not t.support(np.maximum(k_sum.values, 0.0)).all()

    w_parts = _svd(_apply(phi, zm), tol)
    v, lhs = _polar_witness_and_modulus(w_parts)
    phk = hermitian_part(_apply(phi, k_sum.matrix))
    # one eigensystem of phi(K) serves the mean and the majorization: K's, for an IdentityMap
    es_phk = EigenSystem(k_sum.values, k_sum.vectors) if isinstance(phi, IdentityMap) else EigenSystem(*_eig(phk))
    conj = hermitian_part(v @ phk @ v.conj().T)
    rhs, used_limit = _geometric_mean_es(es_phk, conj, tol)
    inputs = _std_inputs(phi, zm, k_sum.matrix)
    cert = _certificate(
        "check_cartesian_suite", inputs, lhs, rhs, v, tol, used_limit=used_limit,
        notes="J = |X| + |Y| from the Cartesian decomposition",
    )
    major = _weak_log_majorizes(w_parts.values, _clamped(es_phk.values, tol), tol)

    bound = 1.0 + t.abs * (1.0 + lmax) + 1e-6
    passed = bool(cert.passed and major.passed and k_sum.congruence_norm <= bound and k_sum.rho <= bound)
    return CartesianReport(
        passed=passed,
        mean_certificate=cert,
        majorization=major,
        norm_value=k_sum.congruence_norm,
        rho_value=k_sum.rho,
        singular_cartesian_sum=singular,
    )


class _CartesianSum(NamedTuple):
    """K = |X| + |Y| for Z = X + iY, K's eigensystem, K^-1/2, K^-1, and the
    two bounds that hold for every Z: ||K^-1/2 Z K^-1/2|| and rho(Z K^-1)."""

    matrix: np.ndarray
    values: np.ndarray
    vectors: np.ndarray
    inv_half: np.ndarray
    inv: np.ndarray
    congruence_norm: float
    rho: float


def _cartesian_sum(zs: np.ndarray, tol: Optional[Tolerance]) -> List[_CartesianSum]:
    """The :class:`_CartesianSum` of each Z of the stack ``zs`` (k, n, n).

    The products and the elementwise arithmetic run on the whole stack, and
    act on each matrix by the IEEE operations, in the order, that they
    apply to it alone. The eigendecompositions go through :func:`_eig_stack`,
    which gives every matrix the bits of its own :func:`_eig`: one call on
    the 2k stack [X; Y] of the Cartesian parts, then one on K. A stack of
    one decomposes its X and Y in two calls instead, so that each runs the
    scalar kernel, which costs a fraction of a stack of two. The congruence
    norms come from :func:`_operator_norms`, whose Hermitian test, Gram
    products and values-only spectra are stacked too, and the spectral
    radii are one LAPACK call per matrix. So each record has the bits of a
    stack of one, and a stack of one runs the per-matrix norm. A Cartesian
    part that overflows raises :func:`_eig`'s ValueError.
    """
    parts = _cartesian(zs)
    if len(zs) == 1:
        k = _hermitian_modulus(parts.re_part) + _hermitian_modulus(parts.im_part)
    else:
        moduli = _hermitian_modulus(np.concatenate((parts.re_part, parts.im_part)))
        k = moduli[: len(zs)] + moduli[len(zs) :]
    es = EigenSystem(*_eig_stack(k))  # K's one spectrum: the singular flag and both generalized powers
    inv_half = es.power(-0.5, tol)
    inv = es.power(-1.0, tol)
    norms = _operator_norms(inv_half @ zs @ inv_half)
    return list(map(_CartesianSum, k, es.values, es.vectors, inv_half, inv, norms, _spectral_radius(zs @ inv)))


def _hermitian_modulus(hs: np.ndarray) -> np.ndarray:
    """|H| = V |Lambda| V* for each exactly Hermitian H = V Lambda V* of the
    stack ``hs``, from one eigendecomposition of it."""
    values, vectors = _eig_stack(hs)
    return hermitian_part((vectors * np.abs(values)[..., None, :]) @ vectors.conj().swapaxes(-1, -2))


@dataclass(frozen=True)
class SchurRemarkReport:
    """Diagonal bounds for S o S^-1 (S expansive) and S o S (S contractive)."""

    passed: bool
    worst_margin_expansive: float
    worst_margin_contractive: float


def check_schur_remarks(s, tol: Optional[Tolerance] = None) -> SchurRemarkReport:
    """lambda_{2j+1}(S o S^-1) <= s_{j+1} for expansive S, and the same with
    S o S for contractive S, built from one PSD sample."""
    return _schur_remarks(require_hermitian(s, tol), tol)


def _schur_remarks(s, tol: Optional[Tolerance]) -> SchurRemarkReport:
    """:func:`check_schur_remarks` of an exactly Hermitian ``s``."""
    n = s.shape[0]
    t = _tol(tol, n)
    expansive = s + np.eye(n)
    inv = EigenSystem(*_eig(expansive)).power(-1.0, tol)
    prod = expansive * inv
    vals = _clamped_spectrum(prod, tol)
    diag_sorted = np.sort(np.real(np.diagonal(expansive)))[::-1]
    half = range((n + 1) // 2)  # the indices j with 2j + 1 <= n
    worst_e = min((diag_sorted[jj] - vals[2 * jj] for jj in half), default=math.inf)

    top = _operator_norm(s)
    contractive = s / (top * (1.0 + 1e-12)) if top > 0 else s
    prod_c = contractive * contractive
    vals_c = _clamped_spectrum(prod_c, tol)
    diag_c = np.sort(np.real(np.diagonal(contractive)))[::-1]
    worst_c = min((diag_c[jj] - vals_c[2 * jj] for jj in half), default=math.inf)
    slack = t.abs * (1.0 + (float(diag_sorted[0]) if n else 0.0))
    return SchurRemarkReport(
        passed=bool(worst_e >= -slack and worst_c >= -slack),
        worst_margin_expansive=worst_e,
        worst_margin_contractive=worst_c,
    )


@dataclass(frozen=True)
class Example28Report:
    """Determinant gap for the transpose-augmented map on the 2x2 shift."""

    passed: bool
    det_lhs: float
    det_rhs_min: float
    det_rhs_max: float
    pairs: int

    def to_json(self) -> dict:
        return {
            "name": "example-2.8",
            "pass": self.passed,
            "det_lhs": self.det_lhs,
            "det_rhs_min": self.det_rhs_min,
            "det_rhs_max": self.det_rhs_max,
            "pairs": self.pairs,
        }


_EXAMPLE_2_8_PAIRS = 100
_EXAMPLE_2_8_SEED = 2026


def reproduce_counterexample_2_8() -> Example28Report:
    """det |phi(Z)| = 25 > 16 = det of the mixed geometric mean, for each of
    100 random unitary conjugation pairs, with phi(X) = X + X^T and Z the
    (4,1)-shift."""
    from .ensembles import generate_with_rng
    from .posmap import MapSum, TransposeMap

    rng = np.random.default_rng(_EXAMPLE_2_8_SEED)
    z = np.array([[0.0, 4.0], [1.0, 0.0]], dtype=complex)
    phi = MapSum(terms=(IdentityMap(2), TransposeMap(2)))
    det_lhs = float(np.prod(_svd(_apply(phi, z), None).values))
    parts = _svd(z, None)
    phi_mod = hermitian_part(_apply(phi, parts.modulus()))
    phi_comod = hermitian_part(_apply(phi, parts.comodulus()))
    det_rhss = []
    ok = abs(det_lhs - 25.0) <= 1e-9 * 25.0
    for _ in range(_EXAMPLE_2_8_PAIRS):
        u = generate_with_rng("haar_unitary", 2, rng)
        v = generate_with_rng("haar_unitary", 2, rng)
        mean, _ = _geometric_mean(
            hermitian_part(u @ phi_mod @ u.conj().T),
            hermitian_part(v @ phi_comod @ v.conj().T),
            None,
        )
        det_rhs = float(np.prod(_eig(mean, vectors=False)[0]))
        det_rhss.append(det_rhs)
        if abs(det_rhs - 16.0) > 1e-9 * 16.0:
            ok = False
    det_min, det_max = float(min(det_rhss)), float(max(det_rhss))
    return Example28Report(passed=bool(ok and det_lhs > det_max), det_lhs=det_lhs, det_rhs_min=det_min,
                           det_rhs_max=det_max, pairs=_EXAMPLE_2_8_PAIRS)


@dataclass(frozen=True)
class SharpnessReport:
    """Sharpness probe for the scaled bound on the 2x2 weighted shift."""

    passed: bool
    k: float
    rho: float
    bracket_lhs: float
    required_constant: float
    scaled_certificate: Certificate

    def to_json(self) -> dict:
        return {
            "name": "sharpness",
            "pass": self.passed,
            "k": self.k,
            "rho": self.rho,
            "bracket_lhs": self.bracket_lhs,
            "required_constant": self.required_constant,
            "certificate": self.scaled_certificate.to_json(),
        }


def reproduce_sharpness_cor2_5(k: float) -> SharpnessReport:
    """With Z = [[0, 1], [k, 0]] and the transpose map: rho = k, the e2 bracket
    of |Z^T| equals k, the minimal admissible constant is at least sqrt(k), and
    the sqrt(rho)-prefactored bound itself passes.

    The weight k must be finite and at least 1: for 0 < k < 1 the radius
    rho(|Z*| |Z|^-1) is 1/k, not k, and the example shows no sharpness.
    """
    from .posmap import TransposeMap

    if not (k >= 1 and math.isfinite(k)):
        raise ValueError(f"k must be a finite number >= 1, got {k:g}")
    z = np.array([[0.0, 1.0], [float(k), 0.0]], dtype=complex)
    phi = TransposeMap(2)
    parts = _svd(z, None)
    rho = _moduli_radius(parts)

    v, lhs = _polar_witness_and_modulus(_svd(_apply(phi, z), None))
    e2 = np.zeros(2)
    e2[1] = 1.0
    bracket_lhs = float(np.real(e2 @ lhs @ e2))

    phi_mod = hermitian_part(_apply(phi, parts.modulus()))
    mean, used_limit = _geometric_mean(phi_mod, hermitian_part(v @ phi_mod @ v.conj().T), None)
    bracket_rhs = float(np.real(e2 @ mean @ e2))
    required_c = bracket_lhs / bracket_rhs if bracket_rhs > 0 else math.inf

    rhs_scaled = math.sqrt(rho) * mean
    inputs = _std_inputs(phi, z, k=float(k))
    cert = _certificate(
        "reproduce_sharpness_cor2_5",
        inputs,
        lhs,
        rhs_scaled,
        v,
        None,
        used_limit=used_limit,
        notes=f"rho={rho:.12g}, required_c={required_c:.12g}",
    )
    ok = (
        abs(rho - k) <= 1e-10 * max(1.0, k)
        and abs(bracket_lhs - k) <= 1e-9 * max(1.0, k)
        and required_c >= math.sqrt(k) * (1.0 - 1e-6)
        and cert.passed
    )
    return SharpnessReport(
        passed=bool(ok),
        k=float(k),
        rho=rho,
        bracket_lhs=bracket_lhs,
        required_constant=required_c,
        scaled_certificate=cert,
    )


@dataclass(frozen=True)
class CexWitness:
    trial_index: int
    matrix: np.ndarray
    margin: float

    def to_json(self) -> dict:
        return {"trial": self.trial_index, "margin": self.margin, "Z": matrix_to_json(self.matrix)}


@dataclass(frozen=True)
class CexSearchReport:
    """Witnesses that the Cartesian-sum bounds fail in the operator norm,
    while the spectral-radius and congruence-norm bounds never do. The
    search returns a report only when it holds all three witnesses, so it
    passes when those two bounds held on every sample."""

    trials: int
    seed: int
    dim: int
    loewner_witness: Optional[CexWitness]
    half_power_witness: Optional[CexWitness]
    plain_norm_witness: Optional[CexWitness]
    consistency_ok: bool
    worst_rho: float
    worst_congruence_norm: float

    @property
    def witnesses(self) -> dict:
        """Target name -> its witness, None where the search found none."""
        return {
            "loewner": self.loewner_witness,
            "half_power": self.half_power_witness,
            "plain_norm": self.plain_norm_witness,
        }

    @property
    def all_found(self) -> bool:
        return all(w is not None for w in self.witnesses.values())

    @property
    def passed(self) -> bool:
        return self.consistency_ok

    def to_json(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "dim": self.dim,
            "pass": self.passed,
            "witnesses": {name: w.to_json() for name, w in self.witnesses.items()},
            "worst_rho": self.worst_rho,
            "worst_congruence_norm": self.worst_congruence_norm,
        }


# the search runs at least this many trials (all, if it has fewer), so
# worst_rho and worst_congruence_norm always cover that many samples
_MIN_TRIALS = 100


def _ginibre_stack(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """``count`` Ginibre draws (X + iY) / sqrt(2), in the order of one
    standard_normal((dim, dim)) call for X and one for Y per trial."""
    g = rng.standard_normal((count, 2, dim, dim))
    return (g[:, 0] + 1j * g[:, 1]) / math.sqrt(2)


def _cartesian_trials(rng: np.random.Generator, trials: int, dim: int):
    """(Z, its :class:`_CartesianSum`) per trial, in trial order, drawn and
    formed in blocks of the falsifier's ``_BLOCK``, one :func:`_cartesian_sum`
    call each; a block is drawn when the walk reaches it."""
    for start in range(0, trials, _BLOCK):
        zs = _ginibre_stack(rng, min(_BLOCK, trials - start), dim)
        try:
            sums = _cartesian_sum(zs, None)
        except (ValueError, OpcheckError):
            # one K at a time, so the first trial that fails raises after the targets of those before it
            sums = (_cartesian_sum(zm[None], None)[0] for zm in zs)
        yield from zip(zs, sums)


def find_counterexamples_remarks(trials: int, seed: int, dim: int = 2) -> CexSearchReport:
    """Random search for the three expected failures on K = |X| + |Y|:
    |Z| <= K in the Loewner order, contractivity of |Z|^1/2 K^-1/2, and
    contractivity of Z K^-1. Every sample is simultaneously validated against
    the two statements that do hold (congruence norm and spectral radius).
    Raises SearchExhausted when a target is not found within the trials.

    It runs at least ``_MIN_TRIALS`` trials (all, if it has fewer). The
    trials are walked in blocks (:func:`_cartesian_trials`), each block's K
    evaluation stacked; a stack gives every trial the bits and the sweep
    runs it has alone, so the report does not depend on the block size.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if dim < 2:
        # |z| <= |x| + |y| for every complex number z = x + iy
        raise ValueError(
            f"dim must be >= 2, got {dim}: for 1 x 1 matrices all three bounds hold, so no target exists"
        )
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    found_a: Optional[CexWitness] = None
    found_b: Optional[CexWitness] = None
    found_c: Optional[CexWitness] = None
    consistency_ok = True
    worst_rho = 0.0
    worst_norm = 0.0
    margin = 1e-6
    for trial, (zm, k_sum) in enumerate(_cartesian_trials(rng, trials, dim)):
        # |Z| serves targets a and b only
        parts = _svd(zm, None) if found_a is None or found_b is None else None
        if found_a is None:
            dec = _loewner_leq(parts.modulus(), k_sum.matrix, None)
            if dec.slack < -margin:
                found_a = CexWitness(trial_index=trial, matrix=zm, margin=-dec.slack)
        if found_b is None:
            half_norm = _operator_norm(parts.modulus(np.sqrt(parts.values)) @ k_sum.inv_half)
            if half_norm > 1.0 + margin:
                found_b = CexWitness(trial_index=trial, matrix=zm, margin=half_norm - 1.0)
        if found_c is None:
            plain_norm = _operator_norm(zm @ k_sum.inv)
            if plain_norm > 1.0 + margin:
                found_c = CexWitness(trial_index=trial, matrix=zm, margin=plain_norm - 1.0)
        worst_rho = max(worst_rho, k_sum.rho)
        worst_norm = max(worst_norm, k_sum.congruence_norm)
        if k_sum.congruence_norm > 1.0 + margin or k_sum.rho > 1.0 + margin:
            consistency_ok = False
        if found_a is not None and found_b is not None and found_c is not None and trial >= _MIN_TRIALS - 1:
            break
    report = CexSearchReport(
        trials=trials,
        seed=seed,
        dim=dim,
        loewner_witness=found_a,
        half_power_witness=found_b,
        plain_norm_witness=found_c,
        consistency_ok=consistency_ok,
        worst_rho=worst_rho,
        worst_congruence_norm=worst_norm,
    )
    if not report.all_found:
        missing = [name for name, w in report.witnesses.items() if w is None]
        raise SearchExhausted(f"targets not found within {trials} trials: {', '.join(missing)}")
    return report
