"""Positive linear maps as composable family descriptions.

Positivity class is metadata fixed by construction, never decided
algorithmically: each family carries the strongest class its algebra
guarantees (transposition is positive but not 2-positive; sums and
compositions inherit the weakest class among their parts). The sampling
falsifier exists to refute a misdeclared class, not to certify one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import ClassVar, Optional, Sequence, Tuple, get_args, get_origin, get_type_hints

import numpy as np

from .errors import DimensionMismatch, NotPositiveSemidefinite
from .io import _json_object, _json_value, matrix_from_json, matrix_to_json
from .linalg import _clears, _clears_stack, _eig, as_matrix, hermitian_part, require_hermitian

__all__ = [
    "POSITIVE",
    "TWO_POSITIVE",
    "COMPLETELY_POSITIVE",
    "PosMap",
    "KrausSum",
    "SchurMultiplier",
    "TransposeMap",
    "PartialTrace2x2",
    "Congruence",
    "MapSum",
    "MapCompose",
    "IdentityMap",
    "apply",
    "FalsifierWitness",
    "sample_positivity_falsifier",
    "map_to_json",
    "map_from_json",
]

POSITIVE = "positive"
TWO_POSITIVE = "two_positive"
COMPLETELY_POSITIVE = "completely_positive"

_CLASS_RANK = {POSITIVE: 1, TWO_POSITIVE: 2, COMPLETELY_POSITIVE: 3}


def weakest_class(classes: Sequence[str]) -> str:
    return min(classes, key=lambda c: _CLASS_RANK[c])


class PosMap:
    """Base for positive linear map descriptions. Immutable after construction.

    Each family is a frozen dataclass whose fields are its constructor
    parameters and its JSON ``params``; ``family`` names it in that JSON.
    """

    family: ClassVar[str]
    declared_class: ClassVar[str] = COMPLETELY_POSITIVE
    dims: Tuple[int, int]  # (in_dim, out_dim), derived from the fields

    @property
    def in_dim(self) -> int:
        return self.dims[0]

    @property
    def out_dim(self) -> int:
        return self.dims[1]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The map on the last two axes: ``x`` of shape (..., in_dim, in_dim)
        goes to (..., out_dim, out_dim), each matrix of a stack to the bits it
        has alone. Most families get there by the same IEEE operations, in
        the same order, as the lone matrix; a Kraus sum batches its BLAS
        products, so for it the bits hold on the BLAS kernels the tests pin
        them on, not by construction. Validates nothing; :func:`apply` is the
        checked entry point."""
        raise NotImplementedError

    def __call__(self, x) -> np.ndarray:
        return apply(self, x)


def _require_positive(size: int, what: str) -> None:
    if size < 1:
        raise ValueError(f"{what} must be >= 1, got {size}")


def apply(phi: PosMap, x) -> np.ndarray:
    """Evaluate the map on a matrix of its input dimension.

    Raises ValueError, without a warning, when the output overflows.
    """
    return _apply(phi, as_matrix(x))


def _apply(phi: PosMap, xm: np.ndarray) -> np.ndarray:
    """:func:`apply` on a finite 2-d complex array; its shape is still checked."""
    if xm.shape != (phi.in_dim, phi.in_dim):
        raise DimensionMismatch(
            f"map expects {phi.in_dim}x{phi.in_dim} input, got {xm.shape}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        out = phi.apply(xm)
    if not np.isfinite(out).all():
        raise ValueError("map output overflows")
    return out


@dataclass(frozen=True)
class KrausSum(PosMap):
    """X -> sum_i K_i X K_i*; completely positive by construction."""

    kraus: Tuple[np.ndarray, ...]
    family: ClassVar[str] = "kraus_sum"

    def __post_init__(self):
        ops = tuple(as_matrix(k) for k in self.kraus)
        if not ops:
            raise ValueError("KrausSum needs at least one operator")
        rows, cols = ops[0].shape
        for k in ops:
            if k.shape != (rows, cols):
                raise DimensionMismatch("Kraus operators must share one shape")
        object.__setattr__(self, "kraus", ops)
        # not fields, so JSON, == and repr see the operators only: the stack
        # S = [K_1; ...; K_r] and each K_i* as the transposed view it always was
        object.__setattr__(self, "_stacked", np.concatenate(ops))
        object.__setattr__(self, "_adjoints", tuple(k.conj().T for k in ops))

    @property
    def dims(self) -> Tuple[int, int]:
        return self.kraus[0].shape[1], self.kraus[0].shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """sum_i (K_i x) K_i*, added onto zeros in operator order. A stack of
        B matrices takes B + r BLAS calls, not 2 r B: S x = [K_1 x; ...; K_r x]
        for each matrix, then per operator one product over the whole stack,
        [K_i x_1; ...; K_i x_B] K_i*. A lone matrix and a 1-row operator take
        two products per operator and matrix, as before stacking."""
        rows, cols = self.kraus[0].shape
        lead = x.shape[:-2]
        if not lead or rows == 1:
            # a lone matrix costs no more so, and keeps its bits on every BLAS
            # kernel; numpy makes a product with a 1-row operator a gemv or dot
            # call, not zgemm, which batched gives other bits than each alone
            out = np.zeros(lead + (rows, rows), dtype=complex)
            for k, adjoint in zip(self.kraus, self._adjoints):
                out += k @ x @ adjoint
            return out
        count, r = math.prod(lead), len(self.kraus)
        ys = (self._stacked @ x).reshape(count, r, rows, cols).swapaxes(0, 1).reshape(r, count * rows, cols)
        out = np.zeros((count * rows, rows), dtype=complex)
        for y, adjoint in zip(ys, self._adjoints):
            out += y @ adjoint
        return out.reshape(lead + (rows, rows))


@dataclass(frozen=True)
class SchurMultiplier(PosMap):
    """T -> S o T entrywise with S PSD; completely positive."""

    factor: np.ndarray
    family: ClassVar[str] = "schur_multiplier"

    def __post_init__(self):
        s = require_hermitian(self.factor)
        top = float(np.abs(s).max()) if s.size else 0.0
        # a pass leaves lambda_min >= -0.75e-9 (1 + max|s_ij|), and then
        # lambda_max >= max|s_ij| - 0.75e-9 (1 + max|s_ij|): the test below holds
        if not _clears(s, 0.5e-9 * (1.0 + top)):
            lam = _eig(s, vectors=False)[0]
            if lam.size and float(lam[-1]) < -1e-9 * (1.0 + float(lam[0])):
                raise NotPositiveSemidefinite("Schur factor must be PSD")
        object.__setattr__(self, "factor", s)

    @property
    def dims(self) -> Tuple[int, int]:
        return self.factor.shape[0], self.factor.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.factor * x


@dataclass(frozen=True)
class TransposeMap(PosMap):
    """X -> X^T; positive but not 2-positive."""

    dim: int
    family: ClassVar[str] = "transpose"
    declared_class: ClassVar[str] = POSITIVE

    def __post_init__(self):
        _require_positive(self.dim, "transpose dim")

    @property
    def dims(self) -> Tuple[int, int]:
        return self.dim, self.dim

    def apply(self, x: np.ndarray) -> np.ndarray:
        return x.swapaxes(-1, -2).copy()


@dataclass(frozen=True)
class PartialTrace2x2(PosMap):
    """[[A, B], [C, D]] -> A + D on M_2(M_k); completely positive."""

    block_dim: int
    family: ClassVar[str] = "partial_trace_2x2"

    def __post_init__(self):
        _require_positive(self.block_dim, "partial_trace_2x2 block_dim")

    @property
    def dims(self) -> Tuple[int, int]:
        return 2 * self.block_dim, self.block_dim

    def apply(self, x: np.ndarray) -> np.ndarray:
        k = self.block_dim
        return x[..., :k, :k] + x[..., k:, k:]


@dataclass(frozen=True)
class Congruence(PosMap):
    """X -> K X K*; completely positive (a one-term Kraus sum)."""

    operator: np.ndarray
    family: ClassVar[str] = "congruence"

    def __post_init__(self):
        object.__setattr__(self, "operator", as_matrix(self.operator))

    @property
    def dims(self) -> Tuple[int, int]:
        return self.operator.shape[1], self.operator.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.operator @ x @ self.operator.conj().T


@dataclass(frozen=True)
class MapSum(PosMap):
    """Pointwise sum; takes the weakest class among the terms."""

    terms: Tuple[PosMap, ...]
    family: ClassVar[str] = "sum"

    def __post_init__(self):
        terms = tuple(self.terms)
        if not terms:
            raise ValueError("MapSum needs at least one term")
        if any(t.dims != terms[0].dims for t in terms):
            raise DimensionMismatch("sum terms must share dimensions")
        object.__setattr__(self, "terms", terms)

    @property
    def dims(self) -> Tuple[int, int]:
        return self.terms[0].dims

    @property
    def declared_class(self) -> str:
        return weakest_class([t.declared_class for t in self.terms])

    def apply(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros(x.shape[:-2] + (self.out_dim, self.out_dim), dtype=complex)
        for t in self.terms:
            out += t.apply(x)
        return out


@dataclass(frozen=True)
class MapCompose(PosMap):
    """outer after inner; takes the weakest class of the two."""

    outer: PosMap
    inner: PosMap
    family: ClassVar[str] = "compose"

    def __post_init__(self):
        if self.inner.out_dim != self.outer.in_dim:
            raise DimensionMismatch(
                f"cannot compose: inner out_dim {self.inner.out_dim} != outer in_dim {self.outer.in_dim}"
            )

    @property
    def dims(self) -> Tuple[int, int]:
        return self.inner.in_dim, self.outer.out_dim

    @property
    def declared_class(self) -> str:
        return weakest_class([self.outer.declared_class, self.inner.declared_class])

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.outer.apply(self.inner.apply(x))


@dataclass(frozen=True)
class IdentityMap(PosMap):
    dim: int
    family: ClassVar[str] = "identity"

    def __post_init__(self):
        _require_positive(self.dim, "identity dim")

    @property
    def dims(self) -> Tuple[int, int]:
        return self.dim, self.dim

    def apply(self, x: np.ndarray) -> np.ndarray:
        return x.copy()


@dataclass(frozen=True)
class FalsifierWitness:
    """A PSD input mapped to a non-PSD output by the amplified map."""

    level: int
    trial_index: int
    input_matrix: np.ndarray
    min_output_eigenvalue: float


def _amplified_apply(phi: PosMap, w: np.ndarray, level: int) -> np.ndarray:
    """(id_level (x) phi)(W): phi on each n x n block of W, for W of shape
    (..., level n, level n), in one call on the (..., level, level, n, n)
    view of the blocks."""
    n, m = phi.in_dim, phi.out_dim
    lead = w.shape[:-2]
    blocks = phi.apply(w.reshape(lead + (level, n, level, n)).swapaxes(-3, -2))
    return blocks.swapaxes(-3, -2).reshape(lead + (level * m, level * m))


# trials drawn and evaluated as one stack, here and by the search in checks;
# even, because _psd_draws pairs the trials, so every block starts at an even one
_BLOCK = 100


def _psd_draws(rng: np.random.Generator, d: int, count: int) -> np.ndarray:
    """The d x d PSD inputs of ``count`` trials from an even one on: v v* at
    even trials, G G* at odd ones, for complex v and G whose real and then
    imaginary parts are drawn trial by trial, as one standard_normal call
    per part would draw them. An odd ``count``, which only a last block
    has, draws the parts of one trial more, which nothing reads."""
    pairs = (count + 1) // 2
    x = rng.standard_normal((pairs, 2 * d + 2 * d * d))
    v = x[:, :d] + 1j * x[:, d : 2 * d]
    g = (x[:, 2 * d : 2 * d + d * d] + 1j * x[:, 2 * d + d * d :]).reshape(pairs, d, d)
    w = np.empty((2 * pairs, d, d), dtype=complex)
    w[0::2] = v[:, :, None] * v.conj()[:, None, :]
    w[1::2] = g @ g.conj().swapaxes(-1, -2)
    return w[:count]


def sample_positivity_falsifier(
    phi: PosMap, level: int, trials: int, seed: int
) -> Optional[FalsifierWitness]:
    """Search random PSD inputs for one the amplified map sends outside the cone.

    Returns the first witness found, or None: an input whose image has an
    eigenvalue below -1e-7 (1 + max|lambda|), a fixed rule. Absence of a
    witness is evidence, not proof, of level-`level` positivity. Alternates
    rank-one and full-rank PSD draws; deterministic in the seed.

    The trials run in blocks of up to ``_BLOCK``: a block's inputs are drawn
    in trial order and mapped as one stack, and its images go through one
    stacked Cholesky screen (:func:`_clears_stack`); the trials the screen
    does not clear are then tested in trial order. So every trial's
    verdict and witness is the one a trial run alone gives, as far as its
    image is (:meth:`PosMap.apply`: by construction, or for a Kraus sum on
    the BLAS kernels the tests pin), and an image that overflows raises
    where the trial-by-trial loop raises.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if level not in (1, 2):
        raise ValueError("level must be 1 or 2")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    d = level * phi.in_dim
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, trials, _BLOCK):
            ws = _psd_draws(rng, d, min(_BLOCK, trials - start))
            hs = hermitian_part(_amplified_apply(phi, ws, level))
            # the initial 0 is the abs-max of a 0 x 0 image and changes no other
            tops = np.abs(hs).max(axis=(-2, -1), initial=0.0)
            # a pass leaves lambda_min >= -0.75e-7 (1 + max|h_ij|), and
            # max|lambda| >= max|h_ij|: the witness test below cannot fire
            cleared = _clears_stack(hs, 0.5e-7 * (1.0 + tops))
            for i in np.flatnonzero(~cleared).tolist():
                if not math.isfinite(tops[i]):
                    raise ValueError("map output overflows")
                lam = _eig(hs[i], vectors=False)[0]
                lam_min = float(lam[-1])
                scale = float(np.abs(lam).max()) if lam.size else 0.0
                if lam_min < -1e-7 * (1.0 + scale):
                    return FalsifierWitness(
                        level=level,
                        trial_index=start + i,
                        input_matrix=ws[i].copy(),
                        min_output_eigenvalue=lam_min,
                    )
    return None


# every family is a direct subclass of PosMap defined in this module
_FAMILIES = {cls.family: cls for cls in PosMap.__subclasses__()}


def _param_to_json(value):
    """Matrices and maps in their own JSON forms, tuples as lists, integers as they are."""
    if isinstance(value, tuple):
        return [_param_to_json(v) for v in value]
    if isinstance(value, PosMap):
        return map_to_json(value)
    if isinstance(value, np.ndarray):
        return matrix_to_json(value)
    return value


def _param_from_json(value, kind, what: str):
    """Decode a param as its field's declared type: a tuple of items from a
    list, a map, a matrix, or else an integer."""
    if get_origin(kind) is tuple:
        item = get_args(kind)[0]
        return tuple(_param_from_json(v, item, what) for v in _json_value(value, list, what))
    if kind is PosMap:
        return map_from_json(value)
    if kind is np.ndarray:
        return matrix_from_json(value)
    return _json_value(value, int, what)


def map_to_json(phi: PosMap) -> dict:
    """Tagged-union JSON form: the family and its constructor fields as params."""
    return {
        "family": phi.family,
        "params": {f.name: _param_to_json(getattr(phi, f.name)) for f in fields(phi)},
        "in_dim": phi.in_dim,
        "out_dim": phi.out_dim,
        "class": phi.declared_class,
    }


def map_from_json(data: dict) -> PosMap:
    """Inverse of :func:`map_to_json`; ``in_dim``, ``out_dim`` and ``class``
    are derived, so they are not read. Raises ValueError on malformed input."""
    _json_object(data, "map", ("family", "params", "in_dim", "out_dim", "class"))
    cls = _FAMILIES.get(_json_value(data["family"], str, "map family"))
    if cls is None:
        raise ValueError(f"unknown map family {data['family']!r}")
    params = _json_value(data.get("params", {}), dict, "map params")
    names = {f.name for f in fields(cls)}
    if set(params) != names:
        raise ValueError(f"{cls.family} params must be {sorted(names)}, got {sorted(params)}")
    kinds = get_type_hints(cls)
    return cls(**{name: _param_from_json(value, kinds[name], f"{cls.family} {name}")
                  for name, value in params.items()})
