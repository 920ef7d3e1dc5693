"""Campaign orchestration: seeded instance generation, trial execution,
deterministic report assembly.

Each trial derives its own RNG from (seed, trial index), so reports are
byte-identical for identical specs regardless of execution order, and any
single trial can be regenerated in isolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from . import checks as C
from .checks import FunPair
from .decompose import svd_square
from .ensembles import GeneratorConfig, generate_with_rng
from .errors import InstanceGenerationFailure, InvalidSpec
from .io import (
    _json_list,
    _json_object,
    _json_value,
    dump_json,
    matrix_from_json,
    matrix_to_json,
    tolerance_from_json,
    tolerance_to_json,
)
from .linalg import Tolerance, _with_memo, eigvalsh, hermitian_part
from .means import kato_supremum, q_mean
from .posmap import (
    Congruence,
    IdentityMap,
    KrausSum,
    MapCompose,
    MapSum,
    PartialTrace2x2,
    PosMap,
    SchurMultiplier,
    TransposeMap,
    map_from_json,
    map_to_json,
)

__all__ = [
    "CHECK_IDS",
    "MAP_FAMILIES",
    "CampaignSpec",
    "CampaignReport",
    "Instance",
    "make_instance",
    "run_instance",
    "run_campaign",
    "write_report",
]

# check id -> the Instance fields its function in opcheck.checks takes after
# phi. The function is looked up by its id on each call, never stored, so a
# wrapper installed on the checks module sees every call.
_CHECK_ARGS = {
    "check_russo_dye": ("contraction",),
    "check_arithmetic_domination": ("z", "j", "funpair"),
    "check_geometric_domination": ("z", "j", "funpair"),
    "check_two_positive_split": ("z", "split_exponent"),
    "check_log_majorization": ("z", "j", "funpair"),
    "check_eigenvalue_gaps": ("z", "j", "funpair"),
    "check_reverse_product": ("z", "j", "funpair"),
    "check_cartesian_suite": ("z",),
}

CHECK_IDS = tuple(_CHECK_ARGS)

MAP_FAMILIES = (
    "kraus_sum",
    "schur_multiplier",
    "congruence",
    "identity",
    "partial_trace_2x2",
    "transpose_plus_identity",
    "compose",
)

_CP_FAMILIES = tuple(f for f in MAP_FAMILIES if f != "transpose_plus_identity")

FUNPAIR_KINDS = ("power", "range", "scaled")

_SPLIT_EXPONENTS = (-1.0, -0.5, 0.0, 0.5, 1.0)

_Z_ENSEMBLES = ("random_normal_matrix", "random_semi_hyponormal", "random_contraction", "ginibre")

_CAMPAIGN_TOLERANCES = Tolerance(abs=1e-8, rel=1e-8, rank_cutoff=6e-12)


@dataclass(frozen=True)
class CampaignSpec:
    """What to run: one check id, dimension pools, trial count, seed, subsets."""

    check_id: str
    n_dims: Sequence[int] = (2, 3, 4, 5, 6)
    m_dims: Sequence[int] = (2, 3, 4, 5, 6)
    trials: int = 1000
    seed: int = 0
    map_families: Sequence[str] = MAP_FAMILIES
    funpair_kinds: Sequence[str] = FUNPAIR_KINDS
    tolerances: Tolerance = _CAMPAIGN_TOLERANCES
    output_path: Optional[str] = None
    split_exponent: Optional[float] = None

    def validate(self) -> None:
        if self.check_id not in CHECK_IDS:
            raise InvalidSpec(f"unknown check_id {self.check_id!r}")
        if self.trials < 1:
            raise InvalidSpec("trials must be >= 1")
        if not self.n_dims or any(d < 1 for d in self.n_dims):
            raise InvalidSpec("n_dims must be nonempty positive")
        if not self.m_dims or any(d < 1 for d in self.m_dims):
            raise InvalidSpec("m_dims must be nonempty positive")
        bad = set(self.map_families) - set(MAP_FAMILIES)
        if bad:
            raise InvalidSpec(f"unknown map families {sorted(bad)}")
        bad = set(self.funpair_kinds) - set(FUNPAIR_KINDS)
        if bad:
            raise InvalidSpec(f"unknown funpair kinds {sorted(bad)}")

    def to_json(self) -> dict:
        return {
            "check_id": self.check_id,
            "n": list(self.n_dims),
            "m": list(self.m_dims),
            "trials": self.trials,
            "seed": self.seed,
            "map_families": list(self.map_families),
            "funpair_kinds": list(self.funpair_kinds),
            "tolerances": tolerance_to_json(self.tolerances),
            "output_path": self.output_path,
            "split_exponent": self.split_exponent,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CampaignSpec":
        """The spec of a JSON object; InvalidSpec for a field of the wrong JSON
        type or a key that is not a field."""

        def field(key: str, kind: type, default=None, nullable: bool = False):
            return _json_value(obj.get(key, default), kind, key, nullable)

        def items(key: str, kind: type, default: Sequence) -> tuple:
            return tuple(_json_list(obj.get(key, list(default)), kind, key))

        try:
            _json_object(obj, "spec", ("check_id", "n", "m", "trials", "seed", "map_families",
                                       "funpair_kinds", "tolerances", "output_path", "split_exponent"))
            tolerances = field("tolerances", dict, nullable=True) or {}
            spec = cls(
                check_id=_json_value(obj["check_id"], str, "check_id"),
                n_dims=items("n", int, cls.n_dims),
                m_dims=items("m", int, cls.m_dims),
                trials=field("trials", int, cls.trials),
                seed=field("seed", int, cls.seed),
                map_families=items("map_families", str, cls.map_families),
                funpair_kinds=items("funpair_kinds", str, cls.funpair_kinds),
                tolerances=tolerance_from_json({**tolerance_to_json(cls.tolerances), **tolerances}),
                output_path=field("output_path", str, nullable=True),
                split_exponent=field("split_exponent", float, nullable=True),
            )
        except ValueError as exc:
            raise InvalidSpec(str(exc)) from None
        spec.validate()
        return spec


@dataclass(frozen=True)
class Instance:
    """One generated check input set, serializable for replay."""

    check_id: str
    phi: PosMap
    z: Optional[np.ndarray] = None
    j: Optional[np.ndarray] = None
    funpair: Optional[FunPair] = None
    contraction: Optional[np.ndarray] = None
    split_exponent: Optional[float] = None
    # the factorizations make_instance ran, which run_instance lets the check
    # reuse; not instance data, so it is left out of the JSON and of equality
    memo: Optional[dict] = field(default=None, compare=False, repr=False)

    def to_json(self) -> dict:
        out = {"check_id": self.check_id, "phi": map_to_json(self.phi)}
        if self.z is not None:
            out["Z"] = matrix_to_json(self.z)
        if self.j is not None:
            out["J"] = matrix_to_json(self.j)
        if self.funpair is not None:
            out["funpair"] = self.funpair.to_json()
        if self.contraction is not None:
            out["A"] = matrix_to_json(self.contraction)
        if self.split_exponent is not None:
            out["p"] = self.split_exponent
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "Instance":
        _json_object(obj, "instance", ("check_id", "phi", "Z", "J", "funpair", "A", "p"))
        return cls(
            check_id=_json_value(obj["check_id"], str, "check_id"),
            phi=map_from_json(obj["phi"]),
            z=matrix_from_json(obj["Z"]) if "Z" in obj else None,
            j=matrix_from_json(obj["J"]) if "J" in obj else None,
            funpair=FunPair.from_json(obj["funpair"]) if "funpair" in obj else None,
            contraction=matrix_from_json(obj["A"]) if "A" in obj else None,
            split_exponent=_json_value(obj.get("p"), float, "p", nullable=True),
        )


def _choice(rng: np.random.Generator, items: Sequence) -> object:
    return items[int(rng.integers(len(items)))]


def _random_map(
    family: str, n: int, m_pool: Sequence[int], rng: np.random.Generator
) -> PosMap:
    """A random map of the family with input dimension n; output dimension is
    drawn from the pool where the family allows it. Structures are chosen so
    PD inputs keep PD images (full Kraus rank, tall congruences avoided)."""
    if family == "kraus_sum":
        m = int(_choice(rng, m_pool))
        r = max(1, -(-m // n)) + int(rng.integers(0, 2))
        ops = tuple(
            (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / math.sqrt(n * r)
            for _ in range(r)
        )
        return KrausSum(kraus=ops)
    if family == "schur_multiplier":
        g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(n)
        return SchurMultiplier(hermitian_part(g @ g.conj().T) + 0.05 * np.eye(n))
    if family == "congruence":
        m = min(int(_choice(rng, m_pool)), n)
        k = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / math.sqrt(n)
        return Congruence(k)
    if family == "identity":
        return IdentityMap(n)
    if family == "partial_trace_2x2":
        if n % 2 != 0:
            return IdentityMap(n)
        return PartialTrace2x2(block_dim=n // 2)
    if family == "transpose_plus_identity":
        return MapSum(terms=(IdentityMap(n), TransposeMap(n)))
    if family == "compose":
        m = min(int(_choice(rng, m_pool)), n)
        k = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / math.sqrt(n)
        inner = Congruence(k)
        r = 2
        ops = tuple(
            (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / math.sqrt(m * r)
            for _ in range(r)
        )
        return MapCompose(outer=KrausSum(kraus=ops), inner=inner)
    raise InvalidSpec(f"unknown family {family!r}")


def _random_z(rng: np.random.Generator, n: int) -> np.ndarray:
    cfg = GeneratorConfig(ensemble=str(_choice(rng, _Z_ENSEMBLES)))
    return generate_with_rng(cfg, n, rng)


def _funpair_and_j(
    kind: str, z: np.ndarray, tol: Tolerance, rng: np.random.Generator
) -> Optional[tuple]:
    """Build (funpair, J, f(|Z|), g(|Z*|)) with the images meant to lie below J,
    sharing one SVD of Z across the modulus data. None means resample Z."""
    n = z.shape[0]
    parts = svd_square(z, tol)
    sig = parts.values
    if parts.rank == 0:
        return None
    if kind == "power":
        fp = FunPair.power(float(rng.uniform(-0.75, 0.75)))
    elif kind == "range":
        fp = FunPair.range_pair()
    else:
        if parts.rank < n:
            return None  # scaled pair needs an invertible modulus
        inv_half = (parts.right * sig**-0.5) @ parts.right.conj().T
        comod = parts.comodulus()
        rho = float(eigvalsh(hermitian_part(inv_half @ comod @ inv_half), tol)[0])
        fp = FunPair.scaled(max(rho, 1e-8))
    f_mod, g_comod = C.moduli_from_svd(parts, fp)
    if fp.kind == "scaled":
        j = f_mod.copy()
        if rng.uniform() < 0.3:
            j = hermitian_part(j + generate_with_rng(GeneratorConfig(ensemble="wishart_psd"), n, rng))
        return fp, j, f_mod, g_comod
    modes = ["sum", "sum_plus_psd", "scaled_identity"]
    if fp.kind == "power" and fp.p == 0.0:
        modes += ["qmean", "kato"]
    mode = str(_choice(rng, modes))
    if mode == "sum":
        j = hermitian_part(f_mod + g_comod)
    elif mode == "sum_plus_psd":
        j = hermitian_part(
            f_mod + g_comod + generate_with_rng(GeneratorConfig(ensemble="wishart_psd"), n, rng)
        )
    elif mode == "scaled_identity":
        lam = max(float(fp.f_sigma(sig).max()), float(fp.g_sigma(sig).max()))
        j = (lam * (1.0 + rng.uniform(0.0, 1.0)) + 1e-6) * np.eye(n)
    elif mode == "qmean":
        j = q_mean(z, float(_choice(rng, (1.0, 2.0, 4.0))), tol)
    else:
        j = kato_supremum(z, tol)
    return fp, j, f_mod, g_comod


def make_instance(spec: CampaignSpec, trial: int) -> Instance:
    """Deterministically generate trial inputs satisfying the check's
    hypotheses; resamples (bounded) when a random draw violates them.

    The instance carries a fresh memo of the Jacobi and SVD factorizations
    run here, which :func:`run_instance` hands on to the check: each matrix
    is factored once per trial, and never across trials.
    """
    memo: dict = {}
    return _with_memo(memo, _draw_instance, spec, trial, memo)


def _draw_instance(spec: CampaignSpec, trial: int, memo: dict) -> Instance:
    rng = np.random.default_rng([spec.seed, trial])
    families = spec.map_families
    if spec.check_id == "check_two_positive_split":
        families = tuple(f for f in families if f in _CP_FAMILIES) or _CP_FAMILIES
    for _attempt in range(20):
        family = str(_choice(rng, families))
        n = int(_choice(rng, spec.n_dims))
        if family == "partial_trace_2x2":
            evens = [d for d in spec.n_dims if d % 2 == 0]
            if evens:
                n = int(_choice(rng, evens))
        phi = _random_map(family, n, spec.m_dims, rng)
        if spec.check_id == "check_russo_dye":
            a = generate_with_rng(GeneratorConfig(ensemble="random_contraction"), n, rng)
            return Instance(check_id=spec.check_id, phi=phi, contraction=a, memo=memo)
        z = _random_z(rng, n)
        if spec.check_id == "check_two_positive_split":
            p = (
                spec.split_exponent
                if spec.split_exponent is not None
                else _SPLIT_EXPONENTS[trial % len(_SPLIT_EXPONENTS)]
            )
            return Instance(check_id=spec.check_id, phi=phi, z=z, split_exponent=float(p), memo=memo)
        if spec.check_id == "check_cartesian_suite":
            return Instance(check_id=spec.check_id, phi=phi, z=z, memo=memo)
        built = _funpair_and_j(str(_choice(rng, spec.funpair_kinds)), z, spec.tolerances, rng)
        if built is None:
            continue
        fp, j, f_mod, g_comod = built
        if C._images_dominated(j, f_mod, g_comod, spec.tolerances):
            return Instance(check_id=spec.check_id, phi=phi, z=z, j=j, funpair=fp, memo=memo)
    raise InstanceGenerationFailure(
        f"could not satisfy hypotheses for {spec.check_id} at trial {trial}"
    )


def run_instance(inst: Instance, tol: Tolerance):
    """Run one generated instance through its check, with the instance's
    factorization memo, if it has one. The outcome reports ``passed``, a
    signed ``slack`` and its JSON form ``to_json()``."""
    if inst.check_id not in _CHECK_ARGS:
        raise InvalidSpec(f"unknown check_id {inst.check_id!r}")
    names = _CHECK_ARGS[inst.check_id]
    args = [getattr(inst, name) for name in names]
    missing = [name for name, arg in zip(names, args) if arg is None]
    if missing:
        raise InvalidSpec(f"{inst.check_id} instance lacks {', '.join(missing)}")
    return _with_memo(inst.memo, getattr(C, inst.check_id), inst.phi, *args, tol)


@dataclass
class CampaignReport:
    spec: CampaignSpec
    outcomes: List[dict]
    trials_run: int
    failures: int
    near_misses: int
    min_slack: float
    aborted_instance: Optional[dict] = None

    def to_json(self) -> dict:
        return {
            "spec": self.spec.to_json(),
            "certificates": self.outcomes,
            "summary": {
                "trials": self.trials_run,
                "failures": self.failures,
                "near_misses": self.near_misses,
                "min_slack": self.min_slack,
                "seed": self.spec.seed,
            },
            "aborted_instance": self.aborted_instance,
        }


def run_campaign(spec: CampaignSpec, keep_outcomes: bool = True) -> CampaignReport:
    """Run every trial; abort on the first hard failure, keeping the
    serialized instance for replay."""
    spec.validate()
    outcomes: List[dict] = []
    failures = 0
    near = 0
    min_slack = math.inf
    aborted = None
    trials_run = 0
    for trial in range(spec.trials):
        inst = make_instance(spec, trial)
        result = run_instance(inst, spec.tolerances)
        trials_run += 1
        min_slack = min(min_slack, result.slack)
        if keep_outcomes:
            outcomes.append(result.to_json())
        if result.passed and result.slack < 0:
            near += 1
        if not result.passed:
            failures += 1
            aborted = inst.to_json()
            break
    return CampaignReport(
        spec=spec,
        outcomes=outcomes,
        trials_run=trials_run,
        failures=failures,
        near_misses=near,
        min_slack=float(min_slack) if trials_run else 0.0,
        aborted_instance=aborted,
    )


def write_report(report: CampaignReport, path: str) -> None:
    dump_json(report.to_json(), path)
