"""The benchmark's workloads: seeded op streams over opcheck's public API.

Importing this module pins BLAS/OpenMP to one thread (before numpy loads) and
puts the checkout's ``src`` first on ``sys.path``, so every entry script of
the benchmark measures the sources next to it and nothing installed.

A workload turns an op index into inputs (``prepare``, untimed), runs the op
(``run``, timed) and judges the result (``judge``, untimed). Inputs depend
only on the workload seed and the op index.
"""

from __future__ import annotations

import hashlib
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "opcheck" / "__init__.py").is_file():
    raise SystemExit(f"opcheck sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import opcheck  # noqa: E402
from opcheck import campaign, checks, posmap  # noqa: E402
from opcheck.campaign import CampaignSpec  # noqa: E402
from opcheck.errors import OpcheckError  # noqa: E402

if Path(opcheck.__file__).resolve().parent != SRC / "opcheck":
    raise SystemExit(f"imported opcheck from {opcheck.__file__}, not from {SRC}")

# Jacobi and LAPACK must agree on a certificate's Loewner slack to this
# share of the operands' scale
SLACK_AGREEMENT = 1e-8


def theorem_specs(seed: int) -> list:
    """The 14 campaigns of the acceptance gate (n, m in 2..6, default families)."""
    return [
        CampaignSpec(check_id="check_russo_dye", seed=seed),
        CampaignSpec(check_id="check_arithmetic_domination", seed=seed),
        *[
            CampaignSpec(check_id="check_geometric_domination", seed=seed, funpair_kinds=(kind,))
            for kind in ("power", "range", "scaled")
        ],
        *[
            CampaignSpec(check_id="check_two_positive_split", seed=seed, split_exponent=p)
            for p in (-1.0, -0.5, 0.0, 0.5, 1.0)
        ],
        CampaignSpec(check_id="check_log_majorization", seed=seed),
        CampaignSpec(check_id="check_eigenvalue_gaps", seed=seed),
        CampaignSpec(check_id="check_reverse_product", seed=seed),
        CampaignSpec(check_id="check_cartesian_suite", seed=seed),
    ]


@dataclass(frozen=True)
class Outcome:
    """How one op ended: ``ok`` when its outputs are what the workload requires,
    ``passed`` when the check's verdict was PASS, ``digest`` what a rerun must reproduce."""

    ok: bool
    passed: bool
    digest: str


def _slack(result) -> float:
    """Signed margin of any check outcome (a Cartesian report by its mean certificate)."""
    result = getattr(result, "mean_certificate", result)
    for attr in ("slack", "worst_margin"):
        if hasattr(result, attr):
            return float(getattr(result, attr))
    return 1.0 - float(result.worst_ratio)


def _slack_agrees(result) -> bool:
    """The certificate's Jacobi slack lambda_min(rhs - lhs) against LAPACK's."""
    cert = getattr(result, "mean_certificate", result)
    lhs, rhs = getattr(cert, "lhs", None), getattr(cert, "rhs", None)
    if lhs is None or rhs is None:
        return True
    diff = np.asarray(rhs, dtype=complex) - np.asarray(lhs, dtype=complex)
    ref = float(np.linalg.eigvalsh(0.5 * (diff + diff.conj().T)).min())
    scale = 1.0 + float(np.abs(rhs).max()) + float(np.abs(lhs).max())
    return abs(ref - float(cert.slack)) <= SLACK_AGREEMENT * scale


def _verdict(result, must_pass: bool) -> Outcome:
    passed = bool(result.passed)
    slack = _slack(result)
    ok = _slack_agrees(result) and (passed or not must_pass)
    return Outcome(ok=ok, passed=passed, digest=f"{passed}:{slack!r}")


def _haar(n: int, rng: np.random.Generator) -> np.ndarray:
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def map_families(check_id: str) -> tuple:
    """The map families a campaign of ``check_id`` draws from by default: all
    of them, except that the split check takes only completely positive maps,
    which rules out transpose_plus_identity."""
    if check_id == "check_two_positive_split":
        return tuple(f for f in campaign.MAP_FAMILIES if f != "transpose_plus_identity")
    return tuple(campaign.MAP_FAMILIES)


class TheoremMix:
    """Round-robin over the acceptance campaigns; every op must pass.

    Round r runs trial r of each of the 14 specs, restricted to one input
    size n, one output size m and one map family. These set most of an op's
    cost, so they are cycled instead of drawn: every 5 rounds use each n and
    each m once, every 25 rounds each (n, m) pair once, and round r takes
    family r mod 7 (mod 6 for the split specs) of the spec's default
    families. All else is drawn as the campaigns draw it.
    """

    name = "theorem_mix"
    dims = (2, 3, 4, 5, 6)
    cycle = 70
    warm_ops = 14
    min_ops = 420
    trace_ops = 70

    def __init__(self, seed: int) -> None:
        self.specs = theorem_specs(seed)

    def prepare(self, i: int):
        trial = i // len(self.specs)
        k = len(self.dims)
        n, m = self.dims[trial % k], self.dims[(trial + trial // k) % k]
        spec = self.specs[i % len(self.specs)]
        families = map_families(spec.check_id)
        family = families[trial % len(families)]
        return replace(spec, n_dims=(n,), m_dims=(m,), map_families=(family,)), trial

    def run(self, prep):
        spec, trial = prep
        inst = campaign.make_instance(spec, trial)
        return campaign.run_instance(inst, spec.tolerances)

    def judge(self, prep, result) -> Outcome:
        return _verdict(result, must_pass=True)

    def judge_error(self, prep, exc: OpcheckError) -> Outcome:
        return Outcome(ok=False, passed=False, digest=type(exc).__name__)


class GradedMix:
    """Split and Cartesian trials whose Z has singular values logspace(0, -d).

    The map and the split exponent come from ``make_instance`` as in a
    campaign. Z = U diag(logspace(0, -d, n)) V* with Haar U, V drawn here and
    d cycling over 3, 6, 9, 12. n and the map family, which set most of an
    op's cost, are cycled instead of drawn, so every run has the same mix:
    d changes every trial, n and the family every 4 trials.
    FAIL verdicts and OpcheckErrors are recorded outcomes of this workload,
    not errors of the run.
    """

    name = "graded_mix"
    check_ids = ("check_two_positive_split", "check_cartesian_suite")
    decades = (3, 6, 9, 12)
    dims = (2, 3, 4, 5, 6)
    cycle = 40
    warm_ops = 10
    min_ops = 400
    trace_ops = 40

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def prepare(self, i: int):
        trial = i // 2
        group = trial // len(self.decades)
        d = self.decades[trial % len(self.decades)]
        n = self.dims[group % len(self.dims)]
        check_id = self.check_ids[i % 2]
        families = map_families(check_id)
        spec = CampaignSpec(check_id=check_id, n_dims=(n,), seed=self.seed,
                            map_families=(families[group % len(families)],))
        rng = np.random.default_rng([self.seed, i])
        z = (_haar(n, rng) * np.logspace(0, -d, n)) @ _haar(n, rng).conj().T
        return spec, trial, z

    def run(self, prep):
        spec, trial, z = prep
        inst = replace(campaign.make_instance(spec, trial), z=z)
        return campaign.run_instance(inst, spec.tolerances)

    def judge(self, prep, result) -> Outcome:
        return _verdict(result, must_pass=False)

    def judge_error(self, prep, exc: OpcheckError) -> Outcome:
        return Outcome(ok=True, passed=False, digest=type(exc).__name__)


class SmallSearch:
    """One counterexample search to four Kraus 2-positivity falsifier calls.

    Every search must find all three witnesses with consistent bounds, and no
    falsifier call may find a witness against a completely positive map. A
    falsifier call's cost is set by the output size m (its eigh runs at 2m),
    so m is 2 for the first call of a cycle and 3 for the other three: p50
    then falls inside the m = 3 mode and p90 inside the search mode, never
    between two modes.
    """

    name = "small_search"
    cycle = 5
    warm_ops = 5
    min_ops = 100
    trace_ops = 10
    search_trials = 10_000
    falsifier_trials = 25

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def prepare(self, i: int):
        op_seed = self.seed * 1_000_003 + i
        if i % self.cycle == 0:
            return None, op_seed
        rng = np.random.default_rng([self.seed, i])
        n = int(rng.integers(2, 4))
        m = 2 if i % self.cycle == 1 else 3
        ops = tuple(
            (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / math.sqrt(n)
            for _ in range(int(rng.integers(1, 4)))
        )
        return posmap.KrausSum(kraus=ops), op_seed

    def run(self, prep):
        phi, op_seed = prep
        if phi is None:
            return checks.find_counterexamples_remarks(
                trials=self.search_trials, seed=op_seed, dim=2
            )
        return posmap.sample_positivity_falsifier(
            phi, level=2, trials=self.falsifier_trials, seed=op_seed
        )

    def judge(self, prep, result) -> Outcome:
        phi, _ = prep
        if phi is not None:
            return Outcome(ok=result is None, passed=result is None, digest=repr(result is None))
        ok = bool(result.all_found and result.consistency_ok)
        witnesses = (result.loewner_witness, result.half_power_witness, result.plain_norm_witness)
        digest = f"{ok}:{[w.trial_index for w in witnesses if w is not None]}:{result.worst_rho!r}"
        return Outcome(ok=ok, passed=ok, digest=digest)

    def judge_error(self, prep, exc: OpcheckError) -> Outcome:
        return Outcome(ok=False, passed=False, digest=type(exc).__name__)


WORKLOADS = {w.name: w for w in (TheoremMix, GradedMix, SmallSearch)}


def run_op(workload, i: int, clock, tracer=None):
    """Prepare, time and judge op ``i``; returns (seconds, Outcome).

    With a tracer, only the timed part's spans carry the op id. An
    OpcheckError from the program is an outcome of the op; any other
    exception propagates and ends the run.
    """
    prep = workload.prepare(i)
    if tracer is not None:
        tracer.op = i
    start = clock()
    try:
        result = workload.run(prep)
    except OpcheckError as exc:
        result = exc
    finally:
        elapsed = clock() - start
        if tracer is not None:
            tracer.op = None
    if isinstance(result, OpcheckError):
        return elapsed, workload.judge_error(prep, result)
    return elapsed, workload.judge(prep, result)


def warm_up(workload, clock, after_op=None) -> None:
    """The workload's first ops at seed 0, so lazy imports and first-call
    costs land in set-up, and set-up does the same work at every seed.
    ``after_op``, if given, is called with each op's seconds."""
    fixed = type(workload)(0)
    for i in range(fixed.warm_ops):
        elapsed, _ = run_op(fixed, i, clock)
        if after_op is not None:
            after_op(elapsed)


def layer_probe(seed: int) -> None:
    """Call every function a per-call metric names, so that each is measured
    on every workload: one trial of each campaign check, one search, one
    falsifier call and eight Wishart ``eigh`` calls for each n in 2..6."""
    for check_id in campaign.CHECK_IDS:
        spec = CampaignSpec(check_id=check_id, seed=seed)
        campaign.run_instance(campaign.make_instance(spec, 0), spec.tolerances)
    search = SmallSearch(seed)
    for i in range(2):
        search.run(search.prepare(i))
    rng = np.random.default_rng([seed, 6])
    for n in range(2, 7):
        for _ in range(8):
            g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
            opcheck.linalg.eigh(g @ g.conj().T / n)


def digest(outcomes) -> str:
    h = hashlib.sha256()
    for i, out in enumerate(outcomes):
        h.update(f"{i}:{out.digest}\n".encode())
    return h.hexdigest()
