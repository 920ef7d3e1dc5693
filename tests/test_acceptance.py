"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines and timings.
"""

import math
import time

import numpy as np

from opcheck.campaign import CampaignSpec, run_campaign
from opcheck.checks import (
    find_counterexamples_remarks,
    reproduce_counterexample_2_8,
    reproduce_sharpness_cor2_5,
)
from opcheck.linalg import eigh, hermitian_part, loewner_leq, sqrtm_psd
from opcheck.means import geometric_mean
from opcheck.posmap import (
    IdentityMap,
    KrausSum,
    MapSum,
    TransposeMap,
    sample_positivity_falsifier,
)

SEED = 2026


def _announce(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {name}: {status}" + (f"  ({detail})" if detail else ""))


def test_example_2_8_reproduction():
    t0 = time.perf_counter()
    rep = reproduce_counterexample_2_8()
    elapsed = time.perf_counter() - t0
    ok = (
        rep.passed
        and abs(rep.det_lhs - 25.0) <= 1e-9 * 25.0
        and abs(rep.det_rhs_min - 16.0) <= 1e-9 * 16.0
        and abs(rep.det_rhs_max - 16.0) <= 1e-9 * 16.0
        and elapsed < 1.0
    )
    _announce(
        "example-2.8 determinant gap",
        ok,
        f"det lhs {rep.det_lhs:.12f}, det rhs [{rep.det_rhs_min:.12f}, {rep.det_rhs_max:.12f}], {elapsed:.2f}s",
    )
    assert ok


def test_sharpness_constants():
    ok = True
    details = []
    for k in (4.0, 100.0):
        rep = reproduce_sharpness_cor2_5(k)
        scale = 1.0 + np.abs(rep.scaled_certificate.rhs).max()
        ok = ok and (
            abs(rep.rho - k) <= 1e-10
            and rep.required_constant >= math.sqrt(k) * (1 - 1e-6)
            and rep.scaled_certificate.slack >= -1e-9 * scale
        )
        details.append(f"k={k:g}: rho={rep.rho:.12g}, c>={rep.required_constant:.6g}")
    _announce("scaled-bound sharpness", ok, "; ".join(details))
    assert ok


def test_theorem_campaigns():
    campaigns = [
        CampaignSpec(check_id="check_russo_dye", trials=1000, seed=SEED),
        CampaignSpec(check_id="check_arithmetic_domination", trials=1000, seed=SEED),
        CampaignSpec(
            check_id="check_geometric_domination", trials=1000, seed=SEED, funpair_kinds=("power",)
        ),
        CampaignSpec(
            check_id="check_geometric_domination", trials=1000, seed=SEED, funpair_kinds=("range",)
        ),
        CampaignSpec(
            check_id="check_geometric_domination", trials=1000, seed=SEED, funpair_kinds=("scaled",)
        ),
        *[
            CampaignSpec(
                check_id="check_two_positive_split", trials=1000, seed=SEED, split_exponent=p
            )
            for p in (-1.0, -0.5, 0.0, 0.5, 1.0)
        ],
        CampaignSpec(check_id="check_log_majorization", trials=1000, seed=SEED),
        CampaignSpec(check_id="check_eigenvalue_gaps", trials=1000, seed=SEED),
        CampaignSpec(check_id="check_reverse_product", trials=1000, seed=SEED),
        CampaignSpec(check_id="check_cartesian_suite", trials=1000, seed=SEED),
    ]
    t0 = time.perf_counter()
    ok = True
    worst = []
    for spec in campaigns:
        rep = run_campaign(spec)
        label = spec.check_id
        if spec.split_exponent is not None:
            label += f"(p={spec.split_exponent:g})"
        elif len(spec.funpair_kinds) == 1:
            label += f"({spec.funpair_kinds[0]})"
        worst.append(f"{label}: min_slack {rep.min_slack:+.1e}")
        if rep.failures != 0 or rep.trials_run != spec.trials:
            ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    _announce(
        "theorem campaigns (14 x 1000, n,m in 2..6, tol 1e-8)",
        ok,
        f"{elapsed:.0f}s total; " + "; ".join(worst),
    )
    assert ok


def test_counterexample_searches():
    rep = find_counterexamples_remarks(trials=10_000, seed=SEED, dim=2)
    ok = rep.all_found and rep.consistency_ok
    _announce(
        "cartesian-sum counterexample searches",
        ok,
        f"witness trials {rep.loewner_witness.trial_index}/{rep.half_power_witness.trial_index}/"
        f"{rep.plain_norm_witness.trial_index}; worst rho {rep.worst_rho:.9f}, "
        f"worst congruence norm {rep.worst_congruence_norm:.9f}",
    )
    assert ok


def test_kernel_oracles():
    rng = np.random.default_rng(SEED)
    # geometric mean solves the Riccati equation
    worst_res = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 7))
        ga = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        gb = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = hermitian_part(ga @ ga.conj().T) / n + 0.2 * np.eye(n)
        b = hermitian_part(gb @ gb.conj().T) / n + 0.2 * np.eye(n)
        x = geometric_mean(a, b)
        worst_res = max(worst_res, float(np.abs(x @ np.linalg.inv(a) @ x - b).max()))
    riccati_ok = worst_res <= 1e-8

    # maximality: Hermitian X with a PSD block matrix sits below the mean
    maximal_ok = True
    for _ in range(500):
        n = int(rng.integers(2, 6))
        ga = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        gb = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = hermitian_part(ga @ ga.conj().T) / n + 0.2 * np.eye(n)
        b = hermitian_part(gb @ gb.conj().T) / n + 0.2 * np.eye(n)
        x = hermitian_part(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        binvh = sqrtm_psd(np.linalg.inv(b))
        mu = float(eigh(hermitian_part(binvh @ x @ np.linalg.inv(a) @ x @ binvh)).values[0])
        if mu > 0:
            x = x * (float(rng.uniform(0.05, 1.0)) / math.sqrt(mu))
        if np.linalg.eigvalsh(np.block([[a, x], [x.conj().T, b]])).min() < -1e-9:
            maximal_ok = False
        if not loewner_leq(x, geometric_mean(a, b)).holds:
            maximal_ok = False
    ok = riccati_ok and maximal_ok
    _announce(
        "kernel oracles (riccati/maximality)",
        ok,
        f"riccati worst {worst_res:.2e}; maximality 500/500 {'ok' if maximal_ok else 'FAIL'}",
    )
    assert ok


def test_two_positivity_boundary():
    w_t = sample_positivity_falsifier(TransposeMap(2), level=2, trials=10_000, seed=SEED)
    w_x = sample_positivity_falsifier(
        MapSum(terms=(IdentityMap(2), TransposeMap(2))), level=2, trials=10_000, seed=SEED
    )
    rng = np.random.default_rng(SEED)
    kraus_clean = True
    for seed in range(200):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(2, 4))
        ops = tuple(
            (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / math.sqrt(n)
            for _ in range(int(rng.integers(1, 4)))
        )
        if sample_positivity_falsifier(KrausSum(kraus=ops), level=2, trials=25, seed=seed) is not None:
            kraus_clean = False
    ok = w_t is not None and w_x is not None and kraus_clean
    _announce(
        "2-positivity boundary",
        ok,
        f"transpose witness trial {w_t.trial_index if w_t else 'none'}, "
        f"transpose-augmented witness trial {w_x.trial_index if w_x else 'none'}, "
        f"kraus maps clean {'200/200' if kraus_clean else 'FAIL'}",
    )
    assert ok
