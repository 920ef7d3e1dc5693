"""Concurrency smoke test: the kernel and checks are pure functions, so
concurrent calls must agree bit-for-bit with serial ones."""

import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np

from opcheck.campaign import CampaignSpec, make_instance, run_instance
from opcheck.linalg import eigh, hermitian_part


def test_eigh_thread_consistency():
    rng = np.random.default_rng(0)
    mats = [
        hermitian_part(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
        for _ in range(32)
    ]
    serial = [eigh(h) for h in mats]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(eigh, mats))
    for a, b in zip(serial, threaded):
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.vectors, b.vectors)


def test_check_trials_thread_consistency():
    spec = CampaignSpec(check_id="check_geometric_domination", trials=16, seed=21)
    instances = [make_instance(spec, t) for t in range(spec.trials)]
    serial = [run_instance(inst, spec.tolerances) for inst in instances]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(lambda i: run_instance(i, spec.tolerances), instances))
    for a, b in zip(serial, threaded):
        assert a.passed == b.passed
        assert a.slack == b.slack



def test_fresh_trials_thread_consistency():
    """Threads make their own instances, so the kernel runs in every thread,
    and run freshly made instances three at a time, so threads fill one
    trial's factorization memo concurrently; every outcome must equal the
    memo-free run of the same trial."""
    for check_id in ("check_geometric_domination", "check_cartesian_suite"):
        spec = CampaignSpec(check_id=check_id, trials=8, seed=22)
        expected = [
            run_instance(replace(make_instance(spec, t), memo=None), spec.tolerances).to_json()
            for t in range(spec.trials)
        ]
        shared = [make_instance(spec, t) for t in range(spec.trials)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                made = [pool.submit(lambda t: run_instance(make_instance(spec, t), spec.tolerances), t)
                        for t in range(spec.trials)]
                reused = [pool.submit(run_instance, inst, spec.tolerances) for inst in shared * 3]
                outcomes = [f.result(timeout=120).to_json() for f in made + reused]
        finally:
            sys.setswitchinterval(interval)
        assert outcomes == expected * 4
