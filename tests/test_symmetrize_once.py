"""A Hermitian matrix is symmetrized once, where it is formed: every matrix
that reaches the Jacobi sweeps is exactly Hermitian, a bitwise fixed point of
0.5 (A + A*), so forming that part again would change no bit. Only an entry
above half the largest double is not, and there the kernel raises the
validation error, without a numpy warning.
"""

import dataclasses
import importlib.util
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import opcheck.linalg as L
from opcheck.campaign import CHECK_IDS, CampaignSpec, make_instance, run_campaign, run_instance
from opcheck.checks import find_counterexamples_remarks, reproduce_counterexample_2_8, reproduce_sharpness_cor2_5
from opcheck.errors import OpcheckError
from opcheck.means import geometric_mean_ex
from opcheck.posmap import KrausSum, TransposeMap, sample_positivity_falsifier

_SPEC = importlib.util.spec_from_file_location("ab", Path(__file__).resolve().parents[1] / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)


@pytest.fixture
def fixed_points(monkeypatch):
    """Per run of the sweep loop, whether 0.5 (A + A*) leaves its input bit
    for bit as it is. Recorded, not raised, so that no caller can catch it."""
    flags = []
    original = L._sweeps

    def checking(a, *args, **kwargs):
        flags.append((0.5 * (a + a.conj().T)).tobytes() == a.tobytes())
        return original(a, *args, **kwargs)

    monkeypatch.setattr(L, "_sweeps", checking)
    return flags


def haar(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("seed", [7, 2026])
@pytest.mark.parametrize("check_id", CHECK_IDS)
def test_campaign_trials(fixed_points, check_id, seed):
    report = run_campaign(CampaignSpec(check_id=check_id, trials=20, seed=seed))
    assert report.trials_run == 20
    assert fixed_points and all(fixed_points)


def test_graded_split_and_cartesian_instances(fixed_points):
    """Z = U diag(logspace(0, -d, n)) V* for d in 3, 6, 9, 12 and n in 2..6,
    in split and Cartesian trials; a FAIL or an error is an outcome here."""
    check_ids = ("check_two_positive_split", "check_cartesian_suite")
    for i in range(40):
        spec = CampaignSpec(check_id=check_ids[i % 2], n_dims=(2 + (i // 8) % 5,), seed=61)
        rng = np.random.default_rng([61, i])
        n = spec.n_dims[0]
        z = (haar(n, rng) * np.logspace(0, -(3 + 3 * (i // 2 % 4)), n)) @ haar(n, rng).conj().T
        try:
            run_instance(dataclasses.replace(make_instance(spec, i // 2), z=z), spec.tolerances)
        except OpcheckError:
            pass
    assert fixed_points and all(fixed_points)


def test_repros_search_and_falsifier(fixed_points):
    assert reproduce_counterexample_2_8().passed
    assert reproduce_sharpness_cor2_5(4.0).passed
    assert find_counterexamples_remarks(trials=200, seed=5).all_found
    kraus = KrausSum(kraus=(np.array([[1.0, 0.5j], [0.0, 1.0]]), np.array([[0.5, 0.0], [0.25, -0.5]])))
    assert sample_positivity_falsifier(kraus, level=2, trials=20, seed=3) is None
    assert sample_positivity_falsifier(TransposeMap(2), level=2, trials=20, seed=3) is not None
    assert fixed_points and all(fixed_points)


def test_mean_pairs(fixed_points):
    a = np.array(ab.MEAN_A, dtype=complex)
    for lmin in ab.MEAN_PAIRS.values():
        try:
            geometric_mean_ex(a, np.array(ab.mean_b(lmin), dtype=complex))
        except OpcheckError:
            pass
    assert fixed_points and all(fixed_points)


def off_diagonal(x):
    return np.array([[0.0, x], [np.conj(x), 0.0]], dtype=complex)


@pytest.mark.parametrize(
    "h",
    [np.diag([1.5e308, 1.0]).astype(complex), off_diagonal(1e308 + 1e308j)],
    ids=["diagonal_1.5e308", "off_diagonal_1e308"],
)
@pytest.mark.parametrize("vectors", [True, False])
def test_a_hermitian_part_that_overflows_raises_without_a_warning(h, vectors):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^Hermitian part overflows: entries exceed half the largest double$"):
            L._eig(h, vectors=vectors)


def test_parts_within_half_the_largest_double_are_swept_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, _ = L._eig(off_diagonal(8e307 + 8e307j))
    assert values.tolist() == [math.hypot(8e307, 8e307), -math.hypot(8e307, 8e307)]
