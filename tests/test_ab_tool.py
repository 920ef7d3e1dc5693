"""The report explanations, the ``opcheck mean``, ``polar`` and ``check``
inputs, the benchmark traffic, the sweep-run counts and the falsifier
witnesses of ``tools/ab.py --reports``."""

import hashlib
import importlib.util
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from opcheck.campaign import CHECK_IDS, CampaignSpec, Instance, make_instance, run_instance
from opcheck.checks import find_counterexamples_remarks
from opcheck.decompose import svd_square
from opcheck.io import matrix_from_json
from opcheck.posmap import TransposeMap, sample_positivity_falsifier

_SPEC = importlib.util.spec_from_file_location("ab", Path(__file__).resolve().parents[1] / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)


def report(rho, passed=True, failures=0, **extra):
    return json.dumps({
        "certificates": [{"rho_value": r, "pass": passed} for r in rho],
        "summary": {"failures": failures},
        **extra,
    })


def test_json_differences_are_grouped_by_key_path():
    lines = ab.explain_json("c.json", report([0.5, 0.25, 1.0]), report([0.5 * (1 + 1e-13), 0.25 * (1 - 4e-13), 1.0]))
    assert lines == [
        "c.json differs: largest relative difference 4e-13; no pass, failures or witness field changed",
        "  /certificates[*]/rho_value: 2 value(s), largest relative difference 4e-13",
    ]


def test_verdict_fields_are_named():
    base = report([0.5], witnesses={"loewner": {"trial": 1}})
    work = report([0.5], passed=False, failures=1, witnesses={"loewner": {"trial": 2}})
    header = ab.explain_json("c.json", base, work)[0]
    assert header.endswith(
        "verdict fields changed: /certificates[*]/pass, /summary/failures, /witnesses/loewner/trial"
    )


@pytest.mark.parametrize(
    "base, work",
    [(report([0.5]), report([0.5], extra=1)), (report([0.0]), report([-0.0])), (report([1.0]), report([1]))],
    ids=["added_key", "signed_zero", "int_for_float"],
)
def test_every_byte_level_leaf_change_is_a_difference(base, work):
    assert len(ab.explain_json("c.json", base, work)) == 2


def test_formatting_only():
    assert ab.explain_json("c.json", report([0.5]), report([0.5]).replace(", ", ",")) == [
        "c.json differs in formatting only"
    ]


def test_text_names_the_first_differing_line():
    assert ab.explain_text("c.stdout", "a\nb\nexit 0\n", "a\nB\nexit 0\n") == [
        "c.stdout differs at line 2", "  - 'b'", "  + 'B'"
    ]
    assert ab.explain_text("c.stdout", "a\n", "a\nexit 1\n") == ["c.stdout differs at line 2", "  - None", "  + 'exit 1'"]


@pytest.mark.parametrize("label", list(ab.MEAN_PAIRS))
def test_mean_pairs_straddle_the_definiteness_thresholds(label):
    a = matrix_from_json(ab.matrix_obj(ab.MEAN_A))
    b = matrix_from_json(ab.matrix_obj(ab.mean_b(ab.MEAN_PAIRS[label])))
    assert np.allclose(np.linalg.eigvalsh(a), [2 - np.sqrt(2), 2, 2 + np.sqrt(2)], rtol=0, atol=1e-15)
    lam = np.linalg.eigvalsh(b)
    # B's other eigenvalues are 0.1 and 0.2, and tau = 1e-10 exactly
    assert np.allclose(lam[1:], [0.1, 0.2], rtol=0, atol=1e-15)
    assert abs(lam[0] - ab.MEAN_PAIRS[label]) <= 1e-16
    assert 3 * np.abs(b).max() < 1.0


def test_polar_input_is_rank_one():
    assert svd_square(matrix_from_json(ab.matrix_obj(ab.POLAR_Z))).rank == 1


@pytest.mark.parametrize("check_id", CHECK_IDS)
def test_check_instances_meet_the_hypotheses_and_pass(check_id):
    """Every check id runs on its instance to a pass, so the ``check`` files
    carry certificates rather than hypothesis errors."""
    inst = Instance.from_json({**ab.check_instance(check_id), "check_id": check_id})
    outcome = run_instance(inst, CampaignSpec.tolerances)
    assert outcome.passed
    if check_id == "check_eigenvalue_gaps":
        assert outcome.notes == "schur factor variants included"


def test_sweep_runs_are_counted_per_check_id(tmp_path, sweep_runs, monkeypatch):
    """sweep_runs.json holds what the conftest counter sees in the same
    trials, and under graded_mix and theorem_mix in the same ops of
    perfbench/workloads.py."""
    monkeypatch.setattr(ab, "SWEEP_TRIALS", 3)
    monkeypatch.setattr(ab, "SWEEP_SEED", 7)
    monkeypatch.setattr(ab, "SWEEP_GRADED_OPS", 4)
    monkeypatch.setattr(ab, "SWEEP_THEOREM_OPS", 5)
    ab.run_sweep_counts(ab.ROOT, tmp_path)
    assert (tmp_path / "sweep_runs.stdout").read_text() == "exit 0\n"
    counts = json.loads((tmp_path / "sweep_runs.json").read_text())
    assert list(counts) == sorted([*CHECK_IDS, "graded_mix", "theorem_mix"])
    for check_id in CHECK_IDS:
        spec = CampaignSpec(check_id=check_id, seed=7)
        before = len(sweep_runs)
        for trial in range(3):
            run_instance(make_instance(spec, trial), spec.tolerances)
        assert counts[check_id] == len(sweep_runs) - before > 0
    spec = importlib.util.spec_from_file_location("workloads", ab.ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up; it puts the checkout's src first on the path
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec.loader.exec_module(workloads)
    for name, ops in (("graded_mix", 4), ("theorem_mix", 5)):
        workload = workloads.WORKLOADS[name](7)
        before = len(sweep_runs)
        for i in range(ops):
            workloads.run_op(workload, i, time.perf_counter)
        assert counts[name] == len(sweep_runs) - before > 0


def test_search_seeds_are_the_small_search_searches(tmp_path):
    """The find-cex seeds are the searches of small_search ops 0 and 5, whose
    outcome digests the workload script writes from perfbench/workloads.py."""
    ab.run_workload(ab.ROOT, "small_search", 6, tmp_path)
    lines = (tmp_path / "workload_small_search.stdout").read_text().splitlines()
    assert len(lines) == 7 and lines[-1] == "exit 0"
    for op, seed in zip((0, 5), ab.SEARCH_SEEDS):
        rep = find_counterexamples_remarks(trials=10_000, seed=seed, dim=2)
        trials = [w.trial_index for w in rep.witnesses.values()]
        assert lines[op] == f"{op} True True True:{trials}:{rep.worst_rho!r}"


def test_falsifier_witnesses_are_recorded(tmp_path):
    """falsifier.json holds, per map, level and trial count, the witness the
    falsifier returns: the pinned ones of tests/test_posmap.py at level 2,
    found at trial 0 so at every count, none at level 1 and none for the
    Kraus maps."""
    ab.run_falsifier(ab.ROOT, tmp_path)
    assert (tmp_path / "falsifier.stdout").read_text() == "exit 0\n"
    got = json.loads((tmp_path / "falsifier.json").read_text())
    pinned = {
        "transpose_2": "-0x1.52d2272117c3fp+2",
        "transpose_3": "-0x1.60bb46f504afbp+3",
        "transpose_plus_identity_2": "-0x1.3fe297776d8bbp+2",
        "transpose_plus_identity_3": "-0x1.581474b43351bp+3",
    }
    assert ab.FALSIFIER_TRIALS == (200, 1, 137)
    assert sorted(got) == sorted(f"{name}_level_{level}_trials_{trials}" for trials in ab.FALSIFIER_TRIALS
                                 for name in [*pinned, "kraus_0", "kraus_1", "kraus_2"] for level in (1, 2))
    for trials in ab.FALSIFIER_TRIALS:
        for name, value in pinned.items():
            assert got[f"{name}_level_1_trials_{trials}"] is None
            witness = got[f"{name}_level_2_trials_{trials}"]
            assert (witness["trial"], witness["min_output_eigenvalue"]) == (0, value)
        assert all(got[f"kraus_{i}_level_{level}_trials_{trials}"] is None for i in range(3) for level in (1, 2))
        w = sample_positivity_falsifier(TransposeMap(3), 2, trials, ab.FALSIFIER_SEED)
        assert got[f"transpose_3_level_2_trials_{trials}"]["input_sha256"] == hashlib.sha256(
            w.input_matrix.tobytes()).hexdigest()
