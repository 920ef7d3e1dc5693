"""The report explanations, the ``opcheck mean``, ``polar`` and ``check``
inputs, the digest sample, the digest run's lines, sweep-run counts and
falsifier witnesses, and the wrong-output gate of ``tools/ab.py --reports``;
the failed runs of ``tools/ab.py --bench``."""

import argparse
import hashlib
import importlib.util
import json
import shutil
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


# a few ops of each workload, past the first cycle too, at seeds 2026 and 7
SAMPLE = [["small_search", 2026, [0, 1, 2, 3, 4, 5]], ["theorem_mix", 7, [0, 1, 13, 14, 30_001]],
          ["graded_mix", 2026, [0, 1, 2, 3, 17_501]]]


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    """The files of one digest run of this checkout over SAMPLE, with 3
    campaign trials per check id."""
    out = tmp_path_factory.mktemp("digests")
    ab.run_digests(ab.ROOT, out, SAMPLE, sweep_trials=3)
    return out


@pytest.fixture
def workloads(monkeypatch):
    """This checkout's perfbench/workloads.py."""
    spec = importlib.util.spec_from_file_location("workloads", ab.ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up; it puts the checkout's src first on the path
    monkeypatch.setitem(sys.modules, "workloads", module)
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec.loader.exec_module(module)
    return module


def digest_lines(out) -> dict:
    """(workload, seed, op) -> the rest of its digest line."""
    lines = (out / "digests.txt").read_text().splitlines()
    return {(w, int(seed), int(op)): rest for w, seed, op, rest in (line.split(" ", 3) for line in lines)}


def test_the_digest_sample_is_fixed_and_spans_seeds_and_late_ops(workloads):
    sample = ab.digest_sample()
    assert sample == ab.digest_sample()
    seeds = [seed for _, seed, _ in sample]
    assert len(set(seeds)) >= 64 and {2026, *ab.BENCH_SEEDS} <= set(seeds)
    assert sorted((name, seed) for name, seed, _ in sample) == sorted(
        (name, seed) for name in workloads.WORKLOADS for seed in set(seeds))
    assert sum(len(ops) for _, _, ops in sample) <= 49_410
    for name, seed, ops in sample:
        cycle = workloads.WORKLOADS[name].cycle
        assert ab.WORKLOAD_CYCLES[name] == cycle and ops[:cycle] == list(range(cycle))
        assert all(x < y for x, y in zip(ops, ops[1:])) and ops[-1] < 40_000
        # one op from each of 200 equal strata of [cycle, 40,000)
        assert len(ops) == cycle + 200 and sum(op > 17_500 for op in ops) >= 100
    assert max(max(ops) for _, _, ops in sample) > 39_000


def test_sweep_runs_are_counted_per_check_id_and_per_op(digests, sweep_runs, workloads):
    """sweep_runs.json and the digest lines hold what the conftest counter
    sees in the same trials and ops of perfbench/workloads.py."""
    assert (digests / "digests.stdout").read_text() == "exit 0\n"
    counts = json.loads((digests / "sweep_runs.json").read_text())
    assert list(counts) == sorted([*CHECK_IDS, "graded_mix", "theorem_mix"])
    for check_id in CHECK_IDS:
        spec = CampaignSpec(check_id=check_id, seed=ab.SWEEP_SEED)
        before = len(sweep_runs)
        for trial in range(3):
            run_instance(make_instance(spec, trial), spec.tolerances)
        assert counts[check_id] == len(sweep_runs) - before > 0
    lines = digest_lines(digests)
    assert list(lines) == [(name, seed, op) for name, seed, ops in SAMPLE for op in ops]
    totals = dict.fromkeys(counts, 0)
    for name, seed, ops in SAMPLE:
        workload = workloads.WORKLOADS[name](seed)
        for i in ops:
            before = len(sweep_runs)
            _, outcome = workloads.run_op(workload, i, time.perf_counter)
            runs = len(sweep_runs) - before
            assert lines[name, seed, i] == f"{outcome.ok} {outcome.passed} {runs} {outcome.digest}"
            totals[name] = totals.get(name, 0) + runs
    assert counts["graded_mix"] == totals["graded_mix"] > 0
    assert counts["theorem_mix"] == totals["theorem_mix"] > 0


def test_search_seeds_are_the_small_search_searches(digests):
    """The find-cex seeds are the searches of small_search ops 0 and 5 at
    seed 2026, whose outcome digests the digest run writes."""
    lines = digest_lines(digests)
    for op, seed in zip((0, 5), ab.SEARCH_SEEDS):
        rep = find_counterexamples_remarks(trials=10_000, seed=seed, dim=2)
        trials = [w.trial_index for w in rep.witnesses.values()]
        assert lines["small_search", 2026, op].endswith(f" True:{trials}:{rep.worst_rho!r}")


def test_falsifier_witnesses_are_recorded(digests):
    """falsifier.json holds, per map, level and trial count, the witness the
    falsifier returns: the pinned ones of tests/test_posmap.py at level 2,
    found at trial 0 so at every count, none at level 1 and none for the
    Kraus maps. The mixed map at t = 3e-7 has its level-2 witness at trial
    20, past trials the screen clears, so a trial count of 1 misses it; the
    one at t = 2e-7 has none."""
    got = json.loads((digests / "falsifier.json").read_text())
    pinned = {
        "transpose_2": "-0x1.52d2272117c3fp+2",
        "transpose_3": "-0x1.60bb46f504afbp+3",
        "transpose_plus_identity_2": "-0x1.3fe297776d8bbp+2",
        "transpose_plus_identity_3": "-0x1.581474b43351bp+3",
    }
    mixed = ["mixed_transpose_3e-07", "mixed_transpose_2e-07"]
    assert ab.FALSIFIER_TRIALS == (200, 1, 137) and ab.MIXED_TRANSPOSE == (3e-7, 2e-7)
    assert sorted(got) == sorted(f"{name}_level_{level}_trials_{trials}" for trials in ab.FALSIFIER_TRIALS
                                 for name in [*pinned, "kraus_0", "kraus_1", "kraus_2", *mixed] for level in (1, 2))
    for trials in ab.FALSIFIER_TRIALS:
        for name, value in pinned.items():
            assert got[f"{name}_level_1_trials_{trials}"] is None
            witness = got[f"{name}_level_2_trials_{trials}"]
            assert (witness["trial"], witness["min_output_eigenvalue"]) == (0, value)
        assert all(got[f"kraus_{i}_level_{level}_trials_{trials}"] is None for i in range(3) for level in (1, 2))
        assert all(got[f"{name}_level_{level}_trials_{trials}"] is None for name in mixed for level in (1, 2)
                   if (name, level, trials) not in {(mixed[0], 2, 200), (mixed[0], 2, 137)})
    for trials in (200, 137):
        witness = got[f"{mixed[0]}_level_2_trials_{trials}"]
        assert (witness["trial"], witness["min_output_eigenvalue"]) == (20, "-0x1.453c8fa68d0c0p-20")
        w = sample_positivity_falsifier(TransposeMap(3), 2, trials, ab.FALSIFIER_SEED)
        assert got[f"transpose_3_level_2_trials_{trials}"]["input_sha256"] == hashlib.sha256(
            w.input_matrix.tobytes()).hexdigest()


# a perfbench/workloads.py whose theorem_mix op 1 raises a ValueError, op 2 is a wrong output and op 3
# a FAIL verdict that is right, as graded_mix records them
STUB_WORKLOADS = '''
import collections
Outcome = collections.namedtuple("Outcome", "ok passed digest")
class Stub:
    def __init__(self, seed):
        self.seed = seed
WORKLOADS = {"theorem_mix": Stub}
def run_op(workload, i, clock):
    if i == 1:
        raise ValueError("matrix contains non-finite entries")
    return 0.0, Outcome(ok=i != 2, passed=i not in (2, 3), digest=f"{i not in (2, 3)}:0.5")
'''


def test_a_raising_op_is_recorded_and_every_wrong_output_fails_the_gate(tmp_path, monkeypatch, capsys):
    tree, out = tmp_path / "tree", tmp_path / "out"
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "workloads.py").write_text(STUB_WORKLOADS)
    (tree / "src").symlink_to(ab.ROOT / "src")
    out.mkdir()
    ab.run_digests(tree, out, [["theorem_mix", 31, [0, 1, 2, 3]]], sweep_trials=0)
    assert (out / "digests.stdout").read_text() == "exit 0\n"
    wrong = ["theorem_mix 31 1 False False 0 ValueError('matrix contains non-finite entries')",
             "theorem_mix 31 2 False False 0 False:0.5"]
    assert (out / "digests.txt").read_text().splitlines() == [
        "theorem_mix 31 0 True True 0 True:0.5", *wrong, "theorem_mix 31 3 True False 0 False:0.5"]
    assert ab.wrong_outputs(out) == wrong

    # both trees agree, and the gate still fails
    monkeypatch.setattr(ab, "write_reports", lambda tree, dest: shutil.copytree(out, dest))
    assert ab.compare_reports(tree, tree) == 1
    assert capsys.readouterr().out.splitlines() == [
        *(f"{side}: wrong output: {line}" for side in ("base", "work") for line in wrong),
        "4 wrong outputs in the digest sample", "all 5 files identical"]

    (out / "digests.stdout").write_text("Traceback (most recent call last):\nexit 1\n")
    assert ab.wrong_outputs(out) == [*wrong, "digest run ended with 'exit 1'"]


# a benchmark command that prints the next of its tree's values.json as
# ops_per_s, or for null fails with 50 lines of stdout and one of stderr
STUB_BENCH = '''
import json, pathlib, sys
path = pathlib.Path("values.json")
values = json.loads(path.read_text())
path.write_text(json.dumps(values[1:]))
if values[0] is None:
    print("\\n".join(f"line {i}" for i in range(50)))
    sys.exit("worker exited with status 1")
print(json.dumps({"correct": True, "attempted": 10, "failed": 0, "metrics": {"ops_per_s": {"value": values[0]}}}))
'''


def test_a_failing_bench_run_is_kept_and_the_medians_take_the_finished_runs(tmp_path, monkeypatch, capsys):
    base, work = tmp_path / "base", tmp_path / "work"
    for tree, values in ((base, [100, 100, 100]), (work, [None, 120, 130])):
        tree.mkdir()
        (tree / "stub.py").write_text(STUB_BENCH)
        (tree / "values.json").write_text(json.dumps(values))
    (work / "BENCHMARK.json").write_text(json.dumps({
        "command": [sys.executable, "stub.py"], "run_seconds": 1, "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "ops_per_s", "better": "higher", "bound": 0.25}], "per_layer": []}))
    monkeypatch.setattr(ab, "ROOT", work)
    monkeypatch.setattr(ab, "git", lambda *args: "")
    args = argparse.Namespace(rev="r", bench=3, seed=5, out=str(tmp_path / "BENCH.json"))
    assert ab.bench(base, "abc", args) == 1
    doc = json.loads((tmp_path / "BENCH.json").read_text())["workloads"]["w"]
    assert [run["failed"] for run in doc["runs"]] == [["work"], [], []]
    assert doc["runs"][0]["work"] == {"exit": 1, "stdout_tail": [f"line {i}" for i in range(10, 50)],
                                      "stderr_tail": ["worker exited with status 1"]}
    summary = doc["summary"]["ops_per_s"]
    assert (summary["base_median"], summary["work_median"]) == (100, 125)
    assert (summary["work_wins"], summary["base_wins"]) == (2, 0)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "w pair 0: ops_per_s 100.0 -> exit 1"
    assert "w             work: 1 of 3 runs failed" in lines
