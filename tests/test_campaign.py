"""Campaign orchestration tests: spec validation, determinism, instance replay."""

import json
from dataclasses import replace

import numpy as np
import pytest

import opcheck.checks
from opcheck.campaign import (
    CHECK_IDS,
    CampaignSpec,
    Instance,
    make_instance,
    run_campaign,
    run_instance,
    write_report,
)
from opcheck.checks import domination_holds
from opcheck.errors import InvalidSpec
from opcheck.linalg import Tolerance


class TestSpecValidation:
    def test_zero_trials_rejected(self):
        with pytest.raises(InvalidSpec):
            CampaignSpec(check_id="check_russo_dye", trials=0).validate()

    def test_unknown_check_rejected(self):
        with pytest.raises(InvalidSpec):
            CampaignSpec(check_id="check_mystery").validate()

    def test_bad_dims_rejected(self):
        with pytest.raises(InvalidSpec):
            CampaignSpec(check_id="check_russo_dye", n_dims=()).validate()

    def test_json_round_trip(self):
        spec = CampaignSpec(
            check_id="check_geometric_domination",
            n_dims=(2, 3),
            m_dims=(2,),
            trials=7,
            seed=5,
            funpair_kinds=("power",),
            tolerances=Tolerance(abs=1e-8, rel=1e-8, rank_cutoff=1e-12),
        )
        back = CampaignSpec.from_json(spec.to_json())
        assert back.to_json() == spec.to_json()

    def test_json_default_tolerances_match_constructor(self):
        for check_id in CHECK_IDS:
            spec = CampaignSpec.from_json({"check_id": check_id})
            assert spec.tolerances == CampaignSpec(check_id=check_id).tolerances

    def test_partial_json_tolerances_fill_from_spec_default(self):
        payload = {"check_id": "check_russo_dye", "tolerances": {"rank_cutoff": 1e-12}}
        spec = CampaignSpec.from_json(payload)
        assert spec.tolerances == Tolerance(abs=1e-8, rel=1e-8, rank_cutoff=1e-12)


class TestInstances:
    def test_generated_instances_satisfy_hypotheses(self):
        spec = CampaignSpec(check_id="check_geometric_domination", trials=30, seed=11)
        for trial in range(30):
            inst = make_instance(spec, trial)
            assert domination_holds(inst.z, inst.j, inst.funpair, spec.tolerances)

    def test_instance_json_round_trip_replays_identically(self):
        spec = CampaignSpec(check_id="check_geometric_domination", trials=5, seed=3)
        inst = make_instance(spec, 2)
        back = Instance.from_json(json.loads(json.dumps(inst.to_json())))
        a = run_instance(inst, spec.tolerances)
        b = run_instance(back, spec.tolerances)
        assert a.passed == b.passed
        assert a.slack == pytest.approx(b.slack, abs=1e-12)

    def test_split_exponent_cycles_when_unpinned(self):
        spec = CampaignSpec(check_id="check_two_positive_split", trials=10, seed=1)
        exps = {make_instance(spec, t).split_exponent for t in range(10)}
        assert exps == {-1.0, -0.5, 0.0, 0.5, 1.0}

    def test_split_exponent_pinned(self):
        spec = CampaignSpec(check_id="check_two_positive_split", trials=5, seed=1, split_exponent=0.5)
        assert all(make_instance(spec, t).split_exponent == 0.5 for t in range(5))

    def test_russo_instances_are_contractions(self):
        from opcheck.linalg import operator_norm

        spec = CampaignSpec(check_id="check_russo_dye", trials=10, seed=2)
        for t in range(10):
            inst = make_instance(spec, t)
            assert operator_norm(inst.contraction) <= 1 + 1e-12


class TestRunCampaign:
    @pytest.mark.parametrize("check_id", CHECK_IDS)
    def test_small_campaign_clean(self, check_id):
        rep = run_campaign(CampaignSpec(check_id=check_id, trials=20, seed=7))
        assert rep.failures == 0
        assert rep.trials_run == 20
        assert len(rep.outcomes) == 20

    def test_deterministic_reports(self, tmp_path):
        spec = CampaignSpec(check_id="check_arithmetic_domination", trials=10, seed=9)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_report(run_campaign(spec), str(p1))
        write_report(run_campaign(spec), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_report_summary_shape(self):
        rep = run_campaign(CampaignSpec(check_id="check_russo_dye", trials=5, seed=0))
        payload = rep.to_json()
        assert payload["summary"] == {
            "trials": 5,
            "failures": 0,
            "near_misses": rep.near_misses,
            "min_slack": rep.min_slack,
            "seed": 0,
        }
        assert len(payload["certificates"]) == 5


class TestOutcomeProtocol:
    @pytest.mark.parametrize("check_id", CHECK_IDS)
    def test_every_outcome_reports_pass_slack_and_json(self, check_id):
        spec = CampaignSpec(check_id=check_id, trials=1, seed=4)
        result = run_instance(make_instance(spec, 0), spec.tolerances)
        assert isinstance(result.passed, bool)
        assert isinstance(result.slack, float)
        payload = result.to_json()
        assert payload["pass"] == result.passed
        assert json.loads(json.dumps(payload)) == payload

    def test_min_slack_is_smallest_trial_slack(self):
        spec = CampaignSpec(check_id="check_reverse_product", trials=8, seed=5)
        slacks = [run_instance(make_instance(spec, t), spec.tolerances).slack for t in range(8)]
        assert run_campaign(spec).min_slack == min(slacks)

    def test_check_is_looked_up_at_call_time(self, monkeypatch):
        calls = []
        original = opcheck.checks.check_russo_dye

        def spy(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(opcheck.checks, "check_russo_dye", spy)
        spec = CampaignSpec(check_id="check_russo_dye", trials=3, seed=0)
        assert run_campaign(spec).failures == 0
        assert len(calls) == 3

    def test_unknown_check_in_instance_rejected(self):
        spec = CampaignSpec(check_id="check_russo_dye", trials=1, seed=0)
        payload = {**make_instance(spec, 0).to_json(), "check_id": "check_mystery"}
        with pytest.raises(InvalidSpec):
            run_instance(Instance.from_json(payload), spec.tolerances)

    @pytest.mark.parametrize("check_id, key, field", [
        ("check_russo_dye", "A", "contraction"),
        ("check_two_positive_split", "p", "split_exponent"),
        ("check_log_majorization", "funpair", "funpair"),
    ])
    def test_instance_missing_an_argument_is_named(self, check_id, key, field):
        spec = CampaignSpec(check_id=check_id, trials=1, seed=0)
        payload = make_instance(spec, 0).to_json()
        del payload[key]
        with pytest.raises(InvalidSpec, match=field):
            run_instance(Instance.from_json(payload), spec.tolerances)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("trials", 2.7, "trials must be an integer"),
        ("trials", None, "trials must be an integer"),
        ("seed", True, "seed must be an integer"),
        ("n", 5, "n must be a list"),
        ("n", [2, 2.5], "n must be a list, each item an integer"),
        ("m", [True], "m must be a list, each item an integer"),
        ("map_families", "identity", "map_families must be a list"),
        ("funpair_kinds", [["power"]], "funpair_kinds must be a list, each item a string"),
        ("tolerances", [], "tolerances must be an object or null"),
        ("tolerances", {"rel": "1e-8"}, "tolerance rel must be a number"),
        ("output_path", 3, "output_path must be a string or null"),
        ("split_exponent", "0.5", "split_exponent must be a number or null"),
        ("check_id", 5, "check_id must be a string"),
    ],
)
def test_spec_field_of_wrong_json_type_is_invalid(field, value, message):
    with pytest.raises(InvalidSpec, match=message):
        CampaignSpec.from_json({"check_id": "check_russo_dye", field: value})


def test_spec_must_be_an_object():
    with pytest.raises(InvalidSpec):
        CampaignSpec.from_json([{"check_id": "check_russo_dye"}])


def test_instance_fields_are_type_checked():
    payload = make_instance(CampaignSpec(check_id="check_two_positive_split", seed=3), 0).to_json()
    for field, value in (("p", "0.5"), ("check_id", ["check_two_positive_split"])):
        with pytest.raises(ValueError, match=field):
            Instance.from_json({**payload, field: value})
    with pytest.raises(ValueError, match="instance"):
        Instance.from_json([payload])


@pytest.mark.parametrize(
    "extra",
    [{"trails": 10}, {"sead": 4}, {"tolerances": {"rank_cuttoff": 1.0}}],
    ids=["trails", "sead", "tolerance-rank-cuttoff"],
)
def test_spec_rejects_unknown_keys(extra):
    with pytest.raises(InvalidSpec, match="unknown"):
        CampaignSpec.from_json({"check_id": "check_russo_dye", **extra})


def test_instance_rejects_unknown_keys():
    payload = make_instance(CampaignSpec(check_id="check_geometric_domination", seed=3), 0).to_json()
    for extra in ({"contraction": payload["Z"]}, {"funpair": {**payload["funpair"], "q": 2.0}}):
        with pytest.raises(ValueError, match="unknown"):
            Instance.from_json({**payload, **extra})


def test_every_written_object_loads_back(tmp_path):
    for check_id in CHECK_IDS:
        spec = CampaignSpec(check_id=check_id, trials=2, seed=5, split_exponent=0.5, output_path="r.json")
        write_report(run_campaign(spec), str(tmp_path / "report.json"))
        report = json.loads((tmp_path / "report.json").read_text())
        assert CampaignSpec.from_json(report["spec"]) == spec
        for trial in range(2):
            inst = make_instance(spec, trial)
            assert Instance.from_json(json.loads(json.dumps(inst.to_json()))).to_json() == inst.to_json()


class TestFactorizationMemo:
    """make_instance memoizes its Jacobi and SVD factorizations for the one
    trial, and run_instance lets the check reuse them."""

    # Jacobi sweep runs in 100 trials at seed 2026; without the memo they
    # were 1272, 872, 1140, 514, 972, 1028, 972 and 639
    @pytest.mark.parametrize(
        "check_id, runs",
        [
            ("check_geometric_domination", 957),
            ("check_arithmetic_domination", 561),
            ("check_cartesian_suite", 1026),
            ("check_russo_dye", 503),
            ("check_log_majorization", 661),
            ("check_eigenvalue_gaps", 717),
            ("check_reverse_product", 661),
            ("check_two_positive_split", 621),
        ],
    )
    def test_sweep_runs_per_trial_at_seed_2026(self, check_id, runs, sweep_runs):
        spec = CampaignSpec(check_id=check_id, seed=2026)
        for trial in range(100):
            run_instance(make_instance(spec, trial), spec.tolerances)
        assert len(sweep_runs) == runs

    def test_no_reuse_across_instances(self, sweep_runs):
        first = make_instance(CampaignSpec(check_id="check_arithmetic_domination", seed=2026), 3)
        spec = CampaignSpec(check_id="check_log_majorization", seed=2026)
        alone = len(sweep_runs)
        run_instance(make_instance(spec, 3), spec.tolerances)
        alone = len(sweep_runs) - alone
        second = make_instance(spec, 3)
        assert first.z.tobytes() == second.z.tobytes() and first.j.tobytes() == second.j.tobytes()
        run_instance(first, spec.tolerances)
        before = len(sweep_runs)
        run_instance(make_instance(spec, 3), spec.tolerances)
        assert len(sweep_runs) - before == alone > 0

    @pytest.mark.parametrize("check_id", CHECK_IDS)
    def test_replayed_instance_gives_the_same_outcome(self, check_id):
        spec = CampaignSpec(check_id=check_id, seed=2026)
        for trial in range(3):
            inst = make_instance(spec, trial)
            replayed = Instance.from_json(json.loads(json.dumps(inst.to_json())))
            assert inst.memo is not None and replayed.memo is None
            assert (run_instance(replayed, spec.tolerances).to_json()
                    == run_instance(inst, spec.tolerances).to_json())

    def test_memo_is_not_instance_data(self):
        inst = make_instance(CampaignSpec(check_id="check_geometric_domination", seed=1), 0)
        assert inst.memo and "memo" not in repr(inst) and "memo" not in inst.to_json()

    def test_a_replaced_matrix_is_not_answered_by_the_memo(self):
        spec = CampaignSpec(check_id="check_two_positive_split", n_dims=(4,), seed=2026)
        rng = np.random.default_rng(5)
        z = (rng.standard_normal((4, 4)) * np.logspace(0, -9, 4)) @ rng.standard_normal((4, 4))
        inst = make_instance(spec, 0)
        run_instance(inst, spec.tolerances)  # fills the memo with the drawn Z's factors
        swapped = replace(inst, z=z)
        assert swapped.memo is inst.memo
        assert (run_instance(swapped, spec.tolerances).to_json()
                == run_instance(replace(inst, z=z, memo=None), spec.tolerances).to_json())
