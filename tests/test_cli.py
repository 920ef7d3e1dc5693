"""CLI surface tests, run in-process through main()."""

import json
import math
import types

import numpy as np
import pytest

import opcheck.campaign
from opcheck.campaign import CHECK_IDS, CampaignSpec, make_instance, run_campaign, write_report
from opcheck.cli import main
from opcheck.io import dump_json, matrix_from_json, matrix_to_json


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


SHIFT_JSON = {"rows": 2, "cols": 2, "data": [[0, 0], [4, 0], [1, 0], [0, 0]]}


class TestRepro:
    def test_example_2_8(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["repro", "example-2.8", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "25.000000000000" in stdout and "16.000000000000" in stdout
        payload = json.loads(out.read_text())
        assert payload["pass"] is True

    def test_sharpness(self, tmp_path, capsys):
        assert main(["repro", "sharpness", "--k", "4"]) == 0
        stdout = capsys.readouterr().out
        assert "rho = 4" in stdout and "sqrt(k) = 2" in stdout

    @pytest.mark.parametrize("k", ["0.5", "inf", "nan"])
    def test_sharpness_weight_outside_its_domain_exits_2(self, capsys, k):
        assert main(["repro", "sharpness", "--k", k]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: k must be a finite number >= 1") and captured.out == ""

    def test_cartesian_cex(self, capsys):
        assert main(["repro", "cartesian-cex", "--trials", "3000"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_cartesian_cex_is_find_cex_at_the_default_seed(self, tmp_path, capsys):
        outputs = []
        for args in (["repro", "cartesian-cex"], ["find-cex", "--seed", "2026"]):
            out = tmp_path / "cex.json"
            assert main([*args, "--trials", "3000", "--out", str(out)]) == 0
            outputs.append((out.read_bytes(), capsys.readouterr().out))
        assert outputs[0] == outputs[1]
        payload = json.loads(outputs[0][0])
        assert payload["seed"] == 2026 and payload["dim"] == 2
        assert matrix_from_json(payload["witnesses"]["plain_norm"]["Z"]).shape == (2, 2)
        assert outputs[0][1].count(" at trial ") == 3


class TestFindCex:
    def test_writes_witnesses(self, tmp_path):
        out = tmp_path / "cex.json"
        assert main(["find-cex", "--trials", "3000", "--seed", "5", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        z = matrix_from_json(payload["witnesses"]["loewner"]["Z"])
        assert z.shape == (2, 2)
        assert payload["pass"] is True

    def test_exhaustion_exit_code(self, capsys):
        assert main(["find-cex", "--trials", "1", "--seed", "1"]) == 2
        assert "error" in capsys.readouterr().err

    def test_seed_option(self):
        # seed 1's first draw is clean, so a single-trial search exhausts
        assert main(["find-cex", "--trials", "1", "--seed", "1"]) == 2
        assert main(["find-cex", "--trials", "2000", "--seed", "3"]) == 0

    @pytest.mark.parametrize("n", ["1", "0", "-1"])
    def test_dimension_below_two_exits_2(self, capsys, n):
        assert main(["find-cex", "--trials", "10", "--n", n]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: dim must be >= 2, got {n}: ") and captured.out == ""

    def test_negative_seed_exits_2(self, capsys):
        assert main(["find-cex", "--trials", "10", "--seed", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be >= 0, got -3\n" and captured.out == ""

    def test_dimension_four(self):
        assert main(["find-cex", "--trials", "3000", "--seed", "2", "--n", "4"]) == 0


class TestMatrixCommands:
    def test_mean(self, tmp_path):
        a = write(tmp_path / "a.json", matrix_to_json(np.diag([2.0, 8.0])))
        b = write(tmp_path / "b.json", matrix_to_json(np.diag([8.0, 2.0])))
        out = tmp_path / "m.json"
        assert main(["mean", "--a", a, "--b", b, "--out", str(out)]) == 0
        mean = matrix_from_json(json.loads(out.read_text())["mean"])
        assert np.allclose(mean, 4 * np.eye(2))

    def test_polar(self, tmp_path):
        z = write(tmp_path / "z.json", SHIFT_JSON)
        out = tmp_path / "p.json"
        assert main(["polar", "--in", z, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert np.allclose(matrix_from_json(payload["unitary"]), [[0, 1], [1, 0]])
        assert np.allclose(matrix_from_json(payload["modulus"]), np.diag([1.0, 4.0]))


class TestCheckCommand:
    def test_pass_and_certificate(self, tmp_path, capsys):
        inst = {
            "phi": {"family": "identity", "params": {"dim": 2}},
            "Z": SHIFT_JSON,
            "J": matrix_to_json(4.0 * np.eye(2)),
            "funpair": {"kind": "power", "p": 0.0},
        }
        path = write(tmp_path / "inst.json", inst)
        out = tmp_path / "cert.json"
        code = main(["check", "check_geometric_domination", "--in", path, "--out", str(out)])
        assert code == 0
        assert "PASS" in capsys.readouterr().out
        cert = json.loads(out.read_text())
        assert cert["pass"] is True and cert["used_singular_mean_limit"] is False

    def test_russo_instance(self, tmp_path):
        inst = {
            "phi": {"family": "schur_multiplier", "params": {"factor": matrix_to_json(np.eye(2))}},
            "A": matrix_to_json(0.5 * np.eye(2)),
        }
        path = write(tmp_path / "inst.json", inst)
        assert main(["check", "check_russo_dye", "--in", path]) == 0

    def test_split_instance(self, tmp_path):
        inst = {
            "phi": {"family": "identity", "params": {"dim": 2}},
            "Z": SHIFT_JSON,
            "p": 0.5,
        }
        path = write(tmp_path / "inst.json", inst)
        out = tmp_path / "cert.json"
        assert main(["check", "check_two_positive_split", "--in", path, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["pass"] is True

    @pytest.mark.parametrize(
        "flags, config, expected",
        [
            ([], None, (1e-8, 1e-8, 6e-12)),
            (["--tol", "1e-7"], None, (1e-7, 1e-7, 6e-12)),
            (["--config", "{c}"], {"rank_cutoff": 1e-10}, (1e-8, 1e-8, 1e-10)),
            (["--config", "{c}", "--tol", "1e-7"], {"rel": 1e-6}, (1e-7, 1e-6, 6e-12)),
        ],
        ids=["none", "tol", "partial-config", "config-and-tol"],
    )
    def test_tolerances_default_to_the_campaign_ones(self, tmp_path, flags, config, expected):
        # the fields no flag gives are the campaign's, whatever the output size (3 here)
        inst = {
            "phi": {"family": "identity", "params": {"dim": 3}},
            "A": matrix_to_json(0.5 * np.eye(3)),
        }
        path = write(tmp_path / "inst.json", inst)
        cfg = write(tmp_path / "cfg.json", config) if config is not None else None
        out = tmp_path / "cert.json"
        flags = [flag.format(c=cfg) for flag in flags]
        assert main(["check", "check_russo_dye", "--in", path, *flags, "--out", str(out)]) == 0
        tolerances = json.loads(out.read_text())["tolerances"]
        assert (tolerances["abs"], tolerances["rel"], tolerances["rank_cutoff"]) == expected

    def test_hypothesis_violation_is_an_error(self, tmp_path, capsys):
        inst = {
            "phi": {"family": "identity", "params": {"dim": 2}},
            "Z": matrix_to_json(3.0 * np.eye(2)),
            "J": matrix_to_json(np.eye(2)),
            "funpair": {"kind": "power", "p": 0.0},
        }
        path = write(tmp_path / "inst.json", inst)
        assert main(["check", "check_geometric_domination", "--in", path]) == 2
        assert "error" in capsys.readouterr().err


IDENTITY_2 = {"family": "identity", "params": {"dim": 2}}
HALF_I = {"rows": 2, "cols": 2, "data": [[0.5, 0], [0, 0], [0, 0], [0.5, 0]]}


@pytest.mark.parametrize(
    "command, files",
    [
        (["check", "check_russo_dye", "--in", "{x}"],
         {"x": {"phi": {"family": "identity", "params": {"dim": 2.5}}, "A": HALF_I}}),
        (["check", "check_russo_dye", "--in", "{x}"], {"x": '{"phi": '}),
        (["check", "check_russo_dye", "--in", "{x}"],
         {"x": {"phi": IDENTITY_2, "A": {"rows": 2, "cols": 2, "data": [[0.5, 0]]}}}),
        (["check", "check_russo_dye", "--in", "{x}"], {"x": {"phi": IDENTITY_2}}),
        (["check", "check_russo_dye", "--in", "{x}"], {"x": {"A": HALF_I}}),
        (["check", "check_russo_dye", "--in", "{x}"], {}),
        (["campaign", "--spec", "{x}"], {"x": {"check_id": "check_russo_dye", "trials": "x"}}),
        (["mean", "--a", "{x}", "--b", "{y}"], {"x": HALF_I, "y": {"rows": 2, "cols": 2, "data": []}}),
        (["polar", "--in", "{x}"], {"x": "[1, 2"}),
        (["campaign", "--spec", "{x}"], {"x": {"check_id": "check_russo_dye", "trials": None}}),
        (["campaign", "--spec", "{x}"], {"x": {"check_id": "check_russo_dye", "n": 5}}),
        (["campaign", "--spec", "{x}"], {"x": {"check_id": "check_russo_dye", "tolerances": {"abs": None}}}),
        (["campaign", "--spec", "{x}"], {"x": {"check_id": "check_russo_dye", "trials": 2.7}}),
        (["campaign", "--spec", "{x}"], {"x": {"check_id": "check_russo_dye", "seed": True}}),
        (["campaign", "--spec", "{x}"], {"x": {"check_id": "check_russo_dye", "map_families": "identity"}}),
        (["polar", "--in", "{x}"], {"x": {"rows": None, "cols": 2, "data": []}}),
        (["polar", "--in", "{x}"], {"x": {"rows": 1, "cols": 2, "data": [1.0, 2.0]}}),
        (["polar", "--in", "{x}"], {"x": [HALF_I]}),
        (["check", "check_geometric_domination", "--in", "{x}"],
         {"x": {"phi": IDENTITY_2, "Z": HALF_I, "J": HALF_I, "funpair": {"kind": "power", "p": None}}}),
        (["check", "check_russo_dye", "--in", "{x}"],
         {"x": {"phi": IDENTITY_2, "A": {"rows": 1, "cols": 1, "data": [[1.0]]}}}),
        (["check", "check_russo_dye", "--in", "{x}"], {"x": [IDENTITY_2, HALF_I]}),
    ],
    ids=["non-integer-dim", "bad-json", "short-data", "missing-A", "missing-phi", "missing-file",
         "trials-not-int", "short-mean-operand", "bad-polar-json",
         "trials-null", "n-not-list", "tolerance-null", "trials-float", "seed-bool", "families-string",
         "rows-null", "bare-number-data", "polar-top-level-list",
         "funpair-p-null", "one-number-pair", "check-top-level-list"],
)
def test_malformed_input_exits_with_status_2(tmp_path, capsys, command, files):
    paths = {"x": str(tmp_path / "x.json"), "y": str(tmp_path / "y.json")}
    for name, content in files.items():
        (tmp_path / f"{name}.json").write_text(content if isinstance(content, str) else json.dumps(content))
    assert main([arg.format(**paths) for arg in command]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("seed", [7, 2026])
@pytest.mark.parametrize("check_id", CHECK_IDS)
def test_campaign_trials_replay_to_their_certificates(tmp_path, check_id, seed):
    """``opcheck check`` with no tolerance flag runs at the campaign's
    tolerances, so each trial's instance replays to the report's
    certificate, byte for byte."""
    spec = CampaignSpec(check_id=check_id, trials=10, seed=seed)
    report = run_campaign(spec)
    assert report.trials_run == 10 and report.failures == 0
    inst, cert, expected = (tmp_path / name for name in ("inst.json", "cert.json", "expected.json"))
    for trial, certificate in enumerate(report.outcomes):
        write(inst, make_instance(spec, trial).to_json())
        assert main(["check", check_id, "--in", str(inst), "--out", str(cert)]) == 0
        dump_json(certificate, str(expected))
        assert cert.read_bytes() == expected.read_bytes()


class TestCampaignCommand:
    def test_campaign_runs_and_reports(self, tmp_path, capsys):
        spec = {
            "check_id": "check_russo_dye",
            "n": [2, 3],
            "m": [2, 3],
            "trials": 10,
            "seed": 4,
        }
        path = write(tmp_path / "spec.json", spec)
        out = tmp_path / "report.json"
        assert main(["campaign", "--spec", path, "--out", str(out)]) == 0
        assert "PASS" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["summary"]["failures"] == 0

    @staticmethod
    def reference_stdout(report):
        """The summary the campaign command printed from the report's fields
        before the report printed itself."""
        status = "PASS" if report.failures == 0 else "FAIL"
        text = (
            f"campaign {report.spec.check_id}: {status} "
            f"({report.trials_run} trials, {report.failures} failures, "
            f"{report.near_misses} near misses, min slack {report.min_slack:+.3e})\n"
        )
        if report.aborted_instance is not None:
            text += "first failing instance kept in report for replay\n"
        return text

    @pytest.mark.parametrize("failing_trial", [None, 3])
    def test_the_report_prints_and_writes_itself(self, tmp_path, capsys, monkeypatch, failing_trial):
        run = opcheck.campaign.run_instance
        calls = []

        def failing_run(inst, tol):
            result = run(inst, tol)
            calls.append(1)
            if len(calls) != failing_trial:
                return result
            return types.SimpleNamespace(passed=False, slack=-0.25, to_json=lambda: {"pass": False})

        monkeypatch.setattr(opcheck.campaign, "run_instance", failing_run)
        spec = {"check_id": "check_geometric_domination", "trials": 6, "seed": 4}
        report = run_campaign(CampaignSpec.from_json(spec))
        assert report.passed is (failing_trial is None)
        write_report(report, str(tmp_path / "expected.json"))
        calls.clear()
        out = tmp_path / "report.json"
        assert main(["campaign", "--spec", write(tmp_path / "spec.json", spec), "--out", str(out)]) == (
            0 if failing_trial is None else 1
        )
        assert capsys.readouterr().out == self.reference_stdout(report)
        assert out.read_bytes() == (tmp_path / "expected.json").read_bytes()

    def test_the_spec_output_path_receives_the_report(self, tmp_path, capsys):
        out = tmp_path / "from_spec.json"
        spec = {"check_id": "check_russo_dye", "trials": 3, "seed": 4, "output_path": str(out)}
        assert main(["campaign", "--spec", write(tmp_path / "spec.json", spec)]) == 0
        assert json.loads(out.read_text())["summary"]["trials"] == 3
        assert capsys.readouterr().out.startswith("campaign check_russo_dye: PASS (3 trials, 0 failures, ")

    def test_invalid_spec_exit_code(self, tmp_path, capsys):
        path = write(tmp_path / "spec.json", {"check_id": "check_russo_dye", "trials": 0})
        assert main(["campaign", "--spec", path]) == 2
        assert "error" in capsys.readouterr().err

    def test_negative_seed_exit_code(self, tmp_path, capsys):
        path = write(tmp_path / "spec.json", {"check_id": "check_russo_dye", "seed": -1})
        assert main(["campaign", "--spec", path]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be >= 0, got -1\n" and captured.out == ""


@pytest.mark.parametrize(
    "command, files",
    [
        (["campaign", "--spec", "{x}"], {"x": {"check_id": "check_russo_dye", "trails": 10}}),
        (["campaign", "--spec", "{x}"],
         {"x": {"check_id": "check_russo_dye", "tolerances": {"rank_cuttoff": 1.0}}}),
        (["check", "check_russo_dye", "--in", "{x}"], {"x": {"phi": IDENTITY_2, "A": HALF_I, "a": HALF_I}}),
        (["check", "check_russo_dye", "--in", "{x}"],
         {"x": {"phi": {"family": "transpose", "params": {"dim": -2}}, "A": HALF_I}}),
        (["check", "check_russo_dye", "--in", "{x}"],
         {"x": {"phi": {"family": "partial_trace_2x2", "params": {"block_dim": 0}}, "A": HALF_I}}),
        (["mean", "--a", "{x}", "--b", "{x}", "--config", "{y}"], {"x": HALF_I, "y": {"abs": 1e-8, "rel_": 1e-8}}),
    ],
    ids=["spec-trails", "spec-rank-cuttoff", "instance-unknown-key", "transpose-negative-dim",
         "partial-trace-zero-block", "config-unknown-key"],
)
def test_unknown_keys_and_out_of_range_params_exit_with_status_2(tmp_path, capsys, command, files):
    paths = {"x": str(tmp_path / "x.json"), "y": str(tmp_path / "y.json")}
    for name, content in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(content))
    assert main([arg.format(**paths) for arg in command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and ("unknown" in err or "must be >= 1" in err)


SPLIT_INSTANCE = {"phi": IDENTITY_2, "Z": SHIFT_JSON, "p": 0.5}


@pytest.mark.parametrize(
    "command, files",
    [
        (["campaign", "--spec", "{x}"], {"x": '{"check_id": "check_russo_dye", "tolerances": {"abs": Infinity}}'}),
        (["campaign", "--spec", "{x}"], {"x": '{"check_id": "check_two_positive_split", "split_exponent": NaN}'}),
        (["campaign", "--spec", "{x}"], {"x": '{"check_id": "check_russo_dye", "tolerances": {"rel": 1e400}}'}),
        (["campaign", "--spec", "{x}"], {"x": {"check_id": "check_russo_dye", "map_families": []}}),
        (["campaign", "--spec", "{x}"], {"x": {"check_id": "check_log_majorization", "funpair_kinds": []}}),
        (["campaign", "--spec", "{x}"],
         {"x": {"check_id": "check_two_positive_split", "map_families": ["transpose_plus_identity"]}}),
        (["check", "check_two_positive_split", "--in", "{x}", "--tol", "inf"], {"x": SPLIT_INSTANCE}),
        (["check", "check_two_positive_split", "--in", "{x}", "--tol", "nan"], {"x": SPLIT_INSTANCE}),
        (["check", "check_two_positive_split", "--in", "{x}", "--config", "{y}"],
         {"x": SPLIT_INSTANCE, "y": '{"abs": Infinity}'}),
        (["check", "check_two_positive_split", "--in", "{x}"],
         {"x": json.dumps({**SPLIT_INSTANCE, "p": math.nan})}),
        (["check", "check_geometric_domination", "--in", "{x}"],
         {"x": json.dumps({"phi": IDENTITY_2, "Z": HALF_I, "J": HALF_I,
                           "funpair": {"kind": "power", "rho": -math.inf}})}),
        (["mean", "--a", "{x}", "--b", "{x}", "--tol", "inf"], {"x": HALF_I}),
    ],
    ids=["spec-abs-infinity", "spec-split-nan", "spec-rel-1e400", "spec-no-families", "spec-no-funpair-kinds",
         "split-spec-no-cp-family", "check-tol-inf", "check-tol-nan", "check-config-infinity",
         "instance-p-nan", "funpair-rho-minus-infinity", "mean-tol-inf"],
)
def test_non_finite_numbers_and_empty_choices_exit_with_a_one_line_error(tmp_path, capsys, command, files):
    paths = {"x": str(tmp_path / "x.json"), "y": str(tmp_path / "y.json")}
    for name, content in files.items():
        (tmp_path / f"{name}.json").write_text(content if isinstance(content, str) else json.dumps(content))
    assert main([arg.format(**paths) for arg in command]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert any(word in captured.err for word in ("finite", "nonempty", "completely positive"))
    assert captured.out == ""
